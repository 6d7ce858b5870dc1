"""Poisson brackets of quadratic forms and induced fields on the orbit space.

A quadratic form f(z) = sum c z_i z_j on R^8 is stored as its canonical
monomial list: (c, i, j) with i <= j, sorted, exact rational c, zero
terms dropped.  That is the representation the invariant tables use, so
the generators enter the engine unchanged and equal forms compare equal.
Brackets close on this class and every identity below is checked
without rounding.  Invariant forms decompose uniquely over the generator
set.

poisson_bracket and decompose are the general engine, for any forms,
and the reference the generator algebra is tested against.  The algebra
itself is read from one integer tensor: structure_constants() takes the
generators' Hessians (invariants.hessian_entries), whose Gram matrix is
8 I, brackets them as matrices and projects back, so
{G_a, G_b} = sum_k T[a, b, k] G_k / 8.
The induced vector fields and the so(4) report contract that tensor,
the one reader of the algebra.  A verbatim transcription of the
reference component table ships alongside the regenerated one, and
discrepancies are reported, never silently edited.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from .invariants import (GEN_MONOMIALS, GENERATOR_GRAM, GENERATOR_NAMES, PI_FROM_GEN_MATRIX,
                         PI_MONOMIALS, K, L, combine_monomials, hessian_entries)

_DIM = 8


def _gradient(f: tuple) -> list:
    """df/dz_k for k = 0..7, each a linear form as a list of (c, l): sum c z_l."""
    grad = [[] for _ in range(_DIM)]
    for c, i, j in f:
        grad[i].append((c, j))
        grad[j].append((c, i))
    return grad


def poisson_bracket(f: tuple, g: tuple) -> tuple:
    """Bracket {f, g} = sum_i (df/dq_i dg/dp_i - df/dp_i dg/dq_i).

    f and g are monomial lists, canonical or not.  The gradients of
    quadratic forms are linear forms, read off the monomials (a diagonal
    term c z_i^2 contributes c z_i twice); the bracket is the sum of
    their products, canonicalised.
    """
    df, dg = _gradient(f), _gradient(g)
    products = []
    for k in range(4):
        for left, right, sign in ((df[k], dg[k + 4], 1), (df[k + 4], dg[k], -1)):
            products.extend((sign * c * d, l, m) for c, l in left for d, m in right)
    return combine_monomials({0: 1}, (products,))


def linear_combination(coeffs: dict) -> tuple:
    """Sum of coeff * generator over a {name: coeff} dict, as a canonical list."""
    return combine_monomials(coeffs, GEN_MONOMIALS)


class DecompositionError(ValueError):
    """Raised when a form is not a combination of the 16 generators."""


# The pi monomials have disjoint supports, so the coefficient of pi_k in
# an invariant form is its coefficient on the first monomial c z_i z_j of
# pi_k, divided by c.  Those first monomials have i <= j, as the
# canonical terms do.
_PI_PROBES = tuple(((i, j), Fraction(c)) for (c, i, j), *_ in PI_MONOMIALS)


def decompose(form) -> dict:
    """Express an invariant quadratic form, a monomial list, over the generators.

    Returns {generator name: rational coefficient} with zero entries
    omitted.  The pi coefficients are read off the form and mapped
    through PI_FROM_GEN_MATRIX; the result is then expanded again and
    compared with the form.  Raises DecompositionError if the form lies
    outside the span, which is how non-invariant forms announce
    themselves.
    """
    form = combine_monomials({0: 1}, (form,))
    on_pair = {(i, j): c for c, i, j in form}
    pi = [on_pair.get(pair, 0) / div for pair, div in _PI_PROBES]
    coeffs = (sum(c * p for c, p in zip(pi, column) if c and p)
              for column in zip(*PI_FROM_GEN_MATRIX))
    named = {n: c for n, c in zip(GENERATOR_NAMES, coeffs) if c != 0}
    if linear_combination(named) != form:
        raise DecompositionError(
            "form is not a linear combination of the invariant generators"
        )
    return named


def _hessian_stack() -> np.ndarray:
    """The (16, 8, 8) float64 Hessians of GEN_MONOMIALS, read on each call.

    Raises DecompositionError unless every entry is 0 or +-1, which
    keeps every sum in structure_constants() an exact float64 integer.
    """
    # Flat rows of 64 take each entry with one integer index, cheaper than m[g, i, j].
    m = np.zeros((len(GENERATOR_NAMES), _DIM * _DIM))
    for row, name in zip(m, GENERATOR_NAMES):
        for i, j, v in hessian_entries(GEN_MONOMIALS[name]):
            if v.denominator != 1 or v.numerator not in (-1, 1):
                raise DecompositionError(
                    "a generator Hessian is not an integer matrix of 0s and +-1s")
            row[_DIM * i + j] = v.numerator
    return m.reshape(-1, _DIM, _DIM)


def structure_constants() -> np.ndarray:
    """The generator algebra as one (16, 16, 16) integer tensor T.

    {G_a, G_b} = sum_k T[a, b, k] G_k / 8, with indices in
    GENERATOR_NAMES order.  The Hessian M_a of each generator has
    entries 0 and +-1, and the bracket of two quadratic forms has the
    Hessian H_ab = M_a J M_b - M_b J M_a, with {f, g} = grad f . J grad g
    in z = (q, p).  The Hessians have the Gram matrix 8 I, so
    T[a, b, k] = <M_k, H_ab>.  The tensor is then expanded back, and
    DecompositionError is raised unless sum_k T[a, b, k] M_k equals
    8 H_ab for every pair.  Built on each call.

    The three contractions are 2-D float64 products of integers:
    |H| <= 16, |T| <= 2^10 and every partial sum of the check stays
    below 2^14, so each is exact in any summation order, and the check
    is an exact comparison.
    """
    m = _hessian_stack()
    n = len(m)
    # M J swaps the q and p columns of M and negates the new q half.
    mj = np.concatenate((-m[..., _DIM // 2:], m[..., :_DIM // 2]), axis=-1)
    # mjm[a, i, b, j] = (M_a J M_b)[i, j]
    mjm = (mj.reshape(-1, _DIM) @ m.transpose(1, 0, 2).reshape(_DIM, -1)).reshape(n, _DIM, n, _DIM)
    h = (mjm - mjm.transpose(2, 1, 0, 3)).transpose(0, 2, 1, 3).reshape(n * n, -1)
    flat = m.reshape(n, -1)
    t = h @ flat.T
    if not np.array_equal(t @ flat, GENERATOR_GRAM * h):
        raise DecompositionError(
            "a generator bracket is not a linear combination of the generators"
        )
    return t.astype(np.int64).reshape(n, n, n)


def _named(vector, den: int = GENERATOR_GRAM) -> dict:
    """{generator: Fraction(v, den)} for the nonzero entries v of an integer 16-vector."""
    return {name: Fraction(v, den) for name, v in zip(GENERATOR_NAMES, vector.tolist()) if v}


def format_linear(coeffs: dict, order=GENERATOR_NAMES) -> str:
    """Render a {name: coeff} dict as a canonical expression string.

    Terms follow the given name order, and names outside it are left
    out; "0" for the empty combination.
    """
    parts = []
    for name in sorted((n for n, c in coeffs.items() if c != 0 and n in order), key=order.index):
        c = coeffs[name]
        mag = c if isinstance(c, Fraction) else Fraction(c)
        positive = mag > 0
        if not positive:
            mag = -mag
        term = name if mag == 1 else f"{mag}*{name}"
        if not parts:
            parts.append(term if positive else f"-{term}")
        else:
            parts.append(f" + {term}" if positive else f" - {term}")
    return "".join(parts) if parts else "0"


# so(4) structure: bracket of basis pairs against the expected targets.
_SO4_EXPECTED = (
    ("K1", "K2", {"L3": 2}),
    ("K1", "K3", {"L2": -2}),
    ("K2", "K3", {"L1": 2}),
    ("L1", "L2", {"L3": 2}),
    ("L1", "L3", {"L2": -2}),
    ("L2", "L3", {"L1": 2}),
    ("K1", "L1", {}),
    ("K1", "L2", {"K3": 2}),
    ("K1", "L3", {"K2": -2}),
    ("K2", "L1", {"K3": -2}),
    ("K2", "L2", {}),
    ("K2", "L3", {"K1": 2}),
    ("K3", "L1", {"K2": 2}),
    ("K3", "L2", {"K1": -2}),
    ("K3", "L3", {}),
)

_EPS = {(1, 2): (3, 1), (1, 3): (2, -1), (2, 3): (1, 1)}


def verify_so4_relations() -> dict:
    """Check the bracket table of (K, L) and the split basis (xi, eta).

    Returns {"so4": [...], "xi_eta": [...]}.  Each so4 row carries the
    expected and computed right-hand sides with a match flag.  Each
    xi_eta row carries the computed scale factor next to the documented
    one (1, -1, 0), with a flag saying whether they agree; the computed
    factors are 2, -2, 0, and the report keeps both without editing.
    Every bracket is a contraction of structure_constants().
    """
    t = structure_constants()
    index = GENERATOR_NAMES.index
    so4_rows = []
    for a, b, expected in _SO4_EXPECTED:
        computed = _named(t[index(a), index(b)])
        so4_rows.append({
            "pair": f"{{{a},{b}}}",
            "expected": format_linear(expected),
            "computed": format_linear(computed),
            "match": computed == {k: Fraction(v) for k, v in expected.items()},
        })

    # Rows i = 0..2 of xi and eta are the integral vectors 2 xi_i = K_i + L_i
    # and 2 eta_i = K_i - L_i, so {x_i / 2, y_j / 2} = (x T y)[i, j] / 32.
    unit = np.eye(len(GENERATOR_NAMES), dtype=np.int64)
    xi, eta = unit[K] + unit[L], unit[K] - unit[L]
    xi_eta_rows = []
    for family, basis, doc in (("xi", xi, 1), ("eta", eta, -1)):
        brackets = np.einsum("ia,jb,abk->ijk", basis, basis, t)
        for (i, j), (k, eps) in _EPS.items():
            b, w = brackets[i - 1, j - 1], eps * basis[k - 1]
            # The factor f in {xi_i, xi_j} = f eps xi_k is (b / 32) / (w / 2)
            # on the K_k entry, kept only if b is that multiple of w throughout.
            on_k = index(f"K{k}")
            factor = Fraction(int(b[on_k]), 16 * int(w[on_k]))
            if not np.array_equal(b * w[on_k], b[on_k] * w):
                factor = None
            name_k = f"{family}{k}"
            xi_eta_rows.append({
                "pair": f"{{{family}{i},{family}{j}}}",
                "computed": format_linear(
                    {name_k: factor * eps} if factor else {}, order=(name_k,)
                ),
                "factor": float(factor) if factor is not None else None,
                "documented_factor": float(doc),
                "matches_documented": factor == doc,
            })
    cross = np.einsum("ia,jb,abk->ijk", xi, eta, t)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            br = _named(cross[i - 1, j - 1], 4 * GENERATOR_GRAM)
            factor = None if br else Fraction(0)
            xi_eta_rows.append({
                "pair": f"{{xi{i},eta{j}}}",
                "computed": format_linear(br),
                "factor": float(factor) if factor is not None else None,
                "documented_factor": 0.0,
                "matches_documented": factor == 0,
            })
    return {"so4": so4_rows, "xi_eta": xi_eta_rows}


def _induced_field(t, g: int) -> dict:
    """{coordinate c: {generator k: T[c, g, k] / 8}} over the nonzero entries of T[:, g]."""
    column = t[:, g]
    coords, ks = np.nonzero(column)
    field = {}
    for c, k, v in zip(coords.tolist(), ks.tolist(), column[coords, ks].tolist()):
        field.setdefault(GENERATOR_NAMES[c], {})[GENERATOR_NAMES[k]] = Fraction(v, GENERATOR_GRAM)
    return field


def induced_vector_field(name: str) -> dict:
    """Induced field on the orbit space of one generator G.

    Returns {coordinate: {generator: coefficient}}: the component on
    coordinate c is the bracket {c, G} over the generators, read from
    structure_constants(): T[c, G] / 8.  Only nonzero components are
    present.
    """
    return _induced_field(structure_constants(), GENERATOR_NAMES.index(name))


def regenerated_induced_field_table() -> dict:
    """All 16 induced fields as {generator: {coordinate: expression}}."""
    t = structure_constants()
    return {
        name: {c: format_linear(coeffs) for c, coeffs in _induced_field(t, g).items()}
        for g, name in enumerate(GENERATOR_NAMES)
    }


# Verbatim transcription of the reference component table for the
# induced fields.  Kept exactly as printed, including entries that the
# bracket computation contradicts; reference_table_diff() reports the
# discrepancies instead of editing them away.
REFERENCE_INDUCED_FIELD_TABLE: dict = {
    "K1": {"K2": "-2*L3", "K3": "2*L2", "L2": "-2*K3", "L3": "2*K2",
           "U1": "-2*U2", "U2": "2*U2", "V1": "-2*V2", "V2": "2*V1"},
    "K2": {"K1": "2*L3", "K3": "-2*L1", "L1": "2*K3", "L3": "-2*K1",
           "U1": "-2*U3", "U3": "2*U1", "V1": "-2*V3", "V3": "2*V1"},
    "K3": {"K1": "-2*L2", "K2": "2*L1", "L1": "-2*K2", "L2": "2*K1",
           "U1": "-2*U4", "U4": "2*U1", "V1": "-2*V4", "V4": "2*V1"},
    "L1": {"K2": "-2*K3", "K3": "2*K2", "L2": "-2*L3", "L3": "2*L2",
           "U3": "-2*U4", "U4": "2*U3", "V3": "-2*V4", "V4": "2*V3"},
    "L2": {"K1": "2*K3", "K3": "-2*K1", "L1": "2*L3", "L3": "-2*L1",
           "U2": "2*U4", "U4": "-2*U2", "V2": "2*V4", "V4": "-2*V2"},
    "L3": {"K1": "-2*K2", "K2": "2*K1", "L1": "-2*L2", "L2": "2*L1",
           "U2": "-2*U3", "U3": "2*U2", "V2": "-2*V3", "V3": "2*V2"},
    "H2": {"U1": "2*V1", "U2": "2*V2", "U3": "2*V3", "U4": "2*V4",
           "V1": "-2*U1", "V2": "-2*U2", "V3": "-2*U3", "V4": "-2*U4"},
    "Xi": {},
    "U1": {"K1": "2*U2", "K2": "2*U3", "K3": "2*U4", "H2": "-2*V1",
           "U2": "2*K1", "U3": "2*K2", "U4": "2*K3", "V1": "-2*H2"},
    "U2": {"K1": "-2*U1", "L2": "-2*U4", "L3": "2*U3", "H2": "-2*V2",
           "U1": "-2*K2", "U3": "2*L1", "U4": "-2*L2", "V2": "-2*H2"},
    "U3": {"K2": "-2*U1", "L1": "2*U4", "L3": "2*U2", "H2": "-2*V3",
           "U1": "-2*K2", "U2": "-2*L1", "U4": "-2*V3", "V4": "-2*H2"},
    "U4": {"K1": "-2*U1", "L1": "-2*U3", "L2": "2*U2", "H2": "-2*V4",
           "U1": "-2*K3", "U2": "2*L2", "U3": "2*V3", "V4": "-2*H2"},
    "V1": {"K1": "2*V2", "L2": "-2*V4", "L3": "2*V3", "H2": "2*U2",
           "U2": "2*H2", "V2": "2*K1", "V3": "2*K2", "V4": "2*U4"},
    "V2": {"K1": "-2*V1", "L2": "-2*V4", "L3": "2*V3", "H2": "2*U2",
           "U2": "-2*H2", "V1": "-2*K1", "V3": "2*L3", "V4": "-2*L2"},
    "V3": {"K2": "-2*V1", "L1": "2*V4", "L3": "-2*V2", "H2": "2*U3",
           "U3": "2*H2", "V1": "-2*K2", "V3": "-2*L3", "V4": "2*L1"},
    "V4": {"K3": "-2*V1", "L1": "-2*V3", "L2": "2*V2", "H2": "2*U4",
           "U4": "2*H2", "V1": "-2*U4", "V2": "2*L2", "V3": "-2*L1"},
}


def reference_table_diff() -> list:
    """Audit of transcribed vs regenerated induced-field components.

    One row per component that is nonzero on either side, with a match
    flag; rows with match False are the transcription's discrepancies.
    """
    regenerated = regenerated_induced_field_table()
    rows = []
    for name in GENERATOR_NAMES:
        trans = REFERENCE_INDUCED_FIELD_TABLE[name]
        regen = regenerated[name]
        for coord in GENERATOR_NAMES:
            t = trans.get(coord, "0")
            r = regen.get(coord, "0")
            if t == "0" and r == "0":
                continue
            rows.append({
                "field": f"Y_{name}",
                "component": coord,
                "transcribed": t,
                "regenerated": r,
                "match": t == r,
            })
    return rows
