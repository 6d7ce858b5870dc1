"""Poisson brackets of quadratic forms and induced fields on the orbit space.

A quadratic form f(z) = z^T A z / 2 on R^8 is stored by its symmetric
coefficient matrix A with exact rational entries, so brackets close on
this class and every identity below is checked without rounding.
Invariant forms decompose uniquely over the generator set; that is how
the induced vector fields on the orbit space are computed.  A verbatim
transcription of the reference component table ships alongside the
regenerated one, and discrepancies are reported, never silently edited.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .invariants import (GEN_MONOMIALS, GENERATOR_NAMES, PI_FROM_GEN_TABLE, PI_MONOMIALS,
                         PI_NAMES)

_DIM = 8


def _matmul(a, b):
    out = [[Fraction(0)] * _DIM for _ in range(_DIM)]
    for i in range(_DIM):
        row = a[i]
        for k in range(_DIM):
            aik = row[k]
            if aik:
                brow = b[k]
                orow = out[i]
                for j in range(_DIM):
                    if brow[j]:
                        orow[j] += aik * brow[j]
    return out


@dataclass(frozen=True)
class QuadraticForm:
    """Quadratic form f(z) = z^T a z / 2 with symmetric rational matrix a."""

    a: tuple

    @classmethod
    def from_monomials(cls, monomials) -> "QuadraticForm":
        """Build from (coeff, i, j) terms meaning coeff * z_i * z_j."""
        m = [[Fraction(0)] * _DIM for _ in range(_DIM)]
        for c, i, j in monomials:
            c = Fraction(c)
            if i == j:
                m[i][i] += 2 * c
            else:
                m[i][j] += c
                m[j][i] += c
        return cls(tuple(tuple(row) for row in m))

    @classmethod
    def zero(cls) -> "QuadraticForm":
        return cls(tuple(tuple([Fraction(0)] * _DIM) for _ in range(_DIM)))

    def scaled(self, c) -> "QuadraticForm":
        c = Fraction(c)
        return QuadraticForm(tuple(tuple(c * v for v in row) for row in self.a))

    def __add__(self, other: "QuadraticForm") -> "QuadraticForm":
        return QuadraticForm(tuple(
            tuple(x + y for x, y in zip(r1, r2))
            for r1, r2 in zip(self.a, other.a)
        ))

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.a for v in row)

    def upper_vector(self) -> tuple:
        """The 36 entries a[i][j] with i <= j, in row-major order."""
        return tuple(self.a[i][j] for i in range(_DIM) for j in range(i, _DIM))


def poisson_bracket(f: QuadraticForm, g: QuadraticForm) -> QuadraticForm:
    """Bracket {f, g} = sum_i (df/dq_i dg/dp_i - df/dp_i dg/dq_i).

    For f = z^T A z / 2 and g = z^T B z / 2 the bracket is the quadratic
    form with matrix A J B - B J A, J = [[0, I], [-I, 0]] in (q, p)
    order.  With A, B symmetric and J antisymmetric that is M + M^T for
    M = (A J) B, and A J is A with its q and p column blocks swapped and
    the new q block negated.
    """
    aj = [[-v for v in row[4:]] + list(row[:4]) for row in f.a]
    m = _matmul(aj, g.a)
    return QuadraticForm(tuple(
        tuple(m[i][j] + m[j][i] for j in range(_DIM)) for i in range(_DIM)
    ))


GENERATOR_FORMS: dict[str, QuadraticForm] = {
    name: QuadraticForm.from_monomials(GEN_MONOMIALS[name])
    for name in GENERATOR_NAMES
}


def linear_combination(coeffs: dict) -> QuadraticForm:
    """Sum of coeff * generator over a {name: coeff} dict."""
    total = QuadraticForm.zero()
    for name, c in coeffs.items():
        total = total + GENERATOR_FORMS[name].scaled(c)
    return total


class DecompositionError(ValueError):
    """Raised when a form is not a combination of the 16 generators."""


# The pi monomials have disjoint supports, so the coefficient of pi_k in
# an invariant form is its coefficient on the first monomial c z_i z_j of
# pi_k, divided by c: a[i][j] / c off the diagonal, a[i][i] / (2c) on it.
_PI_PROBES = tuple(
    (name, i, j, Fraction(c * (2 if i == j else 1)))
    for name, ((c, i, j), *_) in zip(PI_NAMES, PI_MONOMIALS)
)


def decompose(form: QuadraticForm) -> dict:
    """Express an invariant quadratic form over the generators.

    Returns {generator name: rational coefficient} with zero entries
    omitted.  The pi coefficients are read off the form and mapped
    through PI_FROM_GEN_TABLE; the result is then expanded again and
    compared with the form.  Raises DecompositionError if the form lies
    outside the span, which is how non-invariant forms announce
    themselves.
    """
    coeffs: dict[str, Fraction] = {}
    for name, i, j, div in _PI_PROBES:
        c = form.a[i][j] / div
        if c:
            for gen, p in PI_FROM_GEN_TABLE[name].items():
                coeffs[gen] = coeffs.get(gen, 0) + c * p
    named = {n: coeffs[n] for n in GENERATOR_NAMES if coeffs.get(n, 0) != 0}
    if linear_combination(named).upper_vector() != form.upper_vector():
        raise DecompositionError(
            "form is not a linear combination of the invariant generators"
        )
    return named


def format_linear(coeffs: dict, order=GENERATOR_NAMES) -> str:
    """Render a {name: coeff} dict as a canonical expression string.

    Terms follow the given name order; "0" for the empty combination.
    """
    parts = []
    for name in order:
        c = coeffs.get(name, 0)
        if c == 0:
            continue
        mag = abs(Fraction(c))
        term = name if mag == 1 else f"{mag}*{name}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f" + {term}" if c > 0 else f" - {term}")
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


def _xi_form(i: int) -> QuadraticForm:
    return linear_combination({f"K{i}": Fraction(1, 2), f"L{i}": Fraction(1, 2)})


def _eta_form(i: int) -> QuadraticForm:
    return linear_combination({f"K{i}": Fraction(1, 2), f"L{i}": Fraction(-1, 2)})


def verify_so4_relations() -> dict:
    """Check the bracket table of (K, L) and the split basis (xi, eta).

    Returns {"so4": [...], "xi_eta": [...]}.  Each so4 row carries the
    expected and computed right-hand sides with a match flag.  Each
    xi_eta row carries the computed scale factor next to the documented
    one (1, -1, 0), with a flag saying whether they agree; the computed
    factors are 2, -2, 0, and the report keeps both without editing.
    """
    so4_rows = []
    for a, b, expected in _SO4_EXPECTED:
        computed = decompose(
            poisson_bracket(GENERATOR_FORMS[a], GENERATOR_FORMS[b])
        )
        so4_rows.append({
            "pair": f"{{{a},{b}}}",
            "expected": format_linear(expected),
            "computed": format_linear(computed),
            "match": computed == {k: Fraction(v) for k, v in expected.items()},
        })

    xi = {i: _xi_form(i) for i in (1, 2, 3)}
    eta = {i: _eta_form(i) for i in (1, 2, 3)}
    xi_eta_rows = []

    def _proportional_factor(bracket: QuadraticForm, target: QuadraticForm):
        tv = target.upper_vector()
        bv = bracket.upper_vector()
        lead = next((k for k, v in enumerate(tv) if v != 0), None)
        if lead is None:
            return Fraction(0) if bracket.is_zero() else None
        factor = bv[lead] / tv[lead]
        if target.scaled(factor).upper_vector() != bv:
            return None
        return factor

    for family, forms, doc in (("xi", xi, 1), ("eta", eta, -1)):
        for (i, j), (k, eps) in _EPS.items():
            br = poisson_bracket(forms[i], forms[j])
            factor = _proportional_factor(br, forms[k].scaled(eps))
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
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            br = poisson_bracket(xi[i], eta[j])
            factor = Fraction(0) if br.is_zero() else None
            xi_eta_rows.append({
                "pair": f"{{xi{i},eta{j}}}",
                "computed": "0" if br.is_zero() else format_linear(decompose(br)),
                "factor": float(factor) if factor is not None else None,
                "documented_factor": 0.0,
                "matches_documented": factor == 0,
            })
    return {"so4": so4_rows, "xi_eta": xi_eta_rows}


@dataclass(frozen=True)
class InducedVectorField:
    """Vector field on the orbit space induced by a generator function.

    The component on coordinate c is the bracket {c, G}, expressed over
    the generators.  Only nonzero components are stored.
    """

    generator: str
    components: dict

    def expression(self, coord: str) -> str:
        return format_linear(self.components.get(coord, {}))

    def expressions(self) -> dict:
        """Canonical strings for all 16 coordinates, zeros included."""
        return {c: self.expression(c) for c in GENERATOR_NAMES}


def induced_vector_field(name: str) -> InducedVectorField:
    """Induced field of one generator, one decomposed bracket per coordinate."""
    g = GENERATOR_FORMS[name]
    components = {}
    for coord in GENERATOR_NAMES:
        br = poisson_bracket(GENERATOR_FORMS[coord], g)
        if not br.is_zero():
            components[coord] = decompose(br)
    return InducedVectorField(generator=name, components=components)


def regenerated_induced_field_table() -> dict:
    """All 16 induced fields as {generator: {coordinate: expression}}."""
    table = {}
    for name in GENERATOR_NAMES:
        field = induced_vector_field(name)
        table[name] = {
            c: field.expression(c) for c in GENERATOR_NAMES if c in field.components
        }
    return table


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
