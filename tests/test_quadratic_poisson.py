"""Bracket engine, decomposition, and induced fields.

Oracle: symbolic differentiation via sympy, built from longhand
generator polynomials, checked against the monomial bracket for every
generator pair, and built from random monomial lists for arbitrary
forms.  Known discrepancies of the transcribed reference table are
frozen here after hand verification of a sample.
"""
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ksreg import quadratic_poisson
from ksreg.invariants import (GEN_MONOMIALS, GENERATOR_NAMES, PI_MONOMIALS, combine_monomials,
                              hessian_entries)
from ksreg.quadratic_poisson import (
    DecompositionError,
    decompose,
    format_linear,
    induced_vector_field,
    linear_combination,
    poisson_bracket,
    reference_table_diff,
    regenerated_induced_field_table,
    structure_constants,
    verify_so4_relations,
)

_Z = sympy.symbols("q1 q2 q3 q4 p1 p2 p3 p4")
q1, q2, q3, q4, p1, p2, p3, p4 = _Z
_HALF = sympy.Rational(1, 2)

# Longhand generator polynomials, written independently of the package
# monomial tables.
_SYM_GENERATORS = {
    "K1": -(q1 * q3 + q2 * q4 + p1 * p3 + p2 * p4),
    "K2": -(q1 * q4 - q2 * q3 + p1 * p4 - p2 * p3),
    "K3": _HALF * (q3**2 + q4**2 + p3**2 + p4**2 - q1**2 - q2**2 - p1**2 - p2**2),
    "L1": q4 * p1 - q3 * p2 + q2 * p3 - q1 * p4,
    "L2": q1 * p3 + q2 * p4 - q3 * p1 - q4 * p2,
    "L3": q3 * p4 - q4 * p3 + q2 * p1 - q1 * p2,
    "H2": _HALF * (q1**2 + q2**2 + q3**2 + q4**2 + p1**2 + p2**2 + p3**2 + p4**2),
    "Xi": q1 * p2 - q2 * p1 + q3 * p4 - q4 * p3,
    "U1": -(q1 * p1 + q2 * p2 + q3 * p3 + q4 * p4),
    "U2": q1 * q3 + q2 * q4 - p1 * p3 - p2 * p4,
    "U3": q1 * q4 - q2 * q3 - p1 * p4 + p2 * p3,
    "U4": _HALF * (q1**2 + q2**2 - q3**2 - q4**2 - p1**2 - p2**2 + p3**2 + p4**2),
    "V1": _HALF * (q1**2 + q2**2 + q3**2 + q4**2 - p1**2 - p2**2 - p3**2 - p4**2),
    "V2": q1 * p3 + q2 * p4 + q3 * p1 + q4 * p2,
    "V3": q1 * p4 - q2 * p3 + q4 * p1 - q3 * p2,
    "V4": q1 * p1 + q2 * p2 - q3 * p3 - q4 * p4,
}


def _sym_bracket(f, g):
    qs, ps = _Z[:4], _Z[4:]
    return sympy.expand(sum(
        sympy.diff(f, qi) * sympy.diff(g, pi) - sympy.diff(f, pi) * sympy.diff(g, qi)
        for qi, pi in zip(qs, ps)
    ))


def _monomials_to_sym(monomials):
    return sympy.expand(sum(
        (sympy.Rational(c.numerator, c.denominator) * _Z[i] * _Z[j] for c, i, j in monomials),
        sympy.Integer(0),
    ))


def _canonical(monomials) -> tuple:
    return combine_monomials({0: 1}, (monomials,))


def _sum(*forms) -> tuple:
    return combine_monomials(dict.fromkeys(range(len(forms)), 1), forms)


def _reference_a(form) -> tuple:
    """The Hessian as first built: each term added twice into Fraction zeros."""
    m = [[Fraction(0)] * 8 for _ in range(8)]
    for c, i, j in form:
        m[i][j] += c
        m[j][i] += c
    return tuple(tuple(row) for row in m)


def _entry_matrix(form) -> tuple:
    """The matrix hessian_entries(form) describes, each entry written once into Fraction zeros."""
    m = [[Fraction(0)] * 8 for _ in range(8)]
    written = set()
    for i, j, a in hessian_entries(form):
        assert (i, j) not in written and a != 0, (form, i, j, a)
        written.add((i, j))
        m[i][j] = a
    return tuple(tuple(row) for row in m)


def _reference_structure_constants() -> np.ndarray:
    """The tensor from the Fraction Hessians by a stacked matmul and int64 einsums."""
    m = np.array([[[int(v) for v in row] for row in _reference_a(GEN_MONOMIALS[name])]
                  for name in GENERATOR_NAMES], dtype=np.int64)
    j = np.kron([[0, 1], [-1, 0]], np.eye(4, dtype=np.int64))
    h = (m @ j)[:, None] @ m[None]
    h = h - h.transpose(1, 0, 2, 3)
    t = np.einsum("kij,abij->abk", m, h)
    assert np.array_equal(np.einsum("abk,kij->abij", t, m), 8 * h)
    return t


coeff_st = st.fractions(min_value=-4, max_value=4, max_denominator=8)


def _reference_format_linear(coeffs: dict, order=GENERATOR_NAMES) -> str:
    """format_linear as first written: a walk over the whole order."""
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


# Coefficients of every kind format_linear renders, zeros included, under
# names from the generators, the split basis and outside both.
linear_coeff_st = st.one_of(
    st.integers(-5, 5), coeff_st, st.just(Fraction(0)), st.just(0.0),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)
linear_names_st = st.sampled_from(GENERATOR_NAMES + ("xi1", "eta3", "X"))

# Arbitrary monomial lists (coeff, i, j) over z = (q, p): any order, i > j
# allowed, repeats allowed, most of them not invariant.
monomials_st = st.lists(
    st.tuples(coeff_st, st.integers(0, 7), st.integers(0, 7)), max_size=8
)


class TestBracketEngine:
    def test_all_pairs_match_symbolic_oracle(self):
        """The bracket equals the differentiation bracket, all 256 pairs."""
        grads = {
            n: [sympy.diff(e, v) for v in _Z] for n, e in _SYM_GENERATORS.items()
        }
        for a in GENERATOR_NAMES:
            for b in GENERATOR_NAMES:
                oracle = sympy.expand(sum(
                    grads[a][i] * grads[b][i + 4] - grads[a][i + 4] * grads[b][i]
                    for i in range(4)
                ))
                computed = _monomials_to_sym(
                    poisson_bracket(GEN_MONOMIALS[a], GEN_MONOMIALS[b])
                )
                assert sympy.expand(oracle - computed) == 0, (a, b)

    @given(monomials_st, monomials_st)
    @settings(max_examples=40, deadline=None)
    def test_arbitrary_forms_match_symbolic_oracle(self, f, g):
        """The bracket of any two quadratic forms, invariant or not."""
        computed = poisson_bracket(_canonical(f), _canonical(g))
        oracle = _sym_bracket(_monomials_to_sym(f), _monomials_to_sym(g))
        assert sympy.expand(_monomials_to_sym(computed) - oracle) == 0
        assert computed == _canonical(computed) == poisson_bracket(f, g)

    def test_antisymmetry_all_pairs(self):
        for a in GENERATOR_NAMES:
            for b in GENERATOR_NAMES:
                fa, fb = GEN_MONOMIALS[a], GEN_MONOMIALS[b]
                assert _sum(poisson_bracket(fa, fb), poisson_bracket(fb, fa)) == ()

    def test_jacobi_identity_sampled_triples(self):
        rng = np.random.default_rng(3)
        names = list(GENERATOR_NAMES)
        for _ in range(40):
            a, b, c = (names[i] for i in rng.integers(0, 16, size=3))
            fa, fb, fc = (GEN_MONOMIALS[n] for n in (a, b, c))
            cyclic = _sum(
                poisson_bracket(fa, poisson_bracket(fb, fc)),
                poisson_bracket(fb, poisson_bracket(fc, fa)),
                poisson_bracket(fc, poisson_bracket(fa, fb)),
            )
            assert cyclic == (), (a, b, c)

    def test_bracket_closes_on_generator_span(self):
        """Every pairwise bracket decomposes without residual."""
        for a in GENERATOR_NAMES:
            for b in GENERATOR_NAMES:
                decompose(poisson_bracket(GEN_MONOMIALS[a], GEN_MONOMIALS[b]))


class TestStructureConstants:
    """The integer tensor against the term engine, and the algebra it encodes."""

    def test_every_pair_is_the_reference_decomposition(self):
        t = structure_constants()
        assert t.shape == (16, 16, 16) and t.dtype.kind == "i"
        for a, name_a in enumerate(GENERATOR_NAMES):
            for b, name_b in enumerate(GENERATOR_NAMES):
                reference = decompose(
                    poisson_bracket(GEN_MONOMIALS[name_a], GEN_MONOMIALS[name_b]))
                row = {GENERATOR_NAMES[k]: Fraction(int(c), 8)
                       for k, c in enumerate(t[a, b]) if c}
                assert row == reference, (name_a, name_b)

    def test_antisymmetric(self):
        t = structure_constants()
        assert np.array_equal(t, -t.transpose(1, 0, 2))

    def test_jacobi_identity_in_integers(self):
        """{{a, b}, c} + {{b, c}, a} + {{c, a}, b} = 0 for all 4096 triples.

        Entries are at most 16 in size, so the int64 sums stay below 2^14.
        """
        t = structure_constants()
        assert np.abs(t).max() <= 16
        cyclic = (np.einsum("abm,mck->abck", t, t) + np.einsum("bcm,mak->abck", t, t)
                  + np.einsum("cam,mbk->abck", t, t))
        assert not cyclic.any()

    def test_center_is_exactly_xi(self):
        """Xi brackets to zero, and no other direction does: the rest has rank 15."""
        t = structure_constants()
        xi = GENERATOR_NAMES.index("Xi")
        assert not t[xi].any()
        assert sympy.Matrix(t.reshape(16, -1).tolist()).rank() == 15

    def test_equals_the_fraction_matrix_reference(self):
        t = structure_constants()
        assert t.dtype.kind == "i"
        assert np.array_equal(t, _reference_structure_constants())

    def test_killing_form_has_signature_8_7_and_radical_xi(self):
        """tr(ad_a ad_b) = sum T[a, c, k] T[b, k, c] / 64, exactly 32 diag(s).

        s is -1 on K1..L3 and H2, 0 on Xi and +1 on U1..V4: the form has
        signature (8, 7), its radical is the center {Xi}, and the compact
        part so(4) + span{H2} is negative definite.
        """
        t = structure_constants()
        sign = {name: -1 for name in ("K1", "K2", "K3", "L1", "L2", "L3", "H2")}
        sign.update({name: 1 for name in ("U1", "U2", "U3", "U4", "V1", "V2", "V3", "V4")})
        sign["Xi"] = 0
        diag = [sign[name] for name in GENERATOR_NAMES]
        killing_64 = np.einsum("ack,bkc->ab", t, t)
        assert np.array_equal(killing_64, 2048 * np.diag(diag))
        assert (diag.count(1), diag.count(-1)) == (8, 7)

    def test_derived_algebra_has_dimension_15(self):
        """The brackets {G_a, G_b} span the 15 directions other than Xi."""
        t = structure_constants()
        assert sympy.Matrix(t.reshape(256, 16).tolist()).rank() == 15
        assert not t[:, :, GENERATOR_NAMES.index("Xi")].any()

    def test_induced_fields_match_the_reference_engine(self):
        for name in GENERATOR_NAMES:
            reference = {}
            for coord in GENERATOR_NAMES:
                br = poisson_bracket(GEN_MONOMIALS[coord], GEN_MONOMIALS[name])
                if br:
                    reference[coord] = decompose(br)
            assert induced_vector_field(name) == reference, name

    def test_a_form_outside_the_algebra_is_rejected(self, monkeypatch):
        monkeypatch.setitem(GEN_MONOMIALS, "K1", ((Fraction(1), 0, 4),))  # q1*p1 alone
        with pytest.raises(DecompositionError, match="linear combination"):
            structure_constants()
        monkeypatch.setitem(GEN_MONOMIALS, "K1", ((Fraction(1, 2), 0, 4),))
        with pytest.raises(DecompositionError, match="integer"):
            structure_constants()


class TestCanonicalForm:
    """combine_monomials' canonical list and the one Hessian rule, hessian_entries."""

    @given(monomials_st, st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_permuted_duplicated_and_cancelling_lists_build_equal_forms(self, terms, rnd):
        form = _canonical(terms)
        permuted = list(terms)
        rnd.shuffle(permuted)
        flipped = [(c, j, i) for c, i, j in permuted]
        halved = [(c / 2, i, j) for c, i, j in terms for _ in range(2)]
        cancelling = terms + [(Fraction(3), 1, 6), (Fraction(-3), 6, 1)]
        for other in (permuted, flipped, halved, cancelling):
            assert _canonical(other) == form
        pairs = [(i, j) for _, i, j in form]
        assert pairs == sorted(set(pairs))
        assert all(i <= j and c != 0 for c, i, j in form)
        assert _monomials_to_sym(form) == _monomials_to_sym(terms)

    @given(monomials_st, st.lists(coeff_st, min_size=8, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_matrix_is_half_the_hessian(self, terms, z):
        """f(z) = z^T a z / 2 for the matrix of the Hessian entries."""
        value = sum(c * z[i] * z[j] for c, i, j in terms)
        a = _entry_matrix(_canonical(terms))
        assert sum(z[i] * a[i][j] * z[j] for i in range(8) for j in range(8)) == 2 * value
        assert all(a[i][j] == a[j][i] for i in range(8) for j in range(8))

    @given(monomials_st)
    @settings(max_examples=40, deadline=None)
    def test_matrix_is_the_fraction_reference(self, terms):
        form = _canonical(terms)
        assert _entry_matrix(form) == _reference_a(form)
        assert all(type(a) is Fraction for _, _, a in hessian_entries(form))

    def test_generator_matrices_are_the_fraction_reference(self):
        for name, form in GEN_MONOMIALS.items():
            assert _entry_matrix(form) == _reference_a(form), name
            assert all(type(a) is Fraction for _, _, a in hessian_entries(form)), name

    def test_pi_matrices_are_the_reference(self):
        """PI_MONOMIALS is not built by combine_monomials, but names each pair once."""
        for monomials in PI_MONOMIALS:
            assert _entry_matrix(monomials) == _reference_a(monomials), monomials


class TestDecompose:
    def test_each_generator_is_its_own_decomposition(self):
        for name in GENERATOR_NAMES:
            assert decompose(GEN_MONOMIALS[name]) == {name: 1}
            flipped = [(c, j, i) for c, i, j in reversed(GEN_MONOMIALS[name])]
            assert decompose(flipped) == {name: 1}

    @given(st.dictionaries(st.sampled_from(GENERATOR_NAMES), coeff_st, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_linear_combination_round_trip(self, coeffs):
        recovered = decompose(linear_combination(coeffs))
        assert recovered == {k: v for k, v in coeffs.items() if v != 0}

    def test_non_invariant_form_is_rejected(self):
        with pytest.raises(DecompositionError):
            decompose(((Fraction(1), 0, 4),))  # q1*p1 alone

    def test_format_linear(self):
        assert format_linear({}) == "0"
        assert format_linear({"K3": Fraction(-2)}) == "-2*K3"
        assert format_linear({"L2": Fraction(1), "K1": Fraction(-1, 2)}) \
            == "-1/2*K1 + L2"

    @given(st.dictionaries(linear_names_st, linear_coeff_st, max_size=8),
           st.one_of(st.none(), st.permutations(GENERATOR_NAMES + ("xi1", "eta3")),
                     st.lists(linear_names_st, unique=True, max_size=6)))
    @settings(max_examples=200, deadline=None)
    def test_format_linear_is_the_reference(self, coeffs, order):
        """Same string as the walk over the order, for any coefficient kind and name set."""
        if order is None:
            assert format_linear(coeffs) == _reference_format_linear(coeffs)
        else:
            order = tuple(order)
            assert format_linear(coeffs, order) == _reference_format_linear(coeffs, order)

    def test_every_rendered_table_entry_is_the_reference(self, monkeypatch):
        """All 120 regenerated components and both so(4) tables, call by call."""
        calls = []

        def checked(coeffs, order=GENERATOR_NAMES):
            out = format_linear(coeffs, order)
            assert out == _reference_format_linear(coeffs, order), (coeffs, order)
            calls.append(out)
            return out

        monkeypatch.setattr(quadratic_poisson, "format_linear", checked)
        table = regenerated_induced_field_table()
        assert len(calls) == sum(len(field) for field in table.values()) == 120
        so4 = verify_so4_relations()
        assert len(calls) == 120 + 2 * len(so4["so4"]) + len(so4["xi_eta"])


class TestSo4Report:
    def test_all_so4_rows_match(self):
        rows = verify_so4_relations()["so4"]
        assert len(rows) == 15
        assert all(r["match"] for r in rows)
        by_pair = {r["pair"]: r for r in rows}
        assert by_pair["{K1,K2}"]["computed"] == "2*L3"
        assert by_pair["{K2,L1}"]["computed"] == "-2*K3"
        assert by_pair["{K1,L1}"]["computed"] == "0"

    def test_xi_eta_factor_report(self):
        rows = verify_so4_relations()["xi_eta"]
        assert len(rows) == 15
        by_pair = {r["pair"]: r for r in rows}
        for pair in ("{xi1,xi2}", "{xi1,xi3}", "{xi2,xi3}"):
            assert by_pair[pair]["factor"] == 2.0
            assert by_pair[pair]["documented_factor"] == 1.0
            assert not by_pair[pair]["matches_documented"]
        for pair in ("{eta1,eta2}", "{eta1,eta3}", "{eta2,eta3}"):
            assert by_pair[pair]["factor"] == -2.0
            assert by_pair[pair]["documented_factor"] == -1.0
            assert not by_pair[pair]["matches_documented"]
        cross = [r for r in rows if "eta" in r["pair"] and "xi" in r["pair"]]
        assert len(cross) == 9
        for r in cross:
            assert r["factor"] == 0.0
            assert r["matches_documented"]
            assert r["computed"] == "0"

    def test_every_row_is_the_term_engine_bracket(self):
        """Each row's string, factor and flag, from decompose(poisson_bracket(...))."""
        def bracket(f, g):
            return decompose(poisson_bracket(linear_combination(f), linear_combination(g)))

        report = verify_so4_relations()
        for row in report["so4"]:
            a, b = row["pair"][1:-1].split(",")
            assert row["computed"] == format_linear(bracket({a: 1}, {b: 1})), row
            assert row["match"] == (row["computed"] == row["expected"]), row

        half = Fraction(1, 2)
        split = {}
        for i in (1, 2, 3):
            split[f"xi{i}"] = {f"K{i}": half, f"L{i}": half}
            split[f"eta{i}"] = {f"K{i}": half, f"L{i}": -half}
        eps = {(1, 2): 1, (1, 3): -1, (2, 3): 1}
        for row in report["xi_eta"]:
            x, y = row["pair"][1:-1].split(",")
            br = bracket(split[x], split[y])
            family, i, j = x[:-1], int(x[-1]), int(y[-1])
            if family != y[:-1]:
                factor = None if br else 0
                assert (row["computed"], row["documented_factor"]) == (format_linear(br), 0.0)
            else:
                # {x_i, x_j} = c x_k, and x_k has the coefficient 1/2 on K_k.
                k = 6 - i - j
                c = 2 * br.get(f"K{k}", 0)
                assert linear_combination(br) == linear_combination(
                    {n: c * v for n, v in split[f"{family}{k}"].items()}), row
                factor = c / eps[i, j]
                assert row["computed"] == format_linear(
                    {f"{family}{k}": c}, order=(f"{family}{k}",)), row
                assert row["documented_factor"] == {"xi": 1.0, "eta": -1.0}[family]
            assert row["factor"] == (None if factor is None else float(factor)), row
            assert row["matches_documented"] == (factor == row["documented_factor"]), row

    def test_mixed_basis_brackets_vanish_symbolically(self):
        """{(K_i+L_i)/2, (K_j-L_j)/2} = 0 by direct differentiation."""
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                xi = (_SYM_GENERATORS[f"K{i}"] + _SYM_GENERATORS[f"L{i}"]) / 2
                eta = (_SYM_GENERATORS[f"K{j}"] - _SYM_GENERATORS[f"L{j}"]) / 2
                assert _sym_bracket(xi, eta) == 0


class TestInducedFields:
    def test_circle_generator_induces_zero_field(self):
        assert induced_vector_field("Xi") == {}

    def test_component_orientation_pinned_example(self):
        """The K1 field has component -2*K3 on the L2 coordinate."""
        field = induced_vector_field("K1")
        assert field["L2"] == {"K3": Fraction(-2)}
        assert format_linear(field["L2"]) == "-2*K3"

    def test_hand_checked_components(self):
        yk1 = induced_vector_field("K1")
        assert yk1["U1"] == {"U2": Fraction(-2)}
        assert yk1["U2"] == {"U1": Fraction(2)}
        yh2 = induced_vector_field("H2")
        assert yh2["U1"] == {"V1": Fraction(2)}
        assert yh2["V1"] == {"U1": Fraction(-2)}
        yv2 = induced_vector_field("V2")
        assert yv2["U2"] == {"H2": Fraction(2)}

    def test_expressions_cover_all_coordinates(self):
        field = induced_vector_field("H2")
        exprs = {c: format_linear(field.get(c, {})) for c in GENERATOR_NAMES}
        assert set(field) == {"U1", "U2", "U3", "U4", "V1", "V2", "V3", "V4"}
        assert exprs["K1"] == "0"
        assert exprs["U3"] == "2*V3"

    def test_no_diagonal_components(self):
        """{c, c} = 0, so no field has a component on its own generator."""
        for name in GENERATOR_NAMES:
            assert name not in induced_vector_field(name)


# Components where the transcribed table disagrees with the bracket
# computation.  Spot checks done by hand: {U1,U2} = -2*K1 (not -2*K2),
# {U2,V2} = 2*H2 (not -2*H2), and a diagonal entry like Y_V3 on V3 is
# impossible by antisymmetry.
KNOWN_TRANSCRIPTION_DEVIATIONS = {
    ("Y_K1", "U2"),
    ("Y_U2", "U1"), ("Y_U2", "U3"),
    ("Y_U3", "L3"), ("Y_U3", "U2"), ("Y_U3", "U4"),
    ("Y_U3", "V3"), ("Y_U3", "V4"),
    ("Y_U4", "K1"), ("Y_U4", "K3"), ("Y_U4", "U3"),
    ("Y_V1", "K2"), ("Y_V1", "K3"), ("Y_V1", "L2"), ("Y_V1", "L3"),
    ("Y_V1", "H2"), ("Y_V1", "U1"), ("Y_V1", "U2"), ("Y_V1", "V4"),
    ("Y_V2", "U2"),
    ("Y_V3", "V2"), ("Y_V3", "V3"),
    ("Y_V4", "V1"),
}


class TestReferenceTableDiff:
    def test_mismatch_set_is_exactly_the_known_one(self):
        rows = reference_table_diff()
        mismatched = {(r["field"], r["component"]) for r in rows if not r["match"]}
        assert mismatched == KNOWN_TRANSCRIPTION_DEVIATIONS

    def test_rotation_subalgebra_rows_transcribe_cleanly(self):
        """All K and L field rows match except the single K1 deviation."""
        rows = reference_table_diff()
        for r in rows:
            if r["field"] in {"Y_K2", "Y_K3", "Y_L1", "Y_L2", "Y_L3", "Y_H2"}:
                assert r["match"], r

    def test_diff_rows_carry_both_sides(self):
        rows = reference_table_diff()
        by_key = {(r["field"], r["component"]): r for r in rows}
        row = by_key[("Y_K1", "U2")]
        assert row["transcribed"] == "2*U2"
        assert row["regenerated"] == "2*U1"
        assert not row["match"]

    def test_regenerated_table_shape(self):
        table = regenerated_induced_field_table()
        assert set(table) == set(GENERATOR_NAMES)
        assert table["Xi"] == {}
        assert all(len(components) == 8 for name, components in table.items()
                   if name != "Xi")
