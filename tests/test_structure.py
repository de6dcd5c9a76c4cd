import json
import random
from fractions import Fraction

import pytest

import corpus
from baseline import claimed, fixture_system
from conftest import borel_algebra, heisenberg_algebra, jordan_algebra, sl2_algebra
from liepde import expr, linalg, parser, reference, structure
from liepde.errors import NotASubalgebraError
from liepde.fields import VectorField, bracket
from liepde.optimal import verify_optimal_table
from liepde.prolongation import build_determining, solve_determining
from liepde.structure import (
    LieAlgebra,
    algebra_from_json,
    bracket_outside,
    center,
    derived_series,
    is_nilpotent,
    is_semisimple,
    is_solvable,
    killing_form,
    lower_central_series,
    normalizer,
    radical,
    structure_constants,
)

from test_linalg import dense_rref

F = Fraction


def unit(n, i):
    v = [F(0)] * n
    v[i] = F(1)
    return tuple(v)


def is_abelian(L, S=None):
    """Whether every bracket of S, by default the whole algebra, is 0."""
    S = S if S is not None else L.whole()
    return bracket_outside(L, S.basis, S.basis, L.subspace([])) is None


def is_ideal(L, S):
    """Whether [g, S] lies in S."""
    return bracket_outside(L, L.whole().basis, S.basis, S) is None


class TestBracket:
    def test_table_entries(self, golden):
        space, _, gens = golden
        v1, v2, v3, v4, v5 = gens
        assert bracket(v1, v4) == v1
        assert bracket(v1, v2).is_zero()
        assert bracket(v3, v5) == v3.scale(F(-4))
        assert bracket(v3, v4) == v3.scale(F(2))
        assert bracket(v2, v5) == v2

    def test_antisymmetry(self, golden):
        _, _, gens = golden
        for v in gens:
            for w in gens:
                assert (bracket(v, w) + bracket(w, v)).is_zero()


class TestStructureConstants:
    def test_full_commutator_table(self, algebra):
        table = reference.baseline_algebra().constants
        for i in range(5):
            for j in range(5):
                got = algebra.bracket_coords(unit(5, i), unit(5, j))
                assert got == table[i][j], (i, j)

    def test_single_field_is_abelian(self, golden):
        _, _, gens = golden
        L = structure_constants([gens[3]])
        assert L.n == 1
        assert is_abelian(L)

    def test_translations_are_abelian(self, golden):
        _, _, gens = golden
        L = structure_constants(list(gens[:3]))
        assert all(
            not any(L.bracket_coords(unit(3, i), unit(3, j)))
            for i in range(3)
            for j in range(3)
        )

    def test_non_closure_reports_pair(self, golden):
        # [v1, x d/dy + u d/dv] = d/dy, outside span{v1, w}
        space, _, gens = golden
        x = space.independent[0]
        u = space.dependent[0]
        Z = VectorField.zero(space).xi[0]
        w = VectorField(space, (Z, x), (Z, u, Z))
        with pytest.raises(NotASubalgebraError) as err:
            structure_constants([gens[0], w])
        assert err.value.pair == (0, 1)

    def test_realization_matches_constants(self):
        # every bracket [g_i, g_j] of the computed basis is sum_k C^k_ij g_k
        fixture = fixture_system()
        burgers = parser.build_system(parser.parse_system(corpus.BURGERS))
        for (space, system), degree in ((fixture, 1), (fixture, 2), (fixture, 3),
                                        (burgers, 2)):
            basis = solve_determining(build_determining(system, degree))
            L = structure_constants(basis)
            assert L.realization == tuple(basis)
            for i in range(L.n):
                for j in range(L.n):
                    combo = VectorField.zero(space)
                    for g, c in zip(basis, L.constants[i][j]):
                        combo = combo + g.scale(c)
                    assert (bracket(basis[i], basis[j]) - combo).is_zero(), (degree, i, j)


class TestInvariantsAtConstruction:
    def test_antisymmetry_enforced(self):
        bad = [[[F(1)]]]
        with pytest.raises(ValueError):
            LieAlgebra(bad)

    def test_jacobi_enforced(self):
        # [e1,e2]=e3, [e1,e3]=e1, [e2,e3]=e2 violates Jacobi
        n = 3
        c = [[[F(0)] * n for _ in range(n)] for _ in range(n)]

        def setb(i, j, k, val):
            c[i][j][k] = F(val)
            c[j][i][k] = F(-val)

        setb(0, 1, 2, 1)
        setb(0, 2, 0, 1)
        setb(1, 2, 1, 1)
        with pytest.raises(ValueError):
            LieAlgebra(c)

    def test_random_realized_algebras_pass(self, golden, symmetry_basis):
        # construction of the full 6-dimensional symmetry algebra re-checks
        # antisymmetry and Jacobi
        L = structure_constants(list(symmetry_basis))
        assert L.n == len(symmetry_basis)


class TestKillingForm:
    def test_reference_matrix(self, golden, algebra):
        assert [killing_form(algebra)] == claimed(golden[0], "killing")

    def test_degenerate(self, algebra):
        assert linalg.det(killing_form(algebra)) == 0
        assert not is_semisimple(algebra)

    def test_abelian_is_zero(self, golden):
        _, _, gens = golden
        L = structure_constants(list(gens[:3]))
        K = killing_form(L)
        assert all(all(x == 0 for x in row) for row in K)

    def test_symmetry_and_invariance_random(self, algebra):
        K = killing_form(algebra)
        n = algebra.n
        for i in range(n):
            for j in range(n):
                assert K[i][j] == K[j][i]
        rng = random.Random(61)

        def kform(a, b):
            return sum(
                K[i][j] * a[i] * b[j] for i in range(n) for j in range(n)
            )

        for _ in range(100):
            a = tuple(F(rng.randint(-3, 3)) for _ in range(n))
            b = tuple(F(rng.randint(-3, 3)) for _ in range(n))
            c = tuple(F(rng.randint(-3, 3)) for _ in range(n))
            ab = algebra.bracket_coords(a, b)
            ac = algebra.bracket_coords(a, c)
            assert kform(ab, c) + kform(b, ac) == 0


class TestSeries:
    def test_derived_series(self, algebra):
        series = derived_series(algebra)
        dims = [s.dim for s in series]
        assert dims == [5, 3, 0]
        expected = algebra.subspace([unit(5, 0), unit(5, 1), unit(5, 2)])
        assert series[1] == expected

    def test_solvable_not_nilpotent(self, algebra):
        assert is_solvable(algebra)
        dims = [s.dim for s in lower_central_series(algebra)]
        assert dims[-1] != 0

    def test_center_trivial(self, algebra):
        assert center(algebra).dim == 0

    def test_abelian_center_is_whole(self, golden):
        _, _, gens = golden
        L = structure_constants(list(gens[:3]))
        assert center(L).dim == 3

    def test_radical_is_whole_algebra(self, algebra):
        assert radical(algebra) == algebra.whole()


class TestSubspaces:
    def test_translation_ideal(self, algebra):
        S = algebra.subspace([unit(5, 0), unit(5, 1), unit(5, 2)])
        assert is_abelian(algebra, S)
        assert is_ideal(algebra, S)
        assert bracket_outside(algebra, S.basis, S.basis, S) is None

    def test_scaling_subalgebra_not_ideal(self, algebra):
        S = algebra.subspace([unit(5, 3), unit(5, 4)])
        assert is_abelian(algebra, S)
        assert bracket_outside(algebra, S.basis, S.basis, S) is None
        assert not is_ideal(algebra, S)
        # witness: [v4, v1] = -v1 leaves the span
        assert not S.contains(algebra.bracket_coords(unit(5, 3), unit(5, 0)))

    def test_semidirect_decomposition(self, algebra):
        ideal = algebra.subspace([unit(5, 0), unit(5, 1), unit(5, 2)])
        complement = algebra.subspace([unit(5, 3), unit(5, 4)])
        union = algebra.subspace(list(ideal.basis) + list(complement.basis))
        assert union == algebra.whole()
        assert ideal.dim + complement.dim == 5

    def test_normalizer(self, algebra):
        S = algebra.subspace([unit(5, 3), unit(5, 4)])
        assert normalizer(algebra, S) == S
        ideal = algebra.subspace([unit(5, 0), unit(5, 1), unit(5, 2)])
        assert normalizer(algebra, ideal) == algebra.whole()

    def test_rref_canonical_equality(self, algebra):
        a = algebra.subspace([(1, 1, 0, 0, 0), (0, 1, 0, 0, 0)])
        b = algebra.subspace([(1, 0, 0, 0, 0), (2, 1, 0, 0, 0)])
        assert a == b


class TestJsonInterchange:
    def test_round_trip(self, algebra):
        L = reference.baseline_algebra()
        assert L.n == 5
        for i in range(5):
            for j in range(5):
                assert L.bracket_coords(unit(5, i), unit(5, j)) == \
                    algebra.bracket_coords(unit(5, i), unit(5, j))

    def test_bad_vector_length(self):
        def bracket(**item):
            return {"dim": 2, "brackets": [{"i": 1, "j": 2, "coeffs": ["1", "0"], **item}]}

        for doc, message in (
            (bracket(coeffs=["1"]), "bracket 1: needs 2 coefficients, got 1"),
            # index 0 once read as the last element, so [v1, v2] was -v1
            (bracket(i=0), "bracket 1: index i = 0 is not in 1..2"),
            (bracket(i=3), "bracket 1: index i = 3 is not in 1..2"),
            (bracket(j=True), "bracket 1: index j = True is not in 1..2"),
            (corpus.STRING_DIM, "dim must be a non-negative integer, got '2'"),
            ({**bracket(), "labels": ["a"]}, "labels must be a list of 2 strings"),
            (bracket(coeffs=[True, 0]), "bracket 1: rationals must be integers"),
            (bracket(coeffs=["1/0", 0]), "bracket 1: zero denominator in '1/0'"),
            (bracket(coeffs=[0.5, 0]), "bracket 1: rationals must be integers"),
            (bracket(coeffs="10"), "bracket 1: expected a list of rationals"),
            # each key the reader needs, missing
            ({"brackets": []}, "the document: missing key 'dim'"),
            ({"dim": 2, "brackets": [{"j": 2, "coeffs": ["1", "0"]}]},
             "bracket 1: missing key 'i'"),
            ({"dim": 2, "brackets": [{"i": 1, "coeffs": ["1", "0"]}]},
             "bracket 1: missing key 'j'"),
            ({"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": ["1", "0", "0"]},
                                     {"i": 2, "j": 3}]},
             "bracket 2: missing key 'coeffs'"),
            # a second bracket of the same pair once replaced the first
            ({"dim": 2, "brackets": [{"i": 1, "j": 2, "coeffs": ["1", "0"]},
                                     {"i": 2, "j": 1, "coeffs": ["0", "1"]}]},
             "bracket 2: the bracket of elements 2 and 1 is given twice"),
            # a nonzero [v1, v1] once failed antisymmetry at the 0-based (0,0,0)
            (corpus.MALFORMED["self_bracket.json"],
             "bracket 1: the bracket of element 1 with itself must be 0"),
            ({**bracket(), "labels": ["a", "a"]}, "labels must be distinct, got ['a', 'a']"),
        ):
            with pytest.raises(ValueError) as caught:
                algebra_from_json(doc)
            assert str(caught.value).startswith(message), doc
        for doc, message in (
            ({"dim": 2, "brackets": []}, "the document: missing key 'entries'"),
            ({"entries": [{"vectors": [[1, 0]]}]}, "entry 1: missing key 'label'"),
            ({"entries": [{"label": "<v1>", "vectors": [[1, 0]]}, {"label": "<v2>"}]},
             "entry 2: missing key 'vectors'"),
            ({"entries": [{"label": "<v1>", "vectors": [[0.1, 0]]}]},
             "entry <v1>: rationals must be integers or 'num/den' strings, got 0.1"),
            ({"entries": [{"label": "<v1>", "vectors": [["1/0", 0]]}]},
             "entry <v1>: zero denominator in '1/0'"),
            ({"entries": [{"label": "<v1>", "vectors": [[False, 1]]}]},
             "entry <v1>: rationals must be integers or 'num/den' strings, got False"),
            ({"entries": [{"label": "<v1>", "vectors": [["0.1", 0]]}]},
             "entry <v1>: rationals must be integers or 'num/den' strings, got '0.1'"),
            ({"entries": [{"label": 5, "vectors": [[1, 0]]}]},
             "entry 1: label must be a string, got 5"),
        ):
            with pytest.raises(ValueError) as caught:
                structure.table_from_json(doc)
            assert str(caught.value) == message, doc


def test_table_parses_each_distinct_string_once(monkeypatch):
    doc = json.loads(reference.fixture_text("boundary_layer_optimal.json"))
    values = [x for e in doc["entries"] for v in e["vectors"] for x in v]
    parse = structure.parse_rational
    expected = [(e["label"], [[parse(x) for x in v] for v in e["vectors"]])
                for e in doc["entries"]]
    calls = []
    monkeypatch.setattr(structure, "parse_rational", lambda x: calls.append(x) or parse(x))
    entries = structure.table_from_json(doc)
    assert entries == expected
    assert [[type(x) for x in v] for _, vectors in entries for v in vectors] == \
        [[type(x) for x in v] for _, vectors in expected for v in vectors]
    strings = [x for x in calls if isinstance(x, str)]
    assert len(strings) == len(set(strings)) < len([x for x in values if isinstance(x, str)])
    assert set(strings) == {x for x in values if isinstance(x, str)}


def test_table_string_that_fails_names_its_first_entry():
    doc = {"entries": [{"label": "<v1>", "vectors": [["1/2", "3"]]},
                       {"label": "<v2>", "vectors": [["1/2", "1/0"]]},
                       {"label": "<v3>", "vectors": [["1/0", "1/2"]]}]}
    with pytest.raises(ValueError) as caught:
        structure.table_from_json(doc)
    assert str(caught.value) == "entry <v2>: zero denominator in '1/0'"
    del doc["entries"][1]
    with pytest.raises(ValueError) as caught:
        structure.table_from_json(doc)
    assert str(caught.value) == "entry <v3>: zero denominator in '1/0'"


@pytest.mark.parametrize("text, value", [
    ("3", 3), ("-0", 0), ("+7", 7), ("-4/2", -2), ("6/4", Fraction(3, 2)),
    ("0/5", 0), ("007/014", Fraction(1, 2)), (12, 12),
])
def test_parse_rational_reads_integers_and_fractions(text, value):
    x = structure.parse_rational(text)
    assert type(x) is type(value) and x == value


@pytest.mark.parametrize("text", [
    "0.5", "1e3", "1_0", "", " 1", "1 ", "1/2/3", "/2", "1/", "--1", "+-1", "0x10",
    "\u0661", "\u00bd", "1/2.0", "inf", "nan", "1\n", 0.5, True, None,
])
def test_parse_rational_refuses_everything_else(text):
    with pytest.raises(ValueError) as caught:
        structure.parse_rational(text)
    assert str(caught.value) == (
        f"rationals must be integers or 'num/den' strings, got {text!r}")


def test_parse_rational_zero_denominator():
    with pytest.raises(ValueError) as caught:
        structure.parse_rational("-3/00")
    assert str(caught.value) == "zero denominator in '-3/00'"


# ---------------------------------------------------------------------------
# Oracle: the dense Jacobi check and Killing form that the sparse bracket
# table replaced, kept verbatim as independent computations.
# ---------------------------------------------------------------------------

def dense_check_jacobi(n, constants):
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for l in range(n):
                    s = Fraction(0)
                    for m in range(n):
                        s += (
                            constants[i][j][m] * constants[m][k][l]
                            + constants[j][k][m] * constants[m][i][l]
                            + constants[k][i][m] * constants[m][j][l]
                        )
                    if s != 0:
                        raise ValueError(
                            f"Jacobi identity fails on basis triple ({i},{j},{k})"
                        )


def dense_killing_form(L):
    ads = []
    for i in range(L.n):
        e_i = [Fraction(0)] * L.n
        e_i[i] = Fraction(1)
        ads.append(L.ad(e_i))
    out = []
    for i in range(L.n):
        row = []
        for j in range(L.n):
            t = Fraction(0)
            for a in range(L.n):
                for b in range(L.n):
                    t += ads[i][a][b] * ads[j][b][a]
            row.append(t)
        out.append(tuple(row))
    return tuple(out)


def jacobi_failure(check, *args):
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


class TestSparseTableOracle:
    @pytest.fixture(scope="class")
    def algebras(self, algebra):
        return [algebra, borel_algebra(), borel_algebra(size=3)] + [
            borel_algebra(random.Random(seed)) for seed in (1, 2, 3)
        ]

    def test_table_holds_the_nonzero_constants(self, algebras):
        for L in algebras:
            dense = {(i, j, k): c for i, plane in enumerate(L.constants)
                     for j, row in enumerate(plane) for k, c in enumerate(row) if c}
            sparse = {(i, j, k): c for (i, j), terms in L.table.items()
                      for k, c in terms}
            assert sparse == dense

    def test_killing_forms_match_dense(self, algebras):
        for L in algebras:
            assert killing_form(L) == dense_killing_form(L)

    def test_ad_and_brackets_match_dense(self, algebras):
        rng = random.Random(5)
        for L in algebras:
            for _ in range(20):
                a = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(L.n)]
                b = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(L.n)]
                want = tuple(sum((a[i] * b[j] * L.constants[i][j][k]
                                  for i in range(L.n) for j in range(L.n)), F(0))
                             for k in range(L.n))
                assert L.bracket_coords(a, b) == want
                ad = L.ad(a)
                assert all(ad[k][j] == sum((a[i] * L.constants[i][j][k]
                                            for i in range(L.n)), F(0))
                           for k in range(L.n) for j in range(L.n))

    def test_perturbed_copies_rejected_alike(self, algebras):
        rng = random.Random(11)
        rejected = 0
        for L in algebras:
            for _ in range(15):
                c = [[list(row) for row in plane] for plane in L.constants]
                i, j = rng.sample(range(L.n), 2)
                k = rng.randrange(L.n)
                delta = rng.choice([F(1), F(-1), F(2), F(1, 2)])
                c[i][j][k] += delta
                c[j][i][k] -= delta
                dense = jacobi_failure(dense_check_jacobi, L.n, c)
                sparse = jacobi_failure(LieAlgebra, c)
                assert sparse == dense
                rejected += dense is not None
        assert rejected >= 85


# ---------------------------------------------------------------------------
# Oracle: the per-bracket dense solve that the one [B | I] reduction in
# structure_constants replaced.
# ---------------------------------------------------------------------------

def per_bracket_constants(basis):
    """Structure constants by one dense solve per bracket; raises
    NotASubalgebraError on the first pair whose bracket leaves the span."""
    keys = {}

    def row(vf):
        out = {}
        for slot, coeff in enumerate(vf.coefficients):
            for mono, c in expr.monomials(coeff):
                out[keys.setdefault((slot, mono), len(keys))] = F(c)
        return out

    n = len(basis)
    rows = [row(vf) for vf in basis]
    constants = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            target = row(bracket(basis[i], basis[j]))
            # one equation per coordinate; the unknowns are the coefficients
            aug = [[r.get(key, F(0)) for r in rows] + [target.get(key, F(0))]
                   for key in range(len(keys))]
            reduced, pivots = dense_rref(aug)
            if n in pivots:
                raise NotASubalgebraError("outside the span", pair=(i, j))
            for prow, pc in zip(reduced, pivots):
                constants[i][j][pc] = prow[n]
                constants[j][i][pc] = -prow[n]
    return constants


def computed_basis(text, degree):
    _, system = parser.build_system(parser.parse_system(text))
    return solve_determining(build_determining(system, degree))


@pytest.mark.parametrize("name, degree", [
    ("fixture", 1), ("fixture", 2), ("fixture", 3), ("burgers", 2), ("kdv", 2),
])
def test_structure_constants_match_per_bracket_solve(name, degree):
    text = {"fixture": reference.fixture_text(), "burgers": corpus.BURGERS,
            "kdv": corpus.KDV}[name]
    basis = computed_basis(text, degree)
    L = structure_constants(basis)
    expected = per_bracket_constants(basis)
    assert L.constants == tuple(tuple(tuple(p) for p in plane) for plane in expected)
    assert any(c for plane in expected for row in plane for c in row)


def test_bracket_inside_the_coordinates_but_outside_the_span(golden):
    # [d/dx + d/dy, x d/dx] = d/dx: its one (slot, monomial) column occurs in
    # the basis, so only the reduction can tell that d/dx is not in the span
    space = golden[0]
    x = space.independent[0]
    Z, one = expr.ZERO, expr.ONE
    basis = [VectorField(space, (one, one), (Z, Z, Z)),
             VectorField(space, (x, Z), (Z, Z, Z))]
    with pytest.raises(NotASubalgebraError) as oracle:
        per_bracket_constants(basis)
    with pytest.raises(NotASubalgebraError) as err:
        structure_constants(basis)
    assert err.value.pair == oracle.value.pair == (0, 1)


def test_heat_equation_names_the_same_first_pair():
    basis = computed_basis(corpus.HEAT, 2)
    with pytest.raises(NotASubalgebraError) as oracle:
        per_bracket_constants(basis)
    with pytest.raises(NotASubalgebraError) as err:
        structure_constants(basis)
    assert err.value.pair == oracle.value.pair == (6, 7)
    assert str(err.value) == "bracket of elements 7 and 8 is outside the span"


# ---------------------------------------------------------------------------
# sl(2), h(3) and the 2-D abelian algebra: a series that stops on a repeated
# term or at 0, nilpotency, and the radical of an abelian algebra.
# ---------------------------------------------------------------------------

class TestSmallAlgebras:
    def test_sl2(self):
        L = sl2_algebra()
        assert [s.dim for s in derived_series(L)] == [3]
        assert [s.dim for s in lower_central_series(L)] == [3]
        assert not is_solvable(L)
        assert not is_nilpotent(L)
        assert is_semisimple(L)
        assert radical(L).dim == 0
        assert center(L).dim == 0

    def test_heisenberg(self):
        L = heisenberg_algebra()
        z = L.subspace([(0, 0, 1)])
        for series in (derived_series(L), lower_central_series(L)):
            assert [s.dim for s in series] == [3, 1, 0]
            assert series[1] == z
        assert is_solvable(L)
        assert is_nilpotent(L)
        assert not is_semisimple(L)
        assert center(L) == z
        assert radical(L) == L.whole()

    def test_two_dimensional_abelian(self):
        L = LieAlgebra.from_brackets(2, {})
        assert [s.dim for s in derived_series(L)] == [2, 0]
        assert [s.dim for s in lower_central_series(L)] == [2, 0]
        assert is_nilpotent(L)
        assert is_abelian(L)
        assert radical(L) == L.whole()

    def test_fixture_lower_central_series_repeats(self, algebra):
        # [g, g] = <v1, v2, v3> and [g, <v1, v2, v3>] is the same span
        assert [s.dim for s in lower_central_series(algebra)] == [5, 3]
        assert not is_nilpotent(algebra)

    def test_normalizer_of_zero_is_whole(self, algebra):
        for L in (algebra, sl2_algebra(), heisenberg_algebra()):
            assert normalizer(L, L.subspace([])) == L.whole()

    def test_heisenberg_subspaces(self):
        L = heisenberg_algebra()
        xy = L.subspace([(1, 0, 0), (0, 1, 0)])
        assert bracket_outside(L, xy.basis, xy.basis, xy) is not None
        assert not is_ideal(L, xy)
        assert not is_abelian(L, xy)
        xz = L.subspace([(1, 0, 0), (0, 0, 1)])
        assert bracket_outside(L, xz.basis, xz.basis, xz) is None
        assert is_ideal(L, xz)
        assert is_abelian(L, xz)
        assert normalizer(L, L.subspace([(1, 0, 0)])) == xz


# ---------------------------------------------------------------------------
# Oracle: the per-question double loops over brackets, the two series loops
# and the normalizer's hand-built unit vectors, kept verbatim.
# ---------------------------------------------------------------------------

def loop_subalgebra_check(L, S):
    for a in S.basis:
        for b in S.basis:
            if not S.contains(L.bracket_coords(a, b)):
                return False
    return True


def loop_is_ideal(L, S):
    for i in range(L.n):
        e_i = [Fraction(0)] * L.n
        e_i[i] = Fraction(1)
        for b in S.basis:
            if not S.contains(L.bracket_coords(e_i, b)):
                return False
    return True


def loop_is_abelian(L, S):
    for a in S.basis:
        for b in S.basis:
            if any(L.bracket_coords(a, b)):
                return False
    return True


def loop_offending(L, S):
    """The pair `verify_optimal_table` searched for after the closure check."""
    offending = None
    for a in S.basis:
        for b in S.basis:
            if not S.contains(L.bracket_coords(a, b)):
                offending = (a, b)
                break
        if offending:
            break
    return offending


def loop_derived_series(L):
    series = [L.whole()]
    while True:
        nxt = structure.product_space(L, series[-1], series[-1])
        if nxt == series[-1]:
            break
        series.append(nxt)
        if nxt.dim == 0:
            break
    return series


def loop_lower_central_series(L):
    series = [L.whole()]
    while True:
        nxt = structure.product_space(L, L.whole(), series[-1])
        if nxt == series[-1]:
            break
        series.append(nxt)
        if nxt.dim == 0:
            break
    return series


def loop_normalizer(L, S):
    rows = []
    for b in S.basis:
        residuals = []
        for i in range(L.n):
            e_i = [Fraction(0)] * L.n
            e_i[i] = Fraction(1)
            residuals.append(S.reduce_vector(L.bracket_coords(e_i, b)))
        for k in range(L.n):
            rows.append(tuple(residuals[i][k] for i in range(L.n)))
    if not rows:
        return L.whole()
    return L.subspace(linalg.nullspace(rows, L.n))


def seeded_spans(L, rng, count):
    """Lists of 0 to n vectors, each a unit vector or a sparse rational one."""
    out = []
    for _ in range(count):
        vectors = []
        for _ in range(rng.randint(0, L.n)):
            if rng.random() < 0.5:
                vectors.append(unit(L.n, rng.randrange(L.n)))
            else:
                vectors.append(tuple(
                    F(0) if rng.random() < 0.5 else F(rng.randint(-3, 3), rng.randint(1, 2))
                    for _ in range(L.n)))
        out.append(vectors)
    return out


ORACLE_ALGEBRAS = ("fixture", "b4", "jordan", "sl2", "h3")


def oracle_algebra(name, algebra):
    return {"fixture": lambda: algebra, "b4": borel_algebra, "jordan": jordan_algebra,
            "sl2": sl2_algebra, "h3": heisenberg_algebra}[name]()


class TestBracketSearchOracle:
    @pytest.mark.parametrize("seed, name", enumerate(ORACLE_ALGEBRAS))
    def test_subspace_questions_match_the_loops(self, algebra, seed, name):
        L = oracle_algebra(name, algebra)
        spans = seeded_spans(L, random.Random(100 + seed), 80)
        results, _ = verify_optimal_table(
            L, [(str(k), vectors) for k, vectors in enumerate(spans)])
        seen = set()
        for vectors, r in zip(spans, results):
            S = L.subspace(vectors)
            offending = loop_offending(L, S)
            assert r.offending == offending
            assert r.closed == (offending is None)
            flags = (loop_subalgebra_check(L, S), loop_is_ideal(L, S),
                     loop_is_abelian(L, S))
            closed = bracket_outside(L, S.basis, S.basis, S) is None
            assert (closed, is_ideal(L, S), is_abelian(L, S)) == flags
            assert (r.closed, r.ideal, r.abelian) == flags
            assert normalizer(L, S) == loop_normalizer(L, S)
            seen.update(enumerate(flags))
        # every flag is seen both true and false
        assert seen == {(k, v) for k in range(3) for v in (True, False)}

    def test_first_pair_in_order(self):
        L = heisenberg_algebra()
        x, y, z = L.whole().basis
        xy = L.subspace([x, y])
        assert bracket_outside(L, xy.basis, xy.basis, xy) == (x, y)
        # [y, x] = -z is found before [x, y] when y comes first
        assert bracket_outside(L, [z, y], [x, y], xy) == (y, x)
        assert bracket_outside(L, [x, y, z], [z], L.subspace([])) is None
        assert bracket_outside(L, [], [x], L.subspace([])) is None

    def test_series_match_the_loops(self, algebra):
        algebras = [oracle_algebra(name, algebra) for name in ORACLE_ALGEBRAS]
        algebras += [LieAlgebra.from_brackets(2, {}), borel_algebra(size=3)]
        algebras += [borel_algebra(random.Random(seed)) for seed in (1, 2)]
        for L in algebras:
            assert derived_series(L) == loop_derived_series(L)
            assert lower_central_series(L) == loop_lower_central_series(L)
