"""The number convention of the algebra layer.

Every rational that `structure`, `linalg` over Q, `adjoint` and `optimal`
return is an int when it is integral and a Fraction otherwise: never a
float and never an integral Fraction.  `/` on two ints and an int to a
negative power give floats, so the inputs include the vectors and algebras
of `tools/bytecheck.py`, whose orbit steps meet negative exponents and
fractional eigenvalues, and the checks cover the structure constants, the
subspace bases, the Killing form, `rref`, `nullspace` and `det`, the
characteristic polynomials and eigenvalues, the `ad_exp` and `matrix_exp`
terms and the normal forms with their steps.
"""

import pathlib
import random
import sys
from fractions import Fraction

import pytest

from conftest import assert_rational, borel_algebra, jordan_algebra
from liepde import adjoint, expr, linalg, optimal, structure
from liepde.errors import UnsupportedSpectrumError

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tools"))
import bytecheck  # noqa: E402
import corpus  # noqa: E402

DOCUMENTS = bytecheck.algebra_documents()


def parsed(vector):
    """A comma-separated vector as `normal-form --vector` reads it."""
    return [structure.parse_rational(x) for x in vector.split(",")]


def seeded_vectors(L, rng, count):
    """Nonzero vectors with small integral and fractional coordinates."""
    out = []
    while len(out) < count:
        v = [0 if rng.random() < 0.4 else
             structure.parse_rational(f"{rng.randint(-6, 6)}/{rng.randint(1, 3)}")
             for _ in range(L.n)]
        if any(v):
            out.append(v)
    return out


def algebra_and_vectors(name, fixture_algebra):
    """The algebra called `name` and the vectors its normal forms run on."""
    if name == "fixture":
        return fixture_algebra, [[1, 0, 0, 1, 0], [-8, 0, 0, 0, 0], [-1, 0, 0, 1, 0]]
    if name == "b4":
        L = structure.algebra_from_json(DOCUMENTS["b4.json"])
        return L, [parsed(v) for v in bytecheck.vectors(random.Random(0), 6, 10)]
    if name == "b4-seeded":
        return borel_algebra(random.Random(7)), []
    if name == "jordan":
        return jordan_algebra(), [parsed("2,1,-3"), parsed("0,1/2,3")]
    if name == "e2":
        L = structure.algebra_from_json(DOCUMENTS["e2.json"])
        return L, [parsed("1,2,0"), parsed("1,0,1"), parsed("0,0,1")]
    if name == "spectrum":
        L = structure.algebra_from_json(DOCUMENTS["spectrum.json"])
        return L, [parsed(v) for v in bytecheck.vectors(random.Random(2), 4, 2)]
    L = structure.algebra_from_json(DOCUMENTS["fractional.json"])
    return L, [parsed(v) for v in corpus.FRACTIONAL_VECTORS]


NAMES = ["fixture", "b4", "b4-seeded", "jordan", "e2", "spectrum", "fractional"]


def assert_rationals(values):
    for x in values:
        assert_rational(x)


def assert_subspace(S):
    for row in S.basis:
        assert_rationals(row)


@pytest.mark.parametrize("name", NAMES)
def test_structure_values(name, algebra):
    L, _ = algebra_and_vectors(name, algebra)
    for plane in L.constants:
        for row in plane:
            assert_rationals(row)
    for terms in L.table.values():
        assert_rationals(c for _, c in terms)
    K = structure.killing_form(L)
    for row in K:
        assert_rationals(row)
    subspaces = [*structure.derived_series(L), *structure.lower_central_series(L),
                 structure.center(L), structure.radical(L)]
    rng = random.Random(f"number-types-{name}")
    for _ in range(4):
        S = L.subspace(seeded_vectors(L, rng, 2))
        subspaces += [S, structure.normalizer(L, S)]
        assert_rationals(S.reduce_vector(seeded_vectors(L, rng, 1)[0]))
    for S in subspaces:
        assert_subspace(S)
    for a in seeded_vectors(L, rng, 4):
        assert_rationals(L.bracket_coords(a, a[::-1]))
        for row in L.ad(a):
            assert_rationals(row)


@pytest.mark.parametrize("name", NAMES)
def test_linear_algebra_values(name, algebra):
    L, _ = algebra_and_vectors(name, algebra)
    rng = random.Random(f"number-types-linalg-{name}")
    matrices = [structure.killing_form(L)]
    matrices += [adjoint.ad_matrix(L, v) for v in seeded_vectors(L, rng, 3)]
    for M in matrices:
        reduced, _ = linalg.rref(M)
        for row in reduced:
            assert_rationals(row)
        for v in linalg.nullspace(M, L.n):
            assert_rationals(v)
        assert_rational(linalg.det(M))


@pytest.mark.parametrize("name", NAMES)
def test_adjoint_values(name, algebra):
    L, _ = algebra_and_vectors(name, algebra)
    rng = random.Random(f"number-types-adjoint-{name}")
    directions = [[int(k == i) for k in range(L.n)] for i in range(L.n)]
    for a in directions + seeded_vectors(L, rng, 3):
        A = adjoint.ad_matrix(L, a)
        p = adjoint.char_poly(A)
        assert_rationals(p)
        try:
            roots = adjoint.rational_eigenvalues(p)
        except UnsupportedSpectrumError:
            continue
        assert_rationals(roots)
        for row in adjoint.matrix_exp(A):
            for e in row:
                for (r, (m,), (k,)), c in e.terms.items():
                    assert type(r) is int and type(m) is int
                    assert_rational(k)
                    assert_rational(c)
    for i in range(L.n):
        try:
            M = adjoint.ad_exp(L, i)
        except UnsupportedSpectrumError:
            continue
        for row in M:
            for e in row:
                for (_, _, (k,)), c in e.terms.items():
                    assert_rational(k)
                    assert_rational(c)


@pytest.mark.parametrize("name", NAMES)
def test_normal_form_values(name, algebra):
    L, vectors = algebra_and_vectors(name, algebra)
    vectors = vectors + seeded_vectors(L, random.Random(f"number-types-nf-{name}"), 6)
    steps = 0
    for v in vectors:
        r = optimal.normal_form_1d(L, v)
        assert_rationals(r.input)
        assert_rationals(r.output)
        assert_rationals(r.fingerprint())
        for step in r.steps:
            assert_rational(step.parameter)
            assert_rationals(step.after)
            steps += 1
        assert r.replay(L) == r.output
    # e(2) has no orbit step: its rotation is skipped and its translations
    # never reach a component they can zero
    assert steps or name == "e2"


@pytest.mark.parametrize("bad", [0.5, "1/2"], ids=["float", "string"])
@pytest.mark.parametrize("entry", [
    "linalg.sparse", "linalg.rref", "linalg.nullspace", "linalg.det", "LieAlgebra",
    "from_brackets", "ad_matrix", "normal_form_1d",
])
def test_q_entry_points_refuse_floats_and_strings(entry, bad):
    # the library's algebra-layer inputs are ints and Fractions only; strings
    # are read at the edges, through `structure.parse_rational`
    L = jordan_algebra()
    calls = {
        "linalg.sparse": lambda: linalg.sparse([1, bad]),
        "linalg.rref": lambda: linalg.rref([[1, bad], [0, 1]]),
        "linalg.nullspace": lambda: linalg.nullspace([[1, bad]], 2),
        "linalg.det": lambda: linalg.det([[1, bad], [0, 1]]),
        "LieAlgebra": lambda: structure.LieAlgebra(
            [[[0, 0], [0, bad]], [[0, 0], [0, 0]]]),
        "from_brackets": lambda: structure.LieAlgebra.from_brackets(2, {(0, 1): (0, bad)}),
        "ad_matrix": lambda: adjoint.ad_matrix(L, [bad, 0, 0]),
        "normal_form_1d": lambda: optimal.normal_form_1d(L, [bad, 0, 0]),
    }
    with pytest.raises(TypeError):
        calls[entry]()


def test_sparse_drops_every_zero():
    # a cell that `linalg.element` turns into 0, such as the truthy
    # expression expr.ZERO, is not stored as an entry
    assert linalg.sparse([0, Fraction(4, 2), expr.ZERO, Fraction(0)]) == {1: 2}
    assert type(linalg.sparse([Fraction(4, 2)])[0]) is int
