"""The sparse parameter-field solver against the dense elimination it replaced.

`ParamFrac` does not cancel common polynomial factors, so two elimination
paths that agree in value can still store different numerators and
denominators, and `clear_denominators` then scales a basis vector by a
spurious parameter factor.  These tests therefore compare representations,
not only values.
"""

import random
from fractions import Fraction

import pytest

from liepde import expr
from liepde.expr import PARAMETER, Symbol
from liepde.linalg import (
    PARAM_ZERO,
    ParamFrac,
    nullspace_param,
    rref_param,
    solve_param,
)
from liepde.parser import build_system, parse_system
from liepde.prolongation import build_determining

from test_determining import TWO_PARAMETER_SYSTEM

A = Symbol("a", PARAMETER)
Z = Symbol("z", PARAMETER)
POLYNOMIALS = [A + Z, A - 2 * Z, Z ** 2, A, Z, A * Z - 1]


def dense_rref_param(rows):
    """RREF over the parameter field; returns (rows, pivots)."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        candidates = [i for i in range(r, len(rows)) if not rows[i][c].is_zero()]
        if not candidates:
            continue
        # Prefer the structurally simplest pivot to limit growth.
        i = min(candidates, key=lambda i: rows[i][c].complexity())
        rows[r], rows[i] = rows[i], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for j in range(len(rows)):
            if j != r and not rows[j][c].is_zero():
                f = rows[j][c]
                rows[j] = [a - f * b for a, b in zip(rows[j], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def random_entry(rng, density=0.4):
    if rng.random() > density:
        return ParamFrac.constant(0)
    scale = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
    if rng.random() < 0.5:
        return ParamFrac.constant(scale)
    return ParamFrac(expr.Rational(scale) * rng.choice(POLYNOMIALS))


def random_matrix(rng, nrows, ncols):
    return [[random_entry(rng) for _ in range(ncols)] for _ in range(nrows)]


def rank_deficient(rng):
    rows = random_matrix(rng, 4, 6)
    for _ in range(4):
        p, q = rng.sample(rows, 2)
        f, g = random_entry(rng, 1), random_entry(rng, 1)
        rows.insert(rng.randrange(len(rows) + 1), [f * x + g * y for x, y in zip(p, q)])
    return rows


def zero_column(rng):
    rows = random_matrix(rng, 6, 6)
    c = rng.randrange(6)
    for row in rows:
        row[c] = ParamFrac.constant(0)
    return rows


def tall(rng):
    return random_matrix(rng, 12, 5)


def early_stop(rng):
    # The leading 4x4 block is upper triangular with a nonzero diagonal, so
    # the rank reaches the row count at column 3 and columns 4.. are never
    # visited.
    rows = random_matrix(rng, 4, 9)
    for i, row in enumerate(rows):
        row[:i] = [ParamFrac.constant(0)] * i
        row[i] = random_entry(rng, 1)
    rng.shuffle(rows)
    return rows


CASES = {
    "rank_deficient": rank_deficient,
    "zero_column": zero_column,
    "tall": tall,
    "early_stop": early_stop,
}


def assert_same_reduction(rows):
    ncols = len(rows[0])
    reduced, pivots = rref_param(rows)
    expected, expected_pivots = dense_rref_param(rows)
    assert pivots == expected_pivots
    assert len(reduced) == len(expected)
    for sparse, dense in zip(reduced, expected):
        for k in range(ncols):
            if k in sparse:
                assert not sparse[k].is_zero()
                assert (sparse[k].num, sparse[k].den) == (dense[k].num, dense[k].den)
            else:
                assert dense[k].is_zero()
    return pivots


def assert_kernel(rows):
    ncols = len(rows[0])
    for v in nullspace_param(rows, ncols):
        for row in rows:
            total = ParamFrac.constant(0)
            for x, y in zip(row, v):
                total = total + x * y
            assert total.is_zero()


@pytest.mark.parametrize("case", sorted(CASES))
def test_sparse_matches_dense_elimination(case):
    rng = random.Random(f"rref-{case}")
    for _ in range(12):
        rows = CASES[case](rng)
        pivots = assert_same_reduction(rows)
        assert_kernel(rows)
        if case == "rank_deficient":
            assert len(pivots) <= 4
        elif case == "zero_column":
            assert all(any(not row[c].is_zero() for row in rows) for c in pivots)
        elif case == "early_stop":
            assert pivots == [0, 1, 2, 3]


@pytest.mark.parametrize("degree", [1, 2])
def test_determining_matrix_matches_dense_elimination(degree):
    _, system = build_system(parse_system(TWO_PARAMETER_SYSTEM))
    ds = build_determining(system, degree)
    zero = ParamFrac.constant(0)
    rows = [
        [ParamFrac(form[u]) if u in form else zero for u in ds.ansatz.unknowns]
        for form in ds.equations
    ]
    assert any(not x.num.is_constant() for row in rows for x in row)
    assert_same_reduction(rows)
    assert_kernel(rows)


def test_solve_param_reads_sparse_rows():
    one, zero = ParamFrac.constant(1), ParamFrac.constant(0)
    a, z = ParamFrac(A), ParamFrac(Z)
    rows = [[a, zero, one], [zero, z, zero]]
    x = solve_param(rows, [one, a])
    assert x is not None
    for row, b in zip(rows, [one, a]):
        total = zero
        for entry, xi in zip(row, x):
            total = total + entry * xi
        assert total == b
    assert solve_param([[a], [z]], [one, zero]) is None


@pytest.mark.parametrize("case", sorted(CASES))
def test_shared_zero_cells_match_fresh_zeros(case):
    # rref_param drops PARAM_ZERO cells by identity; rows that mix it with
    # zeros made elsewhere reduce exactly as the dense elimination does.
    rng = random.Random(f"shared-zero-{case}")
    for _ in range(6):
        rows = CASES[case](rng)
        shared = [
            [PARAM_ZERO if x.is_zero() and rng.random() < 0.5 else x for x in row]
            for row in rows
        ]
        assert any(x is PARAM_ZERO for row in shared for x in row)
        assert_same_reduction(shared)
        assert_kernel(shared)
