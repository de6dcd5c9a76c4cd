"""The sparse elimination kernel against the dense eliminations it replaced.

Over the parameter field, `ParamFrac` does not cancel common polynomial
factors, so two elimination paths that agree in value can still store
different numerators and denominators, and `clear_denominators` then
scales a basis vector by a spurious parameter factor.  Those tests
therefore compare representations, not only values.  A rational element
is a plain number, an int when it is integral and a Fraction otherwise;
only an element that holds a parameter is a `ParamFrac`.  Over Q the
reduced row echelon form is unique, and the kernel must give the dense
loop's rows and pivots exactly.
"""

import random
from fractions import Fraction

import pytest

from liepde import expr, reference
from liepde.expr import PARAMETER, Symbol
from liepde.linalg import (
    Echelon,
    ParamFrac,
    dense,
    element,
    nullspace,
    nullspace_param,
    rref,
    rref_param,
    sparse,
)
from liepde.parser import build_system, parse_system
from liepde.prolongation import build_determining

import corpus
from conftest import assert_element, assert_rational, parts, solve

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
        candidates = [i for i in range(r, len(rows)) if rows[i][c]]
        if not candidates:
            continue
        # The structurally simplest pivot limits growth; of those, the row
        # with the fewest nonzero cells limits fill-in.
        i = min(candidates, key=lambda i: (ParamFrac.complexity(rows[i][c]),
                                           sum(1 for x in rows[i] if x)))
        rows[r], rows[i] = rows[i], rows[r]
        inv = ParamFrac.inverse(rows[r][c])
        rows[r] = [x * inv for x in rows[r]]
        for j in range(len(rows)):
            if j != r and rows[j][c]:
                f = rows[j][c]
                rows[j] = [a - f * b for a, b in zip(rows[j], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def dense_rref(rows):
    """Reduced row echelon form over Q; returns (rows, pivot column indices)."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return [tuple(row) for row in rows[:r]], pivots


def random_entry(rng, density=0.4):
    if rng.random() > density:
        return 0
    scale = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
    if rng.random() < 0.5:
        return element(scale)
    return ParamFrac(expr.Rational(scale) * rng.choice(POLYNOMIALS))


def random_matrix(rng, nrows, ncols):
    return [[random_entry(rng) for _ in range(ncols)] for _ in range(nrows)]


def rank_deficient(rng):
    rows = random_matrix(rng, 4, 6)
    for _ in range(4):
        p, q = rng.sample(rows, 2)
        f, g = random_entry(rng, 1), random_entry(rng, 1)
        rows.insert(rng.randrange(len(rows) + 1),
                    [element(f * x + g * y) for x, y in zip(p, q)])
    return rows


def zero_column(rng):
    rows = random_matrix(rng, 6, 6)
    c = rng.randrange(6)
    for row in rows:
        row[c] = 0
    return rows


def tall(rng):
    return random_matrix(rng, 12, 5)


def early_stop(rng):
    # The leading 4x4 block is upper triangular with a nonzero diagonal, so
    # the rank reaches the row count at column 3 and columns 4.. are never
    # visited.
    rows = random_matrix(rng, 4, 9)
    for i, row in enumerate(rows):
        row[:i] = [0] * i
        row[i] = random_entry(rng, 1)
    rng.shuffle(rows)
    return rows


def constants(rng):
    # Every nonzero entry has complexity() 2, so each pivot is a tie that the
    # row position breaks, and the swaps move rows often.
    values = [0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]
    rows = [[rng.choice(values) for _ in range(7)] for _ in range(5)]
    for _ in range(3):
        p, q = rng.sample(rows, 2)
        f, g = (rng.choice(values[3:]) for _ in range(2))
        rows.insert(rng.randrange(len(rows) + 1),
                    [element(f * x + g * y) for x, y in zip(p, q)])
    return rows


CASES = {
    "rank_deficient": rank_deficient,
    "zero_column": zero_column,
    "tall": tall,
    "early_stop": early_stop,
    "constants": constants,
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
                assert_element(sparse[k])
                assert sparse[k]
                assert parts(sparse[k]) == parts(dense[k])
            else:
                assert not dense[k]
    return pivots


def assert_kernel(rows):
    ncols = len(rows[0])
    sparse = [{c: element(x) for c, x in enumerate(row) if x}
              for row in rows]
    for v in nullspace_param(sparse, ncols):
        v = dense(v, ncols)
        for x in v:
            assert_element(x)
        for row in rows:
            total = 0
            for x, y in zip(row, v):
                total = total + x * y
            assert not total


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
            assert all(any(row[c] for row in rows) for c in pivots)
        elif case == "early_stop":
            assert pivots == [0, 1, 2, 3]


@pytest.mark.parametrize("text, degree", [
    (corpus.TWO_PARAMETER, 1),
    (corpus.TWO_PARAMETER, 2),
    (reference.fixture_text(), 2),
], ids=["1", "2", "fixture-2"])
def test_determining_matrix_matches_dense_elimination(text, degree):
    _, system = build_system(parse_system(text))
    ds = build_determining(system, degree)
    # dense rows of caller-made ParamFracs, constants among them, which the
    # elimination takes as the numbers they hold
    rows = [
        [ParamFrac(form[u]) if u in form else 0 for u in ds.ansatz.unknowns]
        for form in ds.equations
    ]
    assert any(type(x) is ParamFrac and x.num.is_constant() for row in rows for x in row)
    assert any(type(x) is ParamFrac and not x.num.is_constant() for row in rows for x in row)
    assert_same_reduction(rows)
    assert_kernel(rows)


def assert_unit_pivots(space):
    # each pivot column holds the int 1 in its own row and nothing elsewhere
    for i, c in enumerate(space.pivots):
        assert type(space.rows[i][c]) is int and space.rows[i][c] == 1
        assert [j for j, row in enumerate(space.rows) if c in row] == [i]


@pytest.mark.parametrize("case", sorted(CASES))
def test_pivot_columns_hold_a_unit_and_nothing_else(case):
    rng = random.Random(f"unit-pivot-{case}")
    for _ in range(12):
        rows = CASES[case](rng)
        assert_unit_pivots(Echelon([sparse(r) for r in rows], len(rows[0])))


def test_fixture_pivot_columns_hold_a_unit_and_nothing_else():
    _, system = build_system(parse_system(reference.fixture_text()))
    ds = build_determining(system, 3)
    space = Echelon([dict(r) for r in ds.rows], len(ds.ansatz.unknowns))
    assert len(space.pivots) == 272
    assert_unit_pivots(space)


LANE_VALUES = [0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-4, 3), Fraction(2, 3)]


def assert_number(x, node):
    """`x` is the number of the constant `node` that expr arithmetic gives, as
    the parameter field holds it: an int when it is integral, else a
    Fraction."""
    assert type(x) is type(node.coeff) and x == node.coeff, (x, node)


def test_rational_lane_matches_expr_arithmetic():
    # a constant result of ParamFrac arithmetic is a number: the value that
    # expr arithmetic on the numerators and denominators gives
    wrapped = [ParamFrac(expr.constant(v)) for v in LANE_VALUES]
    for a in LANE_VALUES + wrapped:
        n, d = parts(a)
        assert (not a) == expr.is_zero(n)
        if a:
            assert ParamFrac.complexity(a) == 2
            assert_number(ParamFrac.inverse(a), d / n)
        for b in wrapped:
            m, e = parts(b)
            assert_number(a * b, n * m)
            assert_number(b * a, n * m)
            assert_number(a + b, n + m)
            assert_number(b + a, n + m)
            assert_number(a - b, n - m)
            assert_number(b - a, m - n)
            if not expr.is_zero(n):
                assert_number(b / a, m / n)
        assert_number(element(a), n)
    assert_number(-wrapped[5], -parts(wrapped[5])[0])
    with pytest.raises(ZeroDivisionError):
        ParamFrac.inverse(0)
    with pytest.raises(ZeroDivisionError):
        ParamFrac(expr.ZERO).inverse()
    with pytest.raises(TypeError):
        element(0.5)
    for p in POLYNOMIALS:
        x = ParamFrac(expr.ONE, p) + ParamFrac(p)
        assert x.complexity() == len(expr.monomials(x.num)) + len(expr.monomials(x.den))
        # results that cancel to a constant come back as numbers
        q = ParamFrac(p)
        assert_number(q - q, expr.ZERO)
        assert_number(q * q.inverse(), expr.ONE)
        assert_number(ParamFrac(expr.Rational(-2, 3) * p) / q, expr.Rational(-2, 3))
        assert_number(x - x, expr.ZERO)
        assert_number(ParamFrac(3 * p, p + 1) * ParamFrac(p + 1, p), expr.Rational(3))


RHO = Symbol("rho", PARAMETER)
NU = Symbol("nu", PARAMETER)


def laurent_monomial(rng):
    """c * rho^i * nu^j, with c negative or fractional and i, j negative,
    zero or positive: a number when i = j = 0."""
    c = Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.choice([1, 2, 3]))
    return element(expr.constant(c) * RHO ** rng.randint(-2, 2) * NU ** rng.randint(-2, 2))


def assert_same_element(fast, general):
    assert parts(fast) == parts(general)
    assert type(fast) is type(element(general))
    if type(fast) is ParamFrac:
        assert type(fast.num) is type(general.num)
        assert (fast.den is expr.ONE) == (general.den is expr.ONE)


def test_monomial_inverse_and_difference_match_general_formulas():
    # the fast inverse of a Laurent monomial and the one-step difference give
    # the numerator and denominator nodes of the general formulas, down to a
    # denominator that is `expr.ONE` itself
    rng = random.Random("laurent-monomials")
    sums = [RHO + NU, RHO - 2 * NU, RHO * NU + 1]
    monomials = [laurent_monomial(rng) for _ in range(60)]
    assert any(type(x) is ParamFrac and len(x.num._poly()) == 1 for x in monomials)
    assert any(type(x) is not ParamFrac for x in monomials)
    for x in monomials:
        n, d = parts(x)
        assert_same_element(ParamFrac.inverse(x), ParamFrac(d, n))
    for a, b in zip(monomials, monomials[1:]):
        assert_same_element(a - b, a + (-b))
        p, q = rng.sample(sums, 2)
        ap, bp, bq = (x * ParamFrac(expr.ONE, s) for x, s in ((a, p), (b, p), (b, q)))
        assert ap.den == bp.den and ap.den != bq.den
        for x, y in ((ap, bp), (ap, bq), (a, bq), (bq, a)):
            assert_same_element(x - y, x + (-y))
        assert_same_element(ap.inverse(), ParamFrac(ap.den, ap.num))
    with pytest.raises(ZeroDivisionError):
        ParamFrac(expr.ZERO).inverse()
    with pytest.raises(ZeroDivisionError):
        ParamFrac.inverse(monomials[0] - monomials[0])


def test_paramfrac_is_unhashable():
    # equal elements can have different representations, so no hash can
    # agree with field equality
    a = ParamFrac(A * A - 1, A * A + A)
    b = ParamFrac(A - 1, A)
    assert a == b
    for x in (a, b, ParamFrac(expr.ONE)):
        with pytest.raises(TypeError):
            hash(x)


@pytest.mark.parametrize("case", sorted(CASES))
def test_shared_zero_cells_match_fresh_zeros(case):
    # the field's zero is the number 0; rows that mix it with zeros a caller
    # wraps as ParamFrac(expr.ZERO) reduce exactly as the dense elimination does
    rng = random.Random(f"shared-zero-{case}")
    for _ in range(6):
        rows = CASES[case](rng)
        shared = [
            [ParamFrac(expr.ZERO) if not x and rng.random() < 0.5 else x
             for x in row]
            for row in rows
        ]
        assert any(type(x) is ParamFrac and not x for row in shared for x in row)
        assert_same_reduction(shared)
        assert_kernel(shared)


def sparse_laurent_matrix(rng, nrows, ncols):
    """Sparse rows whose cells are ints, Fractions and Laurent monomials in
    rho and nu, with some rows parameter-field combinations of others."""
    def cell():
        kind = rng.random()
        if kind < 0.35:
            return rng.choice([-3, -2, -1, 1, 2, 4])
        if kind < 0.5:
            return element(Fraction(rng.choice([-5, -1, 1, 3]), rng.choice([2, 3, 4])))
        return laurent_monomial(rng)

    rows = [{c: cell() for c in range(ncols) if rng.random() < 0.35}
            for _ in range(nrows)]
    for _ in range(nrows // 3):
        p, q = rng.sample(rows, 2)
        f, g = cell(), cell()
        combined = {}
        for c in set(p) | set(q):
            x = element(f * p.get(c, 0) + g * q.get(c, 0))
            if x:
                combined[c] = x
        rows.insert(rng.randrange(len(rows) + 1), combined)
    return [row for row in rows if row]


def annihilates(row, vector):
    """Whether sum_k row[k] * vector[k] is zero, in expr arithmetic: each
    entry n / d of the vector is multiplied by the product D of all the
    denominators, as n * (D / d)."""
    entries = [parts(x) for x in vector]
    common = expr.ONE
    for _, d in entries:
        common = common * d
    total = expr.ZERO
    for k, x in row.items():
        n, d = entries[k]
        total = total + parts(x)[0] * n * expr.divide(common, d)
    return expr.is_zero(total)


def test_kernel_vectors_annihilate_mixed_rows_in_expr_arithmetic():
    rng = random.Random("mixed-oracle")
    checked = 0
    for _ in range(15):
        ncols = rng.randint(4, 9)
        rows = sparse_laurent_matrix(rng, rng.randint(3, 8), ncols)
        for row in rows:
            for x in row.values():
                assert_element(x)
        kernel = [dense(v, ncols) for v in nullspace_param(rows, ncols)]
        for v in kernel:
            assert len(v) == ncols
            for x in v:
                assert_element(x)
            for row in rows:
                assert annihilates(row, v)
                checked += 1
    assert checked > 50


# ---------------------------------------------------------------------------
# Over Q
# ---------------------------------------------------------------------------

def rational_entry(rng, density=0.5):
    if rng.random() > density:
        return Fraction(0)
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))


def rational_matrix(rng, nrows, ncols):
    return [[rational_entry(rng) for _ in range(ncols)] for _ in range(nrows)]


def q_rank_deficient(rng):
    rows = rational_matrix(rng, 3, 6)
    for _ in range(3):
        p, q = rng.sample(rows, 2)
        f, g = rational_entry(rng, 1), rational_entry(rng, 1)
        rows.insert(rng.randrange(len(rows) + 1), [f * x + g * y for x, y in zip(p, q)])
    return rows


def q_duplicate(rng):
    rows = rational_matrix(rng, 4, 5)
    rows += [list(rows[rng.randrange(4)]) for _ in range(3)]
    rng.shuffle(rows)
    return rows


def q_zero(rng):
    ncols = rng.randint(1, 5)
    return [[Fraction(0)] * ncols for _ in range(rng.randint(1, 4))]


Q_CASES = {
    "rank_deficient": q_rank_deficient,
    "duplicate": q_duplicate,
    "zero": q_zero,
    "wide": lambda rng: rational_matrix(rng, 3, 9),
    "tall": lambda rng: rational_matrix(rng, 10, 4),
    "square": lambda rng: rational_matrix(rng, 6, 6),
    "integer": lambda rng: [[int(x) for x in row]
                            for row in rational_matrix(rng, 5, 5)],
}


def assert_same_rational_reduction(rows):
    reduced, pivots = rref(rows)
    expected, expected_pivots = dense_rref(rows)
    assert pivots == expected_pivots
    assert reduced == expected
    for row in reduced:
        for x in row:
            assert_rational(x)
    return reduced, pivots


@pytest.mark.parametrize("case", sorted(Q_CASES))
def test_rational_kernel_matches_dense_elimination(case):
    rng = random.Random(f"rref-q-{case}")
    for _ in range(15):
        rows = Q_CASES[case](rng)
        ncols = len(rows[0])
        reduced, pivots = assert_same_rational_reduction(rows)
        shuffled = list(rows)
        rng.shuffle(shuffled)
        assert assert_same_rational_reduction(shuffled) == (reduced, pivots)
        kernel = nullspace(rows, ncols)
        assert len(kernel) == ncols - len(pivots)
        for v in kernel:
            assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in rows)
        if case == "zero":
            assert (reduced, pivots) == ([], [])


def test_rational_kernel_on_empty_matrices():
    assert rref([]) == dense_rref([]) == ([], [])
    assert nullspace([], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert solve([], []) is None


def test_solve_detects_inconsistent_systems():
    rng = random.Random("solve-q")
    for _ in range(20):
        rows = q_rank_deficient(rng)
        x = [rational_entry(rng, 1) for _ in range(len(rows[0]))]
        rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
        y = solve(rows, rhs)
        assert y is not None
        assert [sum(a * b for a, b in zip(row, y)) for row in rows] == rhs
        # rank 3 among 6 rows: some rhs outside the column space exists
        reduced, pivots = rref([list(row) + [b] for row, b in zip(rows, rhs)])
        assert len(pivots) <= 3
        for k in range(len(rows)):
            bad = list(rhs)
            bad[k] += 1
            if len(rref([list(row) + [b] for row, b in zip(rows, bad)])[1]) > len(pivots):
                assert solve(rows, bad) is None
                break
        else:
            pytest.fail("no inconsistent right-hand side found")
    assert solve([[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]],
                 [Fraction(1), Fraction(3)]) is None
