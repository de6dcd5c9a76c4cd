import random
from fractions import Fraction

import pytest

from liepde import adjoint, expr, pipeline, reference, structure
from liepde.fields import VectorField


@pytest.fixture(scope="session")
def golden():
    """Jet space, PDE system, and reference generators of the golden fixture."""
    space, system = reference.fixture_system()
    gens = reference.generators(space)
    return space, system, gens


@pytest.fixture(scope="session")
def fixture_report():
    """Pipeline report of the shipped fixture at an ansatz degree, run once per degree."""
    reports = {}

    def report(degree):
        if degree not in reports:
            reports[degree] = pipeline.run_pipeline(
                reference.fixture_document(), ansatz_degree=degree
            )
        return reports[degree]

    return report


@pytest.fixture(scope="session")
def golden_report(fixture_report):
    return fixture_report(1)


@pytest.fixture(scope="session")
def algebra(golden):
    space, _, gens = golden
    return structure.structure_constants(
        gens, labels=[f"v{i + 1}" for i in range(5)]
    )


def jordan_algebra():
    """[v1, v2] = v2/2 and [v1, v3] = v2 + v3/2: ad v1 is one Jordan block."""
    return structure.LieAlgebra.from_brackets(
        3, {(0, 1): (0, Fraction(1, 2), 0), (0, 2): (0, 1, Fraction(1, 2))})


def sl2_algebra():
    """sl(2) on e, h, f: [e, h] = -2e, [e, f] = h and [h, f] = -2f."""
    return structure.LieAlgebra.from_brackets(
        3, {(0, 1): (-2, 0, 0), (0, 2): (0, 1, 0), (1, 2): (0, 0, -2)},
        labels=["e", "h", "f"])


def heisenberg_algebra():
    """h(3) on x, y, z: [x, y] = z, and z is central."""
    return structure.LieAlgebra.from_brackets(
        3, {(0, 1): (0, 0, 1)}, labels=["x", "y", "z"])


def borel_algebra(rng=None, size=4):
    """b(size), the upper-triangular matrices, on the basis R_k = s_k E_pq.

    Without `rng` the units E_pq come in row order with every s_k = 1; with
    it, the order and the scalings s_k in {1, -1, 2, -2} are seeded.
    """
    pairs = [(p, q) for p in range(size) for q in range(p, size)]
    scales = [1] * len(pairs)
    if rng is not None:
        rng.shuffle(pairs)
        scales = [rng.choice([1, -1, 2, -2]) for _ in pairs]
    index = {pair: k for k, pair in enumerate(pairs)}
    brackets = {}
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs[a + 1:], a + 1):
            # [E_ij, E_kl] = delta_jk E_il - delta_li E_kj
            vec = [Fraction(0)] * len(pairs)
            s = scales[a] * scales[b]
            if j == k:
                vec[index[(i, l)]] += Fraction(s, scales[index[(i, l)]])
            if l == i:
                vec[index[(k, j)]] -= Fraction(s, scales[index[(k, j)]])
            if any(vec):
                brackets[(a, b)] = vec
    labels = [f"E{p + 1}{q + 1}" for p, q in pairs]
    return structure.LieAlgebra.from_brackets(len(pairs), brackets, labels=labels)


@pytest.fixture(scope="session")
def borel4():
    """b(4) on the units E_pq in row order."""
    return borel_algebra()


@pytest.fixture(scope="session")
def symmetry_basis(golden):
    from liepde.prolongation import build_determining, solve_determining

    _, system, _ = golden
    return solve_determining(build_determining(system, 1))


def random_expression(rng, symbols, depth=3):
    """Random expression tree over the given symbols, small exact coefficients."""
    if depth == 0 or rng.random() < 0.3:
        kind = rng.randrange(3)
        if kind == 0:
            return expr.Rational(rng.randint(-4, 4))
        if kind == 1:
            return expr.Rational(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        return rng.choice(symbols)
    kind = rng.randrange(4)
    if kind == 0:
        return random_expression(rng, symbols, depth - 1) + random_expression(
            rng, symbols, depth - 1
        )
    if kind == 1:
        return random_expression(rng, symbols, depth - 1) * random_expression(
            rng, symbols, depth - 1
        )
    if kind == 2:
        return random_expression(rng, symbols, depth - 1) - random_expression(
            rng, symbols, depth - 1
        )
    return expr.Power(random_expression(rng, symbols, depth - 1), rng.randint(0, 2))


def random_affine_field(rng, space):
    """Random vector field with affine coefficients over the base variables."""
    base = space.independent + space.dependent
    coeffs = []
    for _ in range(space.p + space.q):
        c = expr.Rational(rng.randint(-3, 3))
        for sym in base:
            if rng.random() < 0.4:
                c = c + expr.Rational(rng.randint(-2, 2)) * sym
        coeffs.append(c)
    return VectorField(space, tuple(coeffs[: space.p]), tuple(coeffs[space.p:]))


EPS_SYM = adjoint.EPS_SYMBOL
DELTA_SYM = expr.Symbol("delta", expr.GROUP)


def expr_matrix(M):
    """The `matrix_exp` or `ad_exp` records of M as `expr` entries."""
    return [tuple(adjoint.expression(e) for e in row) for row in M]


def substitute_matrix(M, rules):
    return [tuple(expr.substitute(e, rules) for e in row) for row in M]


def identity_matrix(n):
    return [tuple(expr.ONE if i == j else expr.ZERO for j in range(n)) for i in range(n)]


def mat_mul(A, B):
    """Product of matrices of `expr` values."""
    n = len(A)
    m = len(B[0])
    inner = len(B)
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = None
            for t in range(inner):
                term = A[i][t] * B[t][j]
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(tuple(row))
    return out


def substitute_map(fm, rules):
    """The flow with `rules` substituted into every image."""
    return {z: expr.substitute(e, rules) for z, e in fm.items()}


def identity_map(coords):
    return {z: z for z in coords}


def adjoint_image(L, i, a):
    """The row vector a . Ad(exp(eps v_i)), with `expr` components in eps."""
    M = expr_matrix(adjoint.ad_exp(L, i))
    return tuple(sum((x * M[r][j] for r, x in enumerate(a)), expr.ZERO)
                 for j in range(L.n))
