import json
import math
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import corpus
from baseline import BASELINE_ADJOINT_DELTAS, adjoint_matrix
from conftest import (
    DELTA_SYM,
    EPS_SYM,
    assert_rational,
    borel_algebra,
    expr_matrix,
    identity_matrix,
    jordan_algebra,
    mat_mul,
    substitute_matrix,
)
import liepde
from liepde import expr, linalg, structure
from liepde.adjoint import (
    EPS,
    _deflate,
    _putzer_step,
    ad_exp,
    ad_matrix,
    char_poly,
    exp_term,
    expression,
    matrix_exp,
    rational_eigenvalues,
)
from liepde.errors import NonPolynomialError, UnsupportedSpectrumError
from liepde.expr import ParamExp

F = Fraction


def unit(n, i):
    v = [F(0)] * n
    v[i] = F(1)
    return tuple(v)


class TestExpPolynomial:
    """The identities of the exp-polynomial sums c * eps^m * e^(k eps), in `expr`."""

    def test_value_at_zero(self):
        e = exp_term(3, 0, 2) + exp_term(5, 1, 0)
        assert expr.substitute(e, {EPS_SYM: 0}) == expr.Rational(3)

    def test_ring_ops(self):
        a = exp_term(1, 1, 1)  # eps e^eps
        b = exp_term(2, 0, -1)  # 2 e^-eps
        assert a * b == exp_term(2, 1, 0)
        assert expr.is_zero(a - a)

    def test_unique_keys(self):
        a = exp_term(1, 1, 2) + exp_term(2, 1, 2)
        assert len(expr.monomials(a)) == 1

    def test_derivative(self):
        e = exp_term(1, 2, 3)  # eps^2 e^{3 eps}
        assert expr.diff(e, EPS_SYM) == exp_term(2, 1, 3) + exp_term(3, 2, 3)

    def test_integration_against_derivative(self):
        # Putzer's step with eigenvalue 0 is the integral from 0 to eps
        rng = random.Random(67)
        for _ in range(100):
            cell = {}
            for _ in range(3):
                c = F(rng.randint(-4, 4))
                key = (rng.randint(0, 2), F(rng.randint(-2, 2)))
                cell[key] = cell.get(key, 0) + c
            cell = {key: c for key, c in cell.items() if c}
            e = sum((exp_term(c, m, k) for (m, k), c in cell.items()), expr.ZERO)
            integral = sum((exp_term(c, m, k)
                            for (m, k), c in _putzer_step(cell, F(0)).items()), expr.ZERO)
            assert expr.diff(integral, EPS_SYM) == e
            assert expr.is_zero(expr.substitute(integral, {EPS_SYM: 0}))

    def test_substitute_rational(self):
        # eps -> q delta is the point eps = q at delta = 1; e^(2 eps) at
        # eps = 1/2 is e^delta there, and a constant has no exponential form
        e = exp_term(1, 1, 0)
        assert expr.substitute(e, {EPS_SYM: F(3, 2) * DELTA_SYM}) == F(3, 2) * DELTA_SYM
        exp_part = expr.substitute(exp_term(1, 0, 2), {EPS_SYM: F(1, 2) * DELTA_SYM})
        assert exp_part == ParamExp(DELTA_SYM, 1)
        with pytest.raises(NonPolynomialError):
            expr.substitute(exp_term(1, 0, 2), {EPS_SYM: F(1, 2)})

    def test_substitute_sum_binomial(self):
        e = exp_term(1, 2, 1)
        expanded = expr.substitute(e, {EPS_SYM: EPS_SYM + DELTA_SYM})
        assert expanded == (EPS_SYM + DELTA_SYM) ** 2 * ParamExp(EPS_SYM, 1) \
            * ParamExp(DELTA_SYM, 1)
        assert expr.substitute(expanded, {DELTA_SYM: 0}) == e


class TestMatrixExp:
    def test_zero_matrix(self):
        E = matrix_exp([[F(0)]])
        assert expression(E[0][0]) == expr.ONE

    def test_nilpotent(self):
        E = matrix_exp([[F(0), F(1)], [F(0), F(0)]])
        assert expression(E[0][1]) == exp_term(1, 1, 0)

    def test_diagonalizable(self):
        E = matrix_exp([[F(2), F(0)], [F(0), F(-1)]])
        assert expression(E[0][0]) == exp_term(1, 0, 2)
        assert expression(E[1][1]) == exp_term(1, 0, -1)

    def test_jordan_block(self):
        # [[1,1],[0,1]]: exp = e^t [[1,t],[0,1]]
        E = matrix_exp([[F(1), F(1)], [F(0), F(1)]])
        assert expression(E[0][0]) == exp_term(1, 0, 1)
        assert expression(E[0][1]) == exp_term(1, 1, 1)

    def test_group_law_two_parameters(self):
        A = [[F(1), F(1)], [F(0), F(-2)]]
        Ee = expr_matrix(matrix_exp(A))
        Ed = substitute_matrix(Ee, {EPS_SYM: DELTA_SYM})
        via_sub = substitute_matrix(Ee, {EPS_SYM: EPS_SYM + DELTA_SYM})
        assert mat_mul(Ee, Ed) == via_sub

    def test_jordan_block_in_skew_basis(self):
        # A = P J P^-1 with J = [[2,1,0],[0,2,0],[0,0,-1]] and P's columns
        # (1,0,1), (1,1,0), (0,1,1): no generalized eigenvector is a
        # coordinate vector.  E(0) = I and E' = A E hold exactly.
        P = [[F(1), F(1), F(0)], [F(0), F(1), F(1)], [F(1), F(0), F(1)]]
        P_inv = [[F(1, 2), F(-1, 2), F(1, 2)], [F(1, 2), F(1, 2), F(-1, 2)],
                 [F(-1, 2), F(1, 2), F(1, 2)]]
        J = [[F(2), F(1), F(0)], [F(0), F(2), F(0)], [F(0), F(0), F(-1)]]

        def mul(X, Y):
            return [[sum(X[i][t] * Y[t][j] for t in range(3)) for j in range(3)]
                    for i in range(3)]

        A = mul(mul(P, J), P_inv)
        assert rational_eigenvalues(char_poly(A)) == {F(2): 2, F(-1): 1}
        E = matrix_exp(A)
        assert_exp_identities(A, expr_matrix(E))
        # the Jordan block shows as an eps * e^(2 eps) term
        assert any((F(0), (1,), (F(2),)) in e.terms for row in E for e in row)

    def test_irrational_spectrum_rejected(self):
        with pytest.raises(UnsupportedSpectrumError):
            matrix_exp([[F(0), F(2)], [F(1), F(0)]])  # eigenvalues +-sqrt(2)

    def test_char_poly_and_roots(self):
        A = [[F(2), F(1)], [F(0), F(3)]]
        p = char_poly(A)
        roots = rational_eigenvalues(p)
        assert roots == {F(2): 1, F(3): 1}


def interpolated_char_poly(A):
    """det(xI - A) at x = 0..n by linalg.det, interpolated by Lagrange;
    coefficients low to high."""
    n = len(A)
    points = list(range(n + 1))
    values = [linalg.det([[F(int(i == j) * x) - A[i][j] for j in range(n)]
                          for i in range(n)]) for x in points]
    out = [F(0)] * (n + 1)
    for x, v in zip(points, values):
        basis, denom = [F(1)], F(1)
        for y in points:
            if y != x:
                basis = poly_mul(basis, [F(-y), F(1)])
                denom *= x - y
        for k, b in enumerate(basis):
            out[k] += v * b / denom
    return out


def seeded_rational_matrix(rng, n):
    """Entries n/d with |n| <= 9 and d <= 7, about a third of them zero."""
    return [[F(0) if rng.random() < 0.3 else F(rng.randint(-9, 9), rng.randint(1, 7))
             for _ in range(n)] for _ in range(n)]


def seeded_nilpotent_matrix(rng, n):
    """(A, index): a seeded rational multiple of a unimodular conjugate of a
    nilpotent Jordan matrix with blocks of size <= 3, and its nilpotency
    index, the largest block size."""
    blocks = []
    while sum(size for _, size in blocks) < n:
        blocks.append((F(0), min(rng.randint(1, 3), n - sum(size for _, size in blocks))))
    scale = F(rng.choice([1, -1, 2, -3]), rng.choice([1, 2, 5]))
    A = [[scale * x for x in row] for row in conjugated_jordan_matrix(rng, blocks)]
    return A, max(size for _, size in blocks)


def nilpotency_index(A):
    """The least k with A^k = 0 by dense products, or None if there is none."""
    power = A
    for k in range(1, len(A) + 1):
        if not any(any(row) for row in power):
            return k
        power = _mat_mul_frac(power, A)
    return None


def counted_char_poly(A, monkeypatch):
    """char_poly(A) and the number of sparse matrix products it took."""
    calls = []
    rows_mul = liepde.adjoint._rows_mul

    def counting(*args):
        calls.append(args)
        return rows_mul(*args)

    with monkeypatch.context() as patch:
        patch.setattr(liepde.adjoint, "_rows_mul", counting)
        p = char_poly(A)
    return p, len(calls)


class TestCharPolyOracle:
    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_matrices(self, seed):
        A = seeded_rational_matrix(random.Random(seed), 1 + seed % 7)
        p = char_poly(A)
        assert p == interpolated_char_poly(A)
        for x in p:
            assert_rational(x)

    @pytest.mark.parametrize("A", [[], [[F(0)]], [[F(-5, 7)]], [[F(0)] * 4] * 4],
                             ids=["empty", "zero-1x1", "1x1", "zero-4x4"])
    def test_edge_cases(self, A):
        p = char_poly(A)
        assert p == interpolated_char_poly(A)
        for x in p:
            assert_rational(x)

    @pytest.mark.parametrize("seed", range(30))
    def test_seeded_nilpotent_matrices(self, seed, monkeypatch):
        # the recursion stops at the first zero M_k, which on a nilpotent
        # matrix is B^k at its nilpotency index, the largest block size
        rng = random.Random(3000 + seed)
        A, index = seeded_nilpotent_matrix(rng, 1 + seed % 8)
        p, products = counted_char_poly(A, monkeypatch)
        assert p == interpolated_char_poly(A) == [0] * len(A) + [1]
        for x in p:
            assert_rational(x)
        assert nilpotency_index(A) == index
        assert products <= index

    def test_nilpotent_ad_matrices_of_b4(self, borel4, monkeypatch):
        algebras = [borel4] + [borel_algebra(random.Random(s)) for s in (7, 8)]
        for L in algebras:
            nilpotent = 0
            for i in range(L.n):
                A = ad_matrix(L, unit(L.n, i))
                index = nilpotency_index(A)
                if index is None:
                    continue
                nilpotent += 1
                p, products = counted_char_poly(A, monkeypatch)
                assert p == [0] * L.n + [1]
                assert products <= index < L.n
            assert nilpotent == 6


class TestAdMatrix:
    def test_diagonal_action_of_v4(self, algebra):
        A = ad_matrix(algebra, unit(5, 3))
        # ad(v4) v1 = -v1, ad(v4) v3 = -2 v3, zero otherwise
        expected = {(0, 0): F(-1), (2, 2): F(-2)}
        for r in range(5):
            for c in range(5):
                assert A[r][c] == expected.get((r, c), F(0))

    def test_nilpotent_single_entry(self, algebra):
        A = ad_matrix(algebra, unit(5, 0))
        # ad(v1) v4 = v1
        assert A[0][3] == F(1)
        assert sum(1 for r in range(5) for c in range(5) if A[r][c]) == 1

    def test_central_element_zero(self, golden):
        from liepde.structure import structure_constants

        _, _, gens = golden
        L = structure_constants(list(gens[:3]))
        A = ad_matrix(L, unit(3, 0))
        assert all(all(x == 0 for x in row) for row in A)


class TestAdExp:
    def test_matches_baseline_except_stray_entry(self, golden, algebra):
        for i in range(5):
            M = ad_exp(algebra, i)
            B = adjoint_matrix(golden[0], i)
            strays = BASELINE_ADJOINT_DELTAS.get(i, ())
            for r in range(5):
                for c in range(5):
                    if (r, c) in strays:
                        assert expression(M[r][c]) != B[r][c]
                    else:
                        assert expression(M[r][c]) == B[r][c], (i, r, c)

    def test_record_layout(self, algebra, borel4):
        # pipeline.jexppoly and the benchmark's JSON dump read the terms
        # as (0, (m,), (k,)) -> nonzero c, with k and c each an int when
        # integral and a Fraction otherwise
        def check(e):
            for key, c in e.terms.items():
                r, (m,), (k,) = key
                assert r == 0 and type(r) is int and type(m) is int and m >= 0
                assert_rational(k)
                assert_rational(c)
                assert c
            assert len(set(e.terms)) == len(e.terms)

        for L in (algebra, borel4, jordan_algebra()):
            for i in range(L.n):
                for row in ad_exp(L, i):
                    for e in row:
                        check(e)
                for row in matrix_exp(ad_matrix(L, unit(L.n, i))):
                    for e in row:
                        check(e)

    def test_lie_series_orientation(self, algebra):
        # Ad(exp(eps v1)) v4 = v4 - eps v1
        M = ad_exp(algebra, 0)
        row = M[3]
        assert expression(row[0]) == exp_term(-1, 1, 0)
        assert expression(row[3]) == expr.ONE

    def test_scaling_entry(self, algebra):
        # Ad(exp(eps v5)) v3 = e^(-4 eps) v3
        M = ad_exp(algebra, 4)
        assert expression(M[2][2]) == exp_term(1, 0, -4)

    def test_identity_at_zero(self, algebra):
        for i in range(5):
            M = expr_matrix(ad_exp(algebra, i))
            assert substitute_matrix(M, {EPS_SYM: 0}) == identity_matrix(5)

    def test_inverse_at_negated_parameter(self, algebra):
        # Ad matrices at val*eps and -val*eps multiply to the identity at
        # every eps, so at every rational point
        for i in range(5):
            M = expr_matrix(ad_exp(algebra, i))
            for val in (F(1), F(1, 2), F(-2)):
                A = substitute_matrix(M, {EPS_SYM: val * EPS_SYM})
                B = substitute_matrix(M, {EPS_SYM: -val * EPS_SYM})
                assert mat_mul(A, B) == identity_matrix(5)

    def test_ad_homomorphism_preserves_constants(self, algebra):
        # [Ad x_j, Ad x_k] = Ad [x_j, x_k] over `expr` entries
        n = algebra.n
        for i in range(n):
            M = expr_matrix(ad_exp(algebra, i))
            for j in range(n):
                for k in range(n):
                    lhs = [expr.ZERO] * n
                    # bracket of images, expanded bilinearly
                    for a in range(n):
                        for b in range(n):
                            coeff = M[j][a] * M[k][b]
                            if expr.is_zero(coeff):
                                continue
                            cvec = algebra.constants[a][b]
                            for t in range(n):
                                if cvec[t]:
                                    lhs[t] = lhs[t] + coeff * cvec[t]
                    image_bracket = algebra.bracket_coords(unit(n, j), unit(n, k))
                    rhs = [sum((x * M[r][t] for r, x in enumerate(image_bracket)), expr.ZERO)
                           for t in range(n)]
                    assert lhs == rhs, (i, j, k)


# ---------------------------------------------------------------------------
# Oracle: the Jordan-Chevalley matrix exponential that Putzer's algorithm
# replaced, kept verbatim as an independent computation of exp(tA).
# ---------------------------------------------------------------------------

def jordan_chevalley_exp(A, param=EPS):
    """Exact exp(param * A) for a rational matrix with rational spectrum.

    Jordan-Chevalley: A = S + N with S diagonalizable and N nilpotent,
    S = sum_s lambda_s P_s over the spectral projectors P_s; then
    exp(tA) = sum_s e^(lambda_s t) P_s * sum_j t^j N^j / j!.
    """
    n = len(A)
    A = [[Fraction(x) for x in row] for row in A]
    roots = rational_eigenvalues(char_poly(A))
    projectors = _spectral_projectors(A, roots)
    S = [[Fraction(0)] * n for _ in range(n)]
    for lam, P in projectors.items():
        for i in range(n):
            for j in range(n):
                S[i][j] += lam * P[i][j]
    N = [[A[i][j] - S[i][j] for j in range(n)] for i in range(n)]
    # exp(tN): finite series.
    sym = expr.Symbol(param, expr.GROUP)
    exp_n = [[expr.ZERO] * n for _ in range(n)]
    Nk = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    fact = 1
    for power in range(n + 1):
        coeff = Fraction(1, fact)
        for i in range(n):
            for j in range(n):
                if Nk[i][j]:
                    exp_n[i][j] = exp_n[i][j] + Nk[i][j] * coeff * sym ** power
        if power < n:
            Nk = _mat_mul_frac(N, Nk)
            if all(all(x == 0 for x in row) for row in Nk):
                break
            fact *= power + 1
    result = [[expr.ZERO] * n for _ in range(n)]
    for lam, P in projectors.items():
        block = mat_mul(P, exp_n)
        for i in range(n):
            for j in range(n):
                result[i][j] = result[i][j] + ParamExp(sym, lam) * block[i][j]
    return [tuple(row) for row in result]


def _mat_mul_frac(A, B):
    """Product of Fraction matrices, skipping zero entries."""
    out = []
    for row in A:
        acc = [Fraction(0)] * len(B[0])
        for a, brow in zip(row, B):
            if a:
                for j, b in enumerate(brow):
                    if b:
                        acc[j] += a * b
        out.append(acc)
    return out


def _spectral_projectors(A, roots):
    """The projector P_s onto each generalized eigenspace, along the others.

    The columns of V are bases of the kernels of (A - lambda_s I)^m_s;
    V is inverted by one rref of [V | I], and P_s = V E_s V^-1 with E_s
    selecting the columns that belong to lambda_s.
    """
    n = len(A)
    columns = []
    for lam, m in roots.items():
        B = [[A[i][j] - (lam if i == j else 0) for j in range(n)] for i in range(n)]
        power = B
        for _ in range(m - 1):
            power = _mat_mul_frac(power, B)
        columns.extend((lam, v) for v in linalg.nullspace(power, n))
    identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    reduced, _ = linalg.rref(
        [[v[i] for _, v in columns] + identity[i] for i in range(n)]
    )
    inverse = [row[n:] for row in reduced]
    return {
        lam: [
            [
                sum((v[i] * w[j] for (mu, v), w in zip(columns, inverse) if mu == lam),
                    Fraction(0))
                for j in range(n)
            ]
            for i in range(n)
        ]
        for lam in roots
    }


def seeded_jordan_matrix(rng, n):
    """A = P (D + N) P^-1 with Jordan blocks of size <= 3 and a unimodular P."""
    blocks = []
    while sum(size for _, size in blocks) < n:
        size = min(rng.randint(1, 3), n - sum(size for _, size in blocks))
        blocks.append((rng.choice([F(0), F(1), F(-1), F(2), F(-1, 2), F(3)]), size))
    return conjugated_jordan_matrix(rng, blocks)


def conjugated_jordan_matrix(rng, blocks):
    """P J P^-1 for the Jordan matrix J with the (eigenvalue, size) blocks, in
    order, and a seeded unimodular P."""
    n = sum(size for _, size in blocks)
    J = [[F(0)] * n for _ in range(n)]
    start = 0
    for lam, size in blocks:
        for i in range(start, start + size):
            J[i][i] = lam
            if i + 1 < start + size:
                J[i][i + 1] = F(1)
        start += size
    lower = [[F(int(i == j)) if i <= j else F(rng.randint(-2, 2)) for j in range(n)]
             for i in range(n)]
    upper = [[F(int(i == j)) if i >= j else F(rng.randint(-2, 2)) for j in range(n)]
             for i in range(n)]
    P = _mat_mul_frac(lower, upper)
    identity = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    reduced, _ = linalg.rref([P[i] + identity[i] for i in range(n)])
    P_inv = [list(row[n:]) for row in reduced]
    return _mat_mul_frac(_mat_mul_frac(P, J), P_inv)


def spectrum_algebra(c):
    """[v1, v2] = c v2: ad(v1) has the eigenvalues 0 and c."""
    return structure.algebra_from_json(corpus.spectrum(c))


def assert_exp_identities(A, E):
    """E(0) = I and E' = A E for `expr` entries E of exp(eps A)."""
    assert substitute_matrix(E, {EPS_SYM: 0}) == identity_matrix(len(A))
    derivative = [tuple(expr.diff(e, EPS_SYM) for e in row) for row in E]
    assert derivative == mat_mul(A, E)


def assert_matches_oracle(A):
    E = expr_matrix(matrix_exp(A))
    assert E == jordan_chevalley_exp(A)
    assert_exp_identities(A, E)


class TestMatrixExpOracle:
    @pytest.mark.parametrize("seed", range(60))
    def test_seeded_jordan_forms(self, seed):
        rng = random.Random(seed)
        assert_matches_oracle(seeded_jordan_matrix(rng, 1 + seed % 6))

    @pytest.mark.parametrize("seed", range(20))
    def test_most_repeated_eigenvalue_nonzero_in_a_block(self, seed):
        # the Putzer products end on the most repeated eigenvalue: here it is
        # nonzero, with a Jordan block of size 2 or 3 and perhaps a second
        # block, and every other eigenvalue is less repeated
        rng = random.Random(2000 + seed)
        lam = rng.choice([F(1), F(-1), F(2), F(-1, 2), F(3), F(2, 3)])
        blocks = [(lam, rng.randint(2, 3))]
        if rng.random() < 0.5:
            blocks.append((lam, rng.randint(1, blocks[0][1])))
        top = sum(size for _, size in blocks)
        others = [mu for mu in (F(0), F(1), F(-2), F(1, 3)) if mu != lam]
        for mu in rng.sample(others, rng.randint(1, 2)):
            room = min(top - 1, 8 - sum(size for _, size in blocks), 3)
            if room:
                blocks.append((mu, rng.randint(1, room)))
        rng.shuffle(blocks)
        A = conjugated_jordan_matrix(rng, blocks)
        roots = rational_eigenvalues(char_poly(A))
        assert max(roots.values()) == roots[lam] == top
        assert sorted(roots.values()).count(top) == 1
        assert_matches_oracle(A)

    @pytest.mark.parametrize("seed", range(20))
    def test_eigenvalues_tied_in_multiplicity(self, seed):
        # two eigenvalues of equal multiplicity, each split into blocks
        # of size <= 3, so the stable order decides which goes last
        rng = random.Random(2500 + seed)
        first, second = rng.sample([F(0), F(1), F(-1), F(2), F(-1, 2), F(3)], 2)
        count = rng.randint(1, 3 if seed % 2 else 4)
        blocks = []
        for lam in (first, second):
            left = count
            while left:
                size = rng.randint(1, min(3, left))
                blocks.append((lam, size))
                left -= size
        rng.shuffle(blocks)
        A = conjugated_jordan_matrix(rng, blocks)
        assert rational_eigenvalues(char_poly(A)) == {first: count, second: count}
        assert_matches_oracle(A)

    def test_empty_matrix(self):
        assert matrix_exp([]) == []

    @pytest.mark.parametrize("seed", range(4))
    def test_large_jordan_forms_with_thirds(self, seed):
        # 7x7 and 8x8, two eigenvalues with denominator 3 alternating over
        # blocks of size <= 3, so each nonzero eigenvalue that repeats does
        # so in separate blocks
        rng = random.Random(1000 + seed)
        n = 7 + seed % 2
        first = F(rng.choice([-5, -4, -2, -1, 1, 2, 4, 5]), 3)
        lams = [first, first + rng.choice([-1, 1, 2])]
        blocks = []
        while sum(size for _, size in blocks) < n:
            size = min(rng.randint(1, 3), n - sum(size for _, size in blocks))
            blocks.append((lams[len(blocks) % 2], size))
        A = conjugated_jordan_matrix(rng, blocks)
        roots = rational_eigenvalues(char_poly(A))
        assert roots == {lam: sum(s for mu, s in blocks if mu == lam) for lam in lams}
        assert any(x.denominator == 3 for row in A for x in row)
        assert_matches_oracle(A)

    def test_ad_matrices(self, algebra, borel4):
        rng = random.Random(12)
        algebras = [algebra, borel4] + [borel_algebra(random.Random(s)) for s in (1, 2, 3)]
        algebras.append(spectrum_algebra(10 ** 12 + rng.randrange(1, 10 ** 6)))
        for L in algebras:
            for i in range(L.n):
                A = ad_matrix(L, unit(L.n, i))
                assert_matches_oracle(A)
                assert_matches_oracle([[-x for x in row] for row in A])


# ---------------------------------------------------------------------------
# Oracle: the divisor search that integer root isolation replaced, kept
# verbatim.  It also fixes the key order of rational_eigenvalues.
# ---------------------------------------------------------------------------

def _find_rational_root(p):
    """A rational root r of p and the quotient p / (x - r), or None."""
    scale = 1
    for x in p:
        scale = scale * x.denominator // math.gcd(scale, x.denominator)
    ints = [int(x * scale) for x in p]
    a0, an = ints[0], ints[-1]
    if a0 == 0:
        return Fraction(0), p[1:]
    for num in _divisors(abs(a0)):
        for den in _divisors(abs(an)):
            for sign in (1, -1):
                cand = Fraction(sign * num, den)
                quotient, value = _deflate(p, cand)
                if value == 0:
                    return cand, quotient
    return None


def _divisors(n):
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def divisor_search_eigenvalues(c):
    p = list(c)
    roots = {}
    while len(p) > 1 and p[0] == 0:
        roots[Fraction(0)] = roots.get(Fraction(0), 0) + 1
        p = p[1:]
    while len(p) > 1:
        found = _find_rational_root(p)
        if found is None:
            raise UnsupportedSpectrumError(
                "characteristic polynomial does not split over the rationals; "
                f"stuck factor has coefficients {[str(x) for x in p]}"
            )
        root, p = found
        roots[root] = roots.get(root, 0) + 1
    return roots


def poly_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def seeded_product(rng, irreducible):
    """c * prod (d x - n)^e over small rationals n/d, with 0 and repeats,
    times x^2 + b x + c with no rational root when `irreducible`."""
    p = [rng.choice([F(1), F(-1), F(3), F(1, 2), F(-2, 3)])]
    for _ in range(rng.randint(1, 6)):
        d, n = rng.randint(1, 4), rng.randint(-6, 6)
        for _ in range(rng.choice([1, 1, 2, 3])):
            p = poly_mul(p, [F(-n), F(d)])
    if irreducible:
        p = poly_mul(p, [F(rng.choice([2, 3, 5])), F(rng.randint(-1, 1)), F(1)])
    return p


def outcome(find, c):
    try:
        return list(find(c).items())
    except UnsupportedSpectrumError as exc:
        return str(exc)


class TestRootSearchOracle:
    @pytest.mark.parametrize("seed", range(120))
    def test_seeded_products(self, seed):
        rng = random.Random(seed)
        irreducible = seed % 4 == 3
        p = seeded_product(rng, irreducible)
        want = outcome(divisor_search_eigenvalues, p)
        assert outcome(rational_eigenvalues, p) == want
        assert isinstance(want, str) == irreducible

    def test_irreducible_quadratic_names_the_stuck_factor(self):
        p = poly_mul(poly_mul([F(-1), F(2)], [F(3), F(1)]), [F(2), F(0), F(1)])
        with pytest.raises(UnsupportedSpectrumError) as err:
            rational_eigenvalues(p)
        assert str(err.value) == outcome(divisor_search_eigenvalues, p)
        assert "stuck factor has coefficients ['4', '0', '2']" in str(err.value)

    def test_key_order_follows_the_divisor_search(self):
        p = [F(1)]
        for r in (F(-3), F(1, 2), F(3), F(-1, 2), F(0), F(1, 2), F(2, 3)):
            p = poly_mul(p, [-r, F(1)])
        assert list(rational_eigenvalues(p).items()) == [
            (F(0), 1), (F(1, 2), 2), (F(-1, 2), 1), (F(2, 3), 1), (F(3), 1), (F(-3), 1),
        ]

    def test_large_root(self):
        c = 10 ** 24 + 7
        assert rational_eigenvalues([F(0), F(-c), F(1)]) == {F(0): 1, F(c): 1}
        assert rational_eigenvalues([F(c), F(-2 * c - 1), F(2)]) == {F(1, 2): 1, F(c): 1}

    def test_large_spectrum_normal_form_cli(self, tmp_path):
        # [v1, v2] = (10^24 + 7) v2: the divisor search ran past 15 s here
        c = corpus.HUGE
        constants = tmp_path / "algebra.json"
        constants.write_text(json.dumps(corpus.spectrum(c)))
        env = dict(os.environ)
        src = str(pathlib.Path(liepde.__file__).parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-m", "liepde", "normal-form", "--vector", "1,1",
             "--constants", str(constants)],
            env=env, capture_output=True, text=True, timeout=2,
        )
        assert run.returncode == 0, run.stderr
        assert "output: v1\n" in run.stdout
        assert f"step: Ad(exp(-1/{c} v2)) -> v1" in run.stdout
