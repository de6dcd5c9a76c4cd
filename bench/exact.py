"""Exact rational algebra used by the benchmark's correctness checks.

Written independently of liepde: sparse rank over the rationals, Lie
algebras given by structure constants, and exponential polynomials
c * eps^m * e^(k*eps) stored as {(m, k): c}.  The adjoint action follows
Olver's sign convention, Ad(exp(eps v)) w = w - eps [v, w] + ..., i.e.
exp(-eps ad v).
"""

from __future__ import annotations

from fractions import Fraction as F
from math import factorial


def echelon(rows):
    """Echelon basis {pivot column: row dict} of rows given as sequences or dicts."""
    pivots = {}
    for row in rows:
        items = row.items() if isinstance(row, dict) else enumerate(row)
        v = {j: F(x) for j, x in items if x}
        while v:
            col = min(v)
            pivot = pivots.get(col)
            if pivot is None:
                inv = 1 / v[col]
                pivots[col] = {j: x * inv for j, x in v.items()}
                break
            f = v[col]
            for j, x in pivot.items():
                y = v.get(j, 0) - f * x
                if y:
                    v[j] = y
                else:
                    v.pop(j, None)
    return pivots


def rank(rows):
    return len(echelon(rows))


def in_span(basis, vector):
    return rank(list(basis) + [vector]) == rank(basis)


def same_span(a, b):
    r = rank(a)
    return r == rank(b) == rank(list(a) + list(b))


def mat_mul(A, B):
    return [
        [sum((A[i][t] * B[t][j] for t in range(len(B))), F(0)) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


# -- exponential polynomials {(m, k): c} -----------------------------------------

def ep_const(c):
    c = F(c)
    return {(0, F(0)): c} if c else {}


def ep_add(a, b):
    out = dict(a)
    for key, c in b.items():
        s = out.get(key, 0) + c
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def ep_mul(a, b):
    out = {}
    for (m1, k1), c1 in a.items():
        for (m2, k2), c2 in b.items():
            key = (m1 + m2, k1 + k2)
            s = out.get(key, 0) + c1 * c2
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def ep_scale(a, c):
    return {key: v * c for key, v in a.items()} if c else {}


def ep_from_terms(terms):
    """Parse [[m, k, c], ...] as written by the benchmark's child process."""
    out = {}
    for m, k, c in terms:
        out = ep_add(out, {(int(m), F(k)): F(c)})
    return out


# -- Lie algebras from structure constants -----------------------------------------

class Algebra:
    """C[i][j][k] is the k-th coordinate of [e_i, e_j]."""

    def __init__(self, n, brackets):
        self.n = n
        self.C = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
        for (i, j), vec in brackets.items():
            for k, x in enumerate(vec):
                self.C[i][j][k] = F(x)
                self.C[j][i][k] = -F(x)

    def bracket(self, a, b):
        out = [F(0)] * self.n
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b):
                if not y:
                    continue
                for k, c in enumerate(self.C[i][j]):
                    if c:
                        out[k] += x * y * c
        return out

    def unit(self, i):
        return [F(int(k == i)) for k in range(self.n)]

    def ad(self, i):
        """Matrix A with A[k][r] = coordinate k of [e_i, e_r]."""
        return [[self.C[i][r][k] for r in range(self.n)] for k in range(self.n)]

    def killing(self):
        ads = [self.ad(i) for i in range(self.n)]
        return [
            [sum(mat_mul(ads[i], ads[j])[t][t] for t in range(self.n)) for j in range(self.n)]
            for i in range(self.n)
        ]

    def invariant_components(self):
        """Coordinates that no bracket reaches, hence fixed by every Ad."""
        return [
            k for k in range(self.n)
            if all(self.C[i][j][k] == 0 for i in range(self.n) for j in range(self.n))
        ]

    def _diagonal(self, i):
        A = self.ad(i)
        if any(A[r][c] for r in range(self.n) for c in range(self.n) if r != c):
            return None
        return [A[r][r] for r in range(self.n)]

    def _nilpotent_powers(self, i):
        A = self.ad(i)
        powers = [[[F(int(r == c)) for c in range(self.n)] for r in range(self.n)]]
        for _ in range(self.n):
            nxt = mat_mul(A, powers[-1])
            if not any(any(row) for row in nxt):
                return powers
            powers.append(nxt)
        return None

    def adjoint_matrix(self, i):
        """Rows r: coordinates of Ad(exp(eps e_i)) e_r as exponential polynomials.

        Closed form for a basis direction whose ad is diagonal (entries
        e^(-lambda_r eps)) or nilpotent (a finite series); None otherwise.
        """
        n = self.n
        diag = self._diagonal(i)
        if diag is not None:
            return [
                [{(0, -diag[r]): F(1)} if r == k else {} for k in range(n)]
                for r in range(n)
            ]
        powers = self._nilpotent_powers(i)
        if powers is None:
            return None
        rows = []
        for r in range(n):
            row = []
            for k in range(n):
                e = {}
                for m, P in enumerate(powers):
                    if P[k][r]:
                        e = ep_add(e, {(m, F(0)): P[k][r] * F((-1) ** m, factorial(m))})
                row.append(e)
            rows.append(row)
        return rows

    def translate(self, i, eps, a):
        """Coordinates of Ad(exp(eps e_i)) applied to a, for nilpotent ad e_i."""
        powers = self._nilpotent_powers(i)
        if powers is None:
            raise ValueError(f"ad of direction {i} is not nilpotent")
        out = [F(0)] * self.n
        for m, P in enumerate(powers):
            c = F(-eps) ** m / factorial(m)
            for k in range(self.n):
                out[k] += c * sum(P[k][r] * a[r] for r in range(self.n))
        return out

    def scale(self, i, q, a):
        """Ad(exp(t e_i)) applied to a with e^t = q, for diagonal integer ad e_i."""
        diag = self._diagonal(i)
        if diag is None or any(lam.denominator != 1 for lam in diag):
            raise ValueError(f"ad of direction {i} is not an integer diagonal")
        return [x * F(q) ** int(-lam) for x, lam in zip(a, diag)]


def closed(alg, vectors):
    return all(in_span(vectors, alg.bracket(a, b)) for a in vectors for b in vectors)


def abelian(alg, vectors):
    return all(not any(alg.bracket(a, b)) for a in vectors for b in vectors)


def ideal(alg, vectors):
    return all(
        in_span(vectors, alg.bracket(alg.unit(i), b))
        for i in range(alg.n) for b in vectors
    )


def combination(basis, target):
    """Coefficients c with sum c_i basis[i] == target (dict rows), or None."""
    keys = sorted({k for row in basis for k in row} | set(target))
    n = len(basis)
    # Augmented system: one equation per key, unknowns c_0 .. c_{n-1}.
    rows = [[F(row.get(k, 0)) for row in basis] + [F(target.get(k, 0))] for k in keys]
    pivots = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    if any(row[n] for row in rows[r:]):
        return None
    coeffs = [F(0)] * n
    for i, c in enumerate(pivots):
        coeffs[c] = rows[i][n]
    return coeffs
