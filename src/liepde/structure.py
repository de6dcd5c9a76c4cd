"""Finite-dimensional Lie-algebra structure analysis over exact rationals.

Algebras are given by structure constants (optionally realized by vector
fields); subspaces are stored with reduced-row-echelon canonical bases so
equality is decidable and reports are stable.

Questions about subspaces go through two kernels.  `bracket_outside` finds
the first pair of two lists whose bracket leaves a subspace: closure under
the bracket, ideals, abelian subspaces and the offending pair of a
non-closing table entry (`optimal.verify_optimal_table`) are each one call.
`_series` iterates one step on subspaces from the whole algebra until a
term is 0 or repeats: the derived and the lower central series.
"""

from __future__ import annotations

from fractions import Fraction

from . import expr, linalg
from .errors import NotASubalgebraError
from .fields import bracket as field_bracket


class Subspace:
    """Subspace of a Lie algebra, canonicalized to an RREF basis."""

    def __init__(self, algebra, vectors):
        self.algebra = algebra
        self._space = linalg.row_space([linalg.sparse(v) for v in vectors], algebra.n)
        self.basis = tuple(linalg.dense(row, algebra.n) for row in self._space.rows)
        self.pivots = tuple(self._space.pivots)

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, vector):
        return not self._space.reduce(linalg.sparse(vector))

    def reduce_vector(self, vector):
        """Residual of `vector` after eliminating the subspace basis."""
        return linalg.dense(self._space.reduce(linalg.sparse(vector)), self.algebra.n)

    def __eq__(self, other):
        return isinstance(other, Subspace) and self.basis == other.basis



class LieAlgebra:
    """Lie algebra with rational structure constants C^k_{ij}.

    Antisymmetry and the Jacobi identity are asserted at construction.
    `realization`, when given, holds the vector fields whose brackets the
    constants describe; `structure_constants` reads the constants off those
    brackets.  `constants` is the dense cube; `table` holds
    the nonzero constants only, and the bracket kernels iterate over it.
    `memo` caches data derived from the (immutable) algebra, such as its
    adjoint matrices and orbit classification.
    """

    def __init__(self, constants, labels=None, realization=None):
        self.n = len(constants)
        self.constants = tuple(
            tuple(tuple(Fraction(x) for x in row) for row in plane)
            for plane in constants
        )
        self.labels = tuple(labels) if labels else tuple(
            f"v{i + 1}" for i in range(self.n)
        )
        self.realization = tuple(realization) if realization else None
        # {(i, j): ((k, C^k_ij), ...)} over the nonzero constants only
        self.table = {}
        for i, plane in enumerate(self.constants):
            for j, row in enumerate(plane):
                terms = tuple((k, c) for k, c in enumerate(row) if c)
                if terms:
                    self.table[(i, j)] = terms
        self.memo = {}
        self._check_antisymmetry()
        self._check_jacobi()

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_brackets(cls, n, entries, labels=None):
        """Build from sparse entries {(i, j): coefficient vector}, 0-indexed."""
        c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
        for (i, j), vec in entries.items():
            for k, x in enumerate(vec):
                c[i][j][k] = Fraction(x)
                c[j][i][k] = -Fraction(x)
        return cls(c, labels=labels)

    def _check_antisymmetry(self):
        for i in range(self.n):
            for j in range(self.n):
                for k in range(self.n):
                    if self.constants[i][j][k] != -self.constants[j][i][k]:
                        raise ValueError(
                            f"structure constants are not antisymmetric at ({i},{j},{k})"
                        )

    def _check_jacobi(self):
        for i in range(self.n):
            for j in range(i + 1, self.n):
                for k in range(j + 1, self.n):
                    # [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j]
                    s = {}
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                        for m, x in self.table.get((a, b), ()):
                            for l, y in self.table.get((m, c), ()):
                                s[l] = s.get(l, 0) + x * y
                    if any(s.values()):
                        raise ValueError(
                            f"Jacobi identity fails on basis triple ({i},{j},{k})"
                        )

    # -- basic operations ------------------------------------------------------

    def bracket_coords(self, a, b):
        """Bracket of two coordinate vectors, as a coordinate vector."""
        out = [Fraction(0)] * self.n
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if not bj:
                    continue
                for k, c in self.table.get((i, j), ()):
                    out[k] += ai * bj * c
        return tuple(out)

    def ad(self, a):
        """Matrix of ad(sum a_i e_i): column j holds [a, e_j] in coordinates."""
        out = [[Fraction(0)] * self.n for _ in range(self.n)]
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j in range(self.n):
                for k, c in self.table.get((i, j), ()):
                    out[k][j] += ai * c
        return tuple(tuple(row) for row in out)

    def subspace(self, vectors):
        return Subspace(self, vectors)

    def whole(self):
        """The algebra as a subspace of itself, built once."""
        if "whole" not in self.memo:
            self.memo["whole"] = Subspace(
                self, [[int(i == j) for j in range(self.n)] for i in range(self.n)])
        return self.memo["whole"]

    def format_vector(self, vec):
        parts = []
        for c, label in zip(vec, self.labels):
            if c == 0:
                continue
            if c == 1:
                parts.append(label)
            elif c == -1:
                parts.append(f"-{label}")
            else:
                parts.append(f"{c}*{label}")
        if not parts:
            return "0"
        text = parts[0]
        for p in parts[1:]:
            text += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return text


def structure_constants(basis, labels=None):
    """Lie algebra spanned by the given vector fields.

    The fields' coefficient rows B, one column per (coefficient slot,
    monomial), are reduced once with the identity beside them, as [B | I].
    A bracket [w | 0] reduces to [0 | -c] exactly when w = c B; any residual
    left in the B columns means the bracket leaves the span, and raises
    NotASubalgebraError naming the first such pair.
    """
    basis = list(basis)
    n = len(basis)
    index = {}
    rows = [_field_row(vf, index, grow=True) for vf in basis]
    width = len(index)
    for i, row in enumerate(rows):
        row[width + i] = Fraction(1)
    span = linalg.row_space(rows, width + n)
    constants = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            row = _field_row(field_bracket(basis[i], basis[j]), index)
            residual = span.reduce(row) if row is not None else None
            if residual is None or any(k < width for k in residual):
                raise NotASubalgebraError(
                    f"bracket of elements {i + 1} and {j + 1} is outside the span",
                    pair=(i, j),
                )
            for k, c in residual.items():
                constants[i][j][k - width] = -c
                constants[j][i][k - width] = c
    return LieAlgebra(constants, labels=labels, realization=basis)


def _field_row(vf, index, grow=False):
    """The sparse row of a field, one column per (slot, monomial) in `index`;
    new keys are added if `grow` is set, and otherwise give None."""
    row = {}
    for slot, coeff in enumerate(vf.coefficients):
        for mono, c in expr.monomials(coeff):
            key = (slot, mono)
            if key not in index:
                if not grow:
                    return None
                index[key] = len(index)
            row[index[key]] = Fraction(c)
    return row


# ---------------------------------------------------------------------------
# Structure theory
# ---------------------------------------------------------------------------

def killing_form(L):
    """K(e_i, e_j) = trace(ad e_i . ad e_j), exact and symmetric."""
    # (ad e_i)[a][b] = C^a_ib, kept as {(a, b): C^a_ib} over the nonzero entries
    ads = [{(a, b): c for b in range(L.n) for a, c in L.table.get((i, b), ())}
           for i in range(L.n)]
    out = [[Fraction(0)] * L.n for _ in range(L.n)]
    for i in range(L.n):
        for j in range(i, L.n):
            t = Fraction(0)
            for (a, b), c in ads[i].items():
                d = ads[j].get((b, a))
                if d:
                    t += c * d
            out[i][j] = out[j][i] = t
    return tuple(tuple(row) for row in out)


def product_space(L, S, T):
    """[S, T] as a subspace."""
    vectors = []
    for a in S.basis:
        for b in T.basis:
            vectors.append(L.bracket_coords(a, b))
    return L.subspace(vectors)


def _series(L, step):
    """g, step(g), step(step(g)), ... until a term is 0 or repeats the last."""
    series = [L.whole()]
    while series[-1].dim:
        nxt = step(series[-1])
        if nxt == series[-1]:
            break
        series.append(nxt)
    return series


def derived_series(L):
    """g, [g,g], [[g,g],[g,g]], ... until stabilization."""
    return _series(L, lambda S: product_space(L, S, S))


def lower_central_series(L):
    """g, [g,g], [g,[g,g]], ... until stabilization."""
    return _series(L, lambda S: product_space(L, L.whole(), S))


def is_solvable(L):
    return derived_series(L)[-1].dim == 0


def is_nilpotent(L):
    return lower_central_series(L)[-1].dim == 0


def is_semisimple(L):
    return linalg.det(killing_form(L)) != 0


def center(L):
    """{x : [x, e_j] = 0 for all j}."""
    rows = []
    for j in range(L.n):
        for k in range(L.n):
            rows.append(tuple(L.constants[i][j][k] for i in range(L.n)))
    return L.subspace(linalg.nullspace(rows, L.n))


def radical(L):
    """Killing-orthogonal of the derived algebra (Cartan's criterion)."""
    K = killing_form(L)
    derived = product_space(L, L.whole(), L.whole())
    rows = []
    for d in derived.basis:
        rows.append(tuple(
            sum((K[i][j] * d[j] for j in range(L.n)), Fraction(0))
            for i in range(L.n)
        ))
    return L.subspace(linalg.nullspace(rows, L.n))


def bracket_outside(L, A, B, S):
    """The first pair (a, b) of A x B, in that order, whose bracket [a, b]
    is not in the subspace S, or None when every bracket is."""
    for a in A:
        for b in B:
            if not S.contains(L.bracket_coords(a, b)):
                return a, b
    return None


def is_abelian(L, S=None):
    S = S if S is not None else L.whole()
    return bracket_outside(L, S.basis, S.basis, L.subspace([])) is None


def is_ideal(L, S):
    return bracket_outside(L, L.whole().basis, S.basis, S) is None


def normalizer(L, S):
    """{y : [y, S] is contained in S}."""
    rows = []
    for b in S.basis:
        # linear map y -> [y, b]; its residual modulo S must vanish, so
        # row k holds component k of the residuals of [e_i, b]
        rows.extend(zip(*(S.reduce_vector(L.bracket_coords(e, b))
                          for e in L.whole().basis)))
    return L.subspace(linalg.nullspace(rows, L.n))


# ---------------------------------------------------------------------------
# JSON structure-constants interchange
# ---------------------------------------------------------------------------

def algebra_from_json(doc):
    """Build a LieAlgebra from {"dim": n, "brackets": [{"i", "j", "coeffs"}]}.

    Indices are 1-based; missing brackets are zero; antisymmetric partners
    are filled in automatically.
    """
    n = doc["dim"]
    entries = {}
    for item in doc.get("brackets", []):
        i, j = item["i"] - 1, item["j"] - 1
        coeffs = [_parse_rational(x) for x in item["coeffs"]]
        if len(coeffs) != n:
            raise ValueError("bracket coefficient vector has wrong length")
        entries[(i, j)] = coeffs
    labels = doc.get("labels")
    return LieAlgebra.from_brackets(n, entries, labels=labels)


def _parse_rational(x):
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, int):
        return Fraction(x)
    raise ValueError(f"rationals must be integers or 'num/den' strings, got {x!r}")
