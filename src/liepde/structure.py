"""Finite-dimensional Lie-algebra structure analysis over exact rationals.

Algebras are given by structure constants (optionally realized by vector
fields); subspaces are stored with reduced-row-echelon canonical bases so
equality is decidable and reports are stable.  Every rational here, a
structure constant, a basis coordinate or a Killing-form entry, is held as
the package holds one (`expr.as_rational`): an int when it is integral and
a Fraction otherwise, never a float.

Questions about subspaces go through two kernels.  `bracket_outside` finds
the first pair of two lists whose bracket leaves a subspace.
`optimal.verify_optimal_table` computes the brackets of a table entry's
basis once and reads closure, its offending pair and abelianness off
them; its ideal test is one `bracket_outside` call.  `_series` iterates
one step on subspaces from the whole algebra until a term is 0 or
repeats: the derived and the lower central series.

This module is also the one home of the two JSON interchange formats:
`algebra_from_json` reads a structure-constants document and
`table_from_json` a subalgebra table.  Both read every number through
`parse_rational`, as `normal-form --vector` does, and raise ValueError on
malformed input.
"""

from __future__ import annotations

import functools
import re

from . import expr, linalg
from .errors import NotASubalgebraError
from .fields import bracket as field_bracket

_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


class Subspace:
    """Subspace of a Lie algebra, canonicalized to an RREF basis."""

    def __init__(self, algebra, vectors):
        self.algebra = algebra
        self._space = linalg.Echelon([linalg.sparse(v) for v in vectors], algebra.n)
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

    def intersection_dim(self, other):
        """dim(self cap other): dim self less the rank of its basis modulo
        `other`, which spans (self + other) / other."""
        residuals = [other._space.reduce(row) for row in self._space.rows]
        return self.dim - len(linalg.Echelon(residuals, self.algebra.n).pivots)

    def __eq__(self, other):
        return isinstance(other, Subspace) and self.basis == other.basis


def per_algebra(fn):
    """Evaluate fn(L, *args) once per algebra and arguments, kept in L.memo
    under (fn.__name__, *args)."""
    @functools.wraps(fn)
    def cached(L, *args):
        key = (fn.__name__, *args)
        if key not in L.memo:
            L.memo[key] = fn(L, *args)
        return L.memo[key]
    return cached


class LieAlgebra:
    """Lie algebra with rational structure constants C^k_{ij}, each an int
    when it is integral and a Fraction otherwise.

    Antisymmetry and the Jacobi identity are asserted at construction.
    `realization`, when given, holds the vector fields whose brackets the
    constants describe; `structure_constants` reads the constants off those
    brackets.  `constants` is the dense cube; `table` holds
    the nonzero constants only, and the bracket kernels iterate over it.
    `memo` caches data derived from the (immutable) algebra, such as its
    adjoint matrices and orbit classification; `per_algebra` fills it.
    """

    def __init__(self, constants, labels=None, realization=None):
        self.n = len(constants)
        self.constants = tuple(
            tuple(tuple(expr.as_rational(x) for x in row) for row in plane)
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
        c = [[[0] * n for _ in range(n)] for _ in range(n)]
        for (i, j), vec in entries.items():
            for k, x in enumerate(vec):
                x = expr.as_rational(x)
                c[i][j][k] = x
                c[j][i][k] = -x
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
        out = [0] * self.n
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if not bj:
                    continue
                for k, c in self.table.get((i, j), ()):
                    out[k] += ai * bj * c
        return tuple(map(expr.as_rational, out))

    def ad(self, a):
        """Matrix of ad(sum a_i e_i): column j holds [a, e_j] in coordinates."""
        out = [[0] * self.n for _ in range(self.n)]
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j in range(self.n):
                for k, c in self.table.get((i, j), ()):
                    out[k][j] += ai * c
        return tuple(tuple(map(expr.as_rational, row)) for row in out)

    def subspace(self, vectors):
        return Subspace(self, vectors)

    @per_algebra
    def whole(self):
        """The algebra as a subspace of itself, built once."""
        return Subspace(self, [[int(i == j) for j in range(self.n)] for i in range(self.n)])

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
        row[width + i] = 1
    span = linalg.Echelon(rows, width + n)
    constants = [[[0] * n for _ in range(n)] for _ in range(n)]
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
            row[index[key]] = c
    return row


# ---------------------------------------------------------------------------
# Structure theory
# ---------------------------------------------------------------------------

@per_algebra
def killing_form(L):
    """K(e_i, e_j) = trace(ad e_i . ad e_j), exact and symmetric."""
    # (ad e_i)[a][b] = C^a_ib, kept as {(a, b): C^a_ib} over the nonzero entries
    ads = [{(a, b): c for b in range(L.n) for a, c in L.table.get((i, b), ())}
           for i in range(L.n)]
    out = [[0] * L.n for _ in range(L.n)]
    for i in range(L.n):
        for j in range(i, L.n):
            t = 0
            for (a, b), c in ads[i].items():
                d = ads[j].get((b, a))
                if d:
                    t += c * d
            out[i][j] = out[j][i] = expr.as_rational(t)
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


@per_algebra
def derived_series(L):
    """g, [g,g], [[g,g],[g,g]], ... until stabilization."""
    return _series(L, lambda S: product_space(L, S, S))


@per_algebra
def lower_central_series(L):
    """g, [g,g], [g,[g,g]], ... until stabilization."""
    return _series(L, lambda S: product_space(L, L.whole(), S))


def derived_algebra(L):
    """[g, g], read off the derived series: g itself when the series has
    one term."""
    return derived_series(L)[:2][-1]


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
    rows = []
    for d in derived_algebra(L).basis:
        rows.append(tuple(sum(K[i][j] * d[j] for j in range(L.n)) for i in range(L.n)))
    return L.subspace(linalg.nullspace(rows, L.n))


def bracket_outside(L, A, B, S):
    """The first pair (a, b) of A x B, in that order, whose bracket [a, b]
    is not in the subspace S, or None when every bracket is."""
    for a in A:
        for b in B:
            if not S.contains(L.bracket_coords(a, b)):
                return a, b
    return None


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
# JSON interchange: structure constants and subalgebra tables
# ---------------------------------------------------------------------------

def algebra_from_json(doc):
    """Build a LieAlgebra from {"dim": n, "labels": [...], "brackets":
    [{"i", "j", "coeffs"}]}.

    Indices are 1-based; missing brackets are zero; antisymmetric partners
    are filled in automatically; `labels` is optional.  A malformed
    document raises ValueError naming the document or the bracket at fault.
    """
    n = _key(_object(doc, "the document"), "dim", "the document")
    if not _is_int(n) or n < 0:
        raise ValueError(f"dim must be a non-negative integer, got {n!r}")
    entries = {}
    for number, item in enumerate(_list(doc.get("brackets", []), "brackets"), 1):
        where = f"bracket {number}"
        _object(item, where)
        i, j = _key(item, "i", where), _key(item, "j", where)
        for name, index in (("i", i), ("j", j)):
            if not _is_int(index) or not 1 <= index <= n:
                raise ValueError(f"{where}: index {name} = {index!r} is not in 1..{n}")
        if (i - 1, j - 1) in entries or (j - 1, i - 1) in entries:
            raise ValueError(f"{where}: the bracket of elements {i} and {j} is given twice")
        coeffs = _rationals(_key(item, "coeffs", where), where)
        if len(coeffs) != n:
            raise ValueError(f"{where}: needs {n} coefficients, got {len(coeffs)}")
        if i == j and any(coeffs):
            raise ValueError(f"{where}: the bracket of element {i} with itself must be 0")
        entries[(i - 1, j - 1)] = coeffs
    labels = doc.get("labels")
    if labels is not None and (
            not isinstance(labels, list) or len(labels) != n
            or not all(isinstance(label, str) for label in labels)):
        raise ValueError(f"labels must be a list of {n} strings, got {labels!r}")
    if labels is not None and len(set(labels)) != n:
        raise ValueError(f"labels must be distinct, got {labels!r}")
    return LieAlgebra.from_brackets(n, entries, labels=labels)


def table_from_json(doc):
    """The (label, vectors) entries of a subalgebra table {"schema": 1,
    "entries": [{"label", "vectors"}]}, as `optimal.verify_optimal_table`
    takes them; a table without "schema" is read as schema 1.  Another
    schema, and a malformed document or entry, raise ValueError naming the
    part at fault."""
    schema = _object(doc, "the document").get("schema", 1)
    if not _is_int(schema) or schema != 1:
        raise ValueError(f"unsupported table schema {schema!r}; only schema 1 is read")
    entries = []
    for number, item in enumerate(_list(_key(doc, "entries", "the document"), "entries"), 1):
        where = f"entry {number}"
        _object(item, where)
        label, vectors = _key(item, "label", where), _key(item, "vectors", where)
        if not isinstance(label, str):
            raise ValueError(f"{where}: label must be a string, got {label!r}")
        entries.append((label, [_rationals(v, f"entry {label}")
                                for v in _list(vectors, f"entry {label}: vectors")]))
    return entries


def parse_rational(x):
    """An integer or an ASCII string `[+-]digits[/digits]` as an exact
    rational: a plain int when it is an integer, else a Fraction.  Anything
    else (a float, a boolean, or a string with a decimal point, an exponent,
    an underscore or a space, or an empty one) and a zero denominator raise
    ValueError."""
    if isinstance(x, str) and _RATIONAL.fullmatch(x):
        num, _, den = x.partition("/")
        if den and not int(den):
            raise ValueError(f"zero denominator in {x!r}")
        return expr.quotient(int(num), int(den or 1))
    if _is_int(x):
        return x
    raise ValueError(f"rationals must be integers or 'num/den' strings, got {x!r}")


def _rationals(values, where):
    """`parse_rational` of each value of a JSON list; errors name `where`."""
    if not isinstance(values, list):
        raise ValueError(f"{where}: expected a list of rationals, got {values!r}")
    try:
        return [parse_rational(x) for x in values]
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _object(value, where):
    """`value` when it is a JSON object, else ValueError naming `where`."""
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be a JSON object, got {value!r}")
    return value


def _key(value, key, where):
    """`value[key]` of a JSON object, else ValueError naming `where`."""
    try:
        return value[key]
    except KeyError:
        raise ValueError(f"{where}: missing key {key!r}") from None


def _list(value, where):
    """`value` when it is a JSON list, else ValueError naming `where`."""
    if not isinstance(value, list):
        raise ValueError(f"{where} must be a list, got {value!r}")
    return value


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)
