"""Exact linear algebra over the field of the system parameters, whose
constants are Q.

One field serves every solve.  A rational element is a plain number, an
int when it is integral and a Fraction otherwise, as `expr.as_rational`
holds it; only an element that holds a parameter is a `ParamFrac`.  So a
matrix over Q is a matrix over the parameter field whose cells happen to
be numbers, and the algebra layer's subspaces and the determining solve go
through the same kernel and the same operations: `element` normalises an
entry, `ParamFrac.inverse` inverts one (`expr.quotient(1, n)` for a
number, so a pivot of +-1 stays an int), `not x` tests for zero and
`ParamFrac.complexity` weighs a pivot candidate.

The kernel, `Echelon`, takes rows as dicts column -> nonzero element,
reduces them once to reduced row echelon form, and `Echelon.reduce` then
clears further vectors against them.  `rref`, `nullspace`, `rref_param`
and `nullspace_param` are thin wrappers, and `in_integer_lattice`
reduces its vectors against one `Echelon` of [B | I]; a caller that keeps
a row space, such as `structure.Subspace`, builds its `Echelon` itself.
`nullspace_param`, the determining solve, takes sparse rows as the
determining system holds them and returns the sparse kernel vectors of
`_kernel`, which `nullspace` densifies; `rref`, `nullspace` and
`rref_param` take dense rows, the form the tests compare against.
Columns are taken left to right.  A column index, from each column to
the set of rows holding it, kept up to date as eliminations fill and
clear entries, gives each column its candidate pivots and the rows to
eliminate without scanning the others.  The pivot is the candidate of
least (`ParamFrac.complexity()`, row length, current row position).  The
least complexity limits the swell of the entries; of those, the shortest
row limits fill-in, since a row update can create an entry only in a
column of the pivot row: a singleton pivot row creates none, and
clearing its column in the other rows is all it costs.  A column with a
single candidate takes it without weighing it, and a pivot row of one
cell becomes {c: 1} without inverting the cell.  The normalised pivot row
holds the int 1 at its column, as x * x^-1 = 1 in the field, so each
update drops the pivot column without arithmetic.  The columns
are still taken left to right, so the pivot and free columns and the
kernel's shape do not depend on the rule.  The reduced row echelon form
is unique as values, and a number, like a Laurent polynomial over
`expr.ONE`, has one representation; so over Q, and wherever every pivot
is a number or a Laurent monomial (the weight-2 candidates, as on every
fixture matrix), every entry on any path is such an element and the rule
cannot change a byte.  Only a pivot that is not a Laurent monomial
brings in a denominator, and `ParamFrac` does not cancel common
polynomial factors: another path may then store an equal entry with a
common factor in its numerator and denominator, and `clear_denominators`
scales a basis vector by it.  `rref`, `nullspace` and `det` take ints
and Fractions and return them in the package's form; a float or a string
raises TypeError.

`ParamFrac` holds fractions of `expr` polynomials in the parameter
symbols, with only guaranteed-exact simplification.  Its arithmetic takes
numbers on either side and returns a number whenever the result is
constant.  A Laurent monomial such as 2*nu or rho^-1 over `expr.ONE`
inverts to one over itself, and a difference subtracts the numerators in
one step; both give the numerator and denominator that the general
formulas would.  `det` and `integer_kernel` (unimodular column reduction,
for the monomial-invariant lattice) keep their own loops.
"""

from __future__ import annotations

import math

from . import expr
from .errors import UnsupportedDivisionError


# ---------------------------------------------------------------------------
# The elimination kernel
# ---------------------------------------------------------------------------

def _eliminate(row, c, pivot, holders=None, j=None):
    """Subtract row[c] times the normalised pivot row (pivot column c) from
    `row` in place, dropping the entries that become zero.  With `holders`,
    the column index of `Echelon`, keep row `j`'s entries in it up to date.

    The pivot row holds 1 at column c, so row[c] - row[c] * 1 is zero and
    is dropped without arithmetic."""
    f = row.pop(c)
    if holders is not None:
        holders[c].discard(j)
    for k, b in pivot.items():
        if k == c:
            continue
        old = row.get(k)
        x = -(f * b) if old is None else old - f * b
        if not x:
            if old is not None:
                del row[k]
                if holders is not None:
                    holders[k].discard(j)
        else:
            row[k] = element(x)
            if old is None and holders is not None:
                holders.setdefault(k, set()).add(j)


class Echelon:
    """The row space of sparse rows, in reduced row echelon form.

    The rows are reduced once and in place.  A column index maps each
    column to the set of rows holding it, so each column reads only its
    candidate pivots and eliminates only in the rows that hold it.  The
    pivot for each column is the candidate of least
    (`ParamFrac.complexity`, row length, current position), swapped into
    place: the shortest of the simplest pivots makes the least fill-in.
    A single candidate is taken without weighing it.  The pivot row is
    scaled to hold the int 1 at its column, a row of one cell by becoming
    {c: 1} without inverting its cell, and every other computed entry is
    put in the form `element` gives.  `reduce` then clears further
    vectors.
    """

    def __init__(self, rows, ncols):
        rows = list(rows)
        complexity = ParamFrac.complexity
        holders = {}
        for j, row in enumerate(rows):
            for k in row:
                holders.setdefault(k, set()).add(j)
        order = list(range(len(rows)))  # order[p]: the row at position p
        position = list(range(len(rows)))  # position[j]: where row j stands
        pivots = []
        r = 0
        for c in range(ncols):
            if r == len(rows):
                break
            held = holders.get(c, ())
            candidates = [j for j in held if position[j] >= r]
            if not candidates:
                continue
            i = candidates[0] if len(candidates) == 1 else min(
                candidates,
                key=lambda j: (complexity(rows[j][c]), len(rows[j]), position[j]))
            moved, p = order[r], position[i]
            order[r], order[p] = i, moved
            position[i], position[moved] = r, p
            if len(rows[i]) == 1:
                pivot = {c: 1}
            else:
                inv = ParamFrac.inverse(rows[i][c])
                pivot = {k: 1 if k == c else element(x * inv) for k, x in rows[i].items()}
            rows[i] = pivot
            for j in list(held):
                if j != i:
                    _eliminate(rows[j], c, pivot, holders, j)
            pivots.append(c)
            r += 1
        self.rows = [rows[j] for j in order[:r]]
        self.pivots = pivots

    def reduce(self, vector):
        """The residual of a sparse vector, as a new dict: empty exactly when
        the vector lies in the row space."""
        v = dict(vector)
        for row, c in zip(self.rows, self.pivots):
            if c in v:
                _eliminate(v, c, row)
        return v


def _kernel(reduced, pivots, ncols):
    """Basis of the right kernel of an RREF, one sparse vector per free
    column: a dict column -> nonzero element, its columns ascending.  The
    free column holds 1 and each pivot column whose row holds the free
    column holds minus that entry; every other column is zero."""
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        v = {pc: -prow[fc] for prow, pc in zip(reduced, pivots) if fc in prow}
        v[fc] = 1
        basis.append(dict(sorted(v.items())))
    return basis


def sparse(vector):
    """A dense vector as a dict column -> nonzero element; a cell may be
    anything `element` takes.  A falsy cell is skipped before `element`
    sees it, and a cell that `element` makes zero, such as `expr.ZERO`,
    is dropped."""
    return {c: e for c, x in enumerate(vector) if x and (e := element(x))}


def dense(row, ncols):
    """A sparse row as a tuple of `ncols` elements."""
    return tuple(row.get(k, 0) for k in range(ncols))


# ---------------------------------------------------------------------------
# Over Q
# ---------------------------------------------------------------------------

def rref(rows):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    ncols = len(rows[0]) if rows else 0
    space = Echelon([sparse(r) for r in rows], ncols)
    return [dense(row, ncols) for row in space.rows], space.pivots


def nullspace(rows, ncols):
    """Basis of the right kernel of the matrix, one vector per free column."""
    space = Echelon([sparse(r) for r in rows], ncols)
    return [dense(v, ncols) for v in _kernel(space.rows, space.pivots, ncols)]


def det(rows):
    """Exact determinant by Gaussian elimination over Q."""
    rows = [[expr.as_rational(x) for x in r] for r in rows]
    n = len(rows)
    result = 1
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if rows[i][c]), None)
        if pivot_row is None:
            return 0
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            result = -result
        pivot = rows[c][c]
        result = expr.as_rational(result * pivot)
        for i in range(c + 1, n):
            if rows[i][c]:
                f = expr.quotient(rows[i][c], pivot)
                rows[i] = [expr.as_rational(a - f * b) for a, b in zip(rows[i], rows[c])]
    return result


# ---------------------------------------------------------------------------
# The fraction field of the parameter polynomials
# ---------------------------------------------------------------------------

class ParamFrac:
    """Element num / den of the field of rational functions in the parameters
    that is not a rational constant.

    A rational element is a plain number, an int when it is integral and a
    Fraction otherwise, as `expr` holds its coefficients; `element` gives
    the element an input stands for.  Arithmetic takes numbers on either
    side and returns a number whenever the result is constant, and
    `inverse` and `complexity` take a number for `self`, so the kernel
    calls them on every entry alike; zero is `not x` for both kinds.

    `num` and `den` are canonical expressions in the parameter symbols;
    `num` may hold negative powers.  `den` is kept free of monomial and
    rational content with a positive graded-lex leading coefficient, and
    becomes 1 whenever it divides `num` exactly.  A denominator that is
    `expr.ONE` itself, as every constant 1 that `expr` arithmetic returns
    is, is taken as it is.  Elements are not hashable: equal elements can
    have different representations.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=expr.ONE):
        if den is expr.ONE:
            self.num = num
            self.den = den
            return
        value = expr.constant_value(den)
        if value == 0:
            raise ZeroDivisionError("zero denominator in parameter field")
        if value is None:
            c, m = expr.content(den)
            g = c * m if expr.leading_term(den)[1] > 0 else -c * m
            num, den = num / g, den / g
            if not den.is_constant():
                q = expr.divide(num, den)
                if q is not None:
                    num, den = q, expr.ONE
        else:
            num, den = num * expr.quotient(1, value), expr.ONE
        self.num = num
        self.den = den

    def __bool__(self):
        return not expr.is_zero(self.num)

    def __add__(self, other):
        n, d = _parts(other)
        if self.den == d:
            return _element(self.num + n, d)
        return _element(self.num * d + n * self.den, self.den * d)

    __radd__ = __add__

    def __sub__(self, other):
        n, d = _parts(other)
        if self.den == d:
            return _element(self.num - n, d)
        return _element(self.num * d - n * self.den, self.den * d)

    def __rsub__(self, other):
        n, d = _parts(other)
        if self.den == d:
            return _element(n - self.num, d)
        return _element(n * self.den - self.num * d, d * self.den)

    def __neg__(self):
        return _element(-self.num, self.den)

    def __mul__(self, other):
        if type(other) is not ParamFrac:
            return _element(self.num * other, self.den)
        if self.den is expr.ONE and other.den is expr.ONE:
            return _element(self.num * other.num)
        return _element(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self):
        if type(self) is not ParamFrac:
            return expr.quotient(1, self)
        if not self:
            raise ZeroDivisionError("inverting zero in parameter field")
        if self.den is expr.ONE and len(self.num._poly()) == 1:
            return _element(expr.ONE / self.num)
        return _element(self.den, self.num)

    def __truediv__(self, other):
        return self * ParamFrac.inverse(other)

    def __eq__(self, other):
        n, d = _parts(other)
        return expr.is_zero(self.num * d - n * self.den)

    def complexity(self):
        if type(self) is not ParamFrac:
            return 2
        return len(self.num._poly()) + len(self.den._poly())


def _parts(x):
    """The numerator and denominator expressions of an element."""
    if type(x) is ParamFrac:
        return x.num, x.den
    return expr.constant(x), expr.ONE


def _element(num, den=expr.ONE):
    """The element num / den: its number when it is constant."""
    x = ParamFrac(num, den)
    if x.den is expr.ONE and type(x.num) is expr.Rational:
        return x.num.coeff
    return x


def element(x):
    """The element of the parameter field that `x` stands for.

    `x` is a number, a canonical expression in the parameters or a
    `ParamFrac`; a rational element comes back as an int or a Fraction,
    any other as a `ParamFrac`.  A float raises TypeError.
    """
    if type(x) is int:
        return x
    if type(x) is ParamFrac:
        constant = x.den is expr.ONE and type(x.num) is expr.Rational
        return x.num.coeff if constant else x
    if isinstance(x, expr.Expr):
        return x.coeff if type(x) is expr.Rational else ParamFrac(x)
    return expr.as_rational(x)


def expr_to_paramfrac(e, params):
    """The element of the parameter field that the expression `e` stands for,
    a number when `e` is constant.

    Raises if `e` contains anything but parameters and constants.
    """
    for (powers, pexps), _ in expr.monomials(e):
        if pexps:
            raise UnsupportedDivisionError(
                "group-parameter exponentials cannot appear in the parameter field"
            )
        for atom, _ in powers:
            if atom not in params:
                raise UnsupportedDivisionError(
                    f"{atom} is not a parameter; cannot coerce to the parameter field"
                )
    return element(expr.normalize(e))


def rref_param(rows):
    """RREF of equal-length dense rows over the parameter field; returns
    (rows, pivots), each row a dict column -> nonzero element.  A cell may
    be anything `element` takes.

    The solve does not come through here: `nullspace_param` takes sparse
    rows.  The rows stay dense because the tests hold the sparse kernel
    against a dense elimination through it, and the benchmark tracer
    counts its cells row by row."""
    ncols = len(rows[0]) if rows else 0
    space = Echelon([sparse(r) for r in rows], ncols)
    return space.rows, space.pivots


def nullspace_param(rows, ncols):
    """Basis of the right kernel over the parameter field, one sparse vector
    per free column, as `_kernel` gives it.

    `rows` are sparse, dicts column -> nonzero element (a number or a
    `ParamFrac`), as `DeterminingSystem.rows` holds them; they are copied
    before the elimination, which works in place, and are left as they
    were."""
    space = Echelon([dict(row) for row in rows], ncols)
    return _kernel(space.rows, space.pivots, ncols)


def clear_denominators(vec, params):
    """Scale a sparse vector over the parameter field, a dict column ->
    nonzero element, to polynomial entries; returns a dict column ->
    nonzero expression with the same columns in the same order.

    The result has rational content 1, and the leading coefficient of its
    first entry, in graded lex over `params` in declaration order, is
    positive.  Only the vector's entries are read: a column it lacks is
    zero and stays out of the result.
    """
    scale = expr.ONE
    for x in vec.values():
        if type(x) is ParamFrac and x.den is not expr.ONE:
            scale = scale * x.den
    cleared = {}
    for k, x in vec.items():
        num, den = _parts(x)
        num = num * scale
        p = num if den is expr.ONE else expr.divide(num, den)
        cleared[k] = num if p is None else p
    g, _ = expr.content(*cleared.values())
    first = next(iter(cleared.values()), None)
    if first is not None and expr.leading_term(first, params)[1] < 0:
        g = -g
    return {k: p / g for k, p in cleared.items()}


# ---------------------------------------------------------------------------
# Integer kernel lattices
# ---------------------------------------------------------------------------

def integer_kernel(rows):
    """Basis of {a integer vector : M a = 0} via unimodular column reduction.

    `rows` may hold Fractions; each row is scaled by the lcm of its
    denominators first.  The returned basis generates the full (saturated)
    kernel lattice.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    mat = []
    for row in rows:
        lcm = math.lcm(*(x.denominator for x in row))
        mat.append([x.numerator * (lcm // x.denominator) for x in row])
    u = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def col_combine(c1, c2, a, b, c, d):
        # (col c1, col c2) <- (a*col1 + b*col2, c*col1 + d*col2)
        for row in mat:
            x, y = row[c1], row[c2]
            row[c1], row[c2] = a * x + b * y, c * x + d * y
        for row in u:
            x, y = row[c1], row[c2]
            row[c1], row[c2] = a * x + b * y, c * x + d * y

    active = 0
    for r in range(len(mat)):
        nz = [c for c in range(active, ncols) if mat[r][c] != 0]
        if not nz:
            continue
        lead = nz[0]
        for c in nz[1:]:
            x, y = mat[r][lead], mat[r][c]
            g = math.gcd(x, y)
            # Extended gcd column operation with unit determinant.
            s, t = _exgcd(x, y)
            col_combine(lead, c, s, t, -y // g, x // g)
        if lead != active:
            col_combine(active, lead, 0, 1, 1, 0)  # swap (determinant -1, fine)
        active += 1
    basis = []
    for c in range(active, ncols):
        vec = tuple(u[i][c] for i in range(ncols))
        if any(vec):
            basis.append(_canonical_int_vector(vec))
    return basis


def _exgcd(a, b):
    """(s, t) with s*a + t*b = gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_s, old_t


def _canonical_int_vector(vec):
    g = 0
    for x in vec:
        g = math.gcd(g, abs(x))
    if g > 1:
        vec = tuple(x // g for x in vec)
    first = next((x for x in vec if x != 0), 1)
    if first < 0:
        vec = tuple(-x for x in vec)
    return vec


def in_integer_lattice(basis, vectors):
    """Per rational vector, whether it is an integer combination of the
    linearly independent integer rows of `basis`.

    The rows B are reduced once with the identity beside them, as [B | I].
    A vector [v | 0] reduces to [0 | -x] exactly when v = x B, so v is a
    member exactly when nothing is left in the B columns and x is integral.
    """
    width = len(vectors[0]) if vectors else 0
    rows = []
    for i, b in enumerate(basis):
        row = sparse(b)
        row[width + i] = 1
        rows.append(row)
    span = Echelon(rows, width + len(basis))
    out = []
    for v in vectors:
        residual = span.reduce(sparse(v))
        out.append(all(k >= width and x.denominator == 1
                       for k, x in residual.items()))
    return out
