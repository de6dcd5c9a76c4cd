"""Exact linear algebra over Q and over the field of the system parameters.

One sparse elimination kernel, `Echelon`, serves both fields: rows are
dicts column -> nonzero entry, reduced once to reduced row echelon form,
after which `Echelon.reduce` clears further vectors against them.  `rref` and
`nullspace` over Q and their `_param` twins are thin wrappers, and
`in_integer_lattice` reduces its vectors against one `Echelon` of [B | I].
`nullspace_param`, the determining solve, takes sparse rows as the
determining system holds them; `rref` and `rref_param` take dense rows, the
form the tests compare against.
Columns are taken left to right.  A column index, from each column to the
set of rows holding it, kept up to date as eliminations fill and clear
entries, gives each column its candidate pivots and the rows to eliminate
without scanning the others.  Over the parameter field the pivot is the
candidate of least (`ParamFrac.complexity()`, current row position), which
is the first row in the current order with the least complexity:
`ParamFrac` does not cancel common polynomial factors, so another path
would store equal entries differently and change the basis vectors after
`clear_denominators`.  Over Q the reduced row echelon form is unique, so
the first candidate row serves.

The parameter field holds fractions of `expr` polynomials in the parameter
symbols, with only guaranteed-exact simplification.  Two elements that are
rational constants over `expr.ONE` itself, as most entries of a
determining matrix are, add, multiply, negate and invert on their
coefficients directly and give the node `expr` arithmetic would.  A
Laurent monomial such as 2*nu or rho^-1 over `expr.ONE` inverts to one over
itself, and a difference subtracts the numerators in one step; both give
the numerator and denominator that the general formulas would.  `det`
and `integer_kernel` (unimodular column reduction, for the
monomial-invariant lattice) keep their own loops.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from . import expr
from .errors import UnsupportedDivisionError


# ---------------------------------------------------------------------------
# The elimination kernel
# ---------------------------------------------------------------------------

class _Field:
    """What the kernel needs of a field: `weight` ranks candidate pivots
    (None takes the first candidate) and `coerce` turns an input entry into
    an element."""

    def __init__(self, zero, one, is_zero, inverse, weight, coerce):
        self.zero, self.one, self.is_zero = zero, one, is_zero
        self.inverse, self.weight, self.coerce = inverse, weight, coerce


_RATIONALS = _Field(Fraction(0), Fraction(1), operator.not_, lambda x: 1 / x,
                    None, Fraction)


def _sparse(row, field):
    """The nonzero cells of a dense row, as a dict column -> entry."""
    zero, is_zero, coerce = field.zero, field.is_zero, field.coerce
    return {c: coerce(x) for c, x in enumerate(row)
            if x is not zero and not is_zero(x)}


def _eliminate(row, c, pivot, field, holders=None, j=None):
    """Subtract row[c] times the normalised pivot row (pivot column c) from
    `row` in place, dropping the entries that become zero.  With `holders`,
    the column index of `Echelon`, keep row `j`'s entries in it up to date."""
    f = row[c]
    zero, is_zero = field.zero, field.is_zero
    for k, b in pivot.items():
        old = row.get(k)
        x = (zero if old is None else old) - f * b
        if is_zero(x):
            if old is not None:
                del row[k]
                if holders is not None:
                    holders[k].discard(j)
        else:
            row[k] = x
            if old is None and holders is not None:
                holders.setdefault(k, set()).add(j)


class Echelon:
    """The row space of sparse rows over one field, in reduced row echelon form.

    The rows are reduced once and in place.  A column index maps each
    column to the set of rows holding it, so each column reads only its
    candidate pivots and eliminates only in the rows that hold it.  The
    pivot for each column is the candidate of least `field.weight`, first
    in the current row order, swapped into place.  `reduce` then clears
    further vectors.
    """

    def __init__(self, rows, ncols, field):
        rows = list(rows)
        weight = field.weight
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
            if weight is None:
                i = min(candidates, key=position.__getitem__)
            else:
                i = min(candidates, key=lambda j: (weight(rows[j][c]), position[j]))
            moved, p = order[r], position[i]
            order[r], order[p] = i, moved
            position[i], position[moved] = r, p
            inv = field.inverse(rows[i][c])
            pivot = rows[i] = {k: x * inv for k, x in rows[i].items()}
            for j in list(held):
                if j != i:
                    _eliminate(rows[j], c, pivot, field, holders, j)
            pivots.append(c)
            r += 1
        self.rows = [rows[j] for j in order[:r]]
        self.pivots, self.field = pivots, field

    def reduce(self, vector):
        """The residual of a sparse vector, as a new dict: empty exactly when
        the vector lies in the row space."""
        v = dict(vector)
        for row, c in zip(self.rows, self.pivots):
            if c in v:
                _eliminate(v, c, row, self.field)
        return v


def _kernel(reduced, pivots, ncols, field):
    """Dense basis of the right kernel of an RREF, one vector per free column."""
    zero, one = field.zero, field.one
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        v = [zero] * ncols
        v[fc] = one
        for prow, pc in zip(reduced, pivots):
            if fc in prow:
                v[pc] = -prow[fc]
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# Over Q
# ---------------------------------------------------------------------------

def sparse(vector):
    """A rational vector as a dict column -> nonzero Fraction."""
    return _sparse(vector, _RATIONALS)


def dense(row, ncols):
    """A sparse rational row as a tuple of `ncols` Fractions."""
    return tuple(row.get(k, _RATIONALS.zero) for k in range(ncols))


def row_space(rows, ncols):
    """The `Echelon` of sparse rational rows (dicts column -> Fraction)."""
    return Echelon(rows, ncols, _RATIONALS)


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    ncols = len(rows[0]) if rows else 0
    space = row_space([sparse(r) for r in rows], ncols)
    return [dense(row, ncols) for row in space.rows], space.pivots


def nullspace(rows, ncols):
    """Basis of the right kernel of the matrix, one vector per free column."""
    space = row_space([sparse(r) for r in rows], ncols)
    return [tuple(v) for v in _kernel(space.rows, space.pivots, ncols, _RATIONALS)]


def det(rows):
    """Exact determinant by fraction-free style elimination on Fractions."""
    rows = [list(r) for r in rows]
    n = len(rows)
    sign = 1
    result = Fraction(1)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            sign = -sign
        result *= rows[c][c]
        inv = Fraction(1) / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return sign * result


# ---------------------------------------------------------------------------
# The fraction field of the parameter polynomials
# ---------------------------------------------------------------------------

class ParamFrac:
    """Element num / den of the field of rational functions in the parameters.

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
        elif value != 1:
            num, den = num / value, expr.ONE
        self.num = num
        self.den = den

    @classmethod
    def constant(cls, value):
        return cls(expr.Rational(value))

    def is_zero(self):
        if type(self.num) is expr.Rational:
            return not self.num.coeff
        return expr.is_zero(self.num)

    def __add__(self, other):
        a, b = _rational(self), _rational(other)
        if a is not None and b is not None:
            return ParamFrac(expr.constant(a + b))
        if self.den == other.den:
            return ParamFrac(self.num + other.num, self.den)
        return ParamFrac(self.num * other.den + other.num * self.den,
                         self.den * other.den)

    def __sub__(self, other):
        a, b = _rational(self), _rational(other)
        if a is not None and b is not None:
            return ParamFrac(expr.constant(a - b))
        if self.den == other.den:
            return ParamFrac(self.num - other.num, self.den)
        return ParamFrac(self.num * other.den - other.num * self.den,
                         self.den * other.den)

    def __neg__(self):
        a = _rational(self)
        if a is not None:
            return ParamFrac(expr.constant(-a))
        return ParamFrac(-self.num, self.den)

    def __mul__(self, other):
        a, b = _rational(self), _rational(other)
        if a is not None and b is not None:
            return ParamFrac(expr.constant(a * b))
        if self.den is expr.ONE and other.den is expr.ONE:
            return ParamFrac(self.num * other.num)
        return ParamFrac(self.num * other.num, self.den * other.den)

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverting zero in parameter field")
        a = _rational(self)
        if a is not None:
            return ParamFrac(expr.constant(1 / Fraction(a)))
        if self.den is expr.ONE and len(self.num._poly()) == 1:
            return ParamFrac(expr.ONE / self.num)
        return ParamFrac(self.den, self.num)

    def __truediv__(self, other):
        return self * other.inverse()

    def __eq__(self, other):
        return expr.is_zero(self.num * other.den - other.num * self.den)

    def complexity(self):
        return len(self.num._poly()) + len(self.den._poly())


def _rational(x):
    """The coefficient of a `ParamFrac` that is a rational constant over
    `expr.ONE` itself, else None.  The arithmetic of two such elements runs
    on the coefficients and gives the node that `expr` arithmetic would."""
    if x.den is expr.ONE and type(x.num) is expr.Rational:
        return x.num.coeff
    return None


PARAM_ZERO = ParamFrac(expr.ZERO)
"""The zero of the parameter field that dense rows share; rref_param skips it
by identity.  Sparse rows, which nullspace_param takes, hold no zeros."""


def expr_to_paramfrac(e, params):
    """The element of the parameter field that the expression `e` stands for.

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
    return ParamFrac(expr.normalize(e))


_PARAMETERS = _Field(PARAM_ZERO, ParamFrac.constant(1), ParamFrac.is_zero,
                     ParamFrac.inverse, ParamFrac.complexity, lambda x: x)


def row_space_param(rows, ncols):
    """The `Echelon` of sparse rows over the parameter field."""
    return Echelon(rows, ncols, _PARAMETERS)


def rref_param(rows):
    """RREF of equal-length dense ParamFrac rows; returns (rows, pivots), each
    row a dict column -> nonzero entry.  Shared PARAM_ZERO cells are dropped
    without a test.

    The solve does not come through here: `nullspace_param` takes sparse
    rows.  The rows stay dense because the tests hold the sparse kernel
    against a dense elimination through it, and the benchmark tracer
    counts its cells row by row."""
    ncols = len(rows[0]) if rows else 0
    space = row_space_param([_sparse(r, _PARAMETERS) for r in rows], ncols)
    return space.rows, space.pivots


def nullspace_param(rows, ncols):
    """Basis of the right kernel over the parameter field, one dense vector
    per free column.

    `rows` are sparse, dicts column -> nonzero ParamFrac, as
    `DeterminingSystem.rows` holds them; they are copied before the
    elimination, which works in place, and are left as they were."""
    space = row_space_param([dict(row) for row in rows], ncols)
    return _kernel(space.rows, space.pivots, ncols, _PARAMETERS)


def clear_denominators(vec, params):
    """Scale a ParamFrac vector to polynomial entries, returned as expressions.

    The result has rational content 1, and the leading coefficient of its
    first nonzero entry, in graded lex over `params` in declaration order,
    is positive.
    """
    scale = expr.ONE
    for entry in vec:
        if not entry.den.is_constant():
            scale = scale * entry.den
    cleared = []
    for entry in vec:
        if entry.is_zero():
            cleared.append(expr.ZERO)
            continue
        p = expr.divide(entry.num * scale, entry.den)
        cleared.append(entry.num * scale if p is None else p)
    g, _ = expr.content(*cleared)
    first = next((p for p in cleared if not expr.is_zero(p)), None)
    if first is not None and expr.leading_term(first, params)[1] < 0:
        g = -g
    return [p if expr.is_zero(p) else p / g for p in cleared]


# ---------------------------------------------------------------------------
# Integer kernel lattices
# ---------------------------------------------------------------------------

def integer_kernel(rows):
    """Basis of {a integer vector : M a = 0} via unimodular column reduction.

    `rows` may contain Fractions; they are cleared row-wise first.  The
    returned basis generates the full (saturated) kernel lattice.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    mat = []
    for row in rows:
        fracs = [Fraction(x) for x in row]
        lcm = 1
        for f in fracs:
            lcm = lcm * f.denominator // math.gcd(lcm, f.denominator)
        mat.append([int(f * lcm) for f in fracs])
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
        row[width + i] = Fraction(1)
        rows.append(row)
    span = row_space(rows, width + len(basis))
    out = []
    for v in vectors:
        residual = span.reduce(sparse(v))
        out.append(all(k >= width and x.denominator == 1
                       for k, x in residual.items()))
    return out
