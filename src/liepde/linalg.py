"""Exact linear algebra: rational matrices, the parameter field, integer lattices.

Three layers, all division-free of floating point:

* plain `Fraction` matrices (reduced row echelon form, nullspace, solve),
  used by the Lie-algebra structure machinery;
* the field of rational functions in the system parameters: fractions of
  `expr` polynomials in the parameter symbols, with only guaranteed-exact
  simplification (monomial/rational content, exact division attempts);
  used to solve determining systems whose coefficients involve parameters;
* integer kernel lattices via unimodular column reduction, used for the
  monomial-invariant lattice.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import expr
from .errors import UnsupportedDivisionError


# ---------------------------------------------------------------------------
# Fraction matrices
# ---------------------------------------------------------------------------

def rref(rows):
    """Reduced row echelon form; returns (rows, pivot column indices)."""
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


def nullspace(rows, ncols):
    """Basis of the right kernel of the matrix, one vector per free column."""
    reduced, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for prow, pc in zip(reduced, pivots):
            v[pc] = -prow[fc]
        basis.append(tuple(v))
    return basis


def solve(rows, rhs):
    """One solution of A x = b, or None if inconsistent."""
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    reduced, pivots = rref(aug)
    for prow, pc in zip(reduced, pivots):
        if pc == ncols:
            return None
    x = [Fraction(0)] * ncols
    for prow, pc in zip(reduced, pivots):
        x[pc] = prow[ncols]
    return tuple(x)


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
    is, is taken as it is.
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
        return expr.is_zero(self.num)

    def __add__(self, other):
        if self.den == other.den:
            return ParamFrac(self.num + other.num, self.den)
        return ParamFrac(self.num * other.den + other.num * self.den,
                         self.den * other.den)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ParamFrac(-self.num, self.den)

    def __mul__(self, other):
        return ParamFrac(self.num * other.num, self.den * other.den)

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverting zero in parameter field")
        return ParamFrac(self.den, self.num)

    def __truediv__(self, other):
        return self * other.inverse()

    def __eq__(self, other):
        return expr.is_zero(self.num * other.den - other.num * self.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def complexity(self):
        return len(expr.monomials(self.num)) + len(expr.monomials(self.den))


PARAM_ZERO = ParamFrac(expr.ZERO)
"""The zero of the parameter field that dense rows share; rref_param skips it
by identity."""


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


def rref_param(rows):
    """RREF over the parameter field; returns (rows, pivots).

    `rows` are equal-length sequences of ParamFrac; cells that are the
    shared PARAM_ZERO are dropped without a test.  The elimination runs on
    sparse rows and each reduced row comes back as a dict column -> nonzero
    entry.  Only nonzero cells are touched, but the path is the dense one:
    columns left to right, and the pivot is the first row from `r` on, in
    the current row order, whose entry has the least `complexity()`,
    swapped into place.  ParamFrac does not cancel common factors, so a
    different path would give equal entries with different representations,
    and different basis vectors after clear_denominators.
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    rows = [
        {c: x for c, x in enumerate(row) if x is not PARAM_ZERO and not x.is_zero()}
        for row in rows
    ]
    zero = PARAM_ZERO
    pivots = []
    r = 0
    for c in range(ncols):
        candidates = [i for i in range(r, len(rows)) if c in rows[i]]
        if not candidates:
            continue
        # Prefer the structurally simplest pivot to limit growth.
        i = min(candidates, key=lambda i: rows[i][c].complexity())
        rows[r], rows[i] = rows[i], rows[r]
        inv = rows[r][c].inverse()
        pivot = rows[r] = {k: x * inv for k, x in rows[r].items()}
        for j, row in enumerate(rows):
            f = row.get(c)
            if f is None or j == r:
                continue
            for k, b in pivot.items():
                x = row.get(k, zero) - f * b
                if x.is_zero():
                    row.pop(k, None)
                else:
                    row[k] = x
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def nullspace_param(rows, ncols):
    reduced, pivots = rref_param(rows)
    one = ParamFrac.constant(1)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [PARAM_ZERO] * ncols
        v[fc] = one
        for prow, pc in zip(reduced, pivots):
            if fc in prow:
                v[pc] = -prow[fc]
        basis.append(v)
    return basis


def solve_param(rows, rhs):
    """One solution of A x = b over the parameter field, or None."""
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    reduced, pivots = rref_param(aug)
    if ncols in pivots:
        return None
    x = [PARAM_ZERO] * ncols
    for prow, pc in zip(reduced, pivots):
        x[pc] = prow.get(ncols, PARAM_ZERO)
    return x


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


def in_integer_lattice(basis, vector):
    """Whether the integer vector is an integer combination of the basis."""
    if all(x == 0 for x in vector):
        return True
    if not basis:
        return False
    cols = [[Fraction(b[i]) for b in basis] for i in range(len(vector))]
    x = solve(cols, [Fraction(v) for v in vector])
    if x is None:
        return False
    return all(xi.denominator == 1 for xi in x)
