"""Exact linear algebra: rational matrices, the parameter field, integer lattices.

Three layers, all division-free of floating point:

* plain `Fraction` matrices (reduced row echelon form, nullspace, solve),
  used by the Lie-algebra structure machinery;
* the field of rational functions in the system parameters, represented as
  fractions of multivariate polynomials with only guaranteed-exact
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

def rank(rows):
    return len(rref(rows)[0])


def in_span(basis, vector):
    """Whether `vector` is a rational combination of the basis rows."""
    if all(x == 0 for x in vector):
        return True
    if not basis:
        return False
    cols = list(zip(*basis))
    return solve(cols, vector) is not None


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
# Multivariate polynomials over the parameters, and their fraction field
# ---------------------------------------------------------------------------

class ParamPoly:
    """Polynomial in the parameter symbols: dict[exponent tuple] -> Fraction."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    @classmethod
    def constant(cls, nvars, value):
        value = Fraction(value)
        return cls(nvars, {(0,) * nvars: value} if value else {})

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return not self.terms or set(self.terms) == {(0,) * self.nvars}

    def constant_value(self):
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in other.terms.items():
            c = out.get(k, Fraction(0)) + v
            if c:
                out[k] = c
            else:
                out.pop(k, None)
        return ParamPoly(self.nvars, out)

    def __neg__(self):
        return ParamPoly(self.nvars, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Fraction):
            return ParamPoly(self.nvars, {k: v * other for k, v in self.terms.items()})
        out = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                k = tuple(a + b for a, b in zip(k1, k2))
                c = out.get(k, Fraction(0)) + v1 * v2
                if c:
                    out[k] = c
                else:
                    out.pop(k, None)
        return ParamPoly(self.nvars, out)

    def shift(self, offsets):
        return ParamPoly(
            self.nvars,
            {tuple(a + b for a, b in zip(k, offsets)): v for k, v in self.terms.items()},
        )

    def content(self):
        """Positive rational content (gcd of coefficients)."""
        if not self.terms:
            return Fraction(1)
        g = 0
        l = 1
        for v in self.terms.values():
            g = math.gcd(g, abs(v.numerator))
            l = l * v.denominator // math.gcd(l, v.denominator)
        return Fraction(g, l)

    def monomial_content(self):
        """Componentwise minimum exponent across all terms."""
        if not self.terms:
            return (0,) * self.nvars
        mins = [min(k[i] for k in self.terms) for i in range(self.nvars)]
        return tuple(mins)

    def leading(self):
        """(exponent, coeff) of the graded-lex leading term."""
        key = max(self.terms, key=lambda k: (sum(k), k))
        return key, self.terms[key]

    def exact_div(self, other):
        """self / other if the division is exact, else None."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if other.is_constant():
            c = other.constant_value()
            return ParamPoly(self.nvars, {k: v / c for k, v in self.terms.items()})
        remainder = ParamPoly(self.nvars, dict(self.terms))
        quotient = {}
        lead_exp, lead_coeff = other.leading()
        guard = len(self.terms) * (len(other.terms) + 2) + 16
        while not remainder.is_zero():
            guard -= 1
            if guard < 0:
                return None
            rexp, rcoeff = remainder.leading()
            qexp = tuple(a - b for a, b in zip(rexp, lead_exp))
            if any(q < 0 for q in qexp):
                return None
            qc = rcoeff / lead_coeff
            quotient[qexp] = quotient.get(qexp, Fraction(0)) + qc
            remainder = remainder - other * ParamPoly(self.nvars, {qexp: qc})
        return ParamPoly(self.nvars, quotient)

    def __eq__(self, other):
        return isinstance(other, ParamPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))


class ParamFrac:
    """Element of the fraction field of the parameter polynomial ring."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = ParamPoly.constant(num.nvars, 1)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in parameter field")
        # Normalize: strip common monomial factors and rational content from
        # the denominator, then try an exact division.
        shift = tuple(-m for m in den.monomial_content())
        if any(shift):
            den = den.shift(shift)
            num = num.shift(shift)
        c = den.content()
        _, lead = den.leading() if not den.is_zero() else ((), Fraction(1))
        if lead < 0:
            c = -c
        if c != 1:
            den = den * (Fraction(1) / c)
            num = num * (Fraction(1) / c)
        if not den.is_constant():
            q = num.exact_div(den)
            if q is not None:
                num = q
                den = ParamPoly.constant(num.nvars, 1)
        self.num = num
        self.den = den

    @classmethod
    def constant(cls, nvars, value):
        return cls(ParamPoly.constant(nvars, value))

    def is_zero(self):
        return self.num.is_zero()

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
        return (self.num * other.den) == (other.num * self.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def complexity(self):
        return len(self.num.terms) + len(self.den.terms)


def expr_to_paramfrac(e, params):
    """Convert an expression in the parameters into a ParamFrac.

    Negative powers of parameters become denominators.  Raises if the
    expression contains anything but parameters and constants.
    """
    nvars = len(params)
    index = {p: i for i, p in enumerate(params)}
    num_terms = {}
    min_exps = [0] * nvars
    monos = []
    for (powers, pexps), coeff in expr.monomials(e):
        if pexps:
            raise UnsupportedDivisionError(
                "group-parameter exponentials cannot appear in the parameter field"
            )
        exps = [0] * nvars
        for atom, k in powers:
            if atom not in index:
                raise UnsupportedDivisionError(
                    f"{atom} is not a parameter; cannot coerce to the parameter field"
                )
            exps[index[atom]] = k
        for i in range(nvars):
            min_exps[i] = min(min_exps[i], exps[i])
        monos.append((tuple(exps), coeff))
    for exps, coeff in monos:
        key = tuple(a - b for a, b in zip(exps, min_exps))
        num_terms[key] = num_terms.get(key, Fraction(0)) + coeff
    num = ParamPoly(nvars, num_terms)
    den = ParamPoly(nvars, {tuple(-m for m in min_exps): Fraction(1)})
    return ParamFrac(num, den)


def parampoly_to_expr(p, params):
    total = expr.ZERO
    for exps, coeff in sorted(p.terms.items()):
        term = expr.Rational(coeff)
        for sym, k in zip(params, exps):
            if k:
                term = term * expr.Power(sym, k)
        total = total + term
    return total


def rref_param(rows, nvars):
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


def nullspace_param(rows, ncols, nvars):
    reduced, pivots = rref_param(rows, nvars)
    one = ParamFrac.constant(nvars, 1)
    zero = ParamFrac.constant(nvars, 0)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [zero] * ncols
        v[fc] = one
        for prow, pc in zip(reduced, pivots):
            v[pc] = -prow[fc]
        basis.append(v)
    return basis


def solve_param(rows, rhs, nvars):
    """One solution of A x = b over the parameter field, or None."""
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    reduced, pivots = rref_param(aug, nvars)
    for prow, pc in zip(reduced, pivots):
        if pc == ncols:
            return None
    zero = ParamFrac.constant(nvars, 0)
    x = [zero] * ncols
    for prow, pc in zip(reduced, pivots):
        x[pc] = prow[ncols]
    return x


def clear_denominators(vec, params):
    """Scale a ParamFrac vector to polynomial entries, returned as expressions.

    The result is normalized to have rational content 1 and a positive
    leading coefficient in its first nonzero entry.
    """
    nvars = len(params)
    scale = ParamPoly.constant(nvars, 1)
    for entry in vec:
        if not entry.den.is_constant() or entry.den.constant_value() != 1:
            scale = scale * entry.den
    cleared = []
    for entry in vec:
        p = (entry.num * scale).exact_div(entry.den)
        if p is None:  # den always divides scale, but stay safe
            p = entry.num * scale
        cleared.append(p)
    contents = [p.content() for p in cleared if not p.is_zero()]
    if contents:
        g = Fraction(0)
        for c in contents:
            if not g:
                g = c
            else:
                g = Fraction(
                    math.gcd(g.numerator, c.numerator),
                    g.denominator * c.denominator
                    // math.gcd(g.denominator, c.denominator),
                )
        first = next(p for p in cleared if not p.is_zero())
        if first.leading()[1] < 0:
            g = -g
        cleared = [p * (Fraction(1) / g) for p in cleared]
    return [parampoly_to_expr(p, params) for p in cleared]


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
