"""Exact symbolic expressions over the rationals, held in canonical form.

The expression language is deliberately small: rational constants, tagged
symbols, exponentials of a group parameter, opaque function applications,
and their sums, products and integer powers.  Arithmetic is eager: every
operator returns the unique expanded form at once.  A single atom or a
constant stays its own node; anything else is a `Poly`, a sum of monomials
with rational coefficients.  So there are four node classes: `Rational`,
`Symbol`, `FunctionApplication` and `Poly`.  An exponential exp(k*eps) is
a factor of a monomial, and `ParamExp` builds it as a `Poly`, as `Power`
builds a power.  Canonical forms are what make exact golden-value testing
of the downstream algebra possible.

Polynomial coefficients are exact rationals held as a plain `int` when
they are integral and as a `fractions.Fraction` otherwise, never as a float
and never as an integral Fraction: the number convention of the whole
package, so the common integer case never pays for Fraction's gcd
normalisation.  `as_rational` puts a number in that form and `quotient` is
the one exact division.  Two operations leave the convention: `int / int`
and `int ** negative_int` give floats, so a division or a power that may
be negative goes through `quotient`.  Floats are rejected.  One value is a
Fraction even when integral: the exponent k of a monomial's parameter
power exp(k*eps).
The `/` operator divides only by nonzero monomials (negative integer
powers), never by general sums; `divide` finds exact quotients of
polynomials.

The atoms, symbols and function applications, are hash-consed: each is
built against one table keyed by its structural key, so equal atoms are
one object and compare and hash by identity; every other node compares by
its key.  The table lives as long as the process and holds each distinct
atom it has built once: 2,455 for the shipped fixture at ansatz degree 6.
Monomials keep their atoms sorted by key, so a product merges two sorted
factor tuples.

Differentiation is one walk: `derivation` takes a derivation's values on
symbols and applies the Leibniz rule to products and the chain rule to
function applications; `diff` is the derivation of one symbol's indicator.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (
    DegenerateInputError,
    ExpansionLimitError,
    NonPolynomialError,
    UnsupportedCompositionError,
    UnsupportedDivisionError,
)

# Symbol role tags.  The numeric values define the first component of the
# canonical symbol order: role, then name, then derivative multi-index
# (graded lexicographic).
INDEPENDENT = 0
DEPENDENT = 1
JET = 2
PARAMETER = 3
UNKNOWN = 4
GROUP = 5


def as_rational(x):
    """The exact rational `x` as the package holds it: an int when it is
    integral, else a Fraction.  A float raises TypeError."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    if isinstance(x, float):
        raise TypeError("floats are not allowed in exact expressions")
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def quotient(a, b):
    """The exact rational a / b, an int when it is integral; unlike `/` on
    two ints it never gives a float."""
    if type(a) is int and type(b) is int and b and not a % b:
        return a // b
    return as_rational(Fraction(a, b))


class Expr:
    """Base class of all expression nodes.

    Nodes are immutable and canonical.  Every node has a structural key,
    `_key`, which is the total order used for canonical sorting.  The atoms
    (`Symbol` and `FunctionApplication`) are hash-consed: there is one
    object per key, so they compare and hash by identity.  Every other node
    compares by its key and caches the key's hash in `_hash`.  Nodes refuse
    `setattr`, so each class rebuilds its copies and pickles through its
    constructor (`__reduce__`).
    """

    __slots__ = ("_key", "_hash")

    def _setkey(self, key):
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __setattr__(self, name, value):
        raise AttributeError("expressions are immutable")

    def __eq__(self, other):
        return isinstance(other, Expr) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self._key < other._key

    def __add__(self, other):
        return canonical(_poly_add(self._poly(), _lift(other)._poly()))

    __radd__ = __add__

    def __sub__(self, other):
        return canonical(_poly_add(self._poly(), _lift(other)._poly(), -1))

    def __rsub__(self, other):
        return _lift(other) - self

    def __mul__(self, other):
        if isinstance(other, Expr):
            return canonical(_poly_mul(self._poly(), other._poly()))
        c = as_rational(other)
        return canonical(_poly_scale(self._poly(), c)) if c else ZERO

    __rmul__ = __mul__

    def __truediv__(self, other):
        return canonical(_poly_mul(self._poly(), _poly_pow(_lift(other)._poly(), -1)))

    def __rtruediv__(self, other):
        return _lift(other) / self

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("power exponents must be plain integers")
        return canonical(_poly_pow(self._poly(), n))

    def __neg__(self):
        return canonical({m: -c for m, c in self._poly().items()})

    def is_constant(self):
        return _constant(self._poly()) is not None

    def __str__(self):
        return render(self)

    __repr__ = __str__


def _lift(x):
    if isinstance(x, Expr):
        return x
    return Rational(x)


class Rational(Expr):
    """Exact rational constant num / den, held in `coeff`."""

    __slots__ = ("coeff",)

    def __init__(self, num, den=1):
        coeff, den = as_rational(num), as_rational(den)
        if den != 1:
            coeff = quotient(coeff, den)
        object.__setattr__(self, "coeff", coeff)
        self._setkey((0, coeff))

    def __reduce__(self):
        return Rational, (self.coeff,)

    def _poly(self):
        return {_EMPTY_MONO: self.coeff} if self.coeff else {}


# The hash-consed atoms by key, for the life of the process: its size is
# the number of distinct symbols and applications built.
_ATOMS = {}


class _Atom(Expr):
    """An atom, `Symbol` or `FunctionApplication`: hash-consed, so it
    compares and hashes by identity.  `_term`, its one-term polynomial
    dict, is made on first use and never mutated: arithmetic copies its
    inputs, and a single unit term canonicalises back to the atom.  Copies
    and pickles rebuild through the constructor, so they are the atom."""

    __slots__ = ("_term",)

    # `object.__eq__` would answer NotImplemented for two distinct atoms and
    # try the reflected call before falling back to identity
    def __eq__(self, other):
        return self is other

    __hash__ = object.__hash__

    def _poly(self):
        try:
            return self._term
        except AttributeError:
            term = {(((self, 1),), ()): _ONE}
            object.__setattr__(self, "_term", term)
            return term


def _intern(cls, key, **fields):
    """The atom with key `key`: a new one of class `cls` with attributes
    `fields`, entered in `_ATOMS` once it is whole, unless the table has
    gained one for `key` meanwhile."""
    atom = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(atom, name, value)
    object.__setattr__(atom, "_key", key)
    return _ATOMS.setdefault(key, atom)


class Symbol(_Atom):
    """Named atom with a role tag.

    Jet coordinates carry the name of their dependent variable in `base`
    and the derivative multi-index (one count per independent variable)
    in `multi`.  Symbols are hash-consed: building one equal to an existing
    symbol returns that object.
    """

    __slots__ = ("name", "role", "base", "multi")

    def __new__(cls, name, role, base=None, multi=()):
        base = name if base is None else base
        multi = tuple(multi)
        key = (1, role, base, sum(multi), multi, name)
        return _ATOMS.get(key) or _intern(cls, key, name=name, role=role,
                                          base=base, multi=multi)

    def __reduce__(self):
        return Symbol, (self.name, self.role, self.base, self.multi)

    @property
    def order(self):
        return sum(self.multi)


class FunctionApplication(_Atom):
    """Opaque function application, e.g. f(x, y), with canonical arguments.

    `derivatives[i]` is the order of formal differentiation with respect to
    argument slot i.  Nonzero derivative counts are only ever produced by
    differentiating applications whose arguments are plain symbols.
    Applications are hash-consed: building one equal to an existing
    application, by name, derivative counts and argument keys, returns that
    object, arguments and all.  The symbols of the arguments and the
    applications with one slot's count raised are kept on the node once
    `free_symbols` and `derivation` have asked for them.
    """

    __slots__ = ("name", "args", "derivatives", "_symbols", "_raised")

    def __new__(cls, name, args, derivatives=None):
        args = tuple(a if isinstance(a, Symbol) else normalize(a) for a in args)
        if derivatives is None:
            derivatives = (0,) * len(args)
        derivatives = tuple(derivatives)
        if len(derivatives) != len(args):
            raise ValueError("derivative counts must align with arguments")
        key = (3, name, len(args), sum(derivatives), derivatives,
               tuple(a._key for a in args))
        return _ATOMS.get(key) or _intern(cls, key, name=name, args=args,
                                          derivatives=derivatives)

    def __reduce__(self):
        return FunctionApplication, (self.name, self.args, self.derivatives)


# ---------------------------------------------------------------------------
# Polynomial normal form.
#
# A monomial is a pair (powers, pexps):
#   powers: tuple of (atom, nonzero integer exponent) sorted by atom key,
#           atom a Symbol or FunctionApplication;
#   pexps:  tuple of (group symbol, nonzero Fraction) sorted by symbol key,
#           representing the product of the factors exp(k * symbol).
# A polynomial is a dict monomial -> nonzero coefficient, an int when it is
# integral and a Fraction otherwise.
# ---------------------------------------------------------------------------

_EMPTY_MONO = ((), ())
_ONE = 1


class Poly(Expr):
    """Canonical form of every expression that is not an atom or a constant.

    `terms` is the polynomial dict (see above); it is never mutated.  The
    key is that of the expanded sum of products the polynomial stands for,
    in canonical term order.  It is computed on first use: most
    intermediate results are never compared, hashed or sorted, and a sum
    built term by term would otherwise sort all its terms at every step.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        object.__setattr__(self, "terms", terms)

    def __reduce__(self):
        return Poly, (self.terms,)

    def __getattr__(self, name):
        if name not in ("_key", "_hash"):
            raise AttributeError(name)
        keys = tuple(_term_key(m, c) for m, c in _sorted_terms(self.terms))
        self._setkey(keys[0] if len(keys) == 1 else (6, keys))
        return getattr(self, name)

    def _poly(self):
        return self.terms


ZERO = Rational(0)
ONE = Rational(1)


def canonical(poly):
    """The canonical node for a polynomial dict, which it takes over.

    Every operator ends here, and so does a caller that builds the dict in
    the layout above itself, as `adjoint.flow` does its images.  A constant
    1 comes back as the `ONE` object itself, so arithmetic results can be
    tested against it by identity, as `linalg.ParamFrac` does with its
    denominators.
    """
    if len(poly) == 1:
        (mono, coeff), = poly.items()
        powers, pexps = mono
        if not powers and not pexps:
            return constant(coeff)
        if coeff == 1 and not pexps and len(powers) == 1 and powers[0][1] == 1:
            return powers[0][0]
    elif not poly:
        return ZERO
    return Poly(poly)


def constant(c):
    """The canonical node of the rational constant `c`, as arithmetic returns
    it: `ZERO`, `ONE` itself or a `Rational`."""
    if not c:
        return ZERO
    return ONE if c == 1 else Rational(c)


def _mono_sort_key(mono):
    powers, pexps = mono
    return (
        tuple((a._key, e) for a, e in powers),
        tuple((s._key, k) for s, k in pexps),
    )


def _sorted_terms(poly):
    return sorted(poly.items(), key=lambda it: _mono_sort_key(it[0]))


def _term_key(mono, coeff):
    """Key of the product coeff * atom^e * ... * exp(k*eps) * ..."""
    powers, pexps = mono
    keys = [] if coeff == 1 and (powers or pexps) else [(0, coeff)]
    keys.extend(a._key if e == 1 else (4, a._key, e) for a, e in powers)
    keys.extend((2, s._key, k) for s, k in pexps)
    return keys[0] if len(keys) == 1 else (5, tuple(keys))


def _mono_mul(m1, m2):
    p1, e1 = m1
    p2, e2 = m2
    return _merge(p1, p2), _merge(e1, e2)


def _merge(f1, f2):
    """The product of two factor tuples of a monomial, each sorted by its
    atoms' keys: one merge pass that adds the exponents of a shared atom
    and drops a factor whose exponent becomes zero."""
    if not f2:
        return f1
    if not f1:
        return f2
    out = []
    i = j = 0
    n1, n2 = len(f1), len(f2)
    while i < n1 and j < n2:
        a, e = f1[i]
        b, k = f2[j]
        if a is b:
            e += k
            if e:
                out.append((a, e))
            i += 1
            j += 1
        elif a._key < b._key:
            out.append(f1[i])
            i += 1
        else:
            out.append(f2[j])
            j += 1
    return (*out, *f1[i:], *f2[j:])


def _add_term(poly, mono, coeff):
    c = poly.get(mono, 0) + coeff
    if c:
        poly[mono] = c if type(c) is int else as_rational(c)
    else:
        poly.pop(mono, None)


def _poly_add(p1, p2, scale=1):
    out = dict(p1)
    for mono, coeff in p2.items():
        _add_term(out, mono, coeff * scale)
    return out


def _poly_mul(p1, p2):
    if len(p2) == 1 and _EMPTY_MONO in p2:
        return _poly_scale(p1, p2[_EMPTY_MONO])
    if len(p1) == 1 and _EMPTY_MONO in p1:
        return _poly_scale(p2, p1[_EMPTY_MONO])
    out = {}
    for m1, c1 in p1.items():
        for m2, c2 in p2.items():
            _add_term(out, _mono_mul(m1, m2), c1 * c2)
    return out


def _poly_scale(p, c):
    """p times the nonzero coefficient c, term by term in p's order."""
    if type(c) is int:
        return {m: v * c if type(v) is int else as_rational(v * c) for m, v in p.items()}
    return {m: as_rational(v * c) for m, v in p.items()}


# The most a power of a sum may cost to form, counted as its bound on terms
# times the exponent: a k-term sum to a power n > 1 has up to
# C(n + k - 1, k - 1) terms.  The parser's stricter POWER_TERMS bounds a
# power written in a system file; this bounds one that a stage forms, such
# as a substitution's.  The square of a 51-term sum costs 2,652.
POWER_COST = 10 ** 6


def _poly_pow(p, n):
    """p**n; a negative n needs p to be a nonzero monomial, and a power of a
    sum that costs more than POWER_COST raises ExpansionLimitError."""
    k = len(p)
    if n > 1 and k > 1:
        terms = math.comb(n + k - 1, k - 1)
        if terms * n > POWER_COST:
            raise ExpansionLimitError(
                f"a {k}-term sum to the power {n} has up to {terms} terms, times the "
                f"power {terms * n}, over the budget of {POWER_COST}")
    if n < 0:
        if not p:
            raise DegenerateInputError("division by zero expression")
        if len(p) != 1:
            raise UnsupportedDivisionError(
                "division is only supported by nonzero monomials, not by sums"
            )
        ((powers, pexps), coeff), = p.items()
        p = {(tuple((a, -e) for a, e in powers), tuple((s, -k) for s, k in pexps)):
             quotient(1, coeff)}
        n = -n
    result = {_EMPTY_MONO: _ONE}
    while n:
        if n & 1:
            result = _poly_mul(result, p)
        n >>= 1
        if n:
            p = _poly_mul(p, p)
    return result


def Power(base, exponent):
    """`base` raised to an integer power, in canonical form."""
    return _lift(base) ** exponent


def ParamExp(param, k):
    """exp(k * param) for a group-parameter symbol `param` and a rational k:
    `ONE` when k is 0, and otherwise the `Poly` of one monomial whose
    parameter powers hold (param, k)."""
    if not (isinstance(param, Symbol) and param.role == GROUP):
        raise TypeError("ParamExp parameter must be a group-parameter symbol")
    k = Fraction(as_rational(k))
    return Poly({((), ((param, k),)): _ONE}) if k else ONE


def normalize(e):
    """Return the unique canonical form of `e`.

    Operator results are canonical already; this lifts numbers to
    `Rational` and a constant 1 to `ONE`.
    """
    e = _lift(e)
    return e if isinstance(e, Poly) else canonical(e._poly())


def monomials(e):
    """The terms of `e` in canonical order, as (monomial, coefficient) pairs.

    A coefficient is an int when it is integral and a Fraction otherwise;
    divide one only through `quotient`.

    A monomial is a pair (powers, pexps): `powers` holds (atom, integer
    exponent) pairs with atoms Symbols or FunctionApplications, `pexps`
    holds (group symbol, Fraction k) pairs standing for exp(k * symbol).
    """
    return _sorted_terms(_lift(e)._poly())


def is_zero(e):
    return not _lift(e)._poly()


def equal(a, b):
    """Exact semantic equality."""
    return normalize(a) == normalize(b)


def _constant(p):
    """The coefficient of a constant polynomial dict, or None."""
    if not p:
        return 0
    return p.get(_EMPTY_MONO) if len(p) == 1 else None


def constant_value(e):
    """The value of a constant expression as an exact rational, or None."""
    return _constant(_lift(e)._poly())


def content(*es):
    """The gcd of all terms of the given expressions, as (c, m).

    `c` is the positive rational content: the gcd of the coefficients'
    numerators over the lcm of their denominators.  `m` is the monomial
    with each atom at its least exponent over the terms, counting a
    missing atom as exponent 0.  With no nonzero term it is (1, ONE).
    """
    terms = [mono for e in es for mono in _lift(e)._poly().items()]
    num, den = 0, 1
    for _, c in terms:
        num = math.gcd(num, c.numerator)
        den = math.lcm(den, c.denominator)
    exps = [dict(powers) for (powers, _), _ in terms]
    m = ONE
    for a in set().union(*exps):
        m = m * a ** min(p.get(a, 0) for p in exps)
    return Fraction(num or 1, den), m


def _atoms(*polys):
    """The atoms of polynomial dicts, in canonical order."""
    found = {a for p in polys for (powers, _) in p for a, _ in powers}
    return sorted(found, key=lambda a: a._key)


def _grlex(atoms):
    """Sort key of (monomial, coefficient) items: graded lex over `atoms`."""
    def key(item):
        exps = dict(item[0][0])
        v = tuple(exps.get(a, 0) for a in atoms)
        return sum(v), v
    return key


def leading_term(e, symbols=None):
    """The (monomial, coefficient) term of a nonzero `e` leading in graded lex.

    Exponent vectors are read over `symbols` in the given order, by
    default over the atoms of `e` in canonical order.  Exponentials of a
    group parameter take no part in the order.
    """
    p = _lift(e)._poly()
    return max(p.items(), key=_grlex(_atoms(p) if symbols is None else symbols))


def divide(a, b):
    """The exact quotient a / b, or None when it is not found.

    Division by a constant always succeeds.  Otherwise this is multivariate
    division by graded-lex leading terms (atoms in canonical order), and
    the quotient must be a polynomial: it gives up when a leading term of
    the remainder is not a multiple of b's, or when the remainder is not
    zero after len(a) * (len(b) + 2) + 16 steps.
    """
    pa, pb = _lift(a)._poly(), _lift(b)._poly()
    if not pb:
        raise DegenerateInputError("division by zero expression")
    c = _constant(pb)
    if c is not None:
        return canonical({m: quotient(v, c) for m, v in pa.items()})
    order = _grlex(_atoms(pa, pb))
    (powers, pexps), lead = max(pb.items(), key=order)
    inverse = (tuple((x, -k) for x, k in powers), tuple((s, -k) for s, k in pexps))
    remainder = dict(pa)
    result = {}
    for _ in range(len(pa) * (len(pb) + 2) + 16):
        if not remainder:
            break
        mono, coeff = max(remainder.items(), key=order)
        q = _mono_mul(mono, inverse)
        if any(k < 0 for _, k in q[0]):
            return None
        c = quotient(coeff, lead)
        _add_term(result, q, c)
        remainder = _poly_add(remainder, _poly_mul({q: c}, pb), -1)
    return None if remainder else canonical(result)


def free_symbols(e):
    """All symbols occurring in `e`, including inside function arguments."""
    out = set()
    for (powers, pexps), _ in _lift(e)._poly().items():
        for atom, _ in powers:
            if isinstance(atom, Symbol):
                out.add(atom)
            else:
                out |= _application_symbols(atom)
        out.update(s for s, _ in pexps)
    return out


def _application_symbols(atom):
    """The symbols of a function application's arguments, kept on it."""
    try:
        return atom._symbols
    except AttributeError:
        found = frozenset().union(*(free_symbols(a) for a in atom.args))
        object.__setattr__(atom, "_symbols", found)
        return found


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------

def derivation(e, d):
    """D e for the derivation D that takes each symbol s to the expression d(s).

    The Leibniz rule in one walk over the terms of `e`, into one output
    polynomial; exp(k*eps) goes to k * d(eps) * exp(k*eps), and a function
    application f(a_1, ..., a_n) to the chain rule sum_k d(a_k) * f_k, f_k
    being f with the derivative count of slot k raised.  `d` is called only
    on symbols, group symbols included, and once for each distinct one.
    An application with a composite or repeated argument raises
    UnsupportedCompositionError, naming the first symbol in canonical order
    that D does not take to zero, unless D takes every symbol in it to zero.
    """
    partials = {}
    out = {}
    for (powers, pexps), coeff in _lift(e)._poly().items():
        for idx, (atom, exp) in enumerate(powers):
            p = _partial(atom, d, partials)
            if not p:
                continue
            rest = list(powers)
            if exp == 1:
                del rest[idx]
            else:
                rest[idx] = (atom, exp - 1)
            cofactor = (tuple(rest), pexps)
            for mono, c in p.items():
                _add_term(out, _mono_mul(cofactor, mono), coeff * exp * c)
        for sym, k in pexps:
            for mono, c in _partial(sym, d, partials).items():
                _add_term(out, _mono_mul((powers, pexps), mono), coeff * k * c)
    return canonical(out)


def _partial(atom, d, partials):
    """The polynomial dict of D atom, kept in `partials`."""
    p = partials.get(atom)
    if p is None:
        if isinstance(atom, Symbol):
            p = d(atom)._poly()
        else:
            p = _chain_rule(atom, d, partials)
        partials[atom] = p
    return p


def _chain_rule(atom, d, partials):
    """The polynomial dict of D f(a_1, ..., a_n) (see `derivation`)."""
    live = [s for s in sorted(free_symbols(atom), key=lambda s: s._key)
            if _partial(s, d, partials)]
    if not live:
        return {}
    if not all(isinstance(a, Symbol) for a in atom.args):
        raise UnsupportedCompositionError(
            f"cannot differentiate {atom} with composite arguments by {live[0].name}"
        )
    if len(set(atom.args)) != len(atom.args):
        raise UnsupportedCompositionError(
            f"cannot differentiate {atom} with repeated arguments"
        )
    out = {}
    for arg, raised in zip(atom.args, _raised(atom)):
        out = _poly_add(out, _poly_mul(_partial(arg, d, partials), raised))
    return out


def _raised(atom):
    """The polynomial dicts of f_1, ..., f_n, f_k being the application f
    with the derivative count of slot k raised; kept on `atom`."""
    try:
        return atom._raised
    except AttributeError:
        raised = []
        for slot in range(len(atom.args)):
            counts = list(atom.derivatives)
            counts[slot] += 1
            raised.append(FunctionApplication(atom.name, atom.args, counts)._poly())
        raised = tuple(raised)
        object.__setattr__(atom, "_raised", raised)
        return raised


def diff(e, s):
    """Exact partial derivative; all other symbols are held constant."""
    if not isinstance(s, Symbol):
        raise TypeError("can only differentiate with respect to a Symbol")
    return derivation(e, lambda sym: ONE if sym is s else ZERO)


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

def substitute(e, rules):
    """Simultaneous, non-recursive substitution of symbols.

    A rule for a group symbol s also rewrites its exponentials: with s -> 0,
    exp(k*s) becomes 1, and with s -> sum_j a_j g_j, a rational combination
    of group symbols, it becomes prod_j exp(k*a_j*g_j).  Any other value for
    s raises NonPolynomialError where an exp(k*s) occurs.  A function
    application is rewritten once per call, and kept as it is when no rule
    touches its arguments.
    """
    for target in rules:
        if not isinstance(target, Symbol):
            raise TypeError("substitution targets must be symbols")
    rules = {t: _lift(v) for t, v in rules.items()}
    applications = {}
    out = {}
    for mono, coeff in _lift(e)._poly().items():
        powers, pexps = mono
        kept = []
        factor = None
        for atom, exp in powers:
            if isinstance(atom, FunctionApplication):
                value = applications.get(atom)
                if value is None:
                    value = applications[atom] = _substitute_arguments(atom, rules)
            else:
                value = rules.get(atom, atom)
            if value is atom:
                kept.append((atom, exp))
                continue
            p = _poly_pow(value._poly(), exp)
            factor = p if factor is None else _poly_mul(factor, p)
        kept_exps = []
        for sym, k in pexps:
            if sym not in rules:
                kept_exps.append((sym, k))
                continue
            p = {((), _exponent_combination(sym, rules[sym], k)): _ONE}
            factor = p if factor is None else _poly_mul(factor, p)
        if factor is None:
            _add_term(out, mono, coeff)
            continue
        for m, c in _poly_mul({(tuple(kept), tuple(kept_exps)): coeff}, factor).items():
            _add_term(out, m, c)
    return canonical(out)


def _substitute_arguments(atom, rules):
    """A function application with the rules applied to its arguments; the
    application itself when no rule touches them."""
    if rules.keys().isdisjoint(_application_symbols(atom)):
        return atom
    return FunctionApplication(
        atom.name, tuple(substitute(a, rules) for a in atom.args), atom.derivatives
    )


def _exponent_combination(sym, value, k):
    """The pexps of exp(k * value), for the value of the group symbol `sym`:
    value must be a rational combination of group symbols."""
    pexps = []
    for (powers, exps), a in _sorted_terms(value._poly()):
        g = powers[0][0] if len(powers) == 1 and powers[0][1] == 1 and not exps else None
        if not (isinstance(g, Symbol) and g.role == GROUP):
            raise NonPolynomialError(
                f"exp({sym.name}) with {sym.name} = {value} is not an exponential "
                "of a rational combination of group symbols"
            )
        pexps.append((g, k * a))
    return tuple(pexps)


# ---------------------------------------------------------------------------
# Coefficient collection
# ---------------------------------------------------------------------------

def collect(e, variables):
    """Collect `e` as a polynomial in `variables`.

    Returns {exponent tuple: coefficient}: the exponents follow the
    variables in canonical order, and each coefficient is a nonzero
    expression free of them.  Raises NonPolynomialError if `e` depends on
    any of the variables other than through nonnegative integer powers.
    """
    variables = tuple(sorted(set(variables), key=lambda s: s._key))
    index = {v: i for i, v in enumerate(variables)}
    buckets = {}
    for (powers, pexps), coeff in monomials(e):
        exps = [0] * len(variables)
        rest = []
        for atom, exp in powers:
            if isinstance(atom, Symbol) and atom in index:
                if exp < 0:
                    raise NonPolynomialError(
                        f"negative power of {atom.name} is not polynomial"
                    )
                exps[index[atom]] = exp
            else:
                if free_symbols(atom) & set(variables):
                    raise NonPolynomialError(
                        f"{atom} depends non-polynomially on the collection variables"
                    )
                rest.append((atom, exp))
        _add_term(buckets.setdefault(tuple(exps), {}), (tuple(rest), pexps), coeff)
    return {key: canonical(poly) for key, poly in buckets.items() if poly}


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _render_atom(atom):
    if isinstance(atom, Symbol):
        return atom.name
    name = atom.name
    sub = "".join(
        (a.name if isinstance(a, Symbol) else "?") * d
        for a, d in zip(atom.args, atom.derivatives)
    )
    if sub:
        name = f"{name}_{sub}"
    return f"{name}({', '.join(render(a) for a in atom.args)})"


def _render_pexp(sym, k):
    if k == 1:
        return f"exp({sym.name})"
    if k == -1:
        return f"exp(-{sym.name})"
    return f"exp({k}*{sym.name})"


def _render_term(mono, coeff):
    powers, pexps = mono
    pieces = [_render_atom(a) if e == 1 else f"{_render_atom(a)}^{e}" for a, e in powers]
    pieces.extend(_render_pexp(s, k) for s, k in pexps)
    if not pieces:
        return str(coeff)
    body = "*".join(pieces)
    if coeff == 1:
        return body
    if coeff == -1:
        return f"-{body}"
    return f"{coeff}*{body}"


def render(e):
    """Stable human-readable form of the canonical expression."""
    parts = []
    for mono, coeff in monomials(e):
        text = _render_term(mono, coeff)
        if not parts:
            parts.append(text)
        elif text.startswith("-"):
            parts.append(f" - {text[1:]}")
        else:
            parts.append(f" + {text}")
    return "".join(parts) or "0"
