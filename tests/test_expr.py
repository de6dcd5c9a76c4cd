import copy
import pickle
import random
import re
from fractions import Fraction

import pytest

from liepde import expr, linalg
from liepde.jet import JetSpace, jet
from liepde.errors import (
    DegenerateInputError,
    ExpansionLimitError,
    NonPolynomialError,
    UnsupportedCompositionError,
    UnsupportedDivisionError,
)
from liepde.expr import (
    DEPENDENT,
    GROUP,
    INDEPENDENT,
    JET,
    PARAMETER,
    FunctionApplication,
    ParamExp,
    Power,
    Rational,
    Symbol,
)

from conftest import assert_rational, random_expression

x = Symbol("x", INDEPENDENT)
y = Symbol("y", INDEPENDENT)
u = Symbol("u", DEPENDENT)
v = Symbol("v", DEPENDENT)
c1 = Symbol("c1", PARAMETER)
c2 = Symbol("c2", PARAMETER)
eps = Symbol("eps", GROUP)
SYMS = [x, y, u, v]


class TestNormalize:
    def test_like_terms(self):
        assert expr.normalize(x + x) == expr.normalize(2 * x)

    def test_expansion_matches_direct_product_oracle(self):
        # oracle: multiply out (u+v)(u-v) by hand
        expected = expr.normalize(u * u - v * v)
        assert expr.normalize((u + v) * (u - v)) == expected
        assert expr.render(expected) == "u^2 - v^2"

    def test_param_exp_cancellation(self):
        e = ParamExp(eps, 1) * ParamExp(eps, -1)
        assert expr.normalize(e) == Rational(1)

    def test_param_exp_zero_is_one(self):
        assert expr.normalize(ParamExp(eps, 0)) == Rational(1)

    def test_param_exp_merging(self):
        a = expr.normalize(ParamExp(eps, 2) * ParamExp(eps, 3))
        assert a == expr.normalize(ParamExp(eps, 5))

    def test_param_exp_is_built_canonical(self):
        # exp(k eps) is a monomial of a Poly, with the key (2, eps key, k),
        # and exp(0 eps) is ONE itself, without a normalize
        assert ParamExp(eps, 0) is expr.ONE
        for k in (1, -2, Fraction(1, 2)):
            e = ParamExp(eps, k)
            assert type(e) is expr.Poly
            assert e._key == (2, eps._key, Fraction(k))
            for other in (copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
                assert type(other) is expr.Poly and other == e and hash(other) == hash(e)
        assert ParamExp(eps, 1) * ParamExp(eps, -1) is expr.ONE
        with pytest.raises(TypeError):
            ParamExp(x, 1)

    def test_lowest_terms(self):
        assert Rational(2, 4).coeff == Fraction(1, 2)
        assert Rational(1, -2).coeff == Fraction(-1, 2)

    def test_idempotent_on_random_corpus(self):
        rng = random.Random(11)
        for _ in range(150):
            e = random_expression(rng, SYMS)
            n = expr.normalize(e)
            assert expr.normalize(n) == n

    def test_ring_axioms_random(self):
        rng = random.Random(13)
        for _ in range(150):
            a, b, c = (random_expression(rng, SYMS) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a - a == Rational(0)
            assert expr.normalize(a * b) == a * b

    def test_long_sum(self):
        total = Rational(0)
        for k in range(1200):
            total = total + Rational(k + 1) * x**k
        n = expr.normalize(total)
        assert n == total
        assert len(expr.monomials(n)) == 1200
        assert expr.render(n).startswith("1 + 2*x + 3*x^2 + ")

    def test_division_by_monomial(self):
        e = expr.normalize(u / (2 * v**2))
        assert expr.render(e) == "1/2*u*v^-2"

    def test_power_of_a_sum_within_the_cost_budget(self):
        # the parser refuses (x + y + u)^44 past POWER_TERMS = 1000 terms; a
        # power that a stage forms is bounded by its terms times the power
        assert expr.POWER_COST == 10 ** 6
        assert len(expr.monomials((x + y + u) ** 44)) == 1035
        assert len(expr.monomials((x + y) ** 999)) == 1000
        with pytest.raises(ExpansionLimitError, match=(
                "^a 2-term sum to the power 1000 has up to 1001 terms, times the power "
                "1001000, over the budget of 1000000$")):
            (x + y) ** 1000
        # a monomial is not budgeted
        assert (2 * x * y) ** 5000 == 2**5000 * x**5000 * y**5000

    def test_division_by_sum_rejected(self):
        with pytest.raises(UnsupportedDivisionError):
            expr.normalize(u / (x + y))

    def test_division_by_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            expr.normalize(u / (x - x))

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            Rational(0.5)


class TestCoefficientTypes:
    """Coefficients, and constants read back through `constant_value`, are
    ints when integral and Fractions otherwise, never floats or bools."""

    def assert_exact(self, e):
        for c in e._poly().values():
            assert_rational(c)
        value = expr.constant_value(e)
        if value is not None:
            assert_rational(value)

    def test_random_corpus(self):
        rng = random.Random(23)
        divisors = [2, -3, 4, Fraction(3, 2), Fraction(-2, 5)]
        for _ in range(150):
            a, b = (random_expression(rng, SYMS) for _ in range(2))
            monomial = Rational(rng.choice(divisors)) * rng.choice(SYMS) ** rng.randint(0, 2)
            results = [
                a + b, a - b, a * b, -a, a ** rng.randint(0, 3), a / monomial,
                a / rng.choice(divisors), expr.diff(a, rng.choice(SYMS)),
                expr.substitute(a, {rng.choice(SYMS): b}),
                expr.divide(a, rng.choice(divisors)),
            ]
            if not expr.is_zero(b):
                quotient = expr.divide(a * b, b)
                assert quotient == a
                results.append(quotient)
            for e in results:
                self.assert_exact(e)

    def test_group_exponential_derivative(self):
        self.assert_exact(expr.diff(ParamExp(eps, Fraction(2, 3)) * x * 3, eps))

    def test_bool_is_lifted_to_int(self):
        self.assert_exact(x * True)
        self.assert_exact(Rational(True))

    def test_division_sites(self):
        three_halves_x = Rational(3, 2) * x
        assert (3 * x) / 2 == three_halves_x
        assert expr.divide(3 * x, 2) == three_halves_x
        assert expr.divide(6 * x * y + 3 * x, 4 * y + 2) == three_halves_x
        for e in ((3 * x) / 2, expr.divide(3 * x, 2)):
            self.assert_exact(e)
        assert type(expr.constant_value((4 * x) / (2 * x))) is int
        for three in (3, linalg.ParamFrac(Rational(3))):
            inverse = linalg.ParamFrac.inverse(three)
            assert type(inverse) is Fraction and inverse == Fraction(1, 3)


class TestApplicationArguments:
    def test_symbol_argument_is_kept(self):
        g = FunctionApplication("g", (x, u))
        assert g.args[0] is x
        assert g.args[1] is u

    def test_other_arguments_are_canonical(self):
        assert FunctionApplication("f", (1,)).args == (expr.ONE,)
        assert FunctionApplication("f", (1,)).args[0] is expr.ONE
        assert FunctionApplication("f", (Rational(1),)).args[0] is expr.ONE
        assert FunctionApplication("f", (Fraction(1, 2),)).args == (Rational(1, 2),)
        assert FunctionApplication("f", (ParamExp(eps, 0),)).args[0] is expr.ONE
        assert FunctionApplication("f", (ParamExp(eps, 1),)).args == (ParamExp(eps, 1),)
        s = x + y
        assert FunctionApplication("f", (s,)).args == (s,)
        assert FunctionApplication("f", (x, 0)) == FunctionApplication("f", (x, expr.ZERO))


def mono_mul_oracle(m1, m2):
    """The product of two monomials by adding exponents in dicts and sorting
    the factors by their atoms' keys."""
    (p1, e1), (p2, e2) = m1, m2
    powers = {}
    for atom, exp in p1 + p2:
        powers[atom] = powers.get(atom, 0) + exp
    pexps = {}
    for sym, k in e1 + e2:
        pexps[sym] = pexps.get(sym, 0) + k
    return (
        tuple(sorted(((a, e) for a, e in powers.items() if e != 0),
                     key=lambda it: it[0]._key)),
        tuple(sorted(((s, k) for s, k in pexps.items() if k != 0),
                     key=lambda it: it[0]._key)),
    )


class TestInterning:
    def test_equal_constructions_are_one_object(self):
        u_xy = Symbol("u_xy", JET, base="u", multi=(1, 1))
        assert jet(u, (x, y), (1, 1)) is u_xy
        assert jet(u, (x, y), [1, 1]) is u_xy
        assert JetSpace((x, y), (u,), 2).coordinate(u, (1, 1)) is u_xy
        assert JetSpace((x, y), (u, v), 3).coordinate(0, (1, 1)) is u_xy
        assert Symbol("x", INDEPENDENT) is x
        s, t = x + y, y + x
        assert s is not t and s == t
        f = FunctionApplication("f", (s,))
        assert FunctionApplication("f", (t,)) is f
        assert f.args == (s,)
        assert FunctionApplication("f", (x, y), [1, 0]) is FunctionApplication(
            "f", (x, y), (1, 0))

    def test_different_atoms_are_different_objects(self):
        assert Symbol("a", PARAMETER) is not Symbol("a", INDEPENDENT)
        assert Symbol("w", JET, base="u", multi=(1, 0)) is not Symbol(
            "w", JET, base="u", multi=(0, 1))
        assert Symbol("w", JET, base="u", multi=(1, 0)) is not Symbol(
            "w", JET, base="v", multi=(1, 0))
        applications = [FunctionApplication("f", (x, y), counts)
                        for counts in ((0, 0), (1, 0), (0, 1), (1, 1))]
        assert len({id(a) for a in applications}) == 4
        assert FunctionApplication("f", (x,)) is not FunctionApplication("g", (x,))
        assert FunctionApplication("f", (x,)) is not FunctionApplication("f", (y,))

    @pytest.mark.parametrize("make", [
        lambda: u,
        lambda: eps,
        lambda: jet(u, (x, y), (0, 2)),
        lambda: FunctionApplication("f", (x, u), (1, 0)),
        lambda: FunctionApplication("g", (u, x)),
    ])
    def test_copies_are_the_atom(self, make):
        atom = make()
        assert copy.copy(atom) is atom
        assert copy.deepcopy(atom) is atom
        assert pickle.loads(pickle.dumps(atom)) is atom
        assert copy.deepcopy([atom, atom])[1] is atom

    @pytest.mark.parametrize("make", [
        lambda: x + 2 * y,
        lambda: eps ** 2 * ParamExp(eps, 2) - Fraction(1, 3) * u,
        lambda: Rational(3),
        lambda: Rational(Fraction(-2, 3)),
        lambda: Rational(0),
        lambda: ParamExp(eps, Fraction(1, 2)),
        lambda: ParamExp(eps, -2),
    ])
    def test_copies_of_other_nodes_are_equal_and_canonical(self, make):
        node = make()
        for other in (copy.copy(node), copy.deepcopy(node),
                      pickle.loads(pickle.dumps(node)), copy.deepcopy([node])[0]):
            assert type(other) is type(node)
            assert other == node and node == other
            assert other._key == node._key and hash(other) == hash(node)
            # the atoms inside are the interned ones, so the copy reads as
            # the node it copies
            assert expr.free_symbols(other) == expr.free_symbols(node)
            assert expr.render(other) == expr.render(node)
            if type(node) is Rational:
                assert type(other.coeff) is type(node.coeff)
                assert_rational(other.coeff)
            else:
                assert other.terms == node.terms
                for coeff in other.terms.values():
                    assert_rational(coeff)
            assert expr.is_zero(other - node)

    def test_application_with_a_poly_argument_copies_to_itself(self):
        f = FunctionApplication("f", (x + 2 * y, Rational(Fraction(1, 2)) * u))
        assert copy.copy(f) is f
        assert copy.deepcopy(f) is f
        assert pickle.loads(pickle.dumps(f)) is f
        assert pickle.loads(pickle.dumps(f + x)) == f + x

    def test_equality_is_key_equality(self):
        rng = random.Random(4242)
        atoms = [x, y, u, v, c1, eps, jet(u, (x, y), (1, 0)),
                 FunctionApplication("f", (x, u)), FunctionApplication("f", (x, u), (0, 1)),
                 FunctionApplication("g", (x + y,)), FunctionApplication("g", (x - y,))]
        nodes = list(atoms)
        for seed in range(60):
            # each expression twice, from the same seed: equal nodes that
            # are distinct objects unless they are atoms or ZERO and ONE
            for _ in range(2):
                nodes.append(random_expression(random.Random(seed), atoms[:6]))
        nodes += [Rational(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(20)]
        nodes += [ParamExp(eps, k) for k in (0, 1, Fraction(1, 2))]
        # atoms against values of the other node types: sums and products
        # with exp(k eps) factors, results that canonicalise back to an
        # atom, and copies that are distinct objects
        nodes += [eps * ParamExp(eps, 1), ParamExp(eps, 2) - x, 2 * ParamExp(eps, -1),
                  ParamExp(eps, 1) * FunctionApplication("f", (x, u)),
                  (x + y) - y, u * v / v, atoms[9] * 1, Rational(1) * eps]
        nodes += [pickle.loads(pickle.dumps(n)) for n in nodes[len(atoms):len(atoms) + 12]]
        for kind in (expr.Poly, Rational):
            assert any(type(n) is kind for n in nodes)
        for a in nodes:
            for b in nodes:
                assert (a == b) == (a._key == b._key), (a, b)
                assert (a != b) == (a._key != b._key), (a, b)
                if a == b:
                    assert hash(a) == hash(b), (a, b)
                if isinstance(a, expr._Atom) and isinstance(b, expr._Atom):
                    assert (a is b) == (a._key == b._key), (a, b)
        for a in atoms:
            assert a != 0 and not a == Fraction(1, 2) and a != "x"

    def test_mono_mul_matches_dict_and_sort(self):
        rng = random.Random(9173)
        delta = Symbol("delta", GROUP)
        atoms = [x, y, u, v, c1, jet(u, (x, y), (1, 0)), jet(v, (x, y), (0, 2)),
                 FunctionApplication("f", (x, u)), FunctionApplication("f", (x, u), (1, 0))]
        groups = [eps, delta]
        ks = [Fraction(k, d) for k in (-2, -1, 1, 2) for d in (1, 2)]

        def factors(pool, values):
            chosen = sorted(rng.sample(pool, rng.randint(0, len(pool))),
                            key=lambda a: a._key)
            return tuple((a, rng.choice(values)) for a in chosen)

        def monomial():
            return factors(atoms, [-2, -1, 1, 2, 3]), factors(groups, ks)

        cancelled = 0
        for _ in range(3000):
            m1 = monomial()
            if rng.random() < 0.4:
                # the inverse of some of m1's factors, times some others
                inverse = tuple((a, -e) for a, e in m1[0] if rng.random() < 0.7)
                inverse_exps = tuple((s, -k) for s, k in m1[1] if rng.random() < 0.7)
                m2 = expr._mono_mul((inverse, inverse_exps), monomial())
            else:
                m2 = monomial()
            product = expr._mono_mul(m1, m2)
            assert product == mono_mul_oracle(m1, m2), (m1, m2)
            assert product == expr._mono_mul(m2, m1)
            cancelled += len(product[0]) + len(product[1]) < len(m1[0]) + len(m1[1])
        assert cancelled > 100


class TestDiff:
    def test_power_rule(self):
        assert expr.diff(x**2 * u, x) == expr.normalize(2 * x * u)

    def test_linearity_in_factor(self):
        ux = Symbol("u_x", INDEPENDENT)
        assert expr.diff(ux * v, v) == expr.normalize(ux)

    def test_constant(self):
        assert expr.diff(c1, x) == Rational(0)

    def test_negative_power(self):
        assert expr.diff(Power(v, -2), v) == expr.normalize(-2 * Power(v, -3))

    def test_group_exponential(self):
        e = ParamExp(eps, 3)
        assert expr.diff(e, eps) == expr.normalize(3 * ParamExp(eps, 3))

    def test_formal_function_derivative(self):
        g = FunctionApplication("g", (x, y))
        d = expr.diff(g, x)
        assert d == FunctionApplication("g", (x, y), (1, 0))

    def test_function_not_depending_on_symbol(self):
        g = FunctionApplication("g", (x,))
        assert expr.diff(g, y) == Rational(0)

    def test_composite_argument_errors(self):
        g = FunctionApplication("g", (x + y,))
        with pytest.raises(UnsupportedCompositionError):
            expr.diff(g, x)

    def test_linearity_random(self):
        rng = random.Random(23)
        for _ in range(120):
            e1 = random_expression(rng, SYMS)
            e2 = random_expression(rng, SYMS)
            a = Fraction(rng.randint(-3, 3))
            b = Fraction(rng.randint(-3, 3))
            s = rng.choice(SYMS)
            lhs = expr.diff(Rational(a) * e1 + Rational(b) * e2, s)
            rhs = Rational(a) * expr.diff(e1, s) + Rational(b) * expr.diff(e2, s)
            assert expr.equal(lhs, rhs)

    def test_leibniz_random(self):
        rng = random.Random(29)
        for _ in range(120):
            e1 = random_expression(rng, SYMS)
            e2 = random_expression(rng, SYMS)
            s = rng.choice(SYMS)
            lhs = expr.diff(e1 * e2, s)
            rhs = expr.diff(e1, s) * e2 + e1 * expr.diff(e2, s)
            assert expr.equal(lhs, rhs)


class TestSubstitute:
    def test_solved_form_cancellation(self):
        ux = Symbol("u_x", INDEPENDENT)
        vy = Symbol("v_y", INDEPENDENT)
        assert expr.substitute(ux + vy, {vy: -1 * ux}) == Rational(0)

    def test_empty_rules(self):
        assert expr.substitute(x, {}) == x

    def test_kill_factor(self):
        py = Symbol("p_y", INDEPENDENT)
        q = Symbol("q", DEPENDENT)
        assert expr.substitute(py * q, {py: Rational(0)}) == Rational(0)

    def test_simultaneous_not_recursive(self):
        # x -> y and y -> x swap, they do not chain
        e = expr.substitute(x + 2 * y, {x: y, y: x})
        assert expr.equal(e, 2 * x + y)

    def test_inside_function_arguments(self):
        g = FunctionApplication("g", (x,))
        out = expr.substitute(g, {x: y})
        assert out == FunctionApplication("g", (y,))

    def test_group_symbol_inside_exponentials(self):
        delta = Symbol("delta", GROUP)
        e = ParamExp(eps, 2) + eps * ParamExp(eps, -1)
        assert expr.substitute(e, {eps: 0}) == Rational(1)
        shifted = expr.substitute(e, {eps: eps + delta})
        assert shifted == ParamExp(eps, 2) * ParamExp(delta, 2) + (eps + delta) * ParamExp(
            eps, -1) * ParamExp(delta, -1)
        assert expr.substitute(x * ParamExp(eps, 3), {eps: Rational(-2, 3) * delta}) == (
            x * ParamExp(delta, -2))
        for value in (eps + 1, x, eps * eps):
            with pytest.raises(NonPolynomialError, match=re.escape(f"= {value} ")):
                expr.substitute(e, {eps: value})
        # without an exponential, any value goes
        assert expr.substitute(eps * x, {eps: x}) == x * x


# ---------------------------------------------------------------------------
# Kept results on function applications against recomputation
# ---------------------------------------------------------------------------

def substitute_rebuilt(e, rules):
    """Substitution term by term, every function application rebuilt from
    its substituted arguments: the oracle of `expr.substitute` without its
    kept applications (no group-symbol rules)."""
    total = expr.ZERO
    for (powers, pexps), coeff in expr.monomials(e):
        term = Rational(coeff)
        for atom, exp in powers:
            if isinstance(atom, FunctionApplication):
                atom = FunctionApplication(
                    atom.name, tuple(substitute_rebuilt(a, rules) for a in atom.args),
                    atom.derivatives)
                term = term * atom ** exp
            else:
                term = term * expr.normalize(rules.get(atom, atom)) ** exp
        for sym, k in pexps:
            term = term * ParamExp(sym, k)
        total = total + term
    return total


def free_symbols_rebuilt(e):
    """The symbols of `e`, each application's arguments walked again."""
    out = set()
    for (powers, pexps), _ in expr.monomials(e):
        for atom, _ in powers:
            if isinstance(atom, Symbol):
                out.add(atom)
            else:
                for a in atom.args:
                    out |= free_symbols_rebuilt(a)
        out.update(sym for sym, _ in pexps)
    return out


def diff_rebuilt(e, s):
    """d e / d s by the product and chain rules on fresh applications: the
    oracle of `expr.diff` without the raised applications it keeps."""
    total = expr.ZERO
    for (powers, pexps), coeff in expr.monomials(e):
        for idx, (atom, exp) in enumerate(powers):
            if isinstance(atom, Symbol):
                d = expr.ONE if atom == s else expr.ZERO
            else:
                d = expr.ZERO
                for slot, arg in enumerate(atom.args):
                    counts = list(atom.derivatives)
                    counts[slot] += 1
                    d = d + diff_rebuilt(arg, s) * FunctionApplication(
                        atom.name, atom.args, counts)
            term = Rational(coeff) * exp * atom ** (exp - 1) * d
            for other, (b, e2) in enumerate(powers):
                if other != idx:
                    term = term * b ** e2
            for sym, k in pexps:
                term = term * ParamExp(sym, k)
            total = total + term
    return total


def application_pool():
    """Symbols and function applications of them, some of them twice: once
    as a shared object and once built anew."""
    g = FunctionApplication("g", (x, u))
    h = FunctionApplication("h", (y,))
    k = FunctionApplication("k", (x + u,))
    f = FunctionApplication("f", (x, y, u, v), (1, 0, 2, 0))
    return [x, y, u, v, c1, g, g, h, k, f, FunctionApplication("g", (x, u))]


class TestKeptApplications:
    def test_substitute_matches_rebuilt(self):
        rng = random.Random(71)
        pool = application_pool()
        for _ in range(60):
            e = random_expression(rng, pool)
            targets = rng.sample([x, y, u, v, c1], rng.randint(1, 3))
            rules = {t: random_expression(rng, [x, y, u, v, c1], depth=1) for t in targets}
            got = expr.substitute(e, rules)
            assert got == substitute_rebuilt(e, rules), (e, rules)
            # the same call again, on the same objects
            assert expr.substitute(e, rules) == got

    def test_untouched_application_is_kept(self):
        g = FunctionApplication("g", (x, u))
        out = expr.substitute(g * v + g ** 2 * y, {v: x, y: u})
        atoms = {atom for (powers, _), _ in expr.monomials(out) for atom, _ in powers}
        assert any(atom is g for atom in atoms)
        hit = expr.substitute(g * v, {u: y})
        assert hit == FunctionApplication("g", (x, y)) * v

    def test_free_symbols_match_rebuilt(self):
        rng = random.Random(73)
        pool = application_pool()
        for _ in range(60):
            e = random_expression(rng, pool)
            assert expr.free_symbols(e) == free_symbols_rebuilt(e)
            assert expr.free_symbols(e) == free_symbols_rebuilt(e)

    def test_diff_matches_rebuilt(self):
        rng = random.Random(79)
        pool = [a for a in application_pool()
                if not (isinstance(a, FunctionApplication) and a.name == "k")]
        for _ in range(60):
            e = random_expression(rng, pool)
            for s in (x, y, u, v):
                want = diff_rebuilt(e, s)
                assert expr.diff(e, s) == want, (e, s)
                assert expr.diff(e, s) == want, (e, s)
                # a second derivative raises the raised applications again
                t = rng.choice((x, y, u, v))
                assert expr.diff(expr.diff(e, s), t) == diff_rebuilt(want, t), (e, s, t)


class TestCollect:
    def test_direct_reading(self):
        ux = Symbol("u_x", INDEPENDENT)
        uy = Symbol("u_y", INDEPENDENT)
        a = Symbol("a", PARAMETER)
        b = Symbol("b", PARAMETER)
        m = expr.collect(a * ux + b * ux * uy, {ux, uy})
        # exponents follow the canonical order u_x, u_y
        assert m == {(1, 0): a, (1, 1): b}

    def test_zero(self):
        assert len(expr.collect(Rational(0), {u, v})) == 0

    def test_expand_and_match_oracle(self):
        uy = Symbol("u_y", INDEPENDENT)
        e = (c1 + c2 * x) * uy**2
        m = expr.collect(e, {uy})
        assert list(m) == [(2,)]
        assert expr.equal(m[(2,)], c1 + c2 * x)

    def test_non_polynomial_rejected(self):
        with pytest.raises(NonPolynomialError):
            expr.collect(Power(u, -1), {u})
        with pytest.raises(NonPolynomialError):
            expr.collect(FunctionApplication("g", (u,)) * u, {u})

    def test_round_trip_random(self):
        rng = random.Random(37)
        for _ in range(120):
            e = random_expression(rng, SYMS)
            m = expr.collect(e, {u, v})
            # exponents follow the canonical order u, v
            total = sum((c * u**i * v**j for (i, j), c in m.items()), Rational(0))
            assert expr.equal(total, e)


class TestRendering:
    def test_stable_strings(self):
        assert expr.render(expr.normalize(3 * x / (2 * y))) == "3/2*x*y^-1"
        assert expr.render(Rational(0)) == "0"
        assert expr.render(expr.normalize(x - x)) == "0"

    def test_symbol_order_role_then_name(self):
        # independent sorts before dependent before parameter
        e = expr.normalize(c1 * u * x)
        assert expr.render(e) == "x*u*c1"
