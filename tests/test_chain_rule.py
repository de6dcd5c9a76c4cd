"""The chain rule of `expr.derivation` against the per-module rules it replaced.

`jet.total_derivative`, `ProlongedField.apply` and `VectorField.apply` used
to give `expr.derivation` a map that also took function applications, each
applying the chain rule through `_atom_diff` by itself, and `derivation`
called that map on every atom.  That derivation and those closures are kept
here, verbatim up to names, as an oracle for the one chain rule in
`expr.derivation`, which asks its map for symbols only.
"""

import random

import pytest

from liepde import expr
from liepde.errors import UnsupportedCompositionError
from liepde.expr import (
    DEPENDENT, GROUP, JET, ONE, UNKNOWN, ZERO, FunctionApplication, ParamExp, Symbol,
)
from liepde.fields import VectorField
from liepde.jet import total_derivative
from liepde.prolongation import prolong

from conftest import random_affine_field, random_expression


def atom_diff(atom, s):
    """Partial derivative of a monomial atom with respect to symbol s."""
    if isinstance(atom, Symbol):
        return ONE if atom == s else ZERO
    if s not in expr.free_symbols(atom):
        return ZERO
    if not all(isinstance(a, Symbol) for a in atom.args):
        raise UnsupportedCompositionError(
            f"cannot differentiate {atom} with composite arguments by {s.name}"
        )
    if len(set(atom.args)) != len(atom.args):
        raise UnsupportedCompositionError(
            f"cannot differentiate {atom} with repeated arguments"
        )
    slot = atom.args.index(s)
    d = list(atom.derivatives)
    d[slot] += 1
    return FunctionApplication(atom.name, atom.args, tuple(d))


def old_derivation(e, d):
    """D e for the derivation D that takes each atom a to the expression d(a)."""
    partials = {}
    out = {}
    for (powers, pexps), coeff in expr._lift(e)._poly().items():
        for idx, (atom, exp) in enumerate(powers):
            p = partials.get(atom)
            if p is None:
                p = partials[atom] = d(atom)._poly()
            if not p:
                continue
            rest = list(powers)
            if exp == 1:
                del rest[idx]
            else:
                rest[idx] = (atom, exp - 1)
            cofactor = (tuple(rest), pexps)
            for mono, c in p.items():
                expr._add_term(out, expr._mono_mul(cofactor, mono), coeff * exp * c)
        for sym, k in pexps:
            p = partials.get(sym)
            if p is None:
                p = partials[sym] = d(sym)._poly()
            for mono, c in p.items():
                expr._add_term(out, expr._mono_mul((powers, pexps), mono), coeff * k * c)
    return expr.canonical(out)


def old_total_derivative(e, i, js):
    x = js.independent[i]

    def d(atom):
        if not isinstance(atom, Symbol):
            out = atom_diff(atom, x)
            for s in sorted(js.jet_symbols_in(atom), key=lambda s: s._key):
                out = out + js.lift(s, i) * atom_diff(atom, s)
            return out
        if atom.role in (DEPENDENT, JET):
            return js.lift(atom, i)
        return ONE if atom == x else ZERO

    return old_derivation(e, d)


def old_field_apply(vf, e):
    coefficients = dict(zip(vf.coordinates, vf.coefficients))

    def d(atom):
        if isinstance(atom, Symbol):
            return coefficients.get(atom, ZERO)
        out = ZERO
        for sym, coeff in coefficients.items():
            out = out + coeff * atom_diff(atom, sym)
        return out

    return old_derivation(e, d)


def old_prolonged_apply(pr, e):
    js = pr.field.space
    xi = dict(zip(js.independent, pr.field.xi))

    def coefficient(s):
        if s not in pr.coefficients:
            raise ValueError(
                f"prolongation order {pr.order} too low for coordinate {s.name}"
            )
        return pr.coefficients[s]

    def d(atom):
        if isinstance(atom, Symbol):
            if atom.role in (DEPENDENT, JET):
                return coefficient(atom)
            return xi.get(atom, ZERO)
        out = ZERO
        for x, c in xi.items():
            out = out + c * atom_diff(atom, x)
        for s in sorted(js.jet_symbols_in(atom), key=lambda s: s._key):
            partial = atom_diff(atom, s)
            out = out + coefficient(s) * partial
        return out

    return old_derivation(e, d)


def outcome(fn, *args):
    """The result of fn(*args), or the class and text of what it raised."""
    try:
        return fn(*args)
    except (UnsupportedCompositionError, ValueError) as exc:
        return type(exc), str(exc)


def chain_pool(space, system):
    """Coordinates up to order 2, a parameter, an ansatz unknown, a group
    exponential, and function applications with plain, composite and
    repeated arguments.

    The composite arguments leave out p: the fixture declares its
    dependents u, v, p, canonical order puts p first, and the old
    `VectorField.apply` named the first symbol in declared order where the
    new rule names the first in canonical order (see
    `test_composite_error_names_first_symbol_in_canonical_order`).
    """
    x, y = space.independent
    u, v, _ = space.dependent
    nu = system.parameters[0]
    eps = Symbol("eps", GROUP)
    uy = space.coordinate(u, (0, 1))
    return list(space.independent) + list(space.dependent) + \
        space.coordinates(2, min_order=1) + [
            nu,
            Symbol("c1", UNKNOWN),
            ParamExp(eps, 2),
            FunctionApplication("g", (x,)),
            FunctionApplication("f", (u, x)),
            FunctionApplication("f", (u, x), (1, 0)),
            FunctionApplication("h", (v, uy, y)),
            FunctionApplication("k", (nu, y)),
            FunctionApplication("g", (x + u,)),
            FunctionApplication("g", (u * v,)),
            FunctionApplication("g", (nu * y,)),
            FunctionApplication("g", (x * ParamExp(eps, 1),)),
            FunctionApplication("g", (uy - 2 * x,), (1,)),
            FunctionApplication("f", (u, u)),
            FunctionApplication("f", (y, x, y)),
        ]


def nonvanishing_field(rng, space):
    """A random affine field whose coefficients on every coordinate, and
    whose prolonged coefficients to order 2, are nonzero: the old rules
    raised for a composite argument even where D takes its symbols to zero,
    which the new rule answers with zero."""
    while True:
        vf = random_affine_field(rng, space)
        pr = prolong(vf, 2)
        if not any(expr.is_zero(c) for c in vf.coefficients + tuple(pr.coefficients.values())):
            return vf, pr


class TestAgainstPerModuleRules:
    def test_total_derivative(self, golden):
        space, system, _ = golden
        rng = random.Random(151)
        pool = chain_pool(space, system)
        for _ in range(300):
            e = random_expression(rng, pool)
            for i in range(space.p):
                assert outcome(total_derivative, e, i, space) == outcome(
                    old_total_derivative, e, i, space)

    def test_vector_field_apply(self, golden):
        space, system, _ = golden
        rng = random.Random(157)
        pool = chain_pool(space, system)
        for _ in range(150):
            vf, _ = nonvanishing_field(rng, space)
            e = random_expression(rng, pool)
            assert outcome(vf.apply, e) == outcome(old_field_apply, vf, e)

    def test_prolonged_field_apply(self, golden):
        space, system, _ = golden
        rng = random.Random(163)
        pool = chain_pool(space, system)
        for _ in range(150):
            _, pr = nonvanishing_field(rng, space)
            e = random_expression(rng, pool)
            assert outcome(pr.apply, e) == outcome(old_prolonged_apply, pr, e)

    def test_errors_are_reached(self, golden):
        # the pool does reach both composite-argument texts
        space, system, _ = golden
        rng = random.Random(151)
        pool = chain_pool(space, system)
        texts = set()
        for _ in range(300):
            got = outcome(total_derivative, random_expression(rng, pool), 0, space)
            if isinstance(got, tuple):
                texts.add(got[1].split(" with ")[1].split(" by ")[0])
        assert texts == {"composite arguments", "repeated arguments"}


class TestSymbolsOnly:
    def test_derivation_asks_only_for_symbols(self, golden):
        # D e = sum over the free symbols s of d(s) * de/ds, with d
        # refusing anything that is not a Symbol
        space, system, _ = golden
        x, y = space.independent
        u, v, _ = space.dependent
        images = {x: u, y: ONE, u: x * y, v: ZERO, system.parameters[0]: 3 * v}

        def d(s):
            if not isinstance(s, Symbol):
                raise AssertionError(f"derivation asked for {s}")
            return images.get(s, ZERO)

        rng = random.Random(167)
        pool = [x, y, u, v, system.parameters[0],
                FunctionApplication("f", (u, x)),
                FunctionApplication("f", (u, x), (0, 2)),
                FunctionApplication("h", (v, y, x)),
                FunctionApplication("k", (system.parameters[0],))]
        for _ in range(150):
            e = random_expression(rng, pool)
            expected = ZERO
            for s in expr.free_symbols(e):
                expected = expected + d(s) * expr.diff(e, s)
            assert expr.derivation(e, d) == expected

    def test_module_maps_take_symbols_only(self, golden, monkeypatch):
        space, system, gens = golden
        original = expr.derivation
        asked = []

        def checked(e, d):
            def strict(s):
                asked.append(s)
                assert isinstance(s, Symbol), s
                return d(s)
            return original(e, strict)

        monkeypatch.setattr(expr, "derivation", checked)
        rng = random.Random(173)
        pool = [s for s in chain_pool(space, system)
                if not isinstance(s, FunctionApplication) or all(
                    isinstance(a, Symbol) for a in s.args) and len(set(s.args)) == len(s.args)]
        pr = prolong(gens[3], 2)
        for _ in range(60):
            e = random_expression(rng, pool)
            total_derivative(e, 0, space)
            gens[4].apply(e)
            pr.apply(e)
        assert asked


class TestNewRule:
    def test_killed_symbols_give_zero(self, golden):
        # D takes every symbol of the composite argument to zero; the old
        # per-module rules raised here for the prolonged field
        space, _, gens = golden
        x = space.independent[0]
        u = space.dependent[0]
        e = u * FunctionApplication("g", (x + u,))
        pr = prolong(gens[2], 1)  # d/dp
        assert pr.apply(e) == ZERO
        assert gens[2].apply(e) == ZERO
        with pytest.raises(UnsupportedCompositionError):
            old_prolonged_apply(pr, e)

    def test_composite_error_names_first_symbol_in_canonical_order(self, golden):
        space, _, _ = golden
        u, _, p = space.dependent
        vf = VectorField(space, (ZERO, ZERO), (ONE, ONE, ONE))
        e = FunctionApplication("g", (u + p,))
        with pytest.raises(UnsupportedCompositionError) as err:
            vf.apply(e)
        assert str(err.value) == "cannot differentiate g(p + u) with composite arguments by p"

    def test_diff_is_the_indicator_derivation(self):
        x = Symbol("x", expr.INDEPENDENT)
        y = Symbol("y", expr.INDEPENDENT)
        g = FunctionApplication("g", (x, y))
        assert expr.diff(g * x, x) == FunctionApplication("g", (x, y), (1, 0)) * x + g
        assert expr.diff(FunctionApplication("g", (x + y,)), Symbol("z", UNKNOWN)) == ZERO
        with pytest.raises(UnsupportedCompositionError) as err:
            expr.diff(FunctionApplication("g", (x, x)), x)
        assert str(err.value) == "cannot differentiate g(x, x) with repeated arguments"
