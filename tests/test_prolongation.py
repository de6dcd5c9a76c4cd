import random

import pytest

from liepde import expr
from liepde.errors import UnsupportedCompositionError
from liepde.expr import GROUP, UNKNOWN, FunctionApplication, ParamExp, Rational, Symbol
from liepde.fields import VectorField, bracket
from liepde.jet import total_derivative
from liepde.prolongation import characteristic, prolong, symmetry_residual

from conftest import random_affine_field, random_expression


def field_apply_by_partials(vf, e):
    """v(e) as one partial derivative per coordinate: the oracle of the
    one-walk `VectorField.apply`."""
    total = expr.ZERO
    for sym, coeff in zip(vf.coordinates, vf.coefficients):
        total = total + coeff * expr.diff(e, sym)
    return total


def prolonged_apply_by_partials(pr, e):
    """pr v(e) as one partial derivative per independent variable and per
    jet symbol of e: the oracle of the one-walk `ProlongedField.apply`."""
    js = pr.field.space
    total = expr.ZERO
    for i, x in enumerate(js.independent):
        partial = expr.diff(e, x)
        if not expr.is_zero(partial):
            total = total + pr.field.xi[i] * partial
    for s in sorted(js.jet_symbols_in(e), key=lambda s: s._key):
        partial = expr.diff(e, s)
        if expr.is_zero(partial):
            continue
        if s not in pr.coefficients:
            raise ValueError(
                f"prolongation order {pr.order} too low for coordinate {s.name}"
            )
        total = total + pr.coefficients[s] * partial
    return total


def apply_pool(space, system, order):
    """Coordinates up to `order`, a parameter, an ansatz unknown, negative
    powers, a group exponential and function applications."""
    x, y = space.independent
    u, v, _ = space.dependent
    pool = list(space.independent) + list(space.dependent) + [
        system.parameters[0],
        Symbol("c1", UNKNOWN),
        x ** -1,
        ParamExp(Symbol("eps", GROUP), 2),
        FunctionApplication("g", (x,)),
        FunctionApplication("f", (u, x)),
        FunctionApplication("f", (u, x), (1, 0)),
    ]
    if order:
        uy = space.coordinate(u, (0, 1))
        pool += space.coordinates(order, min_order=1) + [
            uy ** -2, FunctionApplication("h", (v, uy, y)),
        ]
    return pool


def recursive_prolongation(vf, order, space):
    """Independent second implementation of the prolongation coefficients.

    Builds each coefficient one derivative at a time,
    phi^{J,i} = D_i(phi^J) - sum_k (D_i xi_k) u^{J,k},
    instead of the direct formula D_J Q + sum_i xi_i u_{J,i}.
    """
    coeffs = {}
    for alpha, dep in enumerate(space.dependent):
        frontier = {(0,) * space.p: vf.phi[alpha]}
        coeffs[dep] = vf.phi[alpha]
        for _ in range(order):
            new_frontier = {}
            for multi, phi in frontier.items():
                for i in range(space.p):
                    lifted = list(multi)
                    lifted[i] += 1
                    key = tuple(lifted)
                    if key in new_frontier:
                        continue
                    value = total_derivative(phi, i, space)
                    for k in range(space.p):
                        bump = list(multi)
                        bump[k] += 1
                        value = value - total_derivative(
                            vf.xi[k], i, space
                        ) * space.coordinate(dep, bump)
                    new_frontier[key] = expr.normalize(value)
            for multi, value in new_frontier.items():
                coeffs[space.coordinate(dep, multi)] = value
            frontier = new_frontier
    return coeffs


class TestCharacteristic:
    def test_translation(self, golden):
        space, _, gens = golden
        q = characteristic(gens[0])
        u, v, p = space.dependent
        assert expr.equal(q[u], -1 * space.coordinate(u, (1, 0)))
        assert expr.equal(q[v], -1 * space.coordinate(v, (1, 0)))
        assert expr.equal(q[p], -1 * space.coordinate(p, (1, 0)))

    def test_zero_field(self, golden):
        space, _, _ = golden
        q = characteristic(VectorField.zero(space))
        assert all(val == Rational(0) for val in q.values())

    def test_vertical_field(self, golden):
        space, _, _ = golden
        u, v, p = space.dependent
        Z = expr.ZERO
        vf = VectorField(space, (Z, Z), (u, Z, Z))
        q = characteristic(vf)
        assert q[u] == u
        assert q[v] == Rational(0)
        assert q[p] == Rational(0)


class TestProlong:
    def test_scaling_first_order_coefficients(self, golden):
        space, _, gens = golden
        u = space.dependent[0]
        uy = space.coordinate(u, (0, 1))
        ux = space.coordinate(u, (1, 0))
        # hand application: phi4^y = D_y(u - x u_x) + x u_xy = u_y
        pr4 = prolong(gens[3], 1)
        assert expr.equal(pr4.coefficient(uy), uy)
        # phi5^x = -2 u_x from the same template
        pr5 = prolong(gens[4], 1)
        assert expr.equal(pr5.coefficient(ux), -2 * ux)

    def test_zero_field(self, golden):
        space, _, _ = golden
        pr = prolong(VectorField.zero(space), 2)
        assert all(expr.is_zero(c) for c in pr.coefficients.values())

    def test_order_zero_is_phi(self, golden):
        space, _, gens = golden
        pr = prolong(gens[3], 2)
        for dep, phi in zip(space.dependent, gens[3].phi):
            assert expr.equal(pr.coefficient(dep), phi)

    def test_agrees_with_recursive_formula_random(self, golden):
        space, _, _ = golden
        rng = random.Random(53)
        for _ in range(25):
            vf = random_affine_field(rng, space)
            direct = prolong(vf, 2)
            recursive = recursive_prolongation(vf, 2, space)
            for sym, value in recursive.items():
                assert expr.equal(direct.coefficient(sym), value), sym.name

    def test_agrees_with_recursive_formula_reference(self, golden):
        space, _, gens = golden
        for vf in gens:
            direct = prolong(vf, 2)
            recursive = recursive_prolongation(vf, 2, space)
            for sym, value in recursive.items():
                assert expr.equal(direct.coefficient(sym), value)


class TestSymmetryResidual:
    def test_reference_generators_are_symmetries(self, golden):
        _, system, gens = golden
        for vf in gens:
            assert all(expr.is_zero(r) for r in symmetry_residual(vf, system))

    def test_zero_field(self, golden):
        space, system, _ = golden
        res = symmetry_residual(VectorField.zero(space), system)
        assert all(expr.is_zero(r) for r in res)

    def test_extra_generator_is_a_symmetry(self, golden):
        # x d/dy + u d/dv annihilates the system modulo the solved form
        from baseline import claimed

        space, system, _ = golden
        [extra] = claimed(space, "excluded-generator")
        res = symmetry_residual(extra, system)
        assert all(expr.is_zero(r) for r in res)

    def test_pure_scaling_of_u_is_not(self, golden):
        space, system, _ = golden
        u = space.dependent[0]
        Z = expr.ZERO
        vf = VectorField(space, (Z, Z), (u, Z, Z))
        res = symmetry_residual(vf, system)
        ux = space.coordinate(u, (1, 0))
        assert expr.equal(res[0], ux)
        assert not all(expr.is_zero(r) for r in res)

    def test_linearity_random(self, golden):
        space, system, _ = golden
        rng = random.Random(59)
        for _ in range(10):
            a = Rational(rng.randint(-3, 3))
            b = Rational(rng.randint(-3, 3))
            v = random_affine_field(rng, space)
            w = random_affine_field(rng, space)
            combo = v.scale(a.coeff) + w.scale(b.coeff)
            lhs = symmetry_residual(combo, system)
            rv = symmetry_residual(v, system)
            rw = symmetry_residual(w, system)
            for l, rvi, rwi in zip(lhs, rv, rw):
                assert expr.equal(l, a * rvi + b * rwi)

    def test_bracket_of_symmetries_is_symmetry(self, golden, symmetry_basis):
        _, system, _ = golden
        for i in range(len(symmetry_basis)):
            for j in range(i + 1, len(symmetry_basis)):
                br = bracket(symmetry_basis[i], symmetry_basis[j])
                res = symmetry_residual(br, system)
                assert all(expr.is_zero(r) for r in res)


class TestApply:
    def test_field_matches_partials_oracle_random(self, golden):
        space, system, _ = golden
        rng = random.Random(61)
        pool = apply_pool(space, system, 0)
        for _ in range(100):
            vf = random_affine_field(rng, space)
            e = random_expression(rng, pool)
            assert vf.apply(e) == field_apply_by_partials(vf, e)

    def test_prolonged_matches_partials_oracle_random(self, golden):
        space, system, _ = golden
        rng = random.Random(67)
        pool = apply_pool(space, system, 2)
        for _ in range(100):
            pr = prolong(random_affine_field(rng, space), 2)
            e = random_expression(rng, pool)
            assert pr.apply(e) == prolonged_apply_by_partials(pr, e)

    def test_order_too_low(self, golden):
        space, _, gens = golden
        u = space.dependent[0]
        pr = prolong(gens[3], 1)
        e = u * space.coordinate(u, (2, 0))
        for apply in (pr.apply, lambda e: prolonged_apply_by_partials(pr, e)):
            with pytest.raises(ValueError) as err:
                apply(e)
            assert str(err.value) == "prolongation order 1 too low for coordinate u_xx"

    def test_composite_argument_error(self, golden):
        space, _, gens = golden
        x = space.independent[0]
        u = space.dependent[0]
        e = u * FunctionApplication("g", (x + u,))
        message = "cannot differentiate g(x + u) with composite arguments by x"
        pr = prolong(gens[3], 1)
        for apply in (gens[3].apply, lambda e: field_apply_by_partials(gens[3], e),
                      pr.apply, lambda e: prolonged_apply_by_partials(pr, e)):
            with pytest.raises(UnsupportedCompositionError) as err:
                apply(e)
            assert str(err.value) == message
