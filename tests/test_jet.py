import random

import pytest

from liepde import expr
from liepde.errors import IllPosedSystemError, OrderLimitError, UnsupportedCompositionError
from liepde.expr import GROUP, UNKNOWN, FunctionApplication, ParamExp, Rational, Symbol
from liepde.jet import PDESystem, total_derivative

from conftest import random_expression


def jet_pool(space, order=2):
    return list(space.independent) + list(space.dependent) + [
        s for s in space.coordinates(order, min_order=1)
    ]


def total_derivative_by_partials(e, i, js):
    """D_i e as d/dx_i plus lift(s) times one partial derivative for each
    jet symbol s: the oracle of the one-walk `total_derivative`."""
    result = expr.diff(e, js.independent[i])
    for s in sorted(js.jet_symbols_in(e), key=lambda s: s._key):
        partial = expr.diff(e, s)
        if expr.is_zero(partial):
            continue
        result = result + js.lift(s, i) * partial
    return result


class TestJetSpace:
    def test_counts(self, golden):
        space, _, _ = golden
        assert space.p == 2 and space.q == 3 and space.max_order == 2

    def test_coordinate_naming(self, golden):
        space, _, _ = golden
        u = space.dependent[0]
        assert space.coordinate(u, (1, 1)).name == "u_xy"
        assert space.coordinate(u, (0, 0)) == u

    def test_graded_enumeration(self, golden):
        space, _, _ = golden
        coords = space.coordinates(2, min_order=1)
        orders = [s.order for s in coords]
        assert orders == sorted(orders)
        assert len(coords) == 3 * (2 + 3)

    def test_order_limit(self, golden):
        space, _, _ = golden
        u = space.dependent[0]
        with pytest.raises(OrderLimitError):
            space.coordinate(u, (0, space.limit + 1))


class TestTotalDerivative:
    def test_dependent_variable(self, golden):
        space, _, _ = golden
        u = space.dependent[0]
        assert total_derivative(u, 0, space) == space.coordinate(u, (1, 0))

    def test_parameter_constant(self, golden):
        space, system, _ = golden
        nu = system.parameters[0]
        assert total_derivative(nu, 0, space) == Rational(0)

    def test_hand_application_oracle(self, golden):
        # D_x(g(x) u_y) = g'(x) u_y + g(x) u_xy, applied by hand
        space, _, _ = golden
        x = space.independent[0]
        u = space.dependent[0]
        uy = space.coordinate(u, (0, 1))
        uxy = space.coordinate(u, (1, 1))
        g = FunctionApplication("g", (x,))
        gp = FunctionApplication("g", (x,), (1,))
        lhs = total_derivative(g * uy, 0, space)
        assert expr.equal(lhs, gp * uy + g * uxy)

    def test_matches_partials_oracle_random(self, golden):
        # parameters, ansatz unknowns, negative powers, a group exponential
        # and function applications of independent and dependent variables
        space, system, _ = golden
        rng = random.Random(53)
        x, y = space.independent
        u, v, _ = space.dependent
        uy = space.coordinate(u, (0, 1))
        pool = jet_pool(space) + [
            system.parameters[0],
            Symbol("c1", UNKNOWN),
            x ** -1,
            uy ** -2,
            ParamExp(Symbol("eps", GROUP), 2),
            FunctionApplication("g", (x,)),
            FunctionApplication("f", (u, x)),
            FunctionApplication("f", (u, x), (1, 0)),
            FunctionApplication("h", (v, uy, y)),
        ]
        for _ in range(200):
            e = random_expression(rng, pool)
            for i in range(space.p):
                assert total_derivative(e, i, space) == total_derivative_by_partials(
                    e, i, space)

    def test_composite_argument_error(self, golden):
        space, _, _ = golden
        x = space.independent[0]
        u = space.dependent[0]
        e = u * FunctionApplication("g", (x + u,))
        message = "cannot differentiate g(x + u) with composite arguments by x"
        for derivative in (total_derivative, total_derivative_by_partials):
            with pytest.raises(UnsupportedCompositionError) as err:
                derivative(e, 0, space)
            assert str(err.value) == message

    def test_commutation_random(self, golden):
        space, _, _ = golden
        rng = random.Random(41)
        pool = jet_pool(space)
        for _ in range(120):
            e = random_expression(rng, pool)
            dxdy = total_derivative(total_derivative(e, 0, space), 1, space)
            dydx = total_derivative(total_derivative(e, 1, space), 0, space)
            assert dxdy == dydx


class TestReduceMod:
    def test_continuity_reduces_to_zero(self, golden):
        space, system, _ = golden
        u, v, _ = space.dependent
        e = space.coordinate(u, (1, 0)) + space.coordinate(v, (0, 1))
        assert system.reduce(e) == Rational(0)

    def test_derived_rule(self, golden):
        # p_yy reduces through the total derivative of the p_y rule
        space, system, _ = golden
        p = space.dependent[2]
        assert system.reduce(space.coordinate(p, (0, 2))) == Rational(0)

    def test_untouched_expression(self, golden):
        space, system, _ = golden
        x = space.independent[0]
        u = space.dependent[0]
        assert system.reduce(x * u) == expr.normalize(x * u)

    def test_equations_reduce_to_zero(self, golden):
        _, system, _ = golden
        for eq in system.equations:
            assert system.reduce(eq) == Rational(0)

    def test_idempotent_random(self, golden):
        space, system, _ = golden
        rng = random.Random(43)
        pool = jet_pool(space)
        for _ in range(100):
            e = random_expression(rng, pool)
            once = system.reduce(e)
            assert system.reduce(once) == once

    def test_no_leading_coordinates_after_reduction(self, golden):
        space, system, _ = golden
        rng = random.Random(47)
        pool = jet_pool(space)
        leads = {lead for lead, _ in system.solved}
        for _ in range(50):
            e = system.reduce(random_expression(rng, pool))
            assert not (space.jet_symbols_in(e) & leads)

    def test_cyclic_rules_rejected(self, golden):
        space, _, _ = golden
        u, v, _ = space.dependent
        ux = space.coordinate(u, (1, 0))
        vx = space.coordinate(v, (1, 0))
        with pytest.raises(IllPosedSystemError):
            PDESystem(
                space,
                (ux - vx,),
                ((ux, vx), (vx, ux)),
            )


def test_coordinate_is_made_once_per_space(golden):
    # every call for one coordinate gives one object, equal to the symbol
    # built afresh; bad and too-high multi-indices raise on every call
    space = golden[0]
    rng = random.Random(83)
    made = {}
    for _ in range(300):
        order = rng.randint(0, space.limit)
        multi = rng.choice(space.multi_indices(order))
        alpha = rng.randrange(space.q)
        dep = space.dependent[alpha]
        sym = space.coordinate(rng.choice([dep, alpha]), rng.choice([multi, list(multi)]))
        suffix = "".join(x.name * c for x, c in zip(space.independent, multi))
        fresh = dep if order == 0 else Symbol(
            f"{dep.name}_{suffix}", expr.JET, base=dep.name, multi=multi)
        assert sym == fresh and sym.name == fresh.name
        assert made.setdefault((alpha, multi), sym) is sym
    dep = space.dependent[0]
    for _ in range(2):
        with pytest.raises(OrderLimitError):
            space.coordinate(dep, (space.limit + 1, 0))
        with pytest.raises(ValueError):
            space.coordinate(dep, (1,))
        with pytest.raises(ValueError):
            space.coordinate(dep, (-1, 2))
