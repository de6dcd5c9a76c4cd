import random
from fractions import Fraction

import pytest

from conftest import DELTA_SYM, EPS_SYM, identity_map, substitute_map
from liepde import expr, reference
from liepde.adjoint import compose, flow, transform_solution
from liepde.fields import VectorField

F = Fraction


class TestFlowRows:
    def test_reference_flow_table(self, golden):
        space, _, gens = golden
        expected_rows = reference.flow_table(space)
        for vf, row in zip(gens, expected_rows):
            fm = flow(vf)
            for z, value in zip(fm.coords, row):
                got = fm.component_expression(z)
                assert expr.equal(got, value), (vf, z.name)

    def test_zero_field_is_identity(self, golden):
        space, _, _ = golden
        fm = flow(VectorField.zero(space))
        assert fm == identity_map(fm.coords)

    def test_identity_at_zero(self, golden):
        space, _, gens = golden
        for vf in gens:
            fm = flow(vf)
            assert substitute_map(fm, {EPS_SYM: 0}) == identity_map(fm.coords)

    def test_derivative_at_zero_is_field(self, golden):
        # d/deps at eps=0 of each flow component equals the coefficient
        space, _, gens = golden
        for vf in gens:
            fm = flow(vf)
            for z, coeff in zip(fm.coords, vf.coefficients):
                derivative = expr.diff(fm.component_expression(z), EPS_SYM)
                assert expr.equal(expr.substitute(derivative, {EPS_SYM: 0}), coeff)

    def test_non_affine_rejected(self, golden):
        space, _, _ = golden
        u = space.dependent[0]
        Z = expr.ZERO
        vf = VectorField(space, (Z, Z), (u * u, Z, Z))
        with pytest.raises(ValueError):
            flow(vf)


class TestGroupLaw:
    def test_symbolic_two_parameter_composition(self, golden):
        space, _, gens = golden
        for vf in gens:
            f_eps = flow(vf)
            f_delta = substitute_map(f_eps, {EPS_SYM: DELTA_SYM})
            composed = compose(f_eps, f_delta)
            via_sub = substitute_map(f_eps, {EPS_SYM: EPS_SYM + DELTA_SYM})
            assert composed == via_sub, str(vf)

    def test_rational_parameter_pairs(self, golden):
        # F(a eps) o F(b eps) = F((a + b) eps) at every eps, so at every
        # rational point
        space, _, gens = golden
        rng = random.Random(71)
        for vf in gens:
            fm = flow(vf)
            for _ in range(3):
                a = F(rng.randint(-6, 6), rng.randint(1, 4))
                b = F(rng.randint(-6, 6), rng.randint(1, 4))
                left = compose(substitute_map(fm, {EPS_SYM: a * EPS_SYM}),
                               substitute_map(fm, {EPS_SYM: b * EPS_SYM}))
                assert left == substitute_map(fm, {EPS_SYM: (a + b) * EPS_SYM})

    def test_inverse_at_negated_parameter(self, golden):
        space, _, gens = golden
        for vf in gens:
            fm = flow(vf)
            for val in (F(1), F(-3, 2)):
                left = compose(substitute_map(fm, {EPS_SYM: val * EPS_SYM}),
                               substitute_map(fm, {EPS_SYM: -val * EPS_SYM}))
                assert left == identity_map(fm.coords)


class TestTransformedSolutions:
    def test_reference_per_generator_list(self, golden):
        space, _, gens = golden
        expected = reference.transformed_solutions(space)
        for vf, row in zip(gens, expected):
            ts = transform_solution(flow(vf), space)
            for dep, value in zip(space.dependent, row):
                assert expr.equal(ts[dep], value), (vf, dep.name)

    def test_composite_difference_is_the_frozen_delta(self, golden):
        # chain all five flows at a shared parameter, transform, and diff
        # against the baseline composite; u matches while v picks up a
        # factor e^eps and the p translation term differs
        space, _, gens = golden
        chain = flow(gens[0])
        for vf in gens[1:]:
            chain = compose(flow(vf), chain)
        ours = transform_solution(chain, space)
        baseline = reference.composite_solution(space)
        u, v, p = space.dependent
        diff_u = expr.normalize(ours[u] - baseline[0])
        diff_v = expr.normalize(ours[v] - baseline[1])
        diff_p = expr.normalize(ours[p] - baseline[2])
        assert expr.is_zero(diff_u)
        arg1 = expr.normalize((space.independent[0] + EPS_SYM) * expr.ParamExp(EPS_SYM, 1))
        arg2 = expr.normalize((space.independent[1] + EPS_SYM) * expr.ParamExp(EPS_SYM, 1))
        g = expr.FunctionApplication("g", (arg1, arg2))
        expected_v = expr.normalize(
            (expr.ParamExp(EPS_SYM, 1) - expr.ONE) * g
        )
        assert expr.equal(diff_v, expected_v)
        expected_p = expr.normalize(
            EPS_SYM * (expr.ParamExp(EPS_SYM, -2) - expr.ParamExp(EPS_SYM, -1))
        )
        assert expr.equal(diff_p, expected_p)

    def test_mixing_flow_has_no_diagonal_transform(self, golden):
        space, _, _ = golden
        x = space.independent[0]
        u = space.dependent[0]
        Z = expr.ZERO
        w = VectorField(space, (Z, x), (Z, u, Z))
        with pytest.raises(ValueError):
            transform_solution(flow(w), space)
