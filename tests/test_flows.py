import random
from fractions import Fraction

import pytest

from baseline import claimed, flow_table, transformed_solutions
from conftest import DELTA_SYM, EPS_SYM, identity_map, substitute_map
from liepde import expr
from liepde.adjoint import compose, flow, matrix_exp, transform_solution
from liepde.errors import UnsupportedSpectrumError
from liepde.fields import VectorField

F = Fraction


class TestFlowRows:
    def test_reference_flow_table(self, golden):
        _, _, gens = golden
        expected_rows = flow_table()
        for vf, row in zip(gens, expected_rows):
            fm = flow(vf)
            for z, value in zip(vf.coordinates, row):
                assert expr.equal(fm[z], value), (vf, z.name)

    def test_zero_field_is_identity(self, golden):
        space, _, _ = golden
        vf = VectorField.zero(space)
        assert flow(vf) == identity_map(vf.coordinates)

    def test_identity_at_zero(self, golden):
        space, _, gens = golden
        for vf in gens:
            fm = flow(vf)
            assert substitute_map(fm, {EPS_SYM: 0}) == identity_map(vf.coordinates)

    def test_derivative_at_zero_is_field(self, golden):
        # d/deps at eps=0 of each flow component equals the coefficient
        space, _, gens = golden
        for vf in gens:
            fm = flow(vf)
            for z, coeff in zip(vf.coordinates, vf.coefficients):
                derivative = expr.diff(fm[z], EPS_SYM)
                assert expr.equal(expr.substitute(derivative, {EPS_SYM: 0}), coeff)

    def test_non_affine_rejected(self, golden):
        space, _, _ = golden
        u = space.dependent[0]
        Z = expr.ZERO
        vf = VectorField(space, (Z, Z), (u * u, Z, Z))
        with pytest.raises(ValueError):
            flow(vf)

    def test_parameter_constant_rejected(self, golden):
        space, _, _ = golden
        nu = expr.Symbol("nu", expr.PARAMETER)
        Z = expr.ZERO
        vf = VectorField(space, (nu, Z), (Z, Z, Z))
        with pytest.raises(ValueError) as error:
            flow(vf)
        assert str(error.value) == (
            "flow requires affine coefficients with rational constants; got nu")

    @pytest.mark.parametrize("case, what, got", [
        ("quadratic", "slopes", "1 + u^2"),
        ("parameter slope", "slopes", "x*nu"),
        ("parameter constant", "constants", "x + nu"),
        ("negative power", "slopes", "y^-1"),
        ("function application", "slopes", "f(x)"),
        ("composite application", "slopes", "g(x + y)"),
        ("constant before a later slope", "constants", "nu"),
        ("slope before its own constant", "slopes", "y*nu + nu"),
        ("parameter application", "constants", "h(nu)"),
    ])
    def test_error_names_the_first_failing_part(self, golden, case, what, got):
        # the slopes of a coefficient are checked before its constant, and
        # the coefficients in order
        space, _, _ = golden
        x, y = space.independent
        u = space.dependent[0]
        nu = expr.Symbol("nu", expr.PARAMETER)
        Z = expr.ZERO
        xi, phi = {
            "quadratic": ((Z, Z), (u * u + 1, Z, Z)),
            "parameter slope": ((nu * x, Z), (Z, Z, Z)),
            "parameter constant": ((x + nu, Z), (Z, Z, Z)),
            "negative power": ((Z, 1 / y), (Z, Z, Z)),
            "function application": ((Z, Z), (Z, expr.FunctionApplication("f", (x,)), Z)),
            "composite application": (
                (Z, Z), (Z, expr.FunctionApplication("g", (x + y,)), Z)),
            "constant before a later slope": ((nu, x * x), (Z, Z, Z)),
            "slope before its own constant": ((nu * y + nu, Z), (Z, Z, Z)),
            "parameter application": ((Z, Z), (expr.FunctionApplication("h", (nu,)), Z, Z)),
        }[case]
        with pytest.raises(ValueError) as error:
            flow(VectorField(space, xi, phi))
        assert str(error.value) == (
            f"flow requires affine coefficients with rational {what}; got {got}")


def triangular_field(seed, space):
    """A seeded affine field whose slope matrix is upper triangular in the
    coordinate order, so its spectrum is its diagonal.

    Seeds 0, 3, 6, ... repeat a diagonal entry and couple the two
    coordinates (a Jordan block); seeds 1, 4, 7, ... give one coordinate a
    scaling and a translation at once.
    """
    rng = random.Random(seed)
    coords = space.independent + space.dependent
    n = len(coords)
    slopes = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        slopes[i][i] = F(rng.choice((0, 1, -1, 2, -3)), rng.choice((1, 2)))
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                slopes[i][j] = F(rng.randint(-2, 2))
    consts = [F(rng.randint(-2, 2)) if rng.random() < 0.5 else F(0) for _ in range(n)]
    i, j = sorted(rng.sample(range(n), 2))
    if seed % 3 == 0:
        slopes[j][j] = slopes[i][i]
        slopes[i][j] = F(rng.choice((-1, 1)))
    elif seed % 3 == 1:
        slopes[i][i] = F(rng.choice((-1, 1, 2)))
        consts[i] = F(rng.choice((-1, 1)))
    coeffs = [sum((expr.Rational(a) * z for a, z in zip(row, coords)), expr.Rational(c))
              for row, c in zip(slopes, consts)]
    return VectorField(space, tuple(coeffs[:space.p]), tuple(coeffs[space.p:]))


class TestFlowCertificate:
    """phi(0) = id and d phi / d eps = xi o phi, exactly, for every image."""

    @pytest.mark.parametrize("seed", range(60))
    def test_triangular_field(self, golden, seed):
        space, _, _ = golden
        vf = triangular_field(seed, space)
        images = flow(vf)
        for z, xi in zip(vf.coordinates, vf.coefficients):
            assert expr.substitute(images[z], {EPS_SYM: 0}) == z
            assert expr.diff(images[z], EPS_SYM) == expr.substitute(xi, images)

    def test_rotation_has_the_stuck_factor_of_its_slopes(self, golden):
        # -y d/dx + x d/dy + d/du: the slopes have the eigenvalues +-i
        space, _, _ = golden
        x, y = space.independent
        Z = expr.ZERO
        vf = VectorField(space, (-y, x), (expr.ONE, Z, Z))
        with pytest.raises(UnsupportedSpectrumError) as error:
            flow(vf)
        slopes = [[F(0)] * 5 for _ in range(5)]
        slopes[0][1], slopes[1][0] = F(-1), F(1)
        with pytest.raises(UnsupportedSpectrumError) as expected:
            matrix_exp(slopes)
        assert str(error.value) == str(expected.value)
        assert "stuck factor has coefficients ['1', '0', '1']" in str(error.value)


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
                assert left == identity_map(vf.coordinates)


class TestTransformedSolutions:
    def test_reference_per_generator_list(self, golden):
        space, _, gens = golden
        expected = transformed_solutions()
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
        [baseline] = claimed(space, "composite")
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
        with pytest.raises(ValueError) as error:
            transform_solution(flow(w), space)
        assert str(error.value) == (
            "dependent coordinate v mixes with other coordinates; "
            "no diagonal solution transform exists")

    def test_independent_image_with_a_dependent_has_no_transform(self, golden):
        # u d/dx moves x by eps * u
        space, _, _ = golden
        u = space.dependent[0]
        Z = expr.ZERO
        w = VectorField(space, (u, Z), (Z, Z, Z))
        with pytest.raises(ValueError) as error:
            transform_solution(flow(w), space)
        assert str(error.value) == "independent coordinates must transform among themselves"
