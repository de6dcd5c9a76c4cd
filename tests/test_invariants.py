import itertools
from fractions import Fraction

import pytest

from liepde import expr, invariants
from liepde.errors import InternalCheckError, UnsupportedGeneratorError
from liepde.fields import VectorField
from liepde.invariants import (
    SCALING,
    TRANSLATION,
    MonomialInvariant,
    classify_generator,
    in_invariant_lattice,
    monomial_invariants,
    similarity_form,
    verify_invariant,
    verify_invariants,
    weight_system,
)

from baseline import (EXPECTED_INVARIANT_FAILURES, claimed, invariant_tables,
                      second_order_invariants)
from conftest import solve

F = Fraction


@pytest.fixture(scope="module")
def golden_weights(golden):
    space, _, gens = golden
    return weight_system(gens, space, 1)


@pytest.fixture(scope="module")
def golden_lattice(golden_weights):
    return monomial_invariants(golden_weights)


class TestClassify:
    def test_translation(self, golden):
        _, _, gens = golden
        kind, data = classify_generator(gens[0])
        assert kind == TRANSLATION
        assert [s.name for s in data] == ["x"]

    def test_scaling(self, golden):
        space, _, gens = golden
        kind, data = classify_generator(gens[4])
        assert kind == SCALING
        y = space.independent[1]
        u, v, p = space.dependent
        assert data == {y: F(1), u: F(-2), v: F(-1), p: F(-4)}

    def test_mixed_rejected(self, golden):
        space, _, _ = golden
        x = space.independent[0]
        u = space.dependent[0]
        Z = expr.ZERO
        w = VectorField(space, (Z, x), (Z, u, Z))
        with pytest.raises(UnsupportedGeneratorError):
            classify_generator(w)

    def test_mixing_names_the_coordinate(self, golden):
        # d/dx + y d/dy meets the scaling after the translation, and
        # x d/dx + d/dy the translation after the scaling; both at y
        space, _, _ = golden
        x, y = space.independent
        Z = expr.ZERO
        for xi in ((expr.ONE, y), (x, expr.ONE)):
            with pytest.raises(UnsupportedGeneratorError,
                               match="^generator mixes translation and scaling at y$"):
                classify_generator(VectorField(space, xi, (Z, Z, Z)))

    def test_zero_generator_rejected(self, golden):
        space, _, _ = golden
        with pytest.raises(UnsupportedGeneratorError,
                           match="^zero generator has no invariant theory$"):
            classify_generator(VectorField.zero(space))


class TestWeights:
    def test_scaling_weights_from_prolongation(self, golden, golden_weights):
        space, _, _ = golden
        ws = golden_weights
        y = space.independent[1]
        u, v, p = space.dependent
        uy = space.coordinate(u, (0, 1))
        py = space.coordinate(p, (0, 1))
        ux = space.coordinate(u, (1, 0))
        # rows: index 0 is v4, index 1 is v5
        assert ws.weight(1, y) == 1
        assert ws.weight(1, u) == -2
        assert ws.weight(1, uy) == -3
        assert ws.weight(1, py) == -5
        assert ws.weight(0, ux) == 0
        assert ws.weight(0, u) == 1
        assert ws.weight(0, p) == 2

    def test_translations_define_mask(self, golden_weights):
        assert sorted(s.name for s in golden_weights.masked) == ["p", "x", "y"]

    def test_weight_rule_mismatch_is_a_typed_error(self, golden, monkeypatch):
        # A prolongation that disagrees with the additive weight rule is an
        # internal fault: it raises a package error, not a bare assertion.
        space, _, gens = golden
        real = invariants.prolong

        def skewed(vf, order, js=None):
            pr = real(vf, order, js)
            pr.coefficients = {s: 2 * c for s, c in pr.coefficients.items()}
            return pr

        monkeypatch.setattr(invariants, "prolong", skewed)
        with pytest.raises(InternalCheckError):
            weight_system(gens, space, 1)


class TestLattice:
    def test_first_order_ratios_in_lattice(self, golden, golden_weights, golden_lattice):
        space, _, _ = golden
        [first] = claimed(space, "first-order-invariants")
        for e, member in zip(first, in_invariant_lattice(golden_weights, golden_lattice,
                                                         first)):
            assert member, str(e)

    def test_second_order_ratios_in_lattice(self, golden):
        space, _, gens = golden
        ws = weight_system(gens, space, 2)
        lattice = monomial_invariants(ws)
        second = second_order_invariants(space)
        for e, member in zip(second, in_invariant_lattice(ws, lattice, second)):
            assert member, str(e)

    def test_single_scaling_order_zero(self, golden):
        space, _, gens = golden
        ws = weight_system([gens[4]], space, 0)
        lattice = monomial_invariants(ws)
        x, y = space.independent
        u, v, p = space.dependent
        exprs = [expr.normalize(e) for e in (x, y**2 * u, y * v, y**4 * p)]
        for e, member in zip(exprs, in_invariant_lattice(ws, lattice, exprs)):
            assert member, str(e)

    def test_brute_force_completeness_order_one(self, golden, golden_weights,
                                                golden_lattice):
        # enumerate every exponent vector with entries in [-4, 4] over the
        # eight free coordinates; meet in the middle on the weight pairs
        from liepde.linalg import in_integer_lattice, rref

        ws = golden_weights
        free = ws.free_coordinates()
        cols = [
            tuple(int(row[ws.coordinates.index(c)]) for row in ws.weight_rows)
            for c in free
        ]
        half = len(cols) // 2
        rng = range(-4, 5)
        left = {}
        for combo in itertools.product(rng, repeat=half):
            w = (
                sum(c * col[0] for c, col in zip(combo, cols[:half])),
                sum(c * col[1] for c, col in zip(combo, cols[:half])),
            )
            left.setdefault(w, []).append(combo)
        basis = [inv.exponents for inv in golden_lattice]
        k = len(basis)
        n = len(free)
        # precompute solve coefficients: pick pivot columns of the basis,
        # invert that block, and scale to integers so each membership check
        # is a small integer matmul plus a divisibility test
        _, pivots = rref(basis)
        block = [[F(basis[j][p]) for j in range(k)] for p in pivots]
        inv_cols = [
            solve(block, [F(1) if r == i else F(0) for r in range(k)])
            for i in range(k)
        ]  # columns of block^-1
        denom = 1
        for col in inv_cols:
            for x in col:
                denom = denom * x.denominator // __import__("math").gcd(
                    denom, x.denominator
                )
        inv_int = [[int(x * denom) for x in col] for col in inv_cols]

        def member(vec):
            scaled = [
                sum(inv_int[i][j] * vec[pivots[i]] for i in range(k))
                for j in range(k)
            ]
            if any(s % denom for s in scaled):
                return False
            coeffs = [s // denom for s in scaled]
            for t in range(n):
                if sum(coeffs[j] * basis[j][t] for j in range(k)) != vec[t]:
                    return False
            return True

        checked = 0
        for combo in itertools.product(rng, repeat=len(cols) - half):
            w = (
                sum(c * col[0] for c, col in zip(combo, cols[half:])),
                sum(c * col[1] for c, col in zip(combo, cols[half:])),
            )
            key = (-w[0], -w[1])
            for other in left.get(key, ()):
                vec = other + combo
                checked += 1
                assert member(vec), vec
        assert checked > 100  # the box contains plenty of invariants
        # spot-check the fast member() against the reference routine
        for vec in ([0] * n, basis[0], tuple(2 * x for x in basis[1])):
            assert member(tuple(vec)) == in_integer_lattice(basis, [tuple(vec)])[0]
        # and both routines on non-members, a unit vector of nonzero weight
        # (outside the Q-span of the basis) and half of a basis vector,
        # batched together with the zero vector, a member
        outside = next(tuple(int(j == k) for j in range(n))
                       for k in range(n) if any(cols[k]))
        vectors = [(0,) * n, outside, tuple(F(x, 2) for x in basis[0])]
        assert [member(v) for v in vectors] == [True, False, False]
        assert in_integer_lattice(basis, vectors) == [True, False, False]
        monomials = [MonomialInvariant(free, v).expression() for v in vectors[:2]]
        assert in_invariant_lattice(ws, golden_lattice, monomials) == [True, False]

    def test_lattice_members_verify(self, golden, golden_weights, golden_lattice):
        space, _, gens = golden
        for inv in golden_lattice:
            assert verify_invariant(inv.expression(), gens), str(inv)


class TestVerifyInvariant:
    def test_scaling_invariant(self, golden):
        space, _, gens = golden
        y = space.independent[1]
        u = space.dependent[0]
        assert verify_invariant(y**2 * u, [gens[4]])

    def test_constant(self, golden):
        space, _, gens = golden
        assert verify_invariant(expr.Rational(7), gens)

    def test_weighted_coordinate_fails(self, golden):
        space, _, gens = golden
        u = space.dependent[0]
        assert not verify_invariant(u, [gens[3]])

    def test_reference_table_pass_fail(self, golden):
        space, _, gens = golden
        for label, generator, rows in invariant_tables(space):
            failures = tuple(
                entry
                for entry, e in rows
                if not verify_invariant(e, [generator])
            )
            assert failures == EXPECTED_INVARIANT_FAILURES[label]

    def test_batched_equals_one_at_a_time(self, golden):
        # each generator prolonged once on the union of the coordinates
        # gives every expression the answer of its own prolongation
        space, _, gens = golden
        u = space.dependent[0]
        cases = [(rows, [generator]) for _, generator, rows in invariant_tables(space)]
        second = second_order_invariants(space)
        mixed = [("u", u), *(("", e) for e in second), ("u_x", space.coordinate(u, (1, 0)))]
        cases += [([("", e) for e in second], gens), (mixed, gens), (mixed, [])]
        seen = set()
        for rows, generators in cases:
            exprs = [e for _, e in rows]
            one_at_a_time = [verify_invariant(e, generators) for e in exprs]
            assert verify_invariants(exprs, generators) == one_at_a_time
            seen.update(one_at_a_time)
        assert seen == {True, False}
        assert verify_invariants([], gens) == []


class TestSimilarityForms:
    def test_independent_translation(self, golden):
        space, _, gens = golden
        form = similarity_form(gens[0])
        subs = dict((sym.name, e) for sym, e in form.substitutions)
        assert expr.render(subs["x"]) == "s"
        assert expr.render(subs["y"]) == "r"
        assert expr.render(subs["u"]) == "f(r)"

    def test_dependent_translation(self, golden):
        _, _, gens = golden
        form = similarity_form(gens[2])
        assert form.substitutions == []
        assert "translation on p" in form.note

    def test_scaling_v4(self, golden):
        space, _, gens = golden
        form = similarity_form(gens[3])
        subs = dict((sym.name, e) for sym, e in form.substitutions)
        s = next(sym for sym, _ in form.substitutions if sym.name == "x")
        assert expr.render(subs["x"]) == "exp(s)"
        assert expr.render(subs["y"]) == "r"
        assert expr.render(subs["u"]) == "f(r)*exp(s)"
        assert expr.render(subs["v"]) == "g(r)"
        assert expr.render(subs["p"]) == "h(r)*exp(2*s)"

    def test_scaling_v5(self, golden):
        space, _, gens = golden
        form = similarity_form(gens[4])
        subs = dict((sym.name, e) for sym, e in form.substitutions)
        assert expr.render(subs["y"]) == "exp(s)"
        assert expr.render(subs["x"]) == "r"
        assert expr.render(subs["u"]) == "f(r)*exp(-2*s)"
        assert expr.render(subs["v"]) == "g(r)*exp(-s)"
        assert expr.render(subs["p"]) == "h(r)*exp(-4*s)"

    def test_mixed_generator_rejected(self, golden):
        space, _, _ = golden
        x = space.independent[0]
        u = space.dependent[0]
        Z = expr.ZERO
        w = VectorField(space, (Z, x), (Z, u, Z))
        with pytest.raises(UnsupportedGeneratorError):
            similarity_form(w)
