import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import liepde
import corpus
from baseline import EXPECTED_CLOSURE_FAILURES
from conftest import EPS_SYM, adjoint_image, borel_algebra, expr_matrix, jordan_algebra
from liepde import expr, optimal, reference, structure
from liepde.adjoint import ad_exp, expression
from liepde.errors import NormalFormError, UnsupportedSpectrumError
from liepde.optimal import (
    _act,
    classify_directions,
    coverage_gaps,
    invariant_components,
    normal_form_1d,
    verify_optimal_table,
)

from test_linalg import dense_rref
from test_structure import ORACLE_ALGEBRAS, oracle_algebra, seeded_spans

F = Fraction


class TestAdjointApply:
    def test_symbolic_translation_action(self, algebra):
        image = adjoint_image(algebra, 0, (1, 0, 0, 1, 0))
        assert image[0] == 1 - EPS_SYM
        assert image[3] == expr.ONE

    def test_rational_parameter_kills_component(self, algebra):
        image = _act(algebra, 0, (1, 0, 0, 1, 0), F(1))
        assert image == (0, 0, 0, 1, 0)

    def test_zero_parameter_is_identity(self, algebra):
        rng = random.Random(73)
        for _ in range(20):
            a = tuple(F(rng.randint(-5, 5)) for _ in range(5))
            for i in range(5):
                image = adjoint_image(algebra, i, a)
                assert tuple(expr.substitute(e, {EPS_SYM: 0}) for e in image) == tuple(
                    expr.Rational(x) for x in a)

    def test_invariant_components_unchanged(self, algebra):
        # at every eps, so at every rational point
        rng = random.Random(79)
        for _ in range(25):
            a = tuple(F(rng.randint(-5, 5)) for _ in range(5))
            for i in range(5):
                image = adjoint_image(algebra, i, a)
                for j in (3, 4):
                    assert image[j] == expr.Rational(a[j])


def invariant_components_by_adjoints(L):
    """Indices whose component every Ad(exp(eps v_i)) fixes, found by
    comparing each adjoint matrix entry with a constant: the oracle of
    `invariant_components`, which reads the structure constants."""
    out = []
    for j in range(L.n):
        fixed = True
        for i in range(L.n):
            M = ad_exp(L, i)
            for r in range(L.n):
                expected = expr.ONE if r == j else expr.ZERO
                if expression(M[r][j]) != expected:
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            out.append(j)
    return tuple(out)


def e2_algebra():
    """e(2): [v3, v1] = v2 and [v3, v2] = -v1; ad v3 is a rotation, with
    the eigenvalues +-i."""
    return structure.algebra_from_json(corpus.E2)


class TestInvariantComponents:
    def test_golden_fingerprint_slots(self, algebra):
        assert invariant_components(algebra) == (3, 4)

    def test_matches_adjoint_matrices(self, algebra, borel4):
        for L, expected in ((algebra, (3, 4)), (borel4, (0, 4, 7, 9)),
                            (jordan_algebra(), (0,))):
            assert invariant_components(L) == invariant_components_by_adjoints(L)
            assert invariant_components(L) == expected

    def test_directions(self, algebra):
        nilpotent, scaling = classify_directions(algebra)
        assert nilpotent == (0, 1, 2)
        assert scaling == (3, 4)

    def test_rotation_is_skipped(self):
        # ad v3 of e(2) has no rational spectrum: the direction is neither
        # nilpotent nor a scaling, and normal forms use the other two
        L = e2_algebra()
        with pytest.raises(UnsupportedSpectrumError):
            ad_exp(L, 2)
        assert classify_directions(L) == ((0, 1), ())
        r = normal_form_1d(L, (1, 2, 0))
        assert r.output == (1, 2, 0)
        assert not r.steps
        assert r.fingerprint() == (0,)

    def test_fingerprint_invariance_100_random_steps(self, algebra):
        # chain 100 exact adjoint steps with random directions: a rational
        # eps along the nilpotent v1-v3, a rational multiplier e^eps = q > 0
        # along v4, v5; components 4 and 5 stay exactly fixed throughout
        rng = random.Random(83)
        a = (F(3), F(-2), F(5), F(7, 2), F(-1, 3))
        nilpotent, _ = classify_directions(algebra)
        current = tuple(a)
        for _ in range(100):
            i = rng.randrange(5)
            if i in nilpotent:
                eps_val = F(rng.randint(-4, 4), rng.randint(1, 3))
                current = _act(algebra, i, current, eps_val)
            else:
                q = F(rng.randint(1, 4), rng.randint(1, 3))
                current = _act(algebra, i, current, q)
            assert current[3] == a[3]
            assert current[4] == a[4]
        for i in range(5):
            image = adjoint_image(algebra, i, a)
            assert image[3:] == (expr.Rational(a[3]), expr.Rational(a[4]))


# ---------------------------------------------------------------------------
# Oracle: direction classes and exact group actions from the dense adjoint
# matrices as `expr` values.
# ---------------------------------------------------------------------------

def classify_by_matrices(L):
    """(nilpotent, diagonal scaling) directions of L, from expr_matrix(ad_exp).

    Entries polynomial in eps of degree < n vanish after n derivatives, and
    a term with exp(k eps), k != 0, never does; a diagonal entry e is
    exp(k eps) exactly when e(0) = 1 and e' = k e with k = e'(0).
    """
    nilpotent, scaling = [], []
    for i in range(L.n):
        try:
            M = expr_matrix(ad_exp(L, i))
        except UnsupportedSpectrumError:
            continue
        entries = [e for row in M for e in row]
        high = entries
        for _ in range(L.n):
            high = [expr.diff(e, EPS_SYM) for e in high]
        if all(expr.is_zero(e) for e in high):
            if any(not expr.is_zero(expr.diff(e, EPS_SYM)) for e in entries):
                nilpotent.append(i)
            continue
        if any(not expr.is_zero(M[r][c]) for r in range(L.n) for c in range(L.n) if r != c):
            continue
        ks = [expr.constant_value(expr.substitute(expr.diff(M[r][r], EPS_SYM), {EPS_SYM: 0}))
              for r in range(L.n)]
        if all(k.denominator == 1 and expr.substitute(M[r][r], {EPS_SYM: 0}) == expr.ONE
               and expr.diff(M[r][r], EPS_SYM) == k * M[r][r] for r, k in enumerate(ks)):
            scaling.append(i)
    return tuple(nilpotent), tuple(scaling)


def evaluate(e, eps=None, q=None):
    """The Fraction value of an expr in eps at eps, with each exp(k eps)
    read as q^k."""
    total = F(0)
    for (powers, pexps), c in expr.monomials(e):
        term = F(c)
        for atom, p in powers:
            assert atom == EPS_SYM
            term *= eps ** p
        for sym, k in pexps:
            assert sym == EPS_SYM and k.denominator == 1
            term *= q ** int(k)
        total += term
    return total


class TestStepOracle:
    @pytest.mark.parametrize("seed, name", enumerate((*ORACLE_ALGEBRAS, "e2", "b4-seeded")))
    def test_steps_match_the_dense_matrices(self, algebra, seed, name):
        # b(4) on a shuffled basis with scalings +-1 and +-2, as the
        # benchmark builds it: fixed and moving components interleave
        L = (e2_algebra() if name == "e2" else borel_algebra(random.Random(7))
             if name == "b4-seeded" else oracle_algebra(name, algebra))
        nilpotent, scaling = classify_directions(L)
        assert (nilpotent, scaling) == classify_by_matrices(L)
        rng = random.Random(300 + seed)
        for _ in range(30):
            a = tuple(F(0) if rng.random() < 0.3 else F(rng.randint(-6, 6), rng.randint(1, 3))
                      for _ in range(L.n))
            for i in nilpotent:
                eps = F(rng.randint(-5, 5), rng.randint(1, 4))
                expected = tuple(evaluate(e, eps=eps) for e in adjoint_image(L, i, a))
                assert _act(L, i, a, eps) == expected
            for i in scaling:
                q = F(rng.randint(1, 5), rng.randint(1, 4))
                expected = tuple(evaluate(e, q=q) for e in adjoint_image(L, i, a))
                assert _act(L, i, a, q) == expected

    def test_both_classes_are_seen(self, algebra):
        classes = [classify_directions(oracle_algebra(name, algebra))
                   for name in ORACLE_ALGEBRAS]
        assert all(any(c[k] for c in classes) for k in (0, 1))


class TestNormalForm:
    def test_kills_translation_against_scaling(self, algebra):
        r = normal_form_1d(algebra, (1, 0, 0, 1, 0))
        assert r.output == (0, 0, 0, 1, 0)
        assert len(r.steps) == 1
        assert r.steps[0].kind == "translate"
        assert r.steps[0].index == 0
        assert r.steps[0].parameter == 1

    def test_already_normal(self, algebra):
        r = normal_form_1d(algebra, (0, 0, 1, 0, 0))
        assert r.output == (0, 0, 1, 0, 0)
        assert not r.steps

    def test_invariant_direction_unchanged(self, algebra):
        r = normal_form_1d(algebra, (0, 0, 0, 1, 2))
        assert r.output == (0, 0, 0, 1, 2)

    def test_zero_vector_rejected(self, algebra):
        with pytest.raises(ValueError):
            normal_form_1d(algebra, (0,) * 5)

    @pytest.mark.parametrize("vector, output, direction, multiplier", [
        ((-8, 0, 0, 0, 0), (1, 0, 0, 0, 0), 3, F(1, 8)),
        ((0, -3, 0, 0, 0), (0, 1, 0, 0, 0), 4, F(1, 3)),
    ])
    def test_scaling_then_sign(self, algebra, vector, output, direction, multiplier):
        # one scaling shrinks the magnitude to 1; with no invariant
        # component to pin it, the sign is then fixed by negation
        r = normal_form_1d(algebra, vector)
        assert r.output == output
        assert r.negated
        (step,) = r.steps
        assert (step.kind, step.index, step.parameter) == ("scale", direction, multiplier)
        assert step.after == tuple(-x for x in output)
        assert step.describe(algebra) == (
            f"Ad(exp(t v{direction + 1})) with e^t = {multiplier}")
        assert r.replay(algebra) == r.output

    def test_replay_and_idempotence_random(self, algebra, borel4):
        # b(4) has a non-abelian nilradical: a translation can refill a
        # component that an earlier one zeroed
        for L, slots, total in ((algebra, (3, 4), 120), (borel4, (0, 4, 7, 9), 40)):
            rng = random.Random(89)
            count = 0
            while count < total:
                a = tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(L.n))
                if all(x == 0 for x in a):
                    continue
                count += 1
                r = normal_form_1d(L, a)
                assert r.replay(L) == r.output
                again = normal_form_1d(L, r.output)
                assert again.output == r.output
                assert r.fingerprint() == tuple(a[j] for j in slots)

    def test_unsettled_sweep_is_a_typed_error(self, algebra, monkeypatch):
        # a sweep that takes a step needs one more to confirm the fixpoint
        monkeypatch.setattr(optimal, "_SWEEP_BOUND", 1)
        with pytest.raises(NormalFormError):
            normal_form_1d(algebra, (1, 0, 0, 1, 0))

    def test_fingerprint_preserved_through_steps(self, algebra):
        rng = random.Random(97)
        for _ in range(50):
            a = tuple(F(rng.randint(-6, 6)) for _ in range(5))
            if all(x == 0 for x in a):
                continue
            r = normal_form_1d(algebra, a)
            if not r.negated:
                assert (r.output[3], r.output[4]) == (a[3], a[4])


class TestOptimalTable:
    def test_unparameterized_entries_close(self, algebra):
        entries = reference.optimal_table_entries()
        results, _ = verify_optimal_table(algebra, entries)
        for r in results:
            if r.label in EXPECTED_CLOSURE_FAILURES:
                continue
            assert r.closed, r.label

    def test_known_non_closing_entry(self, algebra):
        # the mixed dim-2 entry with the 5/2 factor: its bracket is
        # 5/2 b3 (b1 v2 - 2 b2 v3), outside the span for nonzero parameters
        entries = reference.optimal_table_entries()
        results, _ = verify_optimal_table(algebra, entries)
        failing = [r.label for r in results if not r.closed]
        assert failing == list(EXPECTED_CLOSURE_FAILURES)
        for r in results:
            if not r.closed:
                assert r.offending is not None

    def test_whole_algebra_entry(self, algebra):
        results, _ = verify_optimal_table(
            algebra, [("whole", [tuple(1 if i == j else 0 for j in range(5))
                                 for i in range(5)])]
        )
        assert results[0].closed
        assert results[0].dim == 5
        assert results[0].ideal

    def test_flags_match_structure(self, algebra):
        entries = [
            ("<v1,v2>", [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0)]),
            ("<v4,v5>", [(0, 0, 0, 1, 0), (0, 0, 0, 0, 1)]),
            ("<v3,v4>", [(0, 0, 1, 0, 0), (0, 0, 0, 1, 0)]),
        ]
        results, _ = verify_optimal_table(algebra, entries)
        by_label = {r.label: r for r in results}
        assert by_label["<v1,v2>"].abelian and by_label["<v1,v2>"].ideal
        assert by_label["<v4,v5>"].abelian and not by_label["<v4,v5>"].ideal
        assert not by_label["<v3,v4>"].abelian

    def test_coverage_gap_flags_invariant_directions(self, algebra):
        reps = [vecs[0] for _, vecs in reference.optimal_table_entries()
                if len(vecs) == 1]
        gaps = coverage_gaps(algebra, reps)
        assert gaps == ["v4", "v5"]

    def test_coverage_satisfied_when_rep_present(self, algebra):
        reps = [vecs[0] for _, vecs in reference.optimal_table_entries()
                if len(vecs) == 1]
        reps.append((0, 0, 0, 1, 0))
        reps.append((0, 0, 0, 0, 1))
        gaps = coverage_gaps(algebra, reps)
        assert gaps == []


# ---------------------------------------------------------------------------
# Oracle: every field of a table entry from the definitions, over all pairs
# of the entry's basis, with brackets read off the dense constants and
# membership decided by rank.
# ---------------------------------------------------------------------------

def dense_bracket(L, a, b):
    out = [F(0)] * L.n
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if x and y:
                for k, c in enumerate(L.constants[i][j]):
                    out[k] += x * y * c
    return tuple(out)


def rank(vectors):
    return len(dense_rref(vectors)[0])


def brute_force_entry(L, vectors, derived, inv):
    """(closed, offending, abelian, ideal, derived_intersection_dim,
    invariant_signature) of span(vectors), given the RREF basis of [g, g]
    and the components every Ad fixes."""
    basis = dense_rref(vectors)[0]
    units = [tuple(F(int(i == j)) for j in range(L.n)) for i in range(L.n)]

    def inside(w):
        return rank(basis + [w]) == len(basis)

    pairs = [(a, b) for a in basis for b in basis]
    offending = next(((a, b) for a, b in pairs
                      if not inside(dense_bracket(L, a, b))), None)
    abelian = all(not any(dense_bracket(L, a, b)) for a, b in pairs)
    ideal = all(inside(dense_bracket(L, e, b)) for e in units for b in basis)
    inter = len(basis) + len(derived) - rank(basis + derived)
    signature = tuple(dense_rref([tuple(b[j] for j in inv) for b in basis])[0])
    return offending is None, offending, abelian, ideal, inter, signature


class TestOptimalTableOracle:
    @pytest.mark.parametrize("name", ["fixture", "b4-seeded", "sl2", "h3"])
    def test_entries_match_the_definitions(self, algebra, name):
        L = (borel_algebra(random.Random(7)) if name == "b4-seeded"
             else oracle_algebra(name, algebra))
        spans = seeded_spans(L, random.Random(f"table-{name}"), 40)
        results, _ = verify_optimal_table(
            L, [(str(k), vectors) for k, vectors in enumerate(spans)])
        units = [tuple(F(int(i == j)) for j in range(L.n)) for i in range(L.n)]
        derived = dense_rref([dense_bracket(L, e, f) for e in units for f in units])[0]
        inv = invariant_components_by_adjoints(L)
        seen = set()
        for vectors, r in zip(spans, results):
            expected = brute_force_entry(L, vectors, derived, inv)
            assert (r.closed, r.offending, r.abelian, r.ideal,
                    r.derived_intersection_dim, r.invariant_signature) == expected
            seen.update(enumerate(expected[i] for i in (0, 2, 3)))
        # closed, abelian and ideal are each seen both true and false
        assert seen == {(k, v) for k in range(3) for v in (True, False)}


# ---------------------------------------------------------------------------
# Oracle: the per-direction proportionality test that reading each
# representative's support on the invariant components replaced.
# ---------------------------------------------------------------------------

def proportional_coverage_gaps(L, representatives):
    inv = invariant_components(L)
    rep_sigs = []
    for vec in representatives:
        rep_sigs.append(tuple(Fraction(vec[j]) for j in inv))
    gaps = []
    for k, label in enumerate(L.labels):
        sig = tuple(int(j == k) for j in inv)
        if all(x == 0 for x in sig):
            covered = any(all(x == 0 for x in rs) for rs in rep_sigs)
        else:
            covered = any(_proportional(sig, rs) for rs in rep_sigs)
        if not covered:
            gaps.append(label)
    return gaps


def _proportional(a, b):
    if all(x == 0 for x in b):
        return False
    ratio = None
    for x, y in zip(a, b):
        if y == 0:
            if x != 0:
                return False
            continue
        r = Fraction(x) / Fraction(y)
        if ratio is None:
            ratio = r
        elif r != ratio:
            return False
    return ratio is not None and ratio != 0


def seeded_representatives(L, rng):
    """0 to 4 vectors: zero vectors, scaled units and sparse rational ones,
    the last often with several invariant components."""
    reps = []
    for _ in range(rng.randint(0, 4)):
        kind = rng.randrange(3)
        if kind == 0:
            reps.append((0,) * L.n)
        elif kind == 1:
            v = [0] * L.n
            v[rng.randrange(L.n)] = F(rng.choice([-3, -1, 1, 2]), rng.randint(1, 2))
            reps.append(tuple(v))
        else:
            reps.append(tuple(0 if rng.random() < 0.5 else F(rng.randint(-3, 3), 2)
                              for _ in range(L.n)))
    return reps


class TestCoverageOracle:
    @pytest.mark.parametrize("seed, name", enumerate(ORACLE_ALGEBRAS))
    def test_gaps_match_proportionality(self, algebra, seed, name):
        L = oracle_algebra(name, algebra)
        rng = random.Random(200 + seed)
        lists = [[], [(0,) * L.n], [tuple(int(i == k) for i in range(L.n))
                                    for k in range(L.n)]]
        lists += [seeded_representatives(L, rng) for _ in range(150)]
        inv = invariant_components(L)
        several = 0
        sizes = set()
        for reps in lists:
            gaps = coverage_gaps(L, reps)
            assert gaps == proportional_coverage_gaps(L, reps), reps
            sizes.add(len(gaps))
            several += any(sum(1 for j in inv if v[j]) > 1 for v in reps)
        assert coverage_gaps(L, []) == list(L.labels)
        assert coverage_gaps(L, lists[2]) == []
        assert len(sizes) > 1
        assert several > 0 or len(inv) < 2

    def test_string_components(self, algebra):
        # components are numbers, as `table_from_json` reads the table files'
        # strings; a string is refused like every other algebra-layer input
        reps = [(0, 0, 0, Fraction(1, 2), 0), (1, 0, 0, 0, 0)]
        assert coverage_gaps(algebra, reps) == ["v5"]
        assert proportional_coverage_gaps(algebra, reps) == ["v5"]
        with pytest.raises(TypeError):
            coverage_gaps(algebra, [("0", "0", "0", "1/2", "0")])


def naive_power_part(n, k):
    """Largest q with q^k dividing n, by complete trial division."""
    out, d = 1, 2
    while n > 1:
        count = 0
        while n % d == 0:
            n //= d
            count += 1
        out *= d ** (count // k)
        d += 1
    return out


class TestPowerPart:
    def test_small_values_match_full_factorization(self):
        for n in range(1, 3000):
            for k in (1, 2, 3, 5):
                assert optimal._int_power_part(n, k) == naive_power_part(n, k), (n, k)

    def test_cofactors_past_the_trial_bound(self):
        B = optimal._TRIAL_BOUND
        p, q = 65537, 65539  # primes just above the bound
        assert p > B and q > B
        assert optimal._int_power_part(12 * p * p, 2) == 2 * p
        assert optimal._int_power_part(p * q, 2) == 1
        assert optimal._int_power_part(8 * p ** 3, 3) == 2 * p
        assert optimal._int_power_part(p * p * q, 3) == 1
        assert optimal._int_power_part(10 ** 24 + 7, 1) == 10 ** 24 + 7
        assert optimal._int_power_part((10 ** 24 + 7) ** 2, 2) == 10 ** 24 + 7
        assert optimal._int_power_part(3, 10 ** 12) == 1

    def test_prime_cofactors_are_decided(self):
        # 10^24 + 7 is a prime past the trial bound and below _MR_LIMIT
        p = 10 ** 24 + 7
        assert optimal._int_power_part(p, 2) == 1
        assert optimal._int_power_part(p, 3) == 1
        assert optimal._int_power_part(12 * p, 2) == 2
        assert optimal._int_power_part(8 * p * p, 2) == 2 * p

    def test_undecidable_cofactor_is_a_typed_error(self):
        for n in (
            318665857834031151167461,  # strong pseudoprime to the bases 2..37
            3317044064679887385961981,  # _MR_LIMIT, a strong pseudoprime to 2..41
            2 ** 89 - 1,  # a prime past _MR_LIMIT
        ):
            with pytest.raises(NormalFormError):
                optimal._int_power_part(n, 2)

    def test_miller_rabin_matches_trial_division(self):
        limit = 20000
        sieve = [True] * limit
        sieve[0] = sieve[1] = False
        for d in range(2, limit):
            if sieve[d]:
                sieve[d * d::d] = [False] * len(sieve[d * d::d])
        assert [n for n in range(limit) if optimal._is_prime(n)] == [
            n for n in range(limit) if sieve[n]]
        # strong pseudoprimes to the first 4, 9 and 12 prime bases, Carmichael 561
        for n in (561, 3215031751, 3825123056546413051, 318665857834031151167461):
            assert not optimal._is_prime(n), n
        for n in (65537, 2 ** 61 - 1, 10 ** 24 + 7):
            assert optimal._is_prime(n), n

    @pytest.mark.parametrize("vector, code, text", [
        # v5 scales v2 with exponent 1: the multiplier is the component itself
        ("0,1000000000000000000000007,0,0,0", 0, "output: v2\n"),
        # v4 scales v3 with exponent 2, and 10^24 + 7 is a prime: square-free
        ("0,0,1000000000000000000000007,0,0", 0,
         "output: 1000000000000000000000007*v3\n"),
    ])
    def test_large_component_cli_ends(self, vector, code, text):
        # trial division up to the square root ran past 15 s on both
        env = dict(os.environ)
        src = str(pathlib.Path(liepde.__file__).parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-m", "liepde", "normal-form", "--vector", vector],
            env=env, capture_output=True, text=True, timeout=2,
        )
        assert run.returncode == code
        assert text in (run.stderr if code else run.stdout)
