"""Adjoint-orbit normalization and verification of subalgebra tables.

The adjoint group of the algebra acts on coordinate row vectors through the
matrices of `adjoint.ad_exp`.  This module provides exact orbit steps
(nilpotent directions with rational parameters, scaling directions with
rational multipliers q = e^t), a deterministic greedy normal form for
one-dimensional subalgebras, and per-entry verification of proposed
optimal-system tables: closure, abelian/ideal flags, and conjugacy-invariant
fingerprints that expose coverage gaps mechanically.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from . import linalg, structure
from .adjoint import ad_exp
from .errors import LiepdeError, NormalFormError, UnsupportedSpectrumError


def _scaling_multiplier_apply(L, i, q, a):
    """Apply Ad(exp(t v_i)) with e^t = q (rational, positive), exactly.

    Only valid when the adjoint matrix of v_i is diagonal with integer
    exponents; components transform by integer powers of q.
    """
    exps = _diagonal_exponents(L, i)
    return tuple(x * q ** k for x, k in zip(a, exps))


def _per_algebra(fn):
    """Evaluate fn(L, *args) once per algebra and arguments, kept in L.memo."""
    @functools.wraps(fn)
    def cached(L, *args):
        key = (fn.__name__, *args)
        if key not in L.memo:
            L.memo[key] = fn(L, *args)
        return L.memo[key]
    return cached


@_per_algebra
def _diagonal_exponents(L, i):
    M = ad_exp(L, i)
    n = L.n
    exps = []
    for r in range(n):
        for c in range(n):
            if r != c and M[r][c].terms:
                raise ValueError(f"adjoint matrix of direction {i} is not diagonal")
        (key, coeff), = M[r][r].terms.items()
        _, ms, ks = key
        if any(ms) or coeff != 1:
            raise ValueError(f"adjoint matrix of direction {i} is not a pure scaling")
        k = ks[0]
        if k.denominator != 1:
            raise ValueError("non-integer scaling exponent")
        exps.append(int(k))
    return tuple(exps)


@_per_algebra
def _nilpotent_coefficients(L, i):
    """Rational M_0..M_d with ad_exp(L, i) = sum_m eps^m M_m, or None when
    some entry carries an exponential (ad v_i is not nilpotent)."""
    powers = []
    for r, row in enumerate(ad_exp(L, i)):
        for c, e in enumerate(row):
            for (_, (m,), (k,)), coeff in e.terms.items():
                if k:
                    return None
                while len(powers) <= m:
                    powers.append([[Fraction(0)] * L.n for _ in range(L.n)])
                powers[m][r][c] = coeff
    return tuple(tuple(tuple(row) for row in M) for M in powers)


@_per_algebra
def invariant_components(L):
    """Indices whose component is fixed by every adjoint action.

    Component j of a . Ad(exp(t v_i)) is a_j for every a and t exactly when
    row j of ad v_i is zero, so j is fixed by every Ad exactly when no
    bracket [v_i, v_c] has a j component.
    """
    touched = {k for terms in L.table.values() for k, _ in terms}
    return tuple(j for j in range(L.n) if j not in touched)


@_per_algebra
def classify_directions(L):
    """(nilpotent indices, diagonal-scaling indices) of the basis adjoints.

    A direction is nilpotent when no entry of its adjoint matrix has an
    exponential term, that is when every eigenvalue of its ad is 0.  A
    direction whose ad has an eigenvalue outside the rationals, such as a
    rotation, is neither, and is skipped like any other direction that is
    neither nilpotent nor a diagonal scaling.
    """
    nilpotent = []
    scaling = []
    for i in range(L.n):
        try:
            powers = _nilpotent_coefficients(L, i)
        except UnsupportedSpectrumError:
            continue
        if powers is not None:
            if len(powers) > 1:  # ad is not zero
                nilpotent.append(i)
            continue
        try:
            _diagonal_exponents(L, i)
        except ValueError:
            continue
        scaling.append(i)
    return tuple(nilpotent), tuple(scaling)


class OrbitStep:
    """One recorded adjoint action.

    kind 'translate': parameter is the exact epsilon of a nilpotent
    direction.  kind 'scale': parameter is the exact rational multiplier
    q = e^epsilon of a diagonal scaling direction.
    """

    def __init__(self, kind, index, parameter, before, after):
        self.kind = kind
        self.index = index
        self.parameter = parameter
        self.before = tuple(before)
        self.after = tuple(after)

    def replay(self, L, a):
        if self.kind == "translate":
            return _translate_apply(L, self.index, self.parameter, a)
        return _scaling_multiplier_apply(L, self.index, self.parameter, a)

    def describe(self, L):
        if self.kind == "translate":
            return f"Ad(exp({self.parameter} {L.labels[self.index]}))"
        return f"Ad(exp(t {L.labels[self.index]})) with e^t = {self.parameter}"


class NormalFormReport:
    """Input, normalized output, recorded steps, and the invariant fingerprint."""

    def __init__(self, input_vector, output_vector, steps, negated, fingerprint_indices):
        self.input = tuple(input_vector)
        self.output = tuple(output_vector)
        self.steps = tuple(steps)
        self.negated = negated
        self.fingerprint_indices = tuple(fingerprint_indices)

    def fingerprint(self):
        return tuple(self.input[j] for j in self.fingerprint_indices)

    def replay(self, L):
        v = self.input
        for step in self.steps:
            v = step.replay(L, v)
        if self.negated:
            v = tuple(-x for x in v)
        return v


def _power_free_multiplier(value, k, label):
    """Largest rational q > 0 with q^|k| dividing |value| exactly.

    Used to shrink a component a -> a / q^|k| toward its |k|-th-power-free
    part; q = |a|^(1/|k|) exactly when |a| is a perfect |k|-th power.
    `label` names the component in a NormalFormError.
    """
    k = abs(k)
    try:
        num = _int_power_part(abs(value.numerator), k)
        den = _int_power_part(value.denominator, k)
    except NormalFormError as exc:
        raise NormalFormError(f"component {label} = {value}: {exc}") from None
    return Fraction(num, den)


_TRIAL_BOUND = 2 ** 16
# Miller-Rabin with the first 13 prime bases decides primality exactly below
# this bound (Sorenson and Webster, Math. Comp. 86 (2017) 985-1003).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _int_power_part(n, k):
    """Largest integer q with q^k dividing n >= 1, exactly.

    Trial division stops at _TRIAL_BOUND = B.  The cofactor m left after it
    has no prime factor below B, so when m < B^(k+1) it has at most k prime
    factors and its part is m^(1/k) if that is an integer, else 1.  A prime
    m below _MR_LIMIT has part 1 as well.  A larger cofactor that is neither
    a perfect k-th power nor such a prime raises NormalFormError.
    """
    if k == 1:
        return n
    if n.bit_length() <= k:  # n < 2^k, so no q >= 2 fits
        return 1
    out = 1
    d = 2
    while d * d <= n and d < _TRIAL_BOUND:
        count = 0
        while n % d == 0:
            n //= d
            count += 1
        out *= d ** (count // k)
        d += 1
    if d * d > n:  # the cofactor is 1 or a prime
        return out
    root = _integer_root(n, k)
    if root ** k == n:
        return out * root
    # B^min(k+1, bits) > n exactly when B^(k+1) > n, as B^bits > n
    if n < _TRIAL_BOUND ** min(k + 1, n.bit_length()):
        return out
    if n < _MR_LIMIT and _is_prime(n):
        return out
    raise NormalFormError(
        f"cannot decide its power-free part for exponent {k}: the cofactor {n} "
        f"has no prime factor below {_TRIAL_BOUND} and is not a perfect power"
    )


def _is_prime(n):
    """Deterministic Miller-Rabin on the bases _MR_BASES; exact for n < _MR_LIMIT."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _integer_root(n, k):
    """floor(n^(1/k)) for n >= 1, by integer Newton iteration from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def normal_form_1d(L, a):
    """Deterministic greedy adjoint normalization of a nonzero vector.

    Nilpotent directions zero their own component whenever the linear
    elimination coefficient is nonzero; diagonal scalings then shrink each
    remaining free component to its power-free canonical magnitude (+-1
    whenever the magnitude is a perfect power); finally the sign is fixed
    when no adjoint-invariant component pins it.  Each kind of direction is
    swept in index order until a sweep changes nothing, so normalizing the
    output again changes nothing; NormalFormError is raised when that takes
    more than a fixed number of sweeps.
    """
    a = tuple(Fraction(x) for x in a)
    if all(x == 0 for x in a):
        raise ValueError("normal form of the zero vector is undefined")
    inv = invariant_components(L)
    nilpotent, scalings = classify_directions(L)
    steps = []
    # A step along one direction can refill or disturb the component
    # another direction settled, so each kind is swept to a fixpoint.
    current = _sweep(L, inv, nilpotent, _translate_step, a, steps)
    current = _sweep(L, inv, scalings, _scale_step, current, steps)
    negated = False
    if all(current[j] == 0 for j in inv):
        first = next((x for x in current if x != 0), Fraction(1))
        if first < 0:
            negated = True
            current = tuple(-x for x in current)
    return NormalFormReport(a, current, steps, negated, inv)


_SWEEP_BOUND = 50


def _sweep(L, inv, directions, step, current, steps):
    """Apply `step` along each direction in turn until a sweep changes nothing."""
    for _ in range(_SWEEP_BOUND):
        changed = False
        for i in directions:
            taken = step(L, inv, i, current)
            if taken is not None:
                steps.append(taken)
                current = taken.after
                changed = True
        if not changed:
            return current
    raise NormalFormError(
        f"adjoint normal form did not settle within {_SWEEP_BOUND} sweeps"
    )


def _translate_apply(L, i, epsilon, a):
    """a . Ad(exp(epsilon v_i)) = sum_m epsilon^m (a . M_m), for nilpotent v_i."""
    powers = _nilpotent_coefficients(L, i)
    if powers is None:
        raise ValueError(f"direction {i} is not nilpotent; it has no rational translate")
    out = [Fraction(0)] * L.n
    for m, M in enumerate(powers):
        scale = Fraction(epsilon) ** m
        for x, row in zip(a, M):
            if x:
                for c, y in enumerate(row):
                    if y:
                        out[c] += scale * x * y
    return tuple(out)


def _translate_step(L, inv, i, current):
    """The translation along nilpotent direction i that zeroes component i."""
    if i in inv or current[i] == 0:
        return None
    # component i of current . Ad(exp(eps v_i)) is sum_m eps^m (current . M_m)[i];
    # it must be affine in eps: a_i + c*eps
    coeffs = [sum((x * M[r][i] for r, x in enumerate(current) if x), Fraction(0))
              for M in _nilpotent_coefficients(L, i)]
    if len(coeffs) < 2 or coeffs[1] == 0 or any(coeffs[2:]):
        return None
    epsilon = -current[i] / coeffs[1]
    after = _translate_apply(L, i, epsilon, current)
    return OrbitStep("translate", i, epsilon, current, after)


def _scale_step(L, inv, i, current):
    """The scaling along direction i that makes its first eligible component
    power-free in magnitude, or None if it already is."""
    exps = _diagonal_exponents(L, i)
    target = next(
        (j for j in range(L.n) if j not in inv and current[j] != 0 and exps[j] != 0),
        None,
    )
    if target is None:
        return None
    k = exps[target]
    q = _power_free_multiplier(current[target], k, L.labels[target])
    if k > 0:
        q = Fraction(1) / q
    if q == 1:
        return None
    return OrbitStep("scale", i, q, current, _scaling_multiplier_apply(L, i, q, current))


class OptimalTableEntry:
    """Verification result for one proposed subalgebra."""

    def __init__(self, label, vectors, closed, offending, dim, abelian, ideal,
                 derived_intersection_dim, invariant_signature):
        self.label = label
        self.vectors = vectors
        self.closed = closed
        self.offending = offending
        self.dim = dim
        self.abelian = abelian
        self.ideal = ideal
        self.derived_intersection_dim = derived_intersection_dim
        self.invariant_signature = invariant_signature


def verify_optimal_table(L, entries):
    """Check every proposed subalgebra and compute conjugacy fingerprints.

    `entries` is a list of (label, vectors).  The fingerprint couples the
    dimension of the intersection with the derived algebra with the span of
    the adjoint-invariant components; entries of equal dimension and equal
    fingerprints are flagged as not mutually distinguishable.  A vector
    without exactly `L.n` coordinates raises `LiepdeError`.
    """
    for label, vectors in entries:
        for v in vectors:
            if len(v) != L.n:
                raise LiepdeError(
                    f"entry {label}: vector needs {L.n} coordinates, got {len(v)}"
                )
    derived = structure.product_space(L, L.whole(), L.whole())
    inv = invariant_components(L)
    results = []
    for label, vectors in entries:
        S = L.subspace(vectors)
        offending = structure.bracket_outside(L, S.basis, S.basis, S)
        inter = _intersection_dim(L, S, derived)
        sig = _invariant_signature(L, S, inv)
        results.append(
            OptimalTableEntry(
                label, [tuple(Fraction(x) for x in v) for v in vectors],
                offending is None, offending, S.dim,
                structure.is_abelian(L, S), structure.is_ideal(L, S),
                inter, sig,
            )
        )
    collisions = []
    by_key = {}
    for r in results:
        key = (r.dim, r.derived_intersection_dim, r.invariant_signature)
        by_key.setdefault(key, []).append(r.label)
    for key, labels in sorted(by_key.items()):
        if len(labels) > 1:
            collisions.append(labels)
    return results, collisions


def _intersection_dim(L, S, T):
    # dim(S cap T) = dim S + dim T - dim(S + T)
    union = L.subspace(list(S.basis) + list(T.basis))
    return S.dim + T.dim - union.dim


def _invariant_signature(L, S, inv):
    """RREF of the subalgebra's projection onto the invariant components."""
    rows = [tuple(v[j] for j in inv) for v in S.basis]
    reduced, _ = linalg.rref(rows)
    return tuple(reduced)


def coverage_gaps(L, representatives):
    """Basis directions the 1D representative list cannot reach.

    A representative can only be adjoint-conjugate (up to span scaling) to a
    vector with a proportional invariant-component signature.  The
    signature of v_k is the unit vector e_k when k is an invariant
    component and 0 otherwise, so a representative reaches v_k exactly when
    its support on the invariant components is {k}, or is empty when k is
    not invariant; the labels of the unreached basis vectors are reported.
    """
    inv = invariant_components(L)
    supports = {frozenset(j for j in inv if Fraction(vec[j])) for vec in representatives}
    return [label for k, label in enumerate(L.labels)
            if frozenset({k}.intersection(inv)) not in supports]
