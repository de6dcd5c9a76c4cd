"""Monomial invariants from the weight lattice of translation/scaling generators.

A scaling generator assigns a rational weight to every base coordinate; jet
coordinates inherit weight(u) - sum of the weights of the differentiation
directions.  Monomials with zero weight under every scaling generator and
free of every translated coordinate are invariants; they form the integer
kernel lattice of the weight matrix.  Similarity substitutions for single
translation/scaling generators come from the same data.
"""

from __future__ import annotations

from . import expr, linalg
from .errors import InternalCheckError, UnsupportedGeneratorError
from .expr import GROUP, JET, ParamExp, Power, Symbol
from .prolongation import prolong

TRANSLATION = "translation"
SCALING = "scaling"


def classify_generator(vf):
    """('translation', translated coords) or ('scaling', weight per coord)."""
    coords = vf.coordinates
    translated = []
    weights = {}
    kind = None
    for sym, coeff in zip(coords, vf.coefficients):
        if expr.is_zero(coeff):
            continue
        const = expr.constant_value(coeff)
        if const is not None:
            if kind == SCALING:
                raise UnsupportedGeneratorError(
                    f"generator mixes translation and scaling at {sym.name}"
                )
            kind = TRANSLATION
            translated.append(sym)
            continue
        ratio = expr.constant_value(coeff / sym)
        if ratio is not None:
            if kind == TRANSLATION:
                raise UnsupportedGeneratorError(
                    f"generator mixes translation and scaling at {sym.name}"
                )
            kind = SCALING
            weights[sym] = ratio
            continue
        raise UnsupportedGeneratorError(
            f"coefficient {coeff} of d/d{sym.name} is neither constant nor "
            f"proportional to {sym.name}"
        )
    if kind is None:
        raise UnsupportedGeneratorError("zero generator has no invariant theory")
    if kind == TRANSLATION:
        return TRANSLATION, tuple(translated)
    return SCALING, weights


class WeightSystem:
    """Weights of all coordinates (base plus jets) under scaling generators.

    `masked` marks coordinates translated by some generator; invariant
    monomials may not involve them.
    """

    def __init__(self, coordinates, weight_rows, masked):
        self.coordinates = tuple(coordinates)
        self.weight_rows = tuple(tuple(r) for r in weight_rows)
        self.masked = frozenset(masked)

    def weight(self, generator_index, sym):
        return self.weight_rows[generator_index][self.coordinates.index(sym)]

    def free_coordinates(self):
        return tuple(c for c in self.coordinates if c not in self.masked)


def weight_system(generators, js, order):
    """Weight data for a family of translation/scaling generators.

    Jet weights are read off the prolonged coefficients and cross-checked
    against the additivity rule weight(u_J) = weight(u) - sum_J weight(x_i).
    """
    coordinates = list(js.independent) + list(js.dependent) + [
        s for s in js.coordinates(order, min_order=1)
    ]
    masked = set()
    rows = []
    for vf in generators:
        kind, data = classify_generator(vf)
        if kind == TRANSLATION:
            masked.update(data)
            continue
        pr = prolong(vf, order)
        row = []
        base_weights = {}
        for sym in js.independent + js.dependent:
            base_weights[sym] = data.get(sym, 0)
        for sym in coordinates:
            if sym.role == JET:
                dep = next(d for d in js.dependent if d.name == sym.base)
                w = base_weights[dep] - sum(
                    c * base_weights[x] for c, x in zip(sym.multi, js.independent)
                )
                coeff = pr.coefficient(sym)
                if not expr.equal(coeff, expr.Rational(w) * sym):
                    raise InternalCheckError(
                        f"prolonged coefficient of {sym.name} disagrees with the "
                        "additive weight rule"
                    )
            else:
                w = base_weights[sym]
            row.append(w)
        rows.append(row)
    return WeightSystem(coordinates, rows, masked)


class MonomialInvariant:
    """Integer exponent vector over the non-masked coordinates."""

    def __init__(self, coordinates, exponents):
        self.coordinates = tuple(coordinates)
        self.exponents = tuple(exponents)

    def expression(self):
        e = expr.ONE
        for sym, k in zip(self.coordinates, self.exponents):
            if k:
                e = e * Power(sym, k)
        return e

    def __str__(self):
        return expr.render(self.expression())

    __repr__ = __str__


def monomial_invariants(ws):
    """Lattice basis of zero-weight monomials in the non-masked coordinates."""
    free = ws.free_coordinates()
    idx = [ws.coordinates.index(c) for c in free]
    rows = [[row[i] for i in idx] for row in ws.weight_rows]
    if not rows:
        kernel = [
            tuple(1 if j == i else 0 for j in range(len(free)))
            for i in range(len(free))
        ]
    else:
        kernel = linalg.integer_kernel(rows)
    return [MonomialInvariant(free, vec) for vec in kernel]


def exponent_vector(e, coordinates):
    """Exponent vector of a monomial expression, or None if not a monomial."""
    terms = expr.monomials(e)
    if len(terms) != 1:
        return None
    ((powers, pexps), coeff), = terms
    if pexps or coeff != 1:
        return None
    exps = [0] * len(coordinates)
    index = {c: i for i, c in enumerate(coordinates)}
    for atom, k in powers:
        if atom not in index:
            return None
        exps[index[atom]] = k
    return tuple(exps)


def in_invariant_lattice(ws, invariants, exprs):
    """Per expression, whether it is a monomial in the computed lattice."""
    free = ws.free_coordinates()
    vectors = [exponent_vector(e, free) for e in exprs]
    zero = (0,) * len(free)
    members = linalg.in_integer_lattice([inv.exponents for inv in invariants],
                                        [zero if v is None else v for v in vectors])
    return [v is not None and m for v, m in zip(vectors, members)]


def verify_invariants(exprs, generators):
    """Per expression, whether every prolonged generator annihilates it.

    Each generator is prolonged once, on the dependent and jet coordinates
    of all the expressions and at the largest order among them.
    """
    exprs = [expr.normalize(e) for e in exprs]
    verified = [True] * len(exprs)
    if not generators:
        return verified
    space = generators[0].space
    coordinates = set().union(*(space.jet_symbols_in(e) for e in exprs))
    order = max((s.order for s in coordinates), default=0)
    for g in generators:
        if not any(verified):
            break
        pr = prolong(g, order, coordinates)
        for k, e in enumerate(exprs):
            if verified[k] and not expr.is_zero(pr.apply(e)):
                verified[k] = False
    return verified


def verify_invariant(e, generators):
    """True iff every prolonged generator annihilates the expression."""
    return verify_invariants([e], generators)[0]


class SimilarityForm:
    """Change of coordinates induced by a single translation/scaling generator.

    For a scaling generator the scaled independent variable becomes e^s and
    every dependent variable picks up the matching power of e^s in front of
    a function of the invariant coordinate r; for a translation along an
    independent variable the solutions depend on the other coordinate only.
    """

    def __init__(self, kind, substitutions, note=""):
        self.kind = kind
        self.substitutions = substitutions  # list of (symbol, expression or None)
        self.note = note


def similarity_form(vf):
    """Similarity substitution for one translation or scaling generator; the
    functions are named by `JetSpace.function_names`."""
    js = vf.space
    kind, data = classify_generator(vf)
    r = Symbol("r", expr.INDEPENDENT)
    s = Symbol("s", GROUP)
    names = js.function_names()
    if kind == TRANSLATION:
        translated = set(data)
        dep_translated = [c for c in translated if c.role == expr.DEPENDENT]
        if dep_translated:
            names_text = ", ".join(c.name for c in dep_translated)
            return SimilarityForm(
                TRANSLATION, [],
                note=f"translation on {names_text} is the similarity",
            )
        if len(translated) != 1 or js.p != 2:
            raise UnsupportedGeneratorError(
                "similarity form needs exactly one translated independent variable"
            )
        moving = next(iter(translated))
        fixed = next(z for z in js.independent if z != moving)
        subs = [(moving, s), (fixed, r)]
        for dep, name in zip(js.dependent, names):
            subs.append((dep, expr.FunctionApplication(name, (r,))))
        return SimilarityForm(TRANSLATION, subs)
    weights = data
    scaled_ind = [z for z in js.independent if weights.get(z)]
    if len(scaled_ind) != 1 or js.p != 2:
        raise UnsupportedGeneratorError(
            "similarity form needs exactly one scaled independent variable"
        )
    moving = scaled_ind[0]
    fixed = next(z for z in js.independent if z != moving)
    w0 = weights[moving]
    subs = [(moving, ParamExp(s, 1)), (fixed, r)]
    for dep, name in zip(js.dependent, names):
        k = expr.quotient(weights.get(dep, 0), w0)
        f = expr.FunctionApplication(name, (r,))
        subs.append((dep, ParamExp(s, k) * f))
    return SimilarityForm(SCALING, subs)
