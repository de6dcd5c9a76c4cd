"""Prolongation of vector fields and the determining-equation machinery.

The prolongation coefficient of a field v on the jet coordinate u^a_J is

    phi^J_a = D_J Q^a + sum_i xi_i * u^a_{J,i}

with Q^a = phi_a - sum_i xi_i u^a_{x_i} the characteristic.  Applying the
prolonged field to each equation of a system and reducing modulo the solved
form gives the symmetry residuals; splitting the residuals of a polynomial
coefficient ansatz by monomials gives a homogeneous linear system over the
ansatz unknowns, solved exactly over the parameter field.
"""

from __future__ import annotations

import itertools

from . import expr, linalg
from .errors import InternalCheckError, NonPolynomialError
from .expr import JET, UNKNOWN, Symbol, ZERO
from .fields import VectorField
from .jet import total_derivative_multi


def characteristic(vf, js=None):
    """Per-dependent characteristic Q^a = phi_a - sum_i xi_i u^a_{x_i}."""
    js = js or vf.space
    out = {}
    for alpha, dep in enumerate(js.dependent):
        q = vf.phi[alpha]
        for i in range(js.p):
            first = js.coordinate(dep, tuple(1 if k == i else 0 for k in range(js.p)))
            q = q - vf.xi[i] * first
        out[dep] = q
    return out


class ProlongedField:
    """A vector field together with its jet-coordinate coefficients."""

    def __init__(self, vf, order, coefficients):
        self.field = vf
        self.order = order
        self.coefficients = coefficients  # jet or dependent symbol -> expression

    def coefficient(self, sym):
        return self.coefficients.get(sym, ZERO)

    def apply(self, e):
        """Derivation action on a jet-space expression."""
        js = self.field.space
        total = ZERO
        for i, x in enumerate(js.independent):
            partial = expr.diff(e, x)
            if not expr.is_zero(partial):
                total = total + self.field.xi[i] * partial
        for s in sorted(js.jet_symbols_in(e), key=lambda s: s._key):
            partial = expr.diff(e, s)
            if expr.is_zero(partial):
                continue
            if s not in self.coefficients:
                raise ValueError(
                    f"prolongation order {self.order} too low for coordinate {s.name}"
                )
            total = total + self.coefficients[s] * partial
        return total


def prolong(vf, order, js=None):
    """Prolong a vector field to the given jet order."""
    if order < 0:
        raise ValueError("prolongation order must be nonnegative")
    js = js or vf.space
    q = characteristic(vf, js)
    coeffs = {}
    for alpha, dep in enumerate(js.dependent):
        coeffs[dep] = vf.phi[alpha]
        for j in range(1, order + 1):
            for multi in js.multi_indices(j):
                value = total_derivative_multi(q[dep], multi, js)
                for i in range(js.p):
                    lifted = list(multi)
                    lifted[i] += 1
                    value = value + vf.xi[i] * js.coordinate(dep, lifted)
                coeffs[js.coordinate(dep, multi)] = value
    return ProlongedField(vf, order, coeffs)


def equation_order(e, js):
    return max((s.order for s in js.jet_symbols_in(e) if s.role == JET), default=0)


def symmetry_residual(vf, system):
    """Residual of the infinitesimal symmetry condition, per equation.

    All residuals are identically zero exactly when vf generates a symmetry
    of the system modulo its solved form.
    """
    js = system.space
    order = max(equation_order(eq, js) for eq in system.equations)
    pr = prolong(vf, order, js)
    residuals = []
    for eq in system.equations:
        residuals.append(system.reduce(pr.apply(eq)))
    return residuals


# ---------------------------------------------------------------------------
# Determining systems
# ---------------------------------------------------------------------------

class Ansatz:
    """Polynomial coefficient ansatz of bounded total degree.

    One unknown symbol per (coefficient function, base monomial) pair; the
    base monomials run over all products of the base variables with total
    degree at most `degree`.
    """

    def __init__(self, space, degree):
        self.space = space
        self.degree = degree
        base = space.independent + space.dependent
        self.monomials = []
        for total in range(degree + 1):
            for combo in itertools.combinations_with_replacement(
                range(len(base)), total
            ):
                exps = [0] * len(base)
                for i in combo:
                    exps[i] += 1
                self.monomials.append(tuple(exps))
        self.monomials.sort()
        self.unknowns = []
        self.slots = []  # (function index, monomial exponents)
        nfuncs = space.p + space.q
        for f in range(nfuncs):
            for exps in self.monomials:
                sym = Symbol(f"c{len(self.unknowns) + 1}", UNKNOWN)
                self.unknowns.append(sym)
                self.slots.append((f, exps))

    def generic_field(self):
        base = self.space.independent + self.space.dependent
        coeffs = [ZERO] * (self.space.p + self.space.q)
        for sym, (f, exps) in zip(self.unknowns, self.slots):
            mono = expr.ONE
            for var, e in zip(base, exps):
                if e:
                    mono = mono * expr.Power(var, e)
            coeffs[f] = coeffs[f] + sym * mono
        return VectorField(
            self.space,
            tuple(coeffs[: self.space.p]),
            tuple(coeffs[self.space.p:]),
        )

    def field_from_values(self, values):
        """Assemble a vector field from one expression per unknown."""
        base = self.space.independent + self.space.dependent
        coeffs = [ZERO] * (self.space.p + self.space.q)
        for value, (f, exps) in zip(values, self.slots):
            if expr.is_zero(value):
                continue
            mono = expr.ONE
            for var, e in zip(base, exps):
                if e:
                    mono = mono * expr.Power(var, e)
            coeffs[f] = coeffs[f] + value * mono
        return VectorField(
            self.space,
            tuple(coeffs[: self.space.p]),
            tuple(coeffs[self.space.p:]),
        )

    def coordinates_of(self, vf):
        """Coordinates of a polynomial field in the ansatz unknown basis.

        Returns None if some coefficient is not representable at this degree.
        """
        values = {}
        base = self.space.independent + self.space.dependent
        for f, coeff in enumerate(vf.coefficients):
            try:
                mm = expr.collect(coeff, set(base))
            except NonPolynomialError:
                return None
            for exps, c in mm.terms.items():
                if exps not in self.monomials:
                    return None
                values[(f, exps)] = c
        return [values.get(slot, ZERO) for slot in self.slots]


class DeterminingSystem:
    """Homogeneous linear system for the ansatz unknowns.

    Each equation is a mapping unknown -> coefficient expression over the
    system parameters.
    """

    def __init__(self, system, ansatz, equations, raw_count):
        self.system = system
        self.ansatz = ansatz
        self.equations = equations
        self.raw_count = raw_count

    @property
    def deduped_count(self):
        return len(self.equations)


def _linear_form(coefficient, unknowns):
    """Split a residual coefficient into a linear form over the unknowns."""
    mm = expr.collect(coefficient, set(unknowns))
    form = {}
    variables = mm.variables
    for exps, c in mm.terms.items():
        degree = sum(exps)
        if degree == 0:
            raise NonPolynomialError(
                "determining equation has a term without any unknown"
            )
        if degree > 1:
            raise NonPolynomialError(
                "determining equation is not linear in the unknowns"
            )
        idx = exps.index(1)
        form[variables[idx]] = form.get(variables[idx], ZERO) + c
    return {k: v for k, v in form.items() if not expr.is_zero(v)}


def _canonical_equation(form, unknowns, params):
    """Hashable canonical key of a linear form, scaled by its first coefficient."""
    entries = []
    first = None
    for u in unknowns:
        if u in form:
            fr = linalg.expr_to_paramfrac(form[u], params)
            if first is None:
                first = fr
            entries.append((u.name, fr / first))
    return tuple((name, fr.num, fr.den) for name, fr in entries)


def build_determining(system, degree):
    """Instantiate the polynomial ansatz and split the symmetry condition.

    Collects the symbolic residuals over every monomial in the jet
    coordinates and base variables; each vanishing coefficient is one
    homogeneous linear equation over the unknowns.
    """
    if degree < 0:
        raise ValueError("ansatz degree must be nonnegative")
    js = system.space
    ansatz = Ansatz(js, degree)
    generic = ansatz.generic_field()
    residuals = symmetry_residual(generic, system)
    max_order = max(equation_order(eq, js) for eq in system.equations) + 1
    split_vars = set(js.independent) | set(js.dependent) | {
        s
        for s in js.coordinates(js.limit, min_order=1)
    }
    equations = []
    seen = set()
    raw = 0
    for res in residuals:
        mm = expr.collect(res, split_vars)
        for exps in sorted(mm.terms):
            form = _linear_form(mm.terms[exps], ansatz.unknowns)
            if not form:
                continue
            raw += 1
            key = _canonical_equation(form, ansatz.unknowns, system.parameters)
            if key in seen:
                continue
            seen.add(key)
            equations.append(form)
    return DeterminingSystem(system, ansatz, equations, raw)


def solve_determining(ds):
    """Exact nullspace basis of the determining system, as vector fields.

    Every returned field is re-checked against the symmetry condition;
    the empty list means only the zero solution exists.
    """
    params = ds.system.parameters
    unknowns = ds.ansatz.unknowns
    column = {u: k for k, u in enumerate(unknowns)}
    zero = linalg.ParamFrac.constant(0)
    rows = []
    for form in ds.equations:
        row = [zero] * len(unknowns)
        for u, coefficient in form.items():
            row[column[u]] = linalg.expr_to_paramfrac(coefficient, params)
        rows.append(row)
    basis = linalg.nullspace_param(rows, len(unknowns))
    fields = []
    for vec in basis:
        values = linalg.clear_denominators(vec, params)
        vf = ds.ansatz.field_from_values(values)
        residuals = symmetry_residual(vf, ds.system)
        if not all(expr.is_zero(r) for r in residuals):
            raise InternalCheckError(
                "internal error: solved determining system produced a field "
                "with nonzero symmetry residual"
            )
        fields.append(vf)
    return fields


def span_contains(fields, candidate, system):
    """Whether `candidate` lies in the parameter-field span of `fields`."""
    degree = 0
    base = system.space.independent + system.space.dependent
    for vf in list(fields) + [candidate]:
        for coeff in vf.coefficients:
            mm = expr.collect(coeff, set(base))
            for exps in mm.terms:
                degree = max(degree, sum(exps))
    ansatz = Ansatz(system.space, degree)
    params = system.parameters
    cols = []
    for vf in fields:
        coords = ansatz.coordinates_of(vf)
        if coords is None:
            raise ValueError("field is not polynomial at the induced degree")
        cols.append([linalg.expr_to_paramfrac(c, params) for c in coords])
    target = ansatz.coordinates_of(candidate)
    if target is None:
        return False
    rhs = [linalg.expr_to_paramfrac(c, params) for c in target]
    if not cols:
        return all(f.is_zero() for f in rhs)
    rows = [[col[i] for col in cols] for i in range(len(rhs))]
    return linalg.solve_param(rows, rhs) is not None
