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
from .expr import DEPENDENT, JET, UNKNOWN, Symbol, ZERO
from .fields import VectorField
from .jet import total_derivative_memo


def characteristic(vf):
    """Per-dependent characteristic Q^a = phi_a - sum_i xi_i u^a_{x_i}."""
    js = vf.space
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
        """Derivation action on a jet-space expression, in one Leibniz walk
        (`expr.derivation`) as in `jet.total_derivative`: x_i goes to xi_i,
        a dependent or jet coordinate to its coefficient, every other symbol
        to 0."""
        xi = dict(zip(self.field.space.independent, self.field.xi))

        def d(s):
            if s.role not in (DEPENDENT, JET):
                return xi.get(s, ZERO)
            if s not in self.coefficients:
                raise ValueError(
                    f"prolongation order {self.order} too low for coordinate {s.name}"
                )
            return self.coefficients[s]

        return expr.derivation(e, d)


def prolong(vf, order, coordinates=None):
    """Prolong a vector field to the given jet order.

    By default every coordinate up to `order` gets its coefficient; with
    `coordinates`, only the dependent and jet symbols listed there (of
    order at most `order`) do.  D_J Q^a is found as D_i(D_{J-e_i} Q^a) and
    shared between the coefficients of one dependent variable.
    """
    if order < 0:
        raise ValueError("prolongation order must be nonnegative")
    js = vf.space
    if coordinates is None:
        coordinates = [
            js.coordinate(dep, multi)
            for dep in js.dependent
            for j in range(order + 1)
            for multi in js.multi_indices(j)
        ]
    q = characteristic(vf)
    memo = {dep.name: {(0,) * js.p: q[dep]} for dep in js.dependent}
    phi = dict(zip(js.dependent, vf.phi))
    coeffs = {}
    for sym in coordinates:
        if sym.order > order:
            continue
        if sym in phi:
            coeffs[sym] = phi[sym]
            continue
        value = total_derivative_memo(memo[sym.base], sym.multi, js)
        for i in range(js.p):
            value = value + vf.xi[i] * js.lift(sym, i)
        coeffs[sym] = value
    return ProlongedField(vf, order, coeffs)


def symmetry_residual(vf, system):
    """Residual of the infinitesimal symmetry condition, per equation.

    All residuals are identically zero exactly when vf generates a symmetry
    of the system modulo its solved form.  Only the coordinates that occur
    in the equations are prolonged.
    """
    js = system.space
    coordinates = set().union(*(js.jet_symbols_in(eq) for eq in system.equations))
    order = max((s.order for s in coordinates), default=0)
    pr = prolong(vf, order, coordinates)
    return [system.reduce(pr.apply(eq)) for eq in system.equations]


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
        return self.field_from_values(self.unknowns)

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


class DeterminingSystem:
    """Homogeneous linear system for the ansatz unknowns.

    Each equation is a mapping unknown -> coefficient expression over the
    system parameters; `rows` holds the same equations in the parameter
    field, as mappings column -> ParamFrac with the unknowns' ansatz order
    as columns.
    """

    def __init__(self, system, ansatz, equations, raw_count, rows):
        self.system = system
        self.ansatz = ansatz
        self.equations = equations
        self.raw_count = raw_count
        self.rows = rows

    @property
    def deduped_count(self):
        return len(self.equations)


def _split_residual(res, split, unknowns):
    """The linear forms of a residual, in sorted order of their monomials.

    One walk over the terms buckets each by its exponent vector over the
    split variables (`split` maps each to its place in canonical order);
    each bucket is then one linear form {unknown: coefficient}, unknowns in
    order of first appearance.  Terms are read in canonical order, so the
    forms, their order and the NonPolynomialError messages are those of
    `expr.collect` over the split variables and then over the unknowns.
    """
    buckets = {}
    for (powers, pexps), coeff in expr.monomials(res):
        exps = [0] * len(split)
        factors = []
        for atom, exp in powers:
            k = split.get(atom)
            if k is None:
                if not isinstance(atom, Symbol) and expr.free_symbols(atom) & split.keys():
                    raise NonPolynomialError(
                        f"{atom} depends non-polynomially on the collection variables"
                    )
                factors.append((atom, exp))
            elif exp < 0:
                raise NonPolynomialError(f"negative power of {atom.name} is not polynomial")
            else:
                exps[k] = exp
        buckets.setdefault(tuple(exps), []).append((factors, pexps, coeff))
    forms = []
    for exps in sorted(buckets):
        form = {}
        complaint = None
        for factors, pexps, coeff in buckets[exps]:
            unknown, degree = None, 0
            value = expr.Rational(coeff)
            for atom, exp in factors:
                if atom in unknowns:
                    if exp < 0:
                        raise NonPolynomialError(
                            f"negative power of {atom.name} is not polynomial"
                        )
                    unknown, degree = atom, degree + exp
                elif not isinstance(atom, Symbol) and expr.free_symbols(atom) & unknowns:
                    raise NonPolynomialError(
                        f"{atom} depends non-polynomially on the collection variables"
                    )
                else:
                    value = value * atom ** exp
            for sym, k in pexps:
                value = value * expr.ParamExp(sym, k)
            if degree == 1:
                form[unknown] = form.get(unknown, ZERO) + value
            elif complaint is None:
                complaint = (
                    "determining equation has a term without any unknown" if degree == 0
                    else "determining equation is not linear in the unknowns"
                )
        if complaint is not None:
            raise NonPolynomialError(complaint)
        forms.append(form)
    return forms


def _canonical_equation(form, column, params):
    """The row {column: ParamFrac} of a linear form and its hashable key.

    The key is the row scaled by its entry in the first column, so forms
    that differ by a factor in the parameter field share it.
    """
    row = {column[u]: linalg.expr_to_paramfrac(c, params) for u, c in form.items()}
    scale = row[min(row)].inverse()
    key = []
    for k in sorted(row):
        scaled = row[k] * scale
        key.append((k, scaled.num, scaled.den))
    return row, tuple(key)


def build_determining(system, degree):
    """Instantiate the polynomial ansatz and split the symmetry condition.

    Splits the symbolic residuals by monomials in the jet coordinates and
    base variables; each vanishing coefficient is one homogeneous linear
    equation over the unknowns.  An equation that is a parameter-field
    multiple of an earlier one is counted in `raw_count` and dropped.
    """
    if degree < 0:
        raise ValueError("ansatz degree must be nonnegative")
    js = system.space
    ansatz = Ansatz(js, degree)
    residuals = symmetry_residual(ansatz.generic_field(), system)
    split_vars = sorted(js.independent + tuple(js.coordinates(js.limit)),
                        key=lambda s: s._key)
    split = {s: k for k, s in enumerate(split_vars)}
    unknowns = set(ansatz.unknowns)
    column = {u: k for k, u in enumerate(ansatz.unknowns)}
    equations = []
    rows = []
    seen = set()
    raw = 0
    for res in residuals:
        for form in _split_residual(res, split, unknowns):
            raw += 1
            row, key = _canonical_equation(form, column, system.parameters)
            if key in seen:
                continue
            seen.add(key)
            equations.append(form)
            rows.append(row)
    return DeterminingSystem(system, ansatz, equations, raw, rows)


def solve_determining(ds):
    """Exact nullspace basis of the determining system, as vector fields.

    Every returned field is re-checked against the symmetry condition;
    the empty list means only the zero solution exists.
    """
    params = ds.system.parameters
    ncols = len(ds.ansatz.unknowns)
    rows = []
    for sparse in ds.rows:
        row = [linalg.PARAM_ZERO] * ncols
        for k, entry in sparse.items():
            row[k] = entry
        rows.append(row)
    basis = linalg.nullspace_param(rows, ncols)
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


def span_contains(fields, candidates, system):
    """Whether each candidate lies in the parameter-field span of `fields`.

    Returns one bool per candidate.  Each field is a sparse row over the
    parameter field, with one column per (coefficient slot, base monomial)
    that `fields` use; the rows are reduced once.  A candidate that needs
    another column lies outside the span; any other is reduced against them.
    """
    base = set(system.space.independent + system.space.dependent)
    params = system.parameters
    columns = {}

    def coordinates(vf):
        return {(f, exps): linalg.expr_to_paramfrac(c, params)
                for f, coeff in enumerate(vf.coefficients)
                for exps, c in expr.collect(coeff, base).terms.items()}

    rows = [{columns.setdefault(key, len(columns)): x for key, x in coordinates(vf).items()}
            for vf in fields]
    span = linalg.row_space_param(rows, len(columns))
    found = []
    for candidate in candidates:
        target = coordinates(candidate)
        found.append(all(key in columns for key in target)
                     and not span.reduce({columns[key]: x for key, x in target.items()}))
    return found
