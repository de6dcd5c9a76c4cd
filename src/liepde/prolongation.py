"""Prolongation of vector fields and the determining-equation machinery.

The prolongation coefficient of a field v on the jet coordinate u^a_J is

    phi^J_a = D_J Q^a + sum_i xi_i * u^a_{J,i}

with Q^a = phi_a - sum_i xi_i u^a_{x_i} the characteristic.  Applying the
prolonged field to each equation of a system and reducing modulo the solved
form gives the symmetry residuals.

The determining system is found PDEs first.  The field of unknown functions
xi_i = F_i(x, u), phi_a = F_{p+a}(x, u) is prolonged once per system, and
its residuals split by monomials in the independent variables and the jet
coordinates give linear PDEs in the F_k (`determining_pdes`).  The
polynomial ansatz is then instantiated in those terms by index arithmetic
alone (`build_determining`), which gives a homogeneous linear system over
the ansatz unknowns; an equation is keyed by its exponents over the base
variables, which the ansatz moves, and the rank of its exponents over
the jet coordinates, which it does not.  The system is solved exactly over
the parameter field, and its kernel vectors stay sparse on their way
into the symmetry fields (`solve_determining`).
"""

from __future__ import annotations

import itertools
import math
import operator

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
    in the equations are prolonged, up to their top order; the system
    finds both once (`PDESystem.coordinates` and `.order`).
    """
    pr = prolong(vf, system.order, system.coordinates)
    return [system.reduce(pr.apply(eq)) for eq in system.equations]


# ---------------------------------------------------------------------------
# Determining systems
# ---------------------------------------------------------------------------

class Ansatz:
    """Polynomial coefficient ansatz of bounded total degree.

    One unknown symbol per (coefficient function, base monomial) pair; the
    base monomials run over all products of the base variables with total
    degree at most `degree`, sorted.  Unknown f * len(monomials) + i is the
    coefficient of monomial i in coefficient function f.
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

    def field_from_values(self, values):
        """Assemble a vector field from a dict unknown index -> expression,
        the values of the unknowns it holds, as `linalg.clear_denominators`
        gives them; every other unknown is zero."""
        base = self.space.independent + self.space.dependent
        coeffs = [ZERO] * (self.space.p + self.space.q)
        for k, value in values.items():
            f, exps = self.slots[k]
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

    `rows` holds the equations over the parameter field, as mappings
    column -> nonzero element with the unknowns' ansatz order as columns:
    a rational cell is an int or a Fraction, any other a `linalg.ParamFrac`
    over 1.  `equations` shows the same equations as mappings unknown ->
    coefficient expression.
    """

    def __init__(self, system, ansatz, raw_count, rows):
        self.system = system
        self.ansatz = ansatz
        self.raw_count = raw_count
        self.rows = rows

    @property
    def deduped_count(self):
        return len(self.rows)

    @property
    def equations(self):
        """Each row as a mapping unknown -> coefficient expression, its
        unknowns in the order of their first appearance among the generic
        residual's terms in canonical order."""
        unknowns = self.ansatz.unknowns
        return [{unknowns[col]: _coefficient(row[col])
                 for col in _first_appearance(row, unknowns)}
                for row in self.rows]


def split_variables(space):
    """The variables that split the symmetry condition, in canonical order:
    the independent variables and the jet coordinates up to the space's
    limit, the dependent variables among them."""
    return sorted(space.independent + tuple(space.coordinates(space.limit)),
                  key=lambda s: s._key)


def determining_pdes(system):
    """The linear determining PDEs of `system`, one term list per equation.

    The field xi_i = F_i(x, u), phi_a = F_{p+a}(x, u) of unknown functions
    of the base variables goes through `symmetry_residual`, and each
    reduced residual is split by its monomials in `split_variables`.  A
    term (exps, k, multi, coefficient) stands for coefficient * m *
    D^multi F_k: `exps` is the exponent vector of the monomial m over the
    split variables (an exponent may be negative when the system divides by
    a variable), `multi` counts the derivatives by each base variable, in
    the order independent + dependent, and `coefficient` is an expression
    in the system parameters that sums the residual's terms with the same
    m and the same derivative.  Terms come in the order in which they first
    appear among the residual's terms in canonical order.  The residual is
    linear in the F_k; a term without one, or with a product of them,
    raises NonPolynomialError, and so does any other function application
    of a split variable.
    """
    js = system.space
    base = js.independent + js.dependent
    functions = [expr.FunctionApplication(f"F{k + 1}", base) for k in range(len(base))]
    slot = {f.name: k for k, f in enumerate(functions)}
    split = {s: k for k, s in enumerate(split_variables(js))}
    field = VectorField(js, functions[:js.p], functions[js.p:])
    pdes = []
    for res in symmetry_residual(field, system):
        terms = {}
        for (powers, pexps), coeff in expr.monomials(res):
            exps = [0] * len(split)
            unknown, degree = None, 0
            value = expr.constant(coeff)
            for atom, exp in powers:
                k = split.get(atom)
                if k is not None:
                    exps[k] = exp
                elif isinstance(atom, Symbol):
                    value = value * atom ** exp
                elif atom.name in slot and atom.args == base:
                    unknown, degree = atom, degree + exp
                elif expr.free_symbols(atom) & split.keys():
                    raise NonPolynomialError(
                        f"{atom} depends non-polynomially on the collection variables"
                    )
                else:
                    value = value * atom ** exp
            for sym, k in pexps:
                value = value * expr.ParamExp(sym, k)
            if degree != 1:
                raise NonPolynomialError(
                    "determining equation has a term without any unknown" if degree == 0
                    else "determining equation is not linear in the unknowns"
                )
            key = (tuple(exps), slot[unknown.name], unknown.derivatives)
            terms[key] = terms.get(key, ZERO) + value
        pdes.append([(*key, c) for key, c in terms.items()])
    return pdes


def _derivative_cells(monomials, multi, place, width):
    """What D^multi does to the ansatz monomials: (index, shift, factor) for
    each monomial n >= multi, D^multi n = factor * n', and shift the
    exponents of n' = n - multi over the base variables in split order
    (base variable j at `place[j]`, `width` of them)."""
    cells = []
    for i, n in enumerate(monomials):
        if all(a >= b for a, b in zip(n, multi)):
            shift = [0] * width
            factor = 1
            for pos, a, b in zip(place, n, multi):
                shift[pos] = a - b
                factor *= math.perm(a, b)
            cells.append((i, tuple(shift), factor))
    return cells


def _term_value(coefficient, params):
    """A term's coefficient as a number when it is rational, else as the
    parameter-field numerator it converts to."""
    c = expr.constant_value(coefficient)
    if c is None:
        return linalg.expr_to_paramfrac(coefficient, params).num
    return c


def _coefficient(cell):
    """The coefficient expression of a built cell, whose denominator is 1."""
    return cell.num if type(cell) is linalg.ParamFrac else expr.constant(cell)


def _generic_order(split_part, cell, unknown):
    """The canonical sort key of the first term that `unknown`, with the
    coefficient `cell`, gives the generic residual's equation whose split
    variables make the leading part `split_part` of the key."""
    tail = ((unknown._key, 1),)
    return min(split_part + tuple((a._key, e) for a, e in powers) + tail
               for (powers, _), _ in expr.monomials(_coefficient(cell)))


def _first_appearance(row, unknowns):
    """The columns of a row in the order in which their unknowns first
    appear among the generic residual's terms in canonical order."""
    return sorted(row, key=lambda col: _generic_order((), row[col], unknowns[col]))


def _negative_power(offending, split_vars, unknowns):
    """The NonPolynomialError for the first generic-residual term, in
    canonical order, with a negative power of a split variable."""
    _, exps = min(
        (_generic_order(tuple((s._key, e) for s, e in zip(split_vars, exps) if e),
                        cell, unknowns[col]), exps)
        for exps, row in offending
        for col, cell in row.items()
    )
    var = next(s for s, e in zip(split_vars, exps) if e < 0)
    return NonPolynomialError(f"negative power of {var.name} is not polynomial")


def _canonical_key(row, quotients):
    """The hashable key of a built row: the row scaled by its entry in the
    first column, so rows that differ by a factor in the parameter field
    share it.

    Two rational cells divide as numbers.  Every other cell of a built row
    is a `ParamFrac` over 1, so an entry's quotient by the first depends on
    their numerators alone; `quotients` keeps the ones found, keyed by
    those numerators and numbers.
    """
    columns = sorted(row)
    first = row[columns[0]]
    rational = type(first) is not linalg.ParamFrac
    inverse = None
    key = [(columns[0], 1)]
    for k in columns[1:]:
        x = row[k]
        if rational and type(x) is not linalg.ParamFrac:
            key.append((k, expr.quotient(x, first)))
            continue
        pair = (_numerator(x), _numerator(first))
        q = quotients.get(pair)
        if q is None:
            if inverse is None:
                inverse = linalg.ParamFrac.inverse(first)
            scaled = x * inverse
            q = quotients[pair] = (
                (scaled.num, scaled.den) if type(scaled) is linalg.ParamFrac else scaled)
        key.append((k, q))
    return tuple(key)


def _numerator(cell):
    """A built cell as a hashable value: its number or its numerator."""
    return cell.num if type(cell) is linalg.ParamFrac else cell


def build_determining(system, degree):
    """Instantiate the polynomial ansatz in the determining PDEs.

    A term c * m * D^J F_k of `determining_pdes` and an ansatz monomial
    n >= J of F_k give the unknown of (k, n) the value c * n!/(n - J)! in
    the equation of the split monomial m * base^(n - J).  Per PDE, the
    equations come in sorted order of their exponent vectors, as splitting
    the symmetry residual of the generic polynomial field gives them, and
    each holds its unknowns in the order of their first appearance there;
    a coefficient that cancels drops out, and so does an equation that
    becomes empty.  An equation with a negative power of a split variable
    raises NonPolynomialError.  An equation that is a parameter-field
    multiple of an earlier one is counted in `raw_count` and dropped.
    A rational cell is the int or Fraction its terms add up to.

    The base variables lead the split order (by role), and the ansatz moves
    only their exponents.  So each equation is keyed by its exponents over
    the base variables and the rank, among the PDE's terms, of its
    exponents over the jet coordinates, which a term keeps in every cell;
    sorting the keys is sorting the exponent vectors.  Each term's value
    is multiplied by each distinct factor n!/(n - J)! once, and the cells
    with that factor share the product.
    """
    if degree < 0:
        raise ValueError("ansatz degree must be nonnegative")
    js = system.space
    ansatz = Ansatz(js, degree)
    pdes = determining_pdes(system)
    split_vars = split_variables(js)
    width = js.p + js.q
    place = [split_vars.index(s) for s in js.independent + js.dependent]
    size = len(ansatz.monomials)
    derivatives = {}
    quotients = {}
    rows = []
    seen = set()
    raw = 0
    for terms in pdes:
        parts = sorted({exps[width:] for exps, *_ in terms})
        rank = {part: r for r, part in enumerate(parts)}
        buckets = {}
        for exps, slot, multi, coefficient in terms:
            value = _term_value(coefficient, system.parameters)
            head = exps[:width]
            jet = rank[exps[width:]]
            cells = derivatives.get(multi)
            if cells is None:
                cells = derivatives[multi] = _derivative_cells(
                    ansatz.monomials, multi, place, width)
            products = {1: value}
            offset = slot * size
            for i, shift, factor in cells:
                key = (tuple(map(operator.add, head, shift)), jet)
                bucket = buckets.get(key)
                if bucket is None:
                    bucket = buckets[key] = {}
                term = products.get(factor)
                if term is None:
                    term = products[factor] = value * factor
                col = offset + i
                old = bucket.get(col)
                bucket[col] = term if old is None else old + term
        found = []
        for key in sorted(buckets):
            row = {}
            for col, value in buckets[key].items():
                cell = linalg.element(value)
                if cell:
                    row[col] = cell
            if row:
                found.append((key, row))
        offending = [(head + parts[jet], row) for (head, jet), row in found
                     if min(head) < 0 or min(parts[jet], default=0) < 0]
        if offending:
            raise _negative_power(offending, split_vars, ansatz.unknowns)
        for _, row in found:
            raw += 1
            key = _canonical_key(row, quotients)
            if key in seen:
                continue
            seen.add(key)
            rows.append(row)
    return DeterminingSystem(system, ansatz, raw, rows)


def solve_determining(ds):
    """Exact nullspace basis of the determining system, as vector fields.

    The kernel vectors of `linalg.nullspace_param` are sparse, one per free
    column; each is cleared of denominators and assembled into a field
    from its nonzero entries alone.  Every returned field is re-checked
    against the symmetry condition; the empty list means only the zero
    solution exists.
    """
    params = ds.system.parameters
    basis = linalg.nullspace_param(ds.rows, len(ds.ansatz.unknowns))
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
                for exps, c in expr.collect(coeff, base).items()}

    rows = [{columns.setdefault(key, len(columns)): x for key, x in coordinates(vf).items()}
            for vf in fields]
    span = linalg.Echelon(rows, len(columns))
    found = []
    for candidate in candidates:
        target = coordinates(candidate)
        found.append(all(key in columns for key in target)
                     and not span.reduce({columns[key]: x for key, x in target.items()}))
    return found
