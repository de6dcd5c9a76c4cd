"""Jet-space model of a PDE system: total derivatives and reduction.

A jet coordinate u^a_J is the symbol `jet` makes, the one place its name
is spelled; a jet space enumerates them for each dependent variable up to
a maximum order (with slack so prolongation and reduction can raise the
order).  A PDE system additionally carries a solved form: an
orientation of each equation as "leading coordinate = right-hand side",
which drives reduction modulo the system.  A total derivative is the
`expr.derivation` given by its values on symbols; `expr` applies the chain
rule to function applications.
"""

from __future__ import annotations

import itertools

from . import expr
from .errors import IllPosedSystemError, OrderLimitError
from .expr import DEPENDENT, INDEPENDENT, JET, Symbol

_REDUCTION_PASS_LIMIT = 500


def jet(dep, independent, multi):
    """The jet coordinate of the dependent symbol `dep` differentiated
    `multi[i]` times by `independent[i]`, named as `u_xy`; `multi` has at
    least one nonzero count."""
    suffix = "".join(ind.name * c for ind, c in zip(independent, multi))
    return Symbol(f"{dep.name}_{suffix}", JET, base=dep.name, multi=multi)


class JetSpace:
    """Independent/dependent variables plus derivative coordinates.

    `max_order` is the declared order m of the system; coordinates up to
    `max(m + 2, 2m - 1)` can be created on demand: prolongation needs a
    couple of extra orders, and one reduction step replaces a coordinate
    of order up to m, a lead differentiated up to m - 1 more times, by the
    same derivative of the lead's right-hand side, of order up to 2m - 1.
    """

    def __init__(self, independent, dependent, max_order):
        self.independent = tuple(independent)
        self.dependent = tuple(dependent)
        if not self.independent or not self.dependent:
            raise ValueError("need at least one independent and one dependent variable")
        for s in self.independent:
            if s.role != INDEPENDENT:
                raise ValueError(f"{s.name} is not an independent-variable symbol")
        for s in self.dependent:
            if s.role != DEPENDENT:
                raise ValueError(f"{s.name} is not a dependent-variable symbol")
        if max_order < 1:
            raise ValueError("maximum derivative order must be at least 1")
        self.max_order = max_order
        self.limit = max(max_order + 2, 2 * max_order - 1)
        self._dep_index = {s.name: i for i, s in enumerate(self.dependent)}
        self._coordinates = {}

    @property
    def p(self):
        return len(self.independent)

    @property
    def q(self):
        return len(self.dependent)

    def coordinate(self, dep, multi):
        """The jet symbol u^dep_multi; the dependent symbol itself at order 0.

        Each symbol is made once per space and kept."""
        if isinstance(dep, int):
            dep = self.dependent[dep]
        multi = tuple(multi)
        sym = self._coordinates.get((dep, multi))
        if sym is not None:
            return sym
        if len(multi) != self.p or any(c < 0 for c in multi):
            raise ValueError(f"bad multi-index {multi}")
        order = sum(multi)
        if order == 0:
            return dep
        if order > self.limit:
            raise OrderLimitError(
                f"derivative order {order} exceeds the configured limit {self.limit}"
            )
        sym = self._coordinates[dep, multi] = jet(dep, self.independent, multi)
        return sym

    def lift(self, sym, i):
        """The coordinate obtained by one more derivative in direction i."""
        if sym.role == DEPENDENT:
            multi = [0] * self.p
        elif sym.role == JET:
            multi = list(sym.multi)
        else:
            raise ValueError(f"{sym.name} is not a jet coordinate")
        multi[i] += 1
        dep = self.dependent[self._dep_index[sym.base]]
        return self.coordinate(dep, multi)

    def multi_indices(self, order):
        """All multi-indices of exactly the given order, graded-lex sorted."""
        out = []
        for combo in itertools.combinations_with_replacement(range(self.p), order):
            multi = [0] * self.p
            for i in combo:
                multi[i] += 1
            out.append(tuple(multi))
        return sorted(out, reverse=True)

    def coordinates(self, max_order, min_order=0):
        """Jet symbols of all dependents, orders min_order..max_order."""
        out = []
        for order in range(min_order, max_order + 1):
            for multi in self.multi_indices(order):
                for dep in self.dependent:
                    out.append(self.coordinate(dep, multi))
        return out

    def function_names(self):
        """Names of the solution functions, one per dependent variable:
        f, g, h, then F4, F5, ..."""
        return ("f", "g", "h", *(f"F{k + 1}" for k in range(3, self.q)))[:self.q]

    def jet_symbols_in(self, e):
        """Dependent and jet symbols occurring in an expression."""
        return {
            s for s in expr.free_symbols(e) if s.role in (DEPENDENT, JET)
        }


def total_derivative(e, i, js):
    """Total derivative D_i: d/dx_i plus the chain through all jet coordinates.

    One Leibniz walk over the terms of `e` (`expr.derivation`, which also
    applies the chain rule to function applications): x_i goes to 1, a
    dependent or jet coordinate s to its lift s_i, every other symbol to 0.
    """
    x = js.independent[i]

    def d(s):
        if s.role in (DEPENDENT, JET):
            return js.lift(s, i)
        return expr.ONE if s is x else expr.ZERO

    return expr.derivation(e, d)


def total_derivative_memo(memo, multi, js):
    """D_J e, computed as D_i(D_{J-e_i} e) for the first direction i of J.

    `memo` maps multi-indices to the total derivatives of one expression e
    found so far and holds e itself at the zero multi-index; every
    derivative on the way to D_J e is added to it.
    """
    multi = tuple(multi)
    if multi not in memo:
        i = next(k for k, c in enumerate(multi) if c)
        lower = list(multi)
        lower[i] -= 1
        memo[multi] = total_derivative(total_derivative_memo(memo, lower, js), i, js)
    return memo[multi]


class PDESystem:
    """A polynomial PDE system with an explicit solved form.

    `solved` is an ordered tuple of (leading jet coordinate, right-hand
    side); reduction replaces every occurrence of a leading coordinate or
    of any of its total-derivative consequences until none remain.
    `coordinates` holds the dependent and jet coordinates that occur in
    the equations and `order` the highest of their orders (0 without
    any), both found once here.
    """

    def __init__(self, space, equations, solved, parameters=()):
        self.space = space
        self.equations = tuple(expr.normalize(e) for e in equations)
        self.coordinates = frozenset().union(
            *(space.jet_symbols_in(eq) for eq in self.equations))
        self.order = max((s.order for s in self.coordinates), default=0)
        self.solved = tuple((lead, expr.normalize(rhs)) for lead, rhs in solved)
        self.parameters = tuple(parameters)
        self._derived_cache = {}
        for lead, rhs in self.solved:
            reduced = self.reduce(rhs)
            for s in self.space.jet_symbols_in(reduced):
                if self._matching_rule(s) is not None:
                    raise IllPosedSystemError(
                        f"solved form for {lead.name} still contains the "
                        f"leading coordinate {s.name} after reduction"
                    )
        for eq in self.equations:
            if not expr.is_zero(self.reduce(eq)):
                raise IllPosedSystemError(
                    f"equation {eq} does not reduce to zero under the solved form"
                )

    def _matching_rule(self, s):
        """(index, extra) of the first solved rule whose lead divides the
        coordinate s, extra being the multi-index of s over the lead's; None
        when no lead divides s."""
        if s.role not in (DEPENDENT, JET):
            return None
        smulti = s.multi if s.role == JET else (0,) * self.space.p
        for idx, (lead, _) in enumerate(self.solved):
            if lead.base != s.base:
                continue
            lmulti = lead.multi if lead.role == JET else (0,) * self.space.p
            extra = tuple(a - b for a, b in zip(smulti, lmulti))
            if min(extra) >= 0:
                return idx, extra
        return None

    def _derived_rhs(self, rule_idx, extra):
        memo = self._derived_cache.get(rule_idx)
        if memo is None:
            _, rhs = self.solved[rule_idx]
            memo = self._derived_cache[rule_idx] = {(0,) * self.space.p: rhs}
        return total_derivative_memo(memo, extra, self.space)

    def reduce(self, e):
        """Normal form of `e` modulo the system (no leading coordinates left).

        Each reducible coordinate has one replacement, the total derivative
        of its first matching rule, so one pass substitutes all of the
        coordinates present at once; passes repeat until none is left.
        """
        e = expr.normalize(e)
        for _ in range(_REDUCTION_PASS_LIMIT):
            rules = {}
            for s in self.space.jet_symbols_in(e):
                match = self._matching_rule(s)
                if match is not None:
                    rules[s] = self._derived_rhs(*match)
            if not rules:
                return e
            e = expr.substitute(e, rules)
        raise IllPosedSystemError("reduction did not terminate; rules may cycle")
