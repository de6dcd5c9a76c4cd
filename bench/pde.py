"""Independent symmetry test for the benchmark's PDE systems, with sympy.

Each system is written out here from its textbook form, not read back from
liepde.  A field X = xi^i d/dx^i + phi^a d/du^a is a symmetry when

    pr X (Delta) = sum_J dDelta/du^a_J * D_J Q^a + xi^i D_i Delta

vanishes on solutions, where Q^a = phi^a - xi^i u^a_i is the
characteristic (Olver, Applications of Lie Groups to Differential
Equations, Thm 2.36).  "On solutions" means after rewriting every
derivative of a solved-for (lead) coordinate by the differentiated right
side, until none is left.
"""

from __future__ import annotations

from fractions import Fraction

import sympy as sp


class System:
    def __init__(self, independent, dependent, parameters, equations, leads):
        self.x = [sp.Symbol(n) for n in independent]
        self.params = [sp.Symbol(n, positive=True) for n in parameters]
        self.base = [sp.Symbol(n) for n in dependent]
        self.funcs = [sp.Function(n)(*self.x) for n in dependent]
        ns = {n: f for n, f in zip(dependent, self.funcs)}
        ns.update({s.name: s for s in self.x + self.params})
        ns["d"] = lambda f, *v: sp.Derivative(f, *v)
        self.equations = [sp.sympify(e, locals=ns) for e in equations]
        self.leads = []
        for lead, rhs in leads:
            target = sp.sympify(lead, locals=ns)
            dep, counts = self._jet(target)
            self.leads.append((dep, counts, sp.sympify(rhs, locals=ns)))
        self.names = {s.name: s for s in self.x + self.params + self.base}

    def _jet(self, atom):
        """(dependent index, derivative counts per independent) of a jet atom."""
        if isinstance(atom, sp.Derivative):
            counts = [0] * len(self.x)
            for var, k in atom.variable_count:
                counts[self.x.index(var)] += k
            return self.funcs.index(atom.expr), tuple(counts)
        return self.funcs.index(atom), (0,) * len(self.x)

    def parse(self, text):
        """A coefficient as liepde renders it ('2*x*u', 'rho^-1*y')."""
        return sp.sympify(text.replace("^", "**"), locals=self.names)

    def reduce(self, e):
        for _ in range(100):
            rules = {}
            for atom in e.atoms(sp.Derivative):
                dep, counts = self._jet(atom)
                for ldep, lcounts, rhs in self.leads:
                    if ldep == dep and all(a >= b for a, b in zip(counts, lcounts)):
                        rest = [v for v, a, b in zip(self.x, counts, lcounts) for _ in range(a - b)]
                        rules[atom] = rhs.diff(*rest) if rest else rhs
                        break
            if not rules:
                return e
            e = sp.expand(e.xreplace(rules))
        raise RuntimeError("reduction modulo the system did not terminate")

    def is_symmetry(self, xi, phi):
        """xi, phi: coefficient strings or sympy expressions in the base variables."""
        to_func = dict(zip(self.base, self.funcs))
        xi = [self._coeff(c).xreplace(to_func) for c in xi]
        phi = [self._coeff(c).xreplace(to_func) for c in phi]
        Q = [
            phi[a] - sum(xi[i] * f.diff(x) for i, x in enumerate(self.x))
            for a, f in enumerate(self.funcs)
        ]
        for eq in self.equations:
            atoms = sorted(eq.atoms(sp.Derivative), key=sp.default_sort_key)
            atoms += [f for f in self.funcs if eq.has(f)]
            dummies = {a: sp.Dummy() for a in atoms}
            back = {d: a for a, d in dummies.items()}
            flat = eq.xreplace(dummies)
            total = sum(xi[i] * eq.diff(x) for i, x in enumerate(self.x))
            for atom, dummy in dummies.items():
                partial = flat.diff(dummy)
                if partial == 0:
                    continue
                dep, counts = self._jet(atom)
                rest = [v for v, k in zip(self.x, counts) for _ in range(k)]
                total += partial.xreplace(back) * (Q[dep].diff(*rest) if rest else Q[dep])
            residual = self.reduce(sp.expand(total))
            if residual != 0 and sp.simplify(residual) != 0:
                return False
        return True

    def _coeff(self, c):
        return self.parse(c) if isinstance(c, str) else sp.sympify(c)

    def field_vector(self, xi, phi, sample):
        """Monomial coefficients of a polynomial field, parameters set to `sample`."""
        out = {}
        for slot, c in enumerate(list(xi) + list(phi)):
            e = self._coeff(c).subs(sample)
            if e == 0:
                continue
            for monom, coeff in sp.Poly(e, *self.x, *self.base).terms():
                value = sp.Rational(coeff)
                out[(slot, monom)] = Fraction(int(value.p), int(value.q))
        return out


def boundary_layer():
    """The turbulent boundary-layer system of the shipped fixture."""
    return System(
        ["x", "y"], ["u", "v", "p"], ["rho", "nu"],
        ["d(u,x) + d(v,y)",
         "u*d(u,x) + v*d(u,y) + d(p,x)/rho - nu*d(u,y,y)",
         "d(p,y)"],
        [("d(v,y)", "-d(u,x)"),
         ("d(u,y,y)", "(u*d(u,x) + v*d(u,y) + d(p,x)/rho)/nu"),
         ("d(p,y)", "0")],
    )


def burgers(a):
    """u_t + a u u_x = nu u_xx, solved for u_t."""
    return System(
        ["t", "x"], ["u"], ["nu"],
        [f"d(u,t) + ({a})*u*d(u,x) - nu*d(u,x,x)"],
        [("d(u,t)", f"nu*d(u,x,x) - ({a})*u*d(u,x)")],
    )


def kdv(a, b):
    """u_t + a u u_x + b u_xxx = 0, solved for u_xxx."""
    return System(
        ["t", "x"], ["u"], [],
        [f"d(u,t) + ({a})*u*d(u,x) + ({b})*d(u,x,x,x)"],
        [("d(u,x,x,x)", f"-(d(u,t) + ({a})*u*d(u,x))/({b})")],
    )


def boundary_layer_known(degree):
    """Point symmetries of the boundary-layer system with polynomial degree <= degree.

    Translations in x, y and p, the two scalings, and the shift family
    f(x) d/dy + f'(x) u d/dv for f = x^k.
    """
    fields = [
        (["1", "0"], ["0", "0", "0"]),
        (["0", "1"], ["0", "0", "0"]),
        (["0", "0"], ["0", "0", "1"]),
        (["x", "0"], ["u", "0", "2*p"]),
        (["0", "y"], ["-2*u", "-v", "-4*p"]),
    ]
    for k in range(1, degree + 1):
        fields.append((["0", f"x^{k}"], ["0", f"{k}*x^{k - 1}*u", "0"]))
    return fields


def burgers_known(a):
    """Classical Burgers symmetries (Olver, ch. 2), with the convective coefficient a."""
    return [
        (["1", "0"], ["0"]),
        (["0", "1"], ["0"]),
        (["0", f"({a})*t"], ["1"]),
        (["2*t", "x"], ["-u"]),
        (["t^2", "t*x"], [f"x/({a}) - t*u"]),
    ]


def kdv_known(a, b):
    """Classical KdV symmetries (Olver, ch. 2), with coefficients a and b."""
    return [
        (["1", "0"], ["0"]),
        (["0", "1"], ["0"]),
        (["0", f"({a})*t"], ["1"]),
        (["3*t", "x"], ["-2*u"]),
    ]
