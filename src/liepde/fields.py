"""Vector fields on the base space of a jet space."""

from __future__ import annotations


from . import expr
from .expr import JET, ZERO


class VectorField:
    """First-order differential operator sum(xi_i d/dx_i) + sum(phi_a d/du_a).

    Coefficients are expressions in the base variables only (no jet
    coordinates of order >= 1).
    """

    def __init__(self, space, xi, phi):
        self.space = space
        self.xi = tuple(expr.normalize(c) for c in xi)
        self.phi = tuple(expr.normalize(c) for c in phi)
        if len(self.xi) != space.p or len(self.phi) != space.q:
            raise ValueError("coefficient counts must match the jet space")
        for c in self.xi + self.phi:
            for s in expr.free_symbols(c):
                if s.role == JET:
                    raise ValueError(
                        f"vector-field coefficient {c} contains the jet coordinate {s.name}"
                    )

    @classmethod
    def zero(cls, space):
        return cls(space, (ZERO,) * space.p, (ZERO,) * space.q)

    @property
    def coordinates(self):
        return self.space.independent + self.space.dependent

    @property
    def coefficients(self):
        return self.xi + self.phi

    def is_zero(self):
        return all(expr.is_zero(c) for c in self.coefficients)

    def apply(self, e):
        """Derivation action on an expression of the base variables, in one
        Leibniz walk (`expr.derivation`): each coordinate goes to its
        coefficient, every other symbol to 0."""
        coefficients = dict(zip(self.coordinates, self.coefficients))
        return expr.derivation(e, lambda s: coefficients.get(s, ZERO))

    def __add__(self, other):
        self._check_space(other)
        return VectorField(
            self.space,
            tuple(a + b for a, b in zip(self.xi, other.xi)),
            tuple(a + b for a, b in zip(self.phi, other.phi)),
        )

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return VectorField(
            self.space,
            tuple(c * x for x in self.xi),
            tuple(c * f for f in self.phi),
        )

    def __eq__(self, other):
        return (
            isinstance(other, VectorField)
            and self.space is other.space
            and all(expr.equal(a, b)
                    for a, b in zip(self.coefficients, other.coefficients))
        )

    def _check_space(self, other):
        if self.space is not other.space:
            raise ValueError("vector fields live on different spaces")

    def __str__(self):
        parts = []
        for sym, coeff in zip(self.coordinates, self.coefficients):
            if expr.is_zero(coeff):
                continue
            c = expr.render(coeff)
            if c == "1":
                parts.append(f"d/d{sym.name}")
            else:
                body = f"({c})" if (" + " in c or " - " in c) else c
                parts.append(f"{body}*d/d{sym.name}")
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


def bracket(v, w):
    """Lie bracket [v, w], computed coefficient-wise as a commutator of derivations."""
    v._check_space(w)
    new = []
    for wc, vc in zip(w.coefficients, v.coefficients):
        new.append(v.apply(wc) - w.apply(vc))
    p = v.space.p
    return VectorField(v.space, tuple(new[:p]), tuple(new[p:]))
