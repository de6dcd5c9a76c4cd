"""Exact Lie point symmetry analysis of polynomial PDE systems.

Canonical polynomial expressions over the rationals, jet-space
prolongation, determining equations solved by exact elimination, Lie-algebra
structure theory, exact adjoint matrices, flows as sums of
c * eps^m * exp(k eps) in the expression layer, monomial differential
invariants, and adjoint-orbit tooling for optimal systems of subalgebras.
"""

from .errors import LiepdeError
from .expr import (
    DEPENDENT,
    GROUP,
    INDEPENDENT,
    JET,
    PARAMETER,
    UNKNOWN,
    FunctionApplication,
    ParamExp,
    Power,
    Rational,
    Symbol,
    collect,
    diff,
    normalize,
    substitute,
)
from .fields import VectorField, bracket
from .jet import JetSpace, PDESystem, total_derivative
from .prolongation import (
    build_determining,
    characteristic,
    prolong,
    solve_determining,
    symmetry_residual,
)
from .structure import LieAlgebra, Subspace, killing_form, structure_constants

__version__ = "0.1.0"
