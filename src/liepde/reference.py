"""Reference corpus for the shipped turbulent boundary-layer fixture.

The package carries the complete expected analysis of its golden system:
generators, commutator table, Killing form, adjoint matrices, flows (per
generator, the images of x, y, u, v, p, as `adjoint.flow` gives them) and
transformed solutions (the last three as `expr` values in the one group
parameter `adjoint.EPS_SYMBOL`), invariant lists, and the subalgebra tables
with their free parameters at each of PARAMETER_VALUES.  In the pipeline,
one comparison pass (`pipeline._compare_baseline`) checks a report on
v1..v5 against this corpus and emits a discrepancy note wherever the
baseline is known to disagree with the exact computation, e.g. misprinted
matrix entries or a derived-series chain inconsistent with the commutator
table, and the advection-term note only on the shipped fixture itself
(`fixture_document`).  Besides it, only `pipeline.reference_on` (the auto
rule and the shape check) and `pipeline.analysed_algebra` (v1..v5 as the
analysed algebra) read it.
"""

from __future__ import annotations

import importlib.resources
from fractions import Fraction

from . import expr, parser
from .adjoint import EPS_SYMBOL, exp_term
from .errors import LiepdeError
from .fields import VectorField


def fixture_text(name="boundary_layer.pde"):
    return (
        importlib.resources.files("liepde.data").joinpath(name).read_text("utf-8")
    )


def fixture_document():
    return parser.parse_system(fixture_text())


def fixture_system():
    return parser.build_system(fixture_document())


def require_shape(space):
    """Raise LiepdeError unless `space` has the boundary-layer shape."""
    if (space.p, space.q) != (2, 3):
        raise LiepdeError(
            "reference comparison needs the boundary-layer shape "
            "(2 independent, 3 dependent variables)"
        )


def generators(space):
    """The five reference generators of the boundary-layer system, on a
    `space` that passes `require_shape`."""
    require_shape(space)
    x, y = space.independent
    u, v, p = space.dependent
    Z = expr.ZERO
    O = expr.ONE
    return (
        VectorField(space, (O, Z), (Z, Z, Z)),
        VectorField(space, (Z, O), (Z, Z, Z)),
        VectorField(space, (Z, Z), (Z, Z, O)),
        VectorField(space, (x, Z), (u, Z, 2 * p)),
        VectorField(space, (Z, y), (-2 * u, -1 * v, -4 * p)),
    )


def extra_generator(space):
    """The additional affine symmetry x d/dy + u d/dv of the standard form."""
    x, y = space.independent
    u, v, p = space.dependent
    Z = expr.ZERO
    return VectorField(space, (Z, x), (Z, u, Z))


F = Fraction

# Commutator table: entry [i][j] holds the coordinates of [v_i, v_j].
COMMUTATOR_TABLE = tuple(
    tuple(tuple(F(x) for x in cell) for cell in row)
    for row in (
        (((0,) * 5), ((0,) * 5), ((0,) * 5), (1, 0, 0, 0, 0), ((0,) * 5)),
        (((0,) * 5), ((0,) * 5), ((0,) * 5), ((0,) * 5), (0, 1, 0, 0, 0)),
        (((0,) * 5), ((0,) * 5), ((0,) * 5), (0, 0, 2, 0, 0), (0, 0, -4, 0, 0)),
        ((-1, 0, 0, 0, 0), ((0,) * 5), (0, 0, -2, 0, 0), ((0,) * 5), ((0,) * 5)),
        (((0,) * 5), (0, -1, 0, 0, 0), (0, 0, 4, 0, 0), ((0,) * 5), ((0,) * 5)),
    )
)

KILLING_FORM = tuple(
    tuple(F(x) for x in row)
    for row in (
        (0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0),
        (0, 0, 0, 5, -8),
        (0, 0, 0, -8, 17),
    )
)

# The baseline prints the derived chain <v1..v5> > <v1,v2,2*v3>, which is
# inconsistent with its own commutator table (the exact chain is
# g > span{v1,v2,v3} > 0); the pipeline notes it.
EXPECTED_DERIVED_DIMS = (5, 3, 0)


# Entries of the baseline adjoint matrices of exp(eps v_i) that differ from
# the identity, by matrix index i: {(row, column): (c, m, k)} for
# c * eps^m * e^(k*eps), indices from 0.  Matrix 4 carries a stray entry of
# 1 at (2, 3) that the Lie series does not produce.
ADJOINT_ENTRIES = (
    {(3, 0): (-1, 1, 0)},
    {(4, 1): (-1, 1, 0)},
    {(3, 2): (-2, 1, 0), (4, 2): (4, 1, 0)},
    {(0, 0): (1, 0, 1), (2, 2): (1, 0, 2), (2, 3): (1, 0, 0)},
    {(1, 1): (1, 0, 1), (2, 2): (1, 0, -4)},
)


def adjoint_matrix(i):
    """Baseline adjoint matrix of exp(eps v_i), with `expr` entries as
    `adjoint.expression` gives those of `adjoint.ad_exp`."""
    M = [[expr.ONE if r == c else expr.ZERO for c in range(5)] for r in range(5)]
    for (r, c), (coeff, m, k) in ADJOINT_ENTRIES[i].items():
        M[r][c] = exp_term(coeff, m, k)
    return M

BASELINE_ADJOINT_DELTAS = {3: ((2, 3),)}  # matrix index -> stray positions


def flow_table(space):
    """Baseline one-parameter flows: per generator, the images of x, y, u, v, p."""
    eps = EPS_SYMBOL
    x, y = space.independent
    u, v, p = space.dependent
    E = lambda k: expr.ParamExp(eps, k)
    return (
        (x + eps, y, u, v, p),
        (x, y + eps, u, v, p),
        (x, y, u, v, p + eps),
        (x * E(1), y, u * E(1), v, p * E(2)),
        (x, y * E(1), u * E(-2), v * E(-1), p * E(-4)),
    )


def transformed_solutions(space):
    """Baseline per-generator transformed solution triples."""
    eps = EPS_SYMBOL
    x, y = space.independent
    E = lambda k: expr.ParamExp(eps, k)
    f = lambda *a: expr.FunctionApplication("f", a)
    g = lambda *a: expr.FunctionApplication("g", a)
    h = lambda *a: expr.FunctionApplication("h", a)
    return (
        (f(x + eps, y), g(x + eps, y), h(x + eps, y)),
        (f(x, y + eps), g(x, y + eps), h(x, y + eps)),
        (f(x, y), g(x, y), h(x, y) + eps),
        (E(-1) * f(x * E(1), y), g(x * E(1), y), E(-2) * h(x * E(1), y)),
        (E(2) * f(x, y * E(1)), E(1) * g(x, y * E(1)), E(4) * h(x, y * E(1))),
    )


def composite_solution(space):
    """Baseline composite transform (all five flows chained at one parameter)."""
    eps = EPS_SYMBOL
    x, y = space.independent
    E = lambda k: expr.ParamExp(eps, k)
    arg1 = (x + eps) * E(1)
    arg2 = (y + eps) * E(1)
    return (
        E(1) * expr.FunctionApplication("f", (arg1, arg2)),
        expr.FunctionApplication("g", (arg1, arg2)),
        E(2) * expr.FunctionApplication("h", (arg1, arg2)) + eps * E(-1),
    )


def first_order_invariants(space):
    """The six first-order invariant ratios of the baseline."""
    x, y = space.independent
    u, v, p = space.dependent
    ux = space.coordinate(u, (1, 0))
    vx = space.coordinate(v, (1, 0))
    px = space.coordinate(p, (1, 0))
    uy = space.coordinate(u, (0, 1))
    vy = space.coordinate(v, (0, 1))
    py = space.coordinate(p, (0, 1))
    return (
        ux / v**2,
        u * vx / v**3,
        px / (u * v**2),
        uy / (u * v),
        vy / v**2,
        py / (u**2 * v),
    )


def second_order_invariants(space):
    """All fifteen invariant ratios of the baseline up to order two.

    The baseline prints the third new ratio with an unreadable subscript;
    the zero-weight reading p_xx / v^4 is used.
    """
    u, v, p = space.dependent
    uxx = space.coordinate(u, (2, 0))
    vxx = space.coordinate(v, (2, 0))
    pxx = space.coordinate(p, (2, 0))
    uxy = space.coordinate(u, (1, 1))
    vxy = space.coordinate(v, (1, 1))
    pxy = space.coordinate(p, (1, 1))
    uyy = space.coordinate(u, (0, 2))
    vyy = space.coordinate(v, (0, 2))
    pyy = space.coordinate(p, (0, 2))
    second = (
        u * uxx / v**4,
        u**2 * vxx / v**5,
        pxx / v**4,
        uxy / v**3,
        u * vxy / v**4,
        pxy / (u * v**3),
        uyy / (u * v**2),
        vyy / v**3,
        pyy / (u**2 * v**2),
    )
    return first_order_invariants(space) + second


def invariant_table_rows(space):
    """Baseline single-generator invariant table for v4 and v5.

    Returns {generator index: [(label, expression), ...]}; the pipeline
    reports which entries the generator actually annihilates.
    """
    x, y = space.independent
    u, v, p = space.dependent
    c = space.coordinate
    ux, vx, px = c(u, (1, 0)), c(v, (1, 0)), c(p, (1, 0))
    uy, vy, py = c(u, (0, 1)), c(v, (0, 1)), c(p, (0, 1))
    uxx, vxx, pxx = c(u, (2, 0)), c(v, (2, 0)), c(p, (2, 0))
    uxy, vxy, pxy = c(u, (1, 1)), c(v, (1, 1)), c(p, (1, 1))
    uyy, vyy, pyy = c(u, (0, 2)), c(v, (0, 2)), c(p, (0, 2))
    v4_row = [
        ("u", u), ("u/x", u / x), ("v", v), ("p/x^2", p / x**2),
        ("u_x", ux), ("x*v_x", x * vx), ("p_x/x", px / x),
        ("u_y/x", uy / x), ("v_y", vy), ("p_y/x^2", py / x**2),
        ("y", y), ("p", p),
        ("x*u_xx", x * uxx), ("x^2*v_xx", x**2 * vxx), ("p_xx", pxx),
        ("u_xy", uxy), ("x*v_xy", x * vxy), ("p_xy/x", pxy / x),
        ("u_yy/x", uyy / x), ("v_yy", vyy), ("p_yy/x^2", pyy / x**2),
    ]
    v5_row = [
        ("x", x), ("y^2*u", y**2 * u), ("y*v", y * v), ("y^4*p", y**4 * p),
        ("y^2*u_x", y**2 * ux), ("y*v_x", y * vx), ("y^4*p_x", y**4 * px),
        ("y^3*u_y", y**3 * uy), ("y^2*v_y", y**2 * vy), ("y^5*p_y", y**5 * py),
        ("y^5*v_y", y**5 * vy),
        ("y^2*u_xx", y**2 * uxx), ("y*v_xx", y * vxx), ("y^4*p_xx", y**4 * pxx),
        ("y^3*u_xy", y**3 * uxy), ("y^2*v_xy", y**2 * vxy),
        ("y^5*p_xy", y**5 * pxy),
        ("y^4*u_yy", y**4 * uyy), ("y^3*v_yy", y**3 * vyy),
        ("y^6*p_yy", y**6 * pyy),
    ]
    return {3: v4_row, 4: v5_row}

# Entries of the baseline invariant table that fail the annihilation check.
EXPECTED_INVARIANT_FAILURES = {3: ("u", "p"), 4: ("y^5*v_y",)}


# The values at which the free parameters of the baseline optimal table
# (its a's and b's) are instantiated.
PARAMETER_VALUES = (1, 2)


def optimal_1d_representatives():
    """Baseline one-dimensional representatives, each parameter at each of
    PARAMETER_VALUES."""
    reps = [("v3", (0, 0, 1, 0, 0))]
    for a in PARAMETER_VALUES:
        reps.append((f"a1*v1+a2*v2 (a={a})", (a, a, 0, 0, 0)))
        reps.append((f"a1*v2+a2*v3 (a={a})", (0, a, a, 0, 0)))
        reps.append((f"a1*v1+a2*v2+a3*v3 (a={a})", (a, a, a, 0, 0)))
    return reps


def optimal_table_entries():
    """Baseline optimal-system table, beta parameters instantiated.

    Returns a list of (label, vectors); spans with free parameters appear
    once per value in PARAMETER_VALUES.
    """

    def e(*idx_coeffs):
        vec = [0] * 5
        for i, c in idx_coeffs:
            vec[i] = c
        return tuple(vec)

    entries = []
    for label, vec in optimal_1d_representatives():
        entries.append((f"dim1 <{label}>", [vec]))
    pairs = [
        (0, 1), (0, 2), (1, 2), (1, 3), (2, 3),
        (0, 3), (0, 4), (1, 4), (2, 4), (3, 4),
    ]
    for i, j in pairs:
        entries.append(
            (f"dim2 <v{i + 1},v{j + 1}>", [e((i, 1)), e((j, 1))])
        )
    for b in PARAMETER_VALUES:
        entries.append(
            (f"dim2 <v1, sum_i b*vi> (b={b})",
             [e((0, 1)), e((1, b), (2, b), (3, b), (4, b))])
        )
        entries.append(
            (f"dim2 <b1*v1+b2*v2, v3+b3*(v4+v5)> (b={b})",
             [e((0, b), (1, b)), e((2, 1), (3, b), (4, b))])
        )
        entries.append(
            (f"dim2 <b1*v2+b2*v3, v1+5/2*b3*(v4+v5)> (b={b})",
             [e((1, b), (2, b)),
              e((0, 1), (3, Fraction(5, 2) * b), (4, Fraction(5, 2) * b))])
        )
    triples = [
        (0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 4),
        (0, 3, 4), (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4),
    ]
    for t in triples:
        label = ",".join(f"v{i + 1}" for i in t)
        entries.append((f"dim3 <{label}>", [e((i, 1)) for i in t]))
    quads = [(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 4), (0, 2, 3, 4), (1, 2, 3, 4)]
    for t in quads:
        label = ",".join(f"v{i + 1}" for i in t)
        entries.append((f"dim4 <{label}>", [e((i, 1)) for i in t]))
    entries.append(
        ("dim5 <v1,v2,v3,v4,v5>", [e((i, 1)) for i in range(5)])
    )
    return entries

# The mixed dim-2 entry with the 5/2 factor does not close under the
# bracket for any instantiation with all three parameters nonzero:
# [b1 v2 + b2 v3, v1 + 5/2 b3 (v4+v5)] = 5/2 b3 (b1 v2 - 2 b2 v3), which
# lies in the span only if b1, b2, or b3 vanishes.
EXPECTED_CLOSURE_FAILURES = tuple(
    f"dim2 <b1*v2+b2*v3, v1+5/2*b3*(v4+v5)> (b={b})" for b in PARAMETER_VALUES
)


def structure_constants_json():
    """Sparse JSON form of the commutator table (CLI interchange fixture)."""
    brackets = []
    for i in range(5):
        for j in range(i + 1, 5):
            vec = COMMUTATOR_TABLE[i][j]
            if any(vec):
                brackets.append(
                    {"i": i + 1, "j": j + 1,
                     "coeffs": [str(Fraction(c)) for c in vec]}
                )
    return {"dim": 5, "labels": ["v1", "v2", "v3", "v4", "v5"],
            "brackets": brackets}


def optimal_table_json():
    entries = []
    for label, vectors in optimal_table_entries():
        entries.append(
            {"label": label,
             "vectors": [[str(Fraction(x)) for x in vec] for vec in vectors]}
        )
    return {"schema": 1, "entries": entries}
