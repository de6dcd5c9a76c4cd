"""The boundary-layer baseline data that the report does not check, the
known deltas the tests expect, and a reader of the shipped claims."""

from liepde import expr, parser, reference
from liepde.adjoint import EPS_SYMBOL


def fixture_system():
    return parser.build_system(reference.fixture_document())


def claimed(space, kind):
    """The values of the shipped claims of one kind, in document order."""
    return [value for _, value in reference.claims(space, kind)[kind]]


def invariant_tables(space):
    """(label, generator, rows) of each claimed invariant table."""
    claims = reference.claims(space, "generator", "invariant-table")
    generator = dict(claims["generator"])
    return [(label, generator[label], rows) for label, rows in claims["invariant-table"]]


def adjoint_matrix(space, i):
    """The baseline matrix of Ad(exp(eps v_i)), with `expr` entries."""
    entries = claimed(space, "adjoint")[i]
    return [[entries.get((r, c), expr.ONE if r == c else expr.ZERO) for c in range(5)]
            for r in range(5)]


def _rows(rows):
    """Rows of expressions in the fixture's names, each row "e1; e2; ...",
    read with the group parameter eps, its exponentials and applications."""
    doc = reference.fixture_document()
    return tuple(tuple(parser.parse_expressions(row.split(";"), doc.names(), EPS_SYMBOL))
                 for row in rows)


def flow_table():
    """Baseline one-parameter flows: per generator, the images of x, y, u, v, p."""
    return _rows(["x + eps; y; u; v; p", "x; y + eps; u; v; p", "x; y; u; v; p + eps",
                  "x*exp(eps); y; u*exp(eps); v; p*exp(2*eps)",
                  "x; y*exp(eps); u*exp(-2*eps); v*exp(-eps); p*exp(-4*eps)"])


def transformed_solutions():
    """Baseline per-generator transformed solution triples."""
    return _rows([
        "f(x + eps, y); g(x + eps, y); h(x + eps, y)",
        "f(x, y + eps); g(x, y + eps); h(x, y + eps)",
        "f(x, y); g(x, y); h(x, y) + eps",
        "f(x*exp(eps), y)*exp(-eps); g(x*exp(eps), y); h(x*exp(eps), y)*exp(-2*eps)",
        "f(x, y*exp(eps))*exp(2*eps); g(x, y*exp(eps))*exp(eps); "
        "h(x, y*exp(eps))*exp(4*eps)"])


def second_order_invariants(space):
    """All fifteen invariant ratios of the baseline up to order two.

    The baseline prints the third new ratio with an unreadable subscript;
    the zero-weight reading p_xx / v^4 is used.
    """
    [first] = claimed(space, "first-order-invariants")
    [second] = _rows(["u*d(u,x,x)/v^4; u^2*d(v,x,x)/v^5; d(p,x,x)/v^4; d(u,x,y)/v^3; "
                      "u*d(v,x,y)/v^4; d(p,x,y)/(u*v^3); d(u,y,y)/(u*v^2); d(v,y,y)/v^3; "
                      "d(p,y,y)/(u^2*v^2)"])
    return first + second


# Entries of the baseline invariant table that fail the annihilation check.
EXPECTED_INVARIANT_FAILURES = {"v4": ("u", "p"), "v5": ("y^5*v_y",)}

BASELINE_ADJOINT_DELTAS = {3: ((2, 3),)}  # matrix index -> stray positions

# The mixed dim-2 entry with the 5/2 factor does not close under the
# bracket for any instantiation with all three parameters nonzero:
# [b1 v2 + b2 v3, v1 + 5/2 b3 (v4+v5)] = 5/2 b3 (b1 v2 - 2 b2 v3), which
# lies in the span only if b1, b2, or b3 vanishes.
EXPECTED_CLOSURE_FAILURES = (
    "dim2 <b1*v2+b2*v3, v1+5/2*b3*(v4+v5)> (b=1)",
    "dim2 <b1*v2+b2*v3, v1+5/2*b3*(v4+v5)> (b=2)",
)
