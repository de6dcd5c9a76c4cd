"""Reference corpus for the shipped turbulent boundary-layer fixture.

The paper's claims about its golden system are shipped data, each checked
by a computation the report already makes (`pipeline._compare_baseline`):
the commutator table `boundary_layer_algebra.json` and the subalgebra table
`boundary_layer_optimal.json` (free parameters at 1 and 2), which
`baseline_algebra` and `optimal_table_entries` read, and
`boundary_layer_claims.json` (schema 1), `{kind, label, data}` claims with
expressions in the fixture's language, which `claims` parses straight into
the run's variables through the parser's name table.  By kind:
- `generator` (v1..v5 as "xi; ...; phi"): the analysed algebra, span and residuals;
- `excluded-generator` (x d/dy + u d/dv): membership in the computed span;
- `killing`: `structure.killing_form`;
- `derived-series` (dimensions at which the printed chain is wrong): `derived_series`;
- `adjoint` (non-identity [row, column, c, m, k], c*eps^m*exp(k*eps)): `ad_exp`;
- `composite` (five flows at one parameter): `compose` and `transform_solution`;
- `first-order-invariants`: `verify_invariants` and `in_invariant_lattice`;
- `invariant-table` (v4 and v5, labels verbatim): `verify_invariants`.
`pipeline.reference_on` (the auto rule and the shape check) and
`cli._load_document` (`fixture_text`) read this module too.
"""

from __future__ import annotations

import importlib.resources
import json

from . import parser, structure
from .adjoint import EPS_SYMBOL, exp_term
from .errors import LiepdeError
from .fields import VectorField


def fixture_text(name="boundary_layer.pde"):
    return (
        importlib.resources.files("liepde.data").joinpath(name).read_text("utf-8")
    )


def fixture_document():
    return parser.parse_system(fixture_text())


def require_shape(space):
    """Raise LiepdeError unless `space` has the boundary-layer shape."""
    if (space.p, space.q) != (2, 3):
        raise LiepdeError(
            "reference comparison needs the boundary-layer shape "
            "(2 independent, 3 dependent variables)"
        )


def baseline_algebra():
    """The baseline commutator table on v1..v5, read from the shipped
    `boundary_layer_algebra.json`."""
    return structure.algebra_from_json(
        json.loads(fixture_text("boundary_layer_algebra.json")))


def optimal_table_entries():
    """The baseline optimal-system table, read from the shipped
    `boundary_layer_optimal.json`: a list of (label, vectors), each span
    with free parameters once per instantiated value."""
    return structure.table_from_json(
        json.loads(fixture_text("boundary_layer_optimal.json")))


def claims(space, *kinds):
    """The shipped claims of the given kinds, and only those parsed, as
    {kind: [(label, value), ...]} in document order, on a `space` that
    passes `require_shape`.  Expressions are parsed in the table that maps
    the document's declared names by position onto `space`'s variables, so
    they come out in `space`'s variables and jet coordinates.  A
    value is a `VectorField`, a matrix as `structure.killing_form` gives
    one, a tuple of dimensions, a dict {(row, column): entry} from 0
    (`adjoint`), a tuple of expressions or a list of (entry label,
    expression) (`invariant-table`).
    """
    require_shape(space)
    document = json.loads(fixture_text("boundary_layer_claims.json"))
    names = dict(zip(document["independent"] + document["dependent"],
                     space.independent + space.dependent))

    def parse(texts, group=None):
        return tuple(parser.parse_expressions(texts, names, group))

    def table(data):
        labels, texts = zip(*data)
        return list(zip(labels, parse(texts)))

    def field(text):
        return VectorField(space, *parser.parse_field(text, names))

    read = {
        "generator": field,
        "excluded-generator": field,
        "killing": lambda data: tuple(tuple(map(structure.parse_rational, row))
                                      for row in data),
        "derived-series": tuple,
        "adjoint": lambda data: {
            (r - 1, c - 1): exp_term(structure.parse_rational(coeff), m,
                                     structure.parse_rational(k))
            for r, c, coeff, m, k in data},
        "composite": lambda data: parse(data, EPS_SYMBOL),
        "first-order-invariants": parse,
        "invariant-table": table,
    }
    out = {kind: [] for kind in kinds}
    for claim in document["claims"]:
        kind = claim["kind"]
        if kind in out:
            out[kind].append((claim["label"], read[kind](claim["data"])))
    return out
