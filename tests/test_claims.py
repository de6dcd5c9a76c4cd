"""The shipped claims document: every claim parses, on the fixture's names
and on renamed variables, and every claim the report checks is read from it."""

import json

import pytest

from corpus import RENAMED
from liepde import expr, parser, pipeline, reference
from liepde.expr import GROUP

KINDS = ("generator", "excluded-generator", "killing", "derived-series", "adjoint",
         "composite", "first-order-invariants", "invariant-table")


@pytest.mark.parametrize("text", [reference.fixture_text(), RENAMED],
                         ids=["fixture", "renamed"])
def test_every_claim_parses_onto_the_space(text):
    space, _ = parser.build_system(parser.parse_system(text))
    claims = reference.claims(space, *KINDS)
    assert {kind: len(found) for kind, found in claims.items()} == {
        "generator": 5, "excluded-generator": 1, "killing": 1, "derived-series": 1,
        "adjoint": 5, "composite": 1, "first-order-invariants": 1, "invariant-table": 2}
    assert [label for label, _ in claims["generator"]] == ["v1", "v2", "v3", "v4", "v5"]
    values = [vf for kind in ("generator", "excluded-generator")
              for _, vf in claims[kind]]
    assert all(vf.space is space for vf in values)
    exprs = [c for vf in values for c in vf.coefficients]
    exprs += claims["composite"][0][1] + claims["first-order-invariants"][0][1]
    exprs += [e for _, rows in claims["invariant-table"] for _, e in rows]
    assert len(exprs) == 6 * 5 + 3 + 6 + 21 + 20
    names = {s.name for s in space.independent + space.dependent}
    names |= {s.name for s in space.coordinates(2, min_order=1)}
    for e in exprs:
        for s in expr.free_symbols(e):
            assert s.role == GROUP or s.name in names, (expr.render(e), s.name)


def test_renamed_claims_are_the_fixture_claims_by_position():
    spaces = [parser.build_system(parser.parse_system(text))[0]
              for text in (reference.fixture_text(), RENAMED)]
    fixture, renamed = (reference.claims(space, *KINDS) for space in spaces)
    back = dict(zip(spaces[1].independent + spaces[1].dependent,
                    spaces[0].independent + spaces[0].dependent))
    dependents = [d.name for d in spaces[1].dependent]
    for s in spaces[1].coordinates(2, min_order=1):
        back[s] = spaces[0].coordinate(dependents.index(s.base), s.multi)

    def rename(e):
        return expr.substitute(e, back)

    for (_, a), (_, b) in zip(fixture["generator"], renamed["generator"]):
        assert a.coefficients == tuple(map(rename, b.coefficients))
    for kind in ("composite", "first-order-invariants"):
        assert fixture[kind][0][1] == tuple(map(rename, renamed[kind][0][1]))
    for (_, a), (_, b) in zip(fixture["invariant-table"], renamed["invariant-table"]):
        assert a == [(label, rename(e)) for label, e in b]


def _changed(before, after):
    """The (section, key) pairs whose values differ, and ("notes", anchor) for
    every note that differs, appears or goes."""
    out = set()
    for section in before.keys() | after.keys():
        if section == "notes":
            notes = [{n["anchor"]: n["detail"] for n in r["notes"]} for r in (before, after)]
            out |= {("notes", anchor) for anchor in notes[0].keys() | notes[1].keys()
                    if notes[0].get(anchor) != notes[1].get(anchor)}
        elif isinstance(before.get(section), dict) and isinstance(after.get(section), dict):
            out |= {(section, key) for key in before[section].keys() | after[section].keys()
                    if before[section].get(key) != after[section].get(key)}
        elif before.get(section) != after.get(section):
            out.add((section,))
    return out


COMPOSITE = "reference:boundary-layer/composite-transform"


# (kind, which claim of that kind, where in its data, new value, what changes)
CHANGES = [
    # 2 d/dp for v3: the same algebra, another flow
    ("generator", 2, (), "0; 0; 0; 0; 2",
     {("flows",), ("composite", "computed"), ("composite", "difference")}),
    ("excluded-generator", 0, (), "0; x; 0; 2*u; 0",
     {("notes", "reference:boundary-layer/symmetry-dimension")}),
    ("killing", 0, (3, 3), 6, {("structure", "matches_reference_killing")}),
    ("derived-series", 0, (), [5, 2, 0],
     {("notes", "reference:boundary-layer/derived-series")}),
    ("adjoint", 0, (0, 2), -2,
     {("adjoint", "baseline_deltas"), ("notes", "reference:boundary-layer/adjoint-matrix-1")}),
    ("composite", 0, (1,), "g((x + eps)*exp(eps), (y + eps)*exp(eps))*exp(eps)",
     {("composite", "baseline"), ("composite", "difference"), ("notes", COMPOSITE)}),
    ("first-order-invariants", 0, (0,), "d(u,x)/v", {("invariants", "baseline_first_order")}),
    ("invariant-table", 0, (0, 1), "u/x",
     {("invariants", "baseline_table_v4"),
      ("notes", "reference:boundary-layer/invariant-table-v4")}),
]


@pytest.mark.parametrize("kind, index, path, value, changed", CHANGES,
                         ids=[change[0] for change in CHANGES])
def test_each_claim_alters_only_its_own_check(monkeypatch, golden_report, kind, index,
                                              path, value, changed):
    document = json.loads(reference.fixture_text("boundary_layer_claims.json"))
    claim = [c for c in document["claims"] if c["kind"] == kind][index]
    *inner, last = ("data", *path)
    for key in inner:
        claim = claim[key]
    claim[last] = value
    shipped = reference.fixture_text
    monkeypatch.setattr(reference, "fixture_text", lambda name="boundary_layer.pde": (
        json.dumps(document) if name == "boundary_layer_claims.json" else shipped(name)))
    report = pipeline.run_pipeline(reference.fixture_document())
    assert _changed(golden_report, report) == changed
