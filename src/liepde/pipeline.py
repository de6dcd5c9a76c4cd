"""Full analysis pipeline, its report document and emission.

`run_pipeline` drives the modules in order -- symmetries, structure,
adjoint, flows, invariants, similarity -- and returns the report document:
a dict with the keys `schema, system, options, generators, determining,
structure, adjoint, flows, invariants, similarity, notes` in that order.
The sections know nothing of the baseline.  With the reference on (the
shipped boundary-layer corpus, on request or detected for the shipped
fixture: `reference_on`) they analyse the baseline's v1..v5, and one pass
after them, `_compare_baseline`, adds the comparison keys and the known
deltas as `{"anchor", "detail"}` notes, which never fail the run; the
advection-term note describes the shipped fixture and appears only on it.
Otherwise they analyse the computed basis g1..gn (`analysed_algebra`);
when that span is not closed under the bracket, even over the parameter
field, the report has none of the five analysis sections and its one note,
`algebra/span-not-closed`, names the pair.  When the ad of some direction
has a spectrum outside the rationals, as a rotation's has, the report has
no `adjoint` key, and the note `algebra/adjoint-spectrum-not-rational`
names the direction and its stuck factor.
An adjoint entry is the `expr` value `adjoint.expression` gives: JSON
writes its terms (`jexppoly`), and the text and the baseline comparison
render and compare it as that value.  The flow section renders each flow
as the substitution {z: image} that `adjoint.flow` returns.  `emit` writes
any document as JSON, or as text rendered from it.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import adjoint, expr, invariants, linalg, optimal, parser, reference, structure
from .errors import (LiepdeError, NotASubalgebraError, PipelineError,
                     UnsupportedGeneratorError, UnsupportedSpectrumError)
from .fields import bracket
from .prolongation import build_determining, solve_determining, span_contains, symmetry_residual

SCHEMA_VERSION = 1


def jfrac(x):
    return str(Fraction(x))


def jexppoly(e):
    out = []
    for (_, (m,), (k,)), c in sorted(e.terms.items()):
        term = {"c": jfrac(c)}
        if m:
            term["eps_power"] = m
        if k:
            term["eps_exp"] = jfrac(k)
        out.append(term)
    return out


def field_json(vf, space):
    return {
        "xi": [expr.render(c) for c in vf.xi],
        "phi": [expr.render(c) for c in vf.phi],
    }


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

def reference_on(doc, space, use_reference=None):
    """Whether the analysis of `doc` compares against the baseline.

    `use_reference` True or False decides; None (auto) turns the reference
    on when `doc` is the shipped boundary-layer fixture.  Raises
    LiepdeError when it is on and `space` lacks the boundary-layer shape.
    """
    if use_reference is None:
        try:
            use_reference = doc == reference.fixture_document()
        except LiepdeError:
            use_reference = False
    if use_reference:
        reference.require_shape(space)
    return use_reference


def analysed_algebra(space, system, ref, ansatz_degree, basis=None):
    """Structure constants of the algebra that the report analyses.

    With the reference on (`ref` true), that is the baseline's v1..v5;
    otherwise the computed basis g1..gn: `basis` when given, else the
    solution of the determining system at `ansatz_degree`.
    """
    if ref:
        gens, prefix = reference.generators(space), "v"
    else:
        if basis is None:
            basis = solve_determining(build_determining(system, ansatz_degree))
        gens, prefix = basis, "g"
    return structure.structure_constants(
        list(gens), labels=[f"{prefix}{i + 1}" for i in range(len(gens))]
    )


def _stage(name, fn, *args):
    try:
        return fn(*args)
    except LiepdeError as exc:
        raise PipelineError(name, exc) from exc


def run_pipeline(doc, ansatz_degree=1, invariant_order=1, use_reference=None):
    """Execute every analysis stage on a parsed system document.

    `use_reference` may be True, False, or None (auto-detect the shipped
    fixture).  Returns the report document (see the module docstring).
    """
    space, system = _stage("system", parser.build_system, doc)
    ref = _stage("system", reference_on, doc, space, use_reference)
    ds = _stage("determining", build_determining, system, ansatz_degree)
    basis = _stage("determining", solve_determining, ds)
    report = {
        "schema": SCHEMA_VERSION,
        "system": {
            "independent": [s.name for s in space.independent],
            "dependent": [s.name for s in space.dependent],
            "parameters": [s.name for s in system.parameters],
            "equations": [expr.render(e) for e in system.equations],
            "leads": [lead.name for lead, _ in system.solved],
            "order": space.max_order,
        },
        "options": {
            "ansatz_degree": ansatz_degree,
            "invariant_order": invariant_order,
        },
        # solve_determining has checked that every residual is zero.
        "generators": [
            {**field_json(vf, space), "label": f"g{idx + 1}",
             "residuals": [expr.render(expr.ZERO)] * len(system.equations),
             "residual_zero": True}
            for idx, vf in enumerate(basis)
        ],
        "determining": {
            "unknowns": len(ds.ansatz.unknowns),
            "equations_raw": ds.raw_count,
            "equations_deduped": ds.deduped_count,
            "dimension": len(basis),
        },
    }
    try:
        L = analysed_algebra(space, system, ref, ansatz_degree, basis)
    except NotASubalgebraError as exc:
        i, j = exc.pair
        if ref or _stage("structure", span_contains, basis,
                         [bracket(basis[i], basis[j])], system)[0]:
            raise PipelineError("structure", exc) from exc
        # A truncated ansatz need not span a subalgebra (the heat equation's
        # algebra is infinite-dimensional): report the basis, and no analysis.
        report["notes"] = [{
            "anchor": "algebra/span-not-closed",
            "detail": f"the span found at ansatz degree {ansatz_degree} is not "
                      f"closed under the bracket: [g{i + 1}, g{j + 1}] lies outside "
                      "it, also over the parameter field; the structure, adjoint, "
                      "flow, invariant and similarity sections are omitted",
        }]
        return report
    except LiepdeError as exc:
        raise PipelineError("structure", exc) from exc
    report["structure"] = _stage("structure", _structure_section, L)
    matrices, notes = _stage("adjoint", _adjoint_section, L)
    if matrices is not None:
        report["adjoint"] = {"matrices": matrices}
    report["flows"], flow_maps = _stage("flows", _flow_section, L, space)
    report["invariants"], usable, ws, lattice = _stage(
        "invariants", _invariant_section, L, space, invariant_order
    )
    report["similarity"] = _stage("similarity", _similarity_section, L)
    report["notes"] = notes
    if ref:
        _compare_baseline(report, doc, L, space, system, basis, flow_maps, usable, ws,
                          lattice)
    return report


def _structure_section(L):
    K = structure.killing_form(L)
    determinant = linalg.det(K)
    derived = structure.derived_series(L)
    lower = structure.lower_central_series(L)
    return {
        "labels": list(L.labels),
        "commutators": [[[jfrac(c) for c in cell] for cell in row]
                        for row in L.constants],
        "commutators_pretty": commutators_pretty(L),
        "killing": [[jfrac(c) for c in row] for row in K],
        "killing_determinant": jfrac(determinant),
        "derived_series": [_subspace_json(s) for s in derived],
        "lower_central_series": [_subspace_json(s) for s in lower],
        # is_solvable, is_nilpotent and is_semisimple, read off the above
        "solvable": derived[-1].dim == 0,
        "nilpotent": lower[-1].dim == 0,
        "semisimple": determinant != 0,
        "center": _subspace_json(structure.center(L)),
        "radical": _subspace_json(structure.radical(L)),
    }


def commutators_pretty(L):
    """The commutator table [e_i, e_j] written in the algebra's labels."""
    return [[L.format_vector(cell) for cell in row] for row in L.constants]


def _subspace_json(s):
    return [[jfrac(c) for c in row] for row in s.basis]


def _adjoint_section(L):
    """The adjoint matrices' JSON and no notes; or None and one note naming
    each direction whose ad has a spectrum outside the rationals, such as a
    rotation's, so that its Ad(exp(eps v)) has no exact entries."""
    matrices, stuck = [], []
    for i in range(L.n):
        try:
            M = adjoint.ad_exp(L, i)
        except UnsupportedSpectrumError as exc:
            stuck.append(f"{L.labels[i]} ({exc})")
            continue
        matrices.append([[jexppoly(e) for e in row] for row in M])
    if not stuck:
        return matrices, []
    return None, [{
        "anchor": "algebra/adjoint-spectrum-not-rational",
        "detail": "Ad(exp(eps v)) has no exact entries c*eps^m*exp(k*eps) for "
                  f"{', '.join(stuck)}; the adjoint section is omitted",
    }]


def _flow_section(L, space):
    """The flows' JSON entries, and their maps (None where a flow is skipped)."""
    flows_out = []
    flow_maps = []
    for i in range(L.n):
        vf = L.realization[i]
        entry = {"label": L.labels[i]}
        try:
            fm = adjoint.flow(vf)
        except (ValueError, LiepdeError) as exc:
            entry["skipped"] = str(exc)
            flows_out.append(entry)
            flow_maps.append(None)
            continue
        flow_maps.append(fm)
        entry["map"] = {z.name: expr.render(e) for z, e in fm.items()}
        try:
            ts = adjoint.transform_solution(fm, space)
            entry["transformed"] = {
                dep.name: expr.render(e) for dep, e in ts.items()
            }
        except ValueError as exc:
            entry["transform_skipped"] = str(exc)
        flows_out.append(entry)
    return flows_out, flow_maps


def _invariant_section(L, space, order):
    """The invariants' JSON, the generators it could use, their weight
    system and invariant lattice (None and None without usable ones)."""
    usable = []
    skipped = []
    for i in range(L.n):
        vf = L.realization[i]
        try:
            invariants.classify_generator(vf)
            usable.append(vf)
        except UnsupportedGeneratorError as exc:
            skipped.append({"label": L.labels[i], "reason": str(exc)})
    out = {"order": order, "skipped": skipped}
    if not usable:
        return out, usable, None, None
    ws = invariants.weight_system(usable, space, order)
    lattice = invariants.monomial_invariants(ws)
    out["masked"] = sorted(s.name for s in ws.masked)
    out["coordinates"] = [c.name for c in ws.free_coordinates()]
    out["weights"] = [[jfrac(w) for w in row] for row in
                      ([[row[ws.coordinates.index(c)] for c in ws.free_coordinates()]
                        for row in ws.weight_rows])]
    out["lattice"] = [list(inv.exponents) for inv in lattice]
    out["lattice_monomials"] = [str(inv) for inv in lattice]
    return out, usable, ws, lattice


def _similarity_section(L):
    out = []
    for i in range(L.n):
        vf = L.realization[i]
        entry = {"label": L.labels[i]}
        try:
            form = invariants.similarity_form(vf)
            entry["kind"] = form.kind
            entry["substitutions"] = [
                {"variable": sym.name, "value": expr.render(e)}
                for sym, e in form.substitutions
            ]
            if form.note:
                entry["note"] = form.note
        except UnsupportedGeneratorError as exc:
            entry["skipped"] = str(exc)
        out.append(entry)
    return out


# ---------------------------------------------------------------------------
# Baseline comparison
# ---------------------------------------------------------------------------

def _compare_baseline(report, doc, L, space, system, basis, flow_maps, usable, ws,
                      lattice):
    """Compare a report on v1..v5 with the boundary-layer baseline.

    Reads the system document `doc`, the report the sections built and the
    objects they kept (`L`, the computed `basis`, the flow maps, the usable
    generators with their weight system and lattice), and only adds keys,
    each at the end of its dict: `matches_reference_commutators`,
    `matches_reference_killing` and `derived_dimensions` to `structure`;
    `baseline_deltas` to `adjoint`; `baseline_first_order` and one
    `baseline_table_<label>` per tabulated generator to `invariants`; and
    `reference_check`, `composite` (when every flow of v1..v5 exists) and
    `optimal` to the report.  Every known delta is appended to `notes`, in
    the order of the sections; the advection-term note, which describes the
    shipped fixture, only when `doc` is that fixture.
    """
    notes = report["notes"]

    def note(anchor, detail):
        notes.append({"anchor": anchor, "detail": detail})

    if doc == reference.fixture_document():
        note(
            "reference:boundary-layer/advection-term",
            "the shipped fixture uses the standard advection term v*d(u,y); "
            "the baseline prints v*d(v,y), whose system does not admit all "
            "five baseline generators (see the *_printed fixture)",
        )

    extra = reference.extra_generator(space)
    *members, extra_in_span = span_contains(basis, [*L.realization, extra], system)
    contains = {}
    for i, (g, member) in enumerate(zip(L.realization, members)):
        zero = all(expr.is_zero(r) for r in symmetry_residual(g, system))
        contains[f"v{i + 1}"] = {"in_span": member, "residual_zero": zero}
    report["reference_check"] = {
        "contains": contains,
        "reference_dimension": 5,
        "computed_dimension": len(basis),
    }
    rejected = [label for label, info in contains.items() if not info["residual_zero"]]
    if rejected:
        note(
            "reference:boundary-layer/not-admitted",
            f"the baseline generators {', '.join(rejected)} have a nonzero "
            "symmetry residual, so this system does not admit them; the "
            "analysis sections still describe v1..v5 as given",
        )
    if len(basis) != 5:
        relation = "exceeds" if len(basis) > 5 else "is below"
        detail = f"computed nullspace dimension {len(basis)} {relation} the baseline count 5"
        if extra_in_span:
            detail += (f"; the span also contains {extra} (zero residual, "
                       "excluded by the baseline determining equations)")
        note("reference:boundary-layer/symmetry-dimension", detail)

    struct = report["structure"]
    struct["matches_reference_commutators"] = all(
        L.constants[i][j] == reference.COMMUTATOR_TABLE[i][j]
        for i in range(5)
        for j in range(5)
    )
    struct["matches_reference_killing"] = struct["killing"] == [
        [jfrac(c) for c in row] for row in reference.KILLING_FORM
    ]
    dims = [len(s) for s in struct["derived_series"]]
    struct["derived_dimensions"] = dims
    if tuple(dims) == reference.EXPECTED_DERIVED_DIMS:
        note(
            "reference:boundary-layer/derived-series",
            "the exact derived series is g > span{v1,v2,v3} > 0; the "
            "baseline prints the chain <v1..v5> > <v1,v2,2*v3>, which is "
            "inconsistent with its own commutator table",
        )

    deltas = {}
    for i in range(5):
        M = adjoint.ad_exp(L, i)
        baseline = reference.adjoint_matrix(i)
        diff = [(r, c) for r in range(5) for c in range(5)
                if adjoint.expression(M[r][c]) != baseline[r][c]]
        if diff:
            deltas[i] = diff
            positions = ", ".join(f"({r + 1},{c + 1})" for r, c in diff)
            note(
                f"reference:boundary-layer/adjoint-matrix-{i + 1}",
                f"the Lie-series adjoint matrix of {L.labels[i]} differs "
                f"from the baseline at {positions}; the baseline entry is "
                "not produced by the series",
            )
    report["adjoint"]["baseline_deltas"] = {
        str(i + 1): [[r + 1, c + 1] for r, c in diff]
        for i, diff in deltas.items()
    }

    if all(fm is not None for fm in flow_maps[:5]):
        chain = flow_maps[0]
        for fm in flow_maps[1:5]:
            chain = adjoint.compose(fm, chain)
        ours = adjoint.transform_solution(chain, space)
        baseline = reference.composite_solution(space)
        diff = {
            dep.name: expr.render(ours[dep] - base)
            for dep, base in zip(space.dependent, baseline)
        }
        report["composite"] = {
            "computed": {d.name: expr.render(e) for d, e in ours.items()},
            "baseline": {
                d.name: expr.render(b) for d, b in zip(space.dependent, baseline)
            },
            "difference": diff,
        }
        mismatched = [name for name, d in diff.items() if d != "0"]
        if mismatched:
            note(
                "reference:boundary-layer/composite-transform",
                "the composed five-flow transform differs from the baseline "
                f"composite in {', '.join(mismatched)}; the baseline composite "
                "follows a different orientation convention, so the symbolic "
                "difference is reported instead of asserted",
            )

    inv = report["invariants"]
    inv["baseline_first_order"] = [
        {
            "expression": expr.render(e),
            "verified": invariants.verify_invariant(e, usable),
            "in_lattice": inv["order"] >= 1
            and invariants.in_invariant_lattice(ws, lattice, e),
        }
        for e in reference.first_order_invariants(space)
    ]
    for gen_idx, rows in sorted(reference.invariant_table_rows(space).items()):
        label = L.labels[gen_idx]
        gen = L.realization[gen_idx]
        results = []
        failures = []
        for entry, e in rows:
            ok = invariants.verify_invariant(e, [gen])
            results.append({"entry": entry, "verified": ok})
            if not ok:
                failures.append(entry)
        inv[f"baseline_table_{label}"] = results
        if failures:
            note(
                f"reference:boundary-layer/invariant-table-{label}",
                f"baseline invariant-table entries not annihilated by "
                f"{label}: {', '.join(failures)}",
            )

    results, collisions = optimal.verify_optimal_table(
        L, reference.optimal_table_entries())
    opt = report["optimal"] = {
        "invariant_components": [L.labels[j] for j in optimal.invariant_components(L)],
        "entries": optimal_entries_json(results),
        "fingerprint_collisions": collisions,
    }
    failures = [r.label for r in results if not r.closed]
    if failures:
        note(
            "reference:boundary-layer/optimal-2d-closure",
            "baseline subalgebra entries that do not close under the bracket: "
            + "; ".join(failures),
        )
    reps = [vec for _, vec in reference.optimal_1d_representatives()]
    gaps = opt["one_dimensional_coverage_gaps"] = optimal.coverage_gaps(L, reps)
    if gaps:
        note(
            "reference:boundary-layer/optimal-1d-coverage",
            "the baseline one-dimensional representative list covers no "
            f"direction with nonzero invariant components ({', '.join(gaps)}); "
            "the list cannot be a complete optimal system",
        )


def optimal_entries_json(results):
    """The JSON entries of `optimal.verify_optimal_table` results."""
    return [
        {
            "label": r.label,
            "dimension": r.dim,
            "closed": r.closed,
            "abelian": r.abelian,
            "ideal": r.ideal,
            "derived_intersection_dim": r.derived_intersection_dim,
        }
        for r in results
    ]


def optimal_entry_text(entry):
    """One optimal-table entry as a text line: label, dimension and flags."""
    flags = ["closed" if entry["closed"] else "NOT CLOSED"]
    if entry["abelian"]:
        flags.append("abelian")
    if entry["ideal"]:
        flags.append("ideal")
    return f"{entry['label']}: dim {entry['dimension']} [{', '.join(flags)}]"


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def emit(doc, fmt="text", lines=None):
    """Render a document as bytes, deterministically.

    'json' encodes `doc` as it stands; 'text' joins the lines that
    `lines(doc)` returns, by default `report_lines` for a report document.
    """
    if fmt == "json":
        return (json.dumps(doc, indent=2, sort_keys=False) + "\n").encode()
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r}")
    return ("\n".join((lines or report_lines)(doc)) + "\n").encode()


def report_lines(report):
    """The text report, one line per entry, rendered from the report document."""
    lines = []
    add = lines.append
    add("== system ==")
    system = report["system"]
    add(f"independent: {', '.join(system['independent'])}")
    add(f"dependent:   {', '.join(system['dependent'])}")
    add(f"parameters:  {', '.join(system['parameters'])}")
    for eq in system["equations"]:
        add(f"equation:    {eq} = 0")
    add(f"solved for:  {', '.join(system['leads'])}")
    add("")
    add("== symmetries ==")
    d = report["determining"]
    add(
        f"ansatz degree {report['options']['ansatz_degree']}: "
        f"{d['unknowns']} unknowns, {d['equations_raw']} equations "
        f"({d['equations_deduped']} after dedup), "
        f"nullspace dimension {d['dimension']}"
    )
    for g in report["generators"]:
        flag = "residuals 0" if g["residual_zero"] else "RESIDUAL NONZERO"
        add(f"  {g['label']}: xi=({', '.join(g['xi'])}) "
            f"phi=({', '.join(g['phi'])})  [{flag}]")
    if report.get("reference_check"):
        add("reference generators:")
        for label, info in report["reference_check"]["contains"].items():
            add(
                f"  {label}: in span: {info['in_span']}, "
                f"residual zero: {info['residual_zero']}"
            )
    if "structure" in report:
        lines += _analysis_lines(report)
    opt = report.get("optimal")
    if opt:
        add("")
        add("== optimal-system verification ==")
        add("adjoint-invariant components: "
            + ", ".join(opt["invariant_components"]))
        for entry in opt["entries"]:
            add(f"  {optimal_entry_text(entry)}")
        gaps = opt["one_dimensional_coverage_gaps"]
        if gaps:
            add(f"one-dimensional list does not cover: {', '.join(gaps)}")
    add("")
    add("== notes ==")
    if report["notes"]:
        for n in report["notes"]:
            add(f"  [{n['anchor']}] {n['detail']}")
    else:
        add("  none")
    return lines


def _analysis_lines(report):
    """The text of the structure, adjoint, flow, invariant and similarity
    sections."""
    lines = []
    add = lines.append
    add("")
    add("== structure ==")
    struct = report["structure"]
    labels = struct["labels"]
    add("commutator table ([row, column]):")
    add("        " + "  ".join(f"{l:>8}" for l in labels))
    for l, row in zip(labels, struct["commutators_pretty"]):
        add(f"  {l:>4}  " + "  ".join(f"{c:>8}" for c in row))
    add("Killing form:")
    for row in struct["killing"]:
        add("  [" + ", ".join(f"{c:>4}" for c in row) + "]")
    add(f"killing determinant: {struct['killing_determinant']}")
    add(
        f"solvable: {struct['solvable']}  "
        f"nilpotent: {struct['nilpotent']}  "
        f"semisimple: {struct['semisimple']}"
    )
    add("derived series dims: "
        + " > ".join(str(len(s)) for s in struct["derived_series"]))
    if "adjoint" in report:
        add("")
        add("== adjoint matrices ==")
        for i, M in enumerate(report["adjoint"]["matrices"]):
            add(f"Ad(exp(eps {labels[i]})) rows:")
            for row in M:
                add("  [" + ", ".join(_exppoly_text(e) for e in row) + "]")
    add("")
    add("== flows ==")
    for f in report["flows"]:
        if "skipped" in f:
            add(f"  {f['label']}: skipped ({f['skipped']})")
            continue
        add(f"  {f['label']}: "
            + ", ".join(f"{k} -> {v}" for k, v in f["map"].items()))
        if "transformed" in f:
            add("      transforms: "
                + ", ".join(f"{k} -> {v}" for k, v in f["transformed"].items()))
    composite = report.get("composite")
    if composite:
        add("composite of all flows (shared parameter):")
        for k, v in composite["computed"].items():
            add(f"  {k} -> {v}")
        add("difference against baseline composite:")
        for k, v in composite["difference"].items():
            add(f"  {k}: {v}")
    add("")
    add("== invariants ==")
    inv = report["invariants"]
    add(f"order: {inv['order']}")
    if "lattice_monomials" in inv:
        add(f"masked coordinates: {', '.join(inv.get('masked', []))}")
        add("lattice generators:")
        for m in inv["lattice_monomials"]:
            add(f"  {m}")
    for key in sorted(inv):
        if key.startswith("baseline_table_"):
            fails = [r["entry"] for r in inv[key] if not r["verified"]]
            ok = [r["entry"] for r in inv[key] if r["verified"]]
            add(f"{key[len('baseline_table_'):]} table: {len(ok)} verified"
                + (f", failed: {', '.join(fails)}" if fails else ""))
    add("")
    add("== similarity forms ==")
    for s in report["similarity"]:
        if "skipped" in s:
            add(f"  {s['label']}: skipped ({s['skipped']})")
        elif s.get("note") and not s["substitutions"]:
            add(f"  {s['label']}: {s['note']}")
        else:
            add(f"  {s['label']}: "
                + ", ".join(f"{d['variable']} = {d['value']}"
                            for d in s["substitutions"]))
    return lines


def _exppoly_text(terms):
    """An adjoint entry, given as its `jexppoly` terms, in `expr.render`."""
    return expr.render(sum(
        (adjoint.exp_term(Fraction(t["c"]), t.get("eps_power", 0),
                          Fraction(t.get("eps_exp", 0))) for t in terms),
        expr.ZERO))
