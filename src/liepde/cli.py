"""Command-line interface.

Subcommands run individual analysis stages on a system-definition file (or,
for algebra-level commands, on a structure-constants JSON document), so each
part of the workbench is independently scriptable:

    liepde symmetries system.pde
    liepde structure system.pde            # or --constants algebra.json
    liepde adjoint system.pde
    liepde flows system.pde
    liepde invariants --order 2 system.pde
    liepde check-generator --field "0; x; 0; u; 0" system.pde
    liepde normal-form --vector "1,0,0,1,0" system.pde
    liepde verify-optimal --file table.json system.pde

`symmetries`, `adjoint`, `flows`, `invariants` and `structure` without
`--constants` print the full pipeline report.  Every command builds one
document and prints it with `pipeline.emit`: as it stands with `--report
json`, else as text rendered from it.  Exit code 0 means no module error;
discrepancy notes never fail a run.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import expr, linalg, optimal, parser, pipeline, reference, structure
from .errors import LiepdeError
from .fields import VectorField
from .prolongation import symmetry_residual


def main(argv=None):
    args = _build_parser().parse_args(
        _attach_vector(sys.argv[1:] if argv is None else argv))
    try:
        _check_options(args)
        output = args.run(args)
    except (LiepdeError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(output)
    else:
        sys.stdout.write(output.decode())
    return 0


def _check_options(args):
    """Reject a negative `--ansatz-degree` or `--order` before any stage runs."""
    for option, value in (("--ansatz-degree", args.ansatz_degree),
                          ("--order", getattr(args, "order", 0))):
        if value < 0:
            raise LiepdeError(f"{option} must be a non-negative integer, got {value}")


def _attach_vector(argv):
    """Join `--vector VALUE` into `--vector=VALUE` when VALUE is negative.

    argparse reads a value such as `-1,0,0,1,0` as an option name; joined,
    a vector with a negative first coordinate works as written.
    """
    out = []
    for token in argv:
        if out and out[-1] == "--vector" and re.match(r"-[0-9]", token):
            out[-1] = f"--vector={token}"
        else:
            out.append(token)
    return out


def _build_parser():
    top = argparse.ArgumentParser(
        prog="liepde",
        description="Exact Lie point symmetry analysis of polynomial PDE systems",
    )
    top.add_argument("--ansatz-degree", type=int, default=1,
                     help="polynomial degree of the symmetry ansatz (default 1)")
    top.add_argument("--report", choices=("text", "json"), default="text")
    top.add_argument("--out", help="write the report to a file instead of stdout")
    top.add_argument(
        "--reference", choices=("auto", "on", "off"), default="auto",
        help="compare against the bundled boundary-layer baseline "
             "(auto: only for the shipped fixture)",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, run):
        p = sub.add_parser(name)
        p.add_argument("system", nargs="?",
                       help="system-definition file (defaults to the "
                            "shipped boundary-layer fixture)")
        p.set_defaults(run=run)
        return p

    add("symmetries", _cmd_full_report)
    p = add("structure", _cmd_structure)
    p.add_argument("--constants", help="structure-constants JSON document")
    add("adjoint", _cmd_full_report)
    add("flows", _cmd_full_report)
    p = add("invariants", _cmd_full_report)
    p.add_argument("--order", type=int, default=1)
    p = add("check-generator", _cmd_check_generator)
    p.add_argument("--field", required=True,
                   help="semicolon-separated coefficients, xi first then phi")
    p = add("normal-form", _cmd_normal_form)
    p.add_argument("--vector", required=True,
                   help="comma-separated rational coordinates")
    p.add_argument("--constants", help="structure-constants JSON document")
    p = add("verify-optimal", _cmd_verify_optimal)
    p.add_argument("--file", required=True,
                   help="JSON table of subalgebra entries")
    p.add_argument("--constants", help="structure-constants JSON document")
    return top


def _load_document(args):
    path = getattr(args, "system", None)
    if path:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = reference.fixture_text()
    return parser.parse_system(text)


def _use_reference(args):
    return {"auto": None, "on": True, "off": False}[args.reference]


def _cmd_full_report(args):
    report = pipeline.run_pipeline(
        _load_document(args),
        ansatz_degree=args.ansatz_degree,
        invariant_order=getattr(args, "order", 1),
        use_reference=_use_reference(args),
    )
    return pipeline.emit(report, args.report)


def _cmd_structure(args):
    if not args.constants:
        return _cmd_full_report(args)
    L = _algebra_for(args)
    K = structure.killing_form(L)
    derived = structure.derived_series(L)
    out = {
        "schema": pipeline.SCHEMA_VERSION,
        "labels": list(L.labels),
        "commutators_pretty": pipeline.commutators_pretty(L),
        "killing": [[pipeline.jfrac(c) for c in row] for row in K],
        # is_solvable and is_semisimple, read off the above
        "solvable": derived[-1].dim == 0,
        "semisimple": linalg.det(K) != 0,
        "derived_dimensions": [s.dim for s in derived],
    }
    return pipeline.emit(out, args.report, lambda out: [
        f"algebra on {', '.join(out['labels'])}",
        *(f"  {label}: " + "  ".join(row)
          for label, row in zip(out["labels"], out["commutators_pretty"])),
        f"solvable: {out['solvable']}  semisimple: {out['semisimple']}",
        "derived dims: " + " > ".join(map(str, out["derived_dimensions"])),
    ])


def _cmd_check_generator(args):
    doc = _load_document(args)
    space, system = parser.build_system(doc)
    vf = VectorField(space, *parser.parse_field(args.field, doc.names()))
    residuals = symmetry_residual(vf, system)
    out = {
        "schema": pipeline.SCHEMA_VERSION,
        "field": pipeline.field_json(vf),
        "residuals": [expr.render(r) for r in residuals],
        "is_symmetry": all(expr.is_zero(r) for r in residuals),
    }
    return pipeline.emit(out, args.report, lambda out: [
        f"field: {vf}",
        *(f"  residual of [{expr.render(eq)} = 0]: {r}"
          for eq, r in zip(system.equations, residuals)),
        f"symmetry: {out['is_symmetry']}",
    ])


def _algebra_for(args):
    """The algebra of `--constants`, else the one `pipeline` analyses."""
    if getattr(args, "constants", None):
        with open(args.constants, encoding="utf-8") as fh:
            return structure.algebra_from_json(json.load(fh))
    doc = _load_document(args)
    space, system = parser.build_system(doc)
    ref = pipeline.reference_on(doc, space, _use_reference(args))
    return pipeline.analysed_algebra(space, system, ref, args.ansatz_degree)


def _cmd_normal_form(args):
    vec = []
    for position, x in enumerate(args.vector.split(","), 1):
        try:
            vec.append(structure.parse_rational(x.strip()))
        except ValueError as exc:
            raise ValueError(f"--vector coordinate {position}: {exc}") from None
    L = _algebra_for(args)
    if len(vec) != L.n:
        raise LiepdeError(f"vector needs {L.n} coordinates, got {len(vec)}")
    r = optimal.normal_form_1d(L, vec)
    out = {
        "schema": pipeline.SCHEMA_VERSION,
        "input": [pipeline.jfrac(x) for x in r.input],
        "output": [pipeline.jfrac(x) for x in r.output],
        "output_pretty": L.format_vector(r.output),
        "negated": r.negated,
        "fingerprint_components": [L.labels[j] for j in r.fingerprint_indices],
        "fingerprint": [pipeline.jfrac(x) for x in r.fingerprint()],
        "steps": [
            {
                "kind": s.kind,
                "direction": L.labels[s.index],
                "parameter": pipeline.jfrac(s.parameter),
                "after": [pipeline.jfrac(x) for x in s.after],
            }
            for s in r.steps
        ],
    }
    return pipeline.emit(out, args.report, lambda out: [
        f"input:  {L.format_vector(r.input)}",
        f"output: {out['output_pretty']}" + ("  (negated)" if r.negated else ""),
        f"fingerprint ({', '.join(out['fingerprint_components'])}): "
        f"({', '.join(out['fingerprint'])})",
        *(f"  step: {s.describe(L)} -> {L.format_vector(s.after)}" for s in r.steps),
    ])


def _cmd_verify_optimal(args):
    L = _algebra_for(args)
    with open(args.file, encoding="utf-8") as fh:
        entries = structure.table_from_json(json.load(fh))
    results, collisions = optimal.verify_optimal_table(L, entries)
    out = {
        "schema": pipeline.SCHEMA_VERSION,
        "entries": pipeline.optimal_entries_json(results),
        "fingerprint_collisions": collisions,
    }
    return pipeline.emit(out, args.report, lambda out: [
        pipeline.optimal_entry_text(e) for e in out["entries"]
    ])


if __name__ == "__main__":
    sys.exit(main())
