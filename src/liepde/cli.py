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
    liepde normal-form --vector -1,0,0,1,0 system.pde
    liepde verify-optimal --file table.json system.pde

The command line is read off two tables: `GLOBAL` options before the
command, its `COMMANDS` options after it, as `--opt value` or `--opt=value`
(full names; a value may start with `-` but is not an option name; the last
repeat wins), then at most one system file, after `--` if it starts with `-`.
`symmetries`, `adjoint`, `flows`, `invariants` and `structure` without
`--constants` print the full pipeline report.  Every command prints one
document with `pipeline.emit`: as it stands with `--report json`, else as
text.  Exit code 0 means no module error (discrepancy notes never fail a
run), 1 a module error and 2 a command line the tables refuse; `-h` or
`--help` prints the usage read off the tables.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

from . import expr, optimal, parser, pipeline, reference, structure
from .errors import LiepdeError
from .fields import VectorField
from .prolongation import symmetry_residual


def main(argv=None):
    try:
        args = _read_argv(sys.argv[1:] if argv is None else argv)
    except _Usage as usage:
        command, error = usage.args
        if error is None:
            sys.stdout.write(_usage(command))
            return 0
        sys.stderr.write(f"{_usage(command)}liepde: error: {error}\n")
        return 2
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


class _Usage(Exception):
    """Raised with the command read so far and the error, or None for `-h`."""


def _read_argv(argv):
    """The namespace `argv` spells: the handler `run`, `system` and, underscored, each
    option of `GLOBAL` and the command's table, whose rows are (int, str or choices, default)."""
    values = {"system": None}
    command, options = None, GLOBAL
    tokens, ended = iter(argv), False  # after "--" every token is positional
    for token in tokens:
        if token == "--" and not ended:
            ended = True
        elif not ended and token in ("-h", "--help"):
            raise _Usage(command, None)
        elif not ended and token.startswith("-") and token != "-":
            name, attached, value = token.partition("=")
            if name not in options:
                raise _Usage(command, f"unrecognized option {name!r}")
            if not attached:
                value = next(tokens, None)
                if value is None or value.partition("=")[0] in (*GLOBAL, *options, "-h", "--help"):
                    raise _Usage(command, f"option {name} expects a value")
            kind = options[name][0]
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    raise _Usage(command, f"option {name}: invalid int value {value!r}") from None
            elif kind is not str and value not in kind:
                raise _Usage(command, f"option {name}: invalid choice {value!r} "
                                      f"(choose from {', '.join(kind)})")
            values[name[2:].replace("-", "_")] = value
        elif command is None:
            if token not in COMMANDS:
                raise _Usage(None, f"unknown command {token!r}")
            command, options = token, COMMANDS[token][1]
        elif values["system"] is None:
            values["system"] = token
        else:
            raise _Usage(command, f"unrecognized argument {token!r}")
    if command is None:
        raise _Usage(None, "a command is required")
    for name, (_, default) in {**GLOBAL, **options}.items():
        if values.setdefault(name[2:].replace("-", "_"), default) is REQUIRED:
            raise _Usage(command, f"option {name} is required")
    return SimpleNamespace(run=COMMANDS[command][0], **values)


def _usage(command):
    """The usage read off the tables: `command`'s line, or every command's."""
    def spell(options):
        words = []
        for name, (kind, default) in options.items():
            word = name + " " + ("N" if kind is int else name[2:].upper() if kind is str
                                 else "{" + ",".join(kind) + "}")
            words.append(word + " " if default is REQUIRED else f"[{word}] ")
        return "".join(words)
    return "".join([f"usage: liepde [-h] {spell(GLOBAL)}COMMAND [options] [system]\n"] + [
        f"  liepde {name} {spell(COMMANDS[name][1])}[system]\n"
        for name in ([command] if command else COMMANDS)])


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
    out = {
        "schema": pipeline.SCHEMA_VERSION,
        "labels": list(L.labels),
        "commutators_pretty": pipeline.commutators_pretty(L),
        "killing": [[pipeline.jfrac(c) for c in row] for row in structure.killing_form(L)],
        "solvable": structure.is_solvable(L),
        "semisimple": structure.is_semisimple(L),
        "derived_dimensions": [s.dim for s in structure.derived_series(L)],
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


REQUIRED = object()  # the default of an option that must be given
GLOBAL = {"--ansatz-degree": (int, 1), "--report": (("text", "json"), "text"),
          "--out": (str, None), "--reference": (("auto", "on", "off"), "auto")}
COMMANDS = {
    "symmetries": (_cmd_full_report, {}),
    "structure": (_cmd_structure, {"--constants": (str, None)}),
    "adjoint": (_cmd_full_report, {}),
    "flows": (_cmd_full_report, {}),
    "invariants": (_cmd_full_report, {"--order": (int, 1)}),
    "check-generator": (_cmd_check_generator, {"--field": (str, REQUIRED)}),
    "normal-form": (_cmd_normal_form, {"--vector": (str, REQUIRED), "--constants": (str, None)}),
    "verify-optimal": (_cmd_verify_optimal,
                       {"--file": (str, REQUIRED), "--constants": (str, None)}),
}


if __name__ == "__main__":
    sys.exit(main())
