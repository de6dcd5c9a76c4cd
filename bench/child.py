"""Run one benchmark operation in a fresh interpreter.

    python3 bench/child.py SPEC.json RESULT.json

SPEC names the operation kind and its input files.  The child times its
set-up (import of liepde plus loading the inputs) and then the operation
itself, in wall seconds.  Set-up is converted to reference seconds with
calibration loops run first thing, before liepde is imported; the
operation, with the samples ``calib.py`` takes in a process of its own over
the clock readings that bound it.  It reads its peak RSS, and
only afterwards serializes the outputs and computes what the correctness
checks need (those calls are not timed and not traced).  With
``"trace": true`` the tracer wraps the package's public functions for the
timed region and writes the spans to ``trace_out``.
"""

import time

import calib

# The host's speed just before set-up, sampled while this interpreter holds
# nothing of liepde's.
SETUP_SPEED = calib.speed([calib.calibrate() for _ in range(5)])
T0 = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402


# -- set-up: import the package and load the operation's inputs ------------------

def load_cli(spec):
    from liepde import cli, parser, reference

    path = spec.get("system")
    if path:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = reference.fixture_text()
    parser.build_system(parser.parse_system(text))
    for extra in spec.get("read", ()):
        with open(extra, encoding="utf-8") as fh:
            json.load(fh)
    return {"cli": cli}


def load_algebra(spec):
    from liepde import adjoint, optimal, structure

    inputs = {"adjoint": adjoint, "optimal": optimal, "structure": structure}
    for key, path in spec["files"].items():
        with open(path, encoding="utf-8") as fh:
            inputs[key] = json.load(fh)
    return inputs


# -- the timed operations ---------------------------------------------------------

def run_cli(spec, inp):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = inp["cli"].main(spec["argv"])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _vectors(rows):
    return [[Fraction(x) for x in row] for row in rows]


def run_fixture_algebra(spec, inp):
    structure, optimal = inp["structure"], inp["optimal"]
    L = structure.algebra_from_json(inp["algebra"])
    forms = [optimal.normal_form_1d(L, v) for v in _vectors(inp["vectors"])]
    entries = [
        (e["label"], _vectors(e["vectors"])) for e in inp["table"]["entries"]
    ]
    results, _ = optimal.verify_optimal_table(L, entries)
    reps = [vecs[0] for _, vecs in entries if len(vecs) == 1]
    gaps = optimal.coverage_gaps(L, reps)
    return {"L": L, "forms": forms, "table": results, "gaps": gaps}


def run_b4(spec, inp):
    structure, optimal, adjoint = inp["structure"], inp["optimal"], inp["adjoint"]
    L = structure.algebra_from_json(inp["algebra"])
    killing = structure.killing_form(L)
    derived = structure.derived_series(L)
    lower = structure.lower_central_series(L)
    flags = {
        "solvable": structure.is_solvable(L),
        "nilpotent": structure.is_nilpotent(L),
        "semisimple": structure.is_semisimple(L),
    }
    ads = [adjoint.ad_exp(L, i) for i in range(L.n)]
    return {"L": L, "killing": killing, "derived": derived, "lower": lower,
            "flags": flags, "ads": ads}


def run_forms(spec, inp):
    L = inp["structure"].algebra_from_json(inp["algebra"])
    return {"L": L, "forms": [inp["optimal"].normal_form_1d(L, v)
                              for v in _vectors(inp["vectors"])]}


def run_spectrum(spec, inp):
    structure, optimal, adjoint = inp["structure"], inp["optimal"], inp["adjoint"]
    L = structure.algebra_from_json(inp["algebra"])
    ads = [adjoint.ad_exp(L, i) for i in range(L.n)]
    e1 = [1] + [0] * (L.n - 1)
    roots = adjoint.rational_eigenvalues(
        adjoint.char_poly(adjoint.ad_matrix(L, e1))
    )
    forms = [optimal.normal_form_1d(L, v) for v in _vectors(inp["vectors"])]
    return {"L": L, "ads": ads, "roots": roots, "forms": forms}


# -- untimed: serialize outputs and gather what the checks need --------------------

def q(x):
    return str(Fraction(x))


def exppoly_json(e):
    """Terms [m, k, c] of c * eps^m * e^(k*eps); the constant exponent r is 0 here."""
    out = []
    for (r, ms, ks), c in sorted(e.terms.items()):
        if r != 0:
            raise ValueError("unexpected constant exponent in an adjoint entry")
        out.append([ms[0], q(ks[0]), q(c)])
    return out


def form_json(L, r, optimal):
    again = optimal.normal_form_1d(L, r.output) if any(r.output) else None
    return {
        "input": [q(x) for x in r.input],
        "output": [q(x) for x in r.output],
        "negated": r.negated,
        "fingerprint_indices": list(r.fingerprint_indices),
        "steps": [
            {"kind": s.kind, "index": s.index, "parameter": q(s.parameter),
             "after": [q(x) for x in s.after]}
            for s in r.steps
        ],
        "again": None if again is None else [q(x) for x in again.output],
    }


def subspace_json(s):
    return [[q(x) for x in row] for row in s.basis]


def post_cli(spec, inp, out):
    if spec.get("post") == "normal-form-again" and out["exit"] == 0:
        vector = ",".join(json.loads(out["stdout"])["output"])
        again = run_cli({"argv": ["--report", "json", "normal-form", "--vector", vector]}, inp)
        out["again"] = again["stdout"]
    if spec.get("post") == "determining":
        out["determining"] = _determining_json(inp["captured"])
    return out


def _determining_json(captured):
    from liepde import expr

    if len(captured) != 1:
        raise RuntimeError(f"expected one determining system, saw {len(captured)}")
    ds = captured[0]
    unknowns = list(ds.ansatz.unknowns)
    index = {u: i for i, u in enumerate(unknowns)}
    return {
        "unknowns": [u.name for u in unknowns],
        "parameters": [p.name for p in ds.system.parameters],
        "rows": [
            [[index[u], expr.render(c)] for u, c in form.items()]
            for form in ds.equations
        ],
    }


def post_fixture_algebra(spec, inp, out):
    L, optimal = out["L"], inp["optimal"]
    return {
        "forms": [form_json(L, r, optimal) for r in out["forms"]],
        "table": [
            {"label": r.label, "dimension": r.dim, "closed": r.closed,
             "abelian": r.abelian, "ideal": r.ideal}
            for r in out["table"]
        ],
        "gaps": out["gaps"],
    }


def post_b4(spec, inp, out):
    return {
        "killing": [[q(x) for x in row] for row in out["killing"]],
        "derived": [subspace_json(s) for s in out["derived"]],
        "lower": [subspace_json(s) for s in out["lower"]],
        "flags": out["flags"],
        "ads": [[[exppoly_json(e) for e in row] for row in M] for M in out["ads"]],
    }


def post_forms(spec, inp, out):
    return {"forms": [form_json(out["L"], r, inp["optimal"]) for r in out["forms"]]}


def post_spectrum(spec, inp, out):
    L, optimal = out["L"], inp["optimal"]
    return {
        "ads": [[[exppoly_json(e) for e in row] for row in M] for M in out["ads"]],
        "roots": {q(k): v for k, v in out["roots"].items()},
        "forms": [form_json(L, r, optimal) for r in out["forms"]],
    }


KINDS = {
    "cli": (load_cli, run_cli, post_cli),
    "fixture-algebra": (load_algebra, run_fixture_algebra, post_fixture_algebra),
    "b4": (load_algebra, run_b4, post_b4),
    "forms": (load_algebra, run_forms, post_forms),
    "spectrum": (load_algebra, run_spectrum, post_spectrum),
}


def peak_rss_kb():
    """High-water RSS of this process image.

    VmHWM starts afresh at exec; ru_maxrss would carry over the parent's
    peak from before the exec.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def capture_determining(inp):
    """Keep the determining system the pipeline builds, for the nullity check."""
    from liepde import pipeline

    inner = pipeline.build_determining
    inp["captured"] = []

    def build_determining(*args, **kwargs):
        ds = inner(*args, **kwargs)
        inp["captured"].append(ds)
        return ds

    pipeline.build_determining = build_determining


def main():
    spec_path, result_path = sys.argv[1], sys.argv[2]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    load, run, post = KINDS[spec["kind"]]
    inp = load(spec)
    t_setup = time.monotonic()
    result = {"setup_wall_s": t_setup - T0, "setup_speed": SETUP_SPEED}
    if not spec.get("probe"):
        tracer = None
        if spec.get("trace"):
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        if spec.get("post") == "determining":
            capture_determining(inp)
        t1 = time.monotonic()
        out = run(spec, inp)
        t2 = time.monotonic()
        result["peak_rss_kb"] = peak_rss_kb()
        result["run_wall_s"] = t2 - t1
        result["run_window"] = [t1, t2]
        if tracer is not None:
            tracer.uninstall()
            result["trace"] = tracer.summary()
            tracer.write(spec["trace_out"])
        result["output"] = post(spec, inp, out)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
