"""Per-layer tracing of liepde from outside the package.

The tracer replaces each traced public function with a wrapper at every
module attribute bound to it (``pipeline``, ``optimal`` and ``cli`` import
several of them by name) and, for ``jet.PDESystem.reduce``, on the class.
Every call records a span -- name, start, end and parent span -- in memory;
``write`` stores them when the operation ends.  Self time is a span's
duration minus the time covered by its direct child spans.

Counters are read from arguments and return values.  The time spent
computing them is charged to ``counter_s`` and removed from the enclosing
span, so self times stay those of the program.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

# module -> traced public functions; "Class.method" entries are wrapped on the class.
LAYERS = {
    "parser": ("build_system",),
    "expr": ("normalize", "diff", "substitute", "collect", "is_zero"),
    "jet": ("total_derivative", "PDESystem.reduce"),
    "prolongation": ("prolong", "symmetry_residual", "build_determining",
                     "solve_determining", "span_contains"),
    "linalg": ("rref_param", "expr_to_paramfrac", "clear_denominators",
               "integer_kernel", "rref"),
    "structure": ("algebra_from_json", "structure_constants", "killing_form"),
    "adjoint": ("matrix_exp", "rational_eigenvalues", "flow", "transform_solution"),
    "invariants": ("weight_system", "verify_invariant"),
    "optimal": ("normal_form_1d", "classify_directions", "invariant_components",
                "verify_optimal_table"),
    "pipeline": ("run_pipeline", "emit"),
}

FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

COUNTERS = (
    "prolongation.determining.unknowns",
    "prolongation.determining.equations_raw",
    "prolongation.determining.equations_deduped",
    "linalg.rref_param.cells",
    "linalg.rref_param.nonzeros",
    "linalg.rref_param.param_entries",
)


class Tracer:
    def __init__(self):
        self.calls = [0] * len(FUNCTIONS)
        self.self_s = [0.0] * len(FUNCTIONS)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.counter_s = 0.0
        self.residual_fields = set()
        self.algebras = set()
        # Spans, one entry per call, in call order.
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack = []  # [child seconds, span index] per open span
        self._restore = []
        self._originals = {}

    # -- installation ----------------------------------------------------------

    def install(self):
        modules = {
            name: importlib.import_module(f"liepde.{name}") for name in LAYERS
        }
        importlib.import_module("liepde.cli")
        for idx, qualified in enumerate(FUNCTIONS):
            mod_name, _, attr = qualified.partition(".")
            if "." in attr:
                cls_name, _, meth = attr.partition(".")
                cls = getattr(modules[mod_name], cls_name)
                original = cls.__dict__[meth]
                self._originals[qualified] = original
                self._bind(cls, meth, self._wrap(idx, qualified, original))
                continue
            original = getattr(modules[mod_name], attr)
            self._originals[qualified] = original
            wrapper = self._wrap(idx, qualified, original)
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "")
                if name != "liepde" and not name.startswith("liepde."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._bind(mod, key, wrapper)

    def _bind(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- spans -----------------------------------------------------------------

    def _wrap(self, idx, qualified, fn):
        before = _BEFORE.get(qualified)
        after = _AFTER.get(qualified)
        stack = self._stack
        clock = time.perf_counter
        names, starts, ends, parents = (
            self.span_name, self.span_start, self.span_end, self.span_parent,
        )
        calls, self_s = self.calls, self.self_s
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                tracer._count(before, args)
            span = len(names)
            names.append(idx)
            parents.append(stack[-1][1] if stack else -1)
            frame = [0.0, span]
            stack.append(frame)
            t0 = clock()
            starts.append(t0)
            ends.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                ends[span] = t1
                calls[idx] += 1
                self_s[idx] += (t1 - t0) - frame[0]
                if stack:
                    stack[-1][0] += t1 - t0
            if after is not None:
                tracer._count(after, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", qualified)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, counter, value):
        t0 = time.perf_counter()
        counter(self, value)
        spent = time.perf_counter() - t0
        self.counter_s += spent
        if self._stack:
            self._stack[-1][0] += spent

    # -- results ---------------------------------------------------------------

    def summary(self):
        """Calls, self times (wall seconds) and counters."""
        out = {"calls": {}, "self_s": {}}
        for idx, name in enumerate(FUNCTIONS):
            out["calls"][name] = self.calls[idx]
            out["self_s"][name] = self.self_s[idx]
        out["counters"] = dict(self.counters)
        out["counter_s"] = self.counter_s
        out["spans"] = len(self.span_name)
        out["residual_fields_distinct"] = len(self.residual_fields)
        out["algebras_distinct"] = len(self.algebras)
        return out

    def write(self, path):
        """Write the spans as tab-separated `id name start end parent` lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\n")
            for i, (n, s, e, p) in enumerate(zip(
                self.span_name, self.span_start, self.span_end, self.span_parent,
            )):
                fh.write(f"{i}\t{FUNCTIONS[n]}\t{s:.9f}\t{e:.9f}\t{p}\n")


# -- counters read from arguments and return values -----------------------------

def _determining(tracer, ds):
    c = tracer.counters
    c["prolongation.determining.unknowns"] += len(ds.ansatz.unknowns)
    c["prolongation.determining.equations_raw"] += ds.raw_count
    c["prolongation.determining.equations_deduped"] += ds.deduped_count


def _rref_param(tracer, args):
    rows = args[0]
    c = tracer.counters
    if rows:
        c["linalg.rref_param.cells"] += len(rows) * len(rows[0])
    for row in rows:
        for x in row:
            if not x.is_zero():
                c["linalg.rref_param.nonzeros"] += 1
                if not (x.num.is_constant() and x.den.is_constant()):
                    c["linalg.rref_param.param_entries"] += 1


def _residual_field(tracer, args):
    normalize = tracer._originals["expr.normalize"]
    tracer.residual_fields.add(
        tuple(normalize(c)._key for c in args[0].coefficients)
    )


def _algebra(tracer, args):
    tracer.algebras.add(args[0].constants)


_BEFORE = {
    "linalg.rref_param": _rref_param,
    "prolongation.symmetry_residual": _residual_field,
    "optimal.classify_directions": _algebra,
}

_AFTER = {
    "prolongation.build_determining": _determining,
}
