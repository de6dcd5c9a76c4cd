"""liepde benchmark: one command, three workloads, correctness-checked.

    python3 bench/run.py --workload cli-mix --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each operation runs in a fresh
interpreter (``child.py``), one at a time: a closed loop with one client.
Passes over the workload's operations repeat until ``--seconds`` have
elapsed (at least one pass; with ``--trace 1`` an untraced and a traced pass
alternate).  Each output is checked when its child has ended, outside the
timed region.  Times are in reference seconds: wall time scaled by the
host's speed, which ``calib.py`` samples in a process of its own, pinned
with the children to one CPU.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calib  # noqa: E402

DEADLINE_S = 160
OUT_DIR = ".bench_out"
MIN_SETUP_SAMPLES = 41


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


class HostSpeed:
    """The host's speed, sampled by ``calib.py`` in a process of its own.

    A shared 2-vCPU VM changes speed by up to 1.6x within seconds, and its
    two CPUs drift apart, which swamps the differences the benchmark exists
    to show.  So the sampler and every child run pinned to one CPU, and
    times are reported in reference seconds: wall time, less the time the
    sampler took from the child, multiplied by that CPU's speed over the
    interval, measured outside the program.
    """

    PAD_S = 0.5
    MIN_SAMPLES = 5

    def __init__(self, folder, pin):
        self.path = os.path.join(folder, "speed.tsv")
        open(self.path, "w").close()
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "calib.py"), self.path],
                                     stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                     preexec_fn=pin)
        self.samples = []
        self._offset = 0

    def _read(self):
        with open(self.path, encoding="ascii") as fh:
            fh.seek(self._offset)
            text = fh.read()
        # Leave a line still being written for the next read.
        done = text.rfind("\n") + 1
        self._offset += done
        for line in text[:done].splitlines():
            t, loop = line.split("\t")
            self.samples.append((float(t), float(loop)))

    def wait_ready(self, timeout=10.0):
        end = time.monotonic() + timeout
        while len(self.samples) < self.MIN_SAMPLES and time.monotonic() < end:
            time.sleep(0.05)
            self._read()
        if len(self.samples) < self.MIN_SAMPLES:
            raise RuntimeError("the host-speed sampler produced no samples")

    def scale(self, window):
        """Reference seconds per wall second of a child over `window`.

        The speed is the mean over [start - PAD_S, end], or over the last
        MIN_SAMPLES before end; the sampler's own loops inside the window
        are taken out of the child's wall time.
        """
        if self.proc.poll() is not None:
            raise RuntimeError("the host-speed sampler has stopped")
        self._read()
        start, end = window
        upto = [loop for t, loop in self.samples if t <= end]
        inside = [loop for t, loop in self.samples if start - self.PAD_S <= t <= end]
        speed = calib.speed(inside if len(inside) >= self.MIN_SAMPLES
                            else upto[-self.MIN_SAMPLES:])
        wall = end - start
        busy = sum(loop for t, loop in self.samples if start <= t <= end)
        return speed * max(wall - busy, 0.0) / wall if wall > 0 else speed

    def stop(self):
        self.proc.terminate()
        self.proc.wait()


class Runner:
    def __init__(self, root, folder, deadline, speed, pin):
        self.root = root
        self.folder = folder
        self.deadline = deadline
        self.speed = speed
        self.pin = pin
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.join(root, "src") + (
            os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        # A fixed hash seed keeps set iteration order, and so the work done,
        # the same from child to child.
        self.env["PYTHONHASHSEED"] = "0"
        self.count = 0

    def child(self, spec):
        """Run one child; return its result, or {"error": reason} if it did not finish.

        Wall times are converted to reference seconds here: `setup_s`,
        `run_s` and, when traced, the self and counter times.
        """
        self.count += 1
        spec_path = os.path.join(self.folder, f"spec-{self.count}.json")
        result_path = os.path.join(self.folder, f"result-{self.count}.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        timeout = self.deadline - time.monotonic()
        if timeout <= 1:
            return {"error": "out of time before the operation started"}
        try:
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), spec_path, result_path],
                cwd=self.root, env=self.env, capture_output=True, text=True, timeout=timeout,
                preexec_fn=self.pin,
            )
        except subprocess.TimeoutExpired:
            return {"error": f"timed out after {timeout:.0f} s"}
        if done.returncode != 0:
            tail = done.stderr.strip().splitlines()[-1:] or ["no message"]
            return {"error": f"child exited {done.returncode}: {tail[0]}"}
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        os.remove(spec_path)
        os.remove(result_path)
        result["setup_s"] = result["setup_wall_s"] * result["setup_speed"]
        if "run_window" in result:
            factor = self.speed.scale(result["run_window"])
            result["scale"] = factor
            result["run_s"] = result["run_wall_s"] * factor
            trace = result.get("trace")
            if trace is not None:
                trace["self_s"] = {k: v * factor for k, v in trace["self_s"].items()}
                trace["counter_s"] *= factor
        return result


def run_pass(runner, ops, ctx, traced, pass_no, checks, verdicts):
    """Run every operation once; `verdicts` memoizes checks by output digest.

    Each result gets `failure` (None, or why the operation failed) and
    `known`: whether that failure is a check failure with the reason of the
    operation's named known fault.  A child that crashed, timed out or never
    started is never a known fault.
    """
    results = []
    for op in ops:
        spec = dict(op.spec, trace=traced)
        if traced:
            spec["trace_out"] = os.path.join(runner.folder, f"spans-{op.name}-{pass_no}.tsv")
        res = runner.child(spec)
        res["known"] = False
        if "error" in res:
            res["failure"] = res["error"]
        else:
            digest = hashlib.sha256(
                json.dumps(res["output"], sort_keys=True).encode()).hexdigest()
            if (op.name, digest) not in verdicts:
                verdicts[op.name, digest] = checks.run_check(op.check, ctx, res["output"])
            res["failure"] = verdicts[op.name, digest]
            res["known"] = bool(res["failure"] and op.known_fault
                                and res["failure"].startswith(op.known_fault))
        res["op"] = op.name
        results.append(res)
    return results


def clean(passes):
    """Passes in which every operation ran to its end (a known fault's check may fail)."""
    return [results for results in passes if all("error" not in r for r in results)]


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(passes, setup_samples):
    runs, rss = [], []
    for results in passes:
        runs.append(sum(r["run_s"] for r in results))
        rss.append(max((r["peak_rss_kb"] for r in results), default=0) / 1024)
    return {
        "setup_s": {"value": median(setup_samples), "unit": "s"},
        "run_s": {"value": median(runs), "unit": "s"},
        "peak_rss_mb": {"value": median(rss), "unit": "MB"},
    }


def per_layer(traced, untraced):
    import tracer

    per_pass = []
    for results in traced:
        vals = {}
        for name in tracer.FUNCTIONS:
            vals[f"{name}.calls"] = 0
            vals[f"{name}.self_s"] = 0.0
        for name in tracer.COUNTERS:
            vals[name] = 0
        distinct = {"fields": 0, "algebras": 0}
        run_s = self_sum = counter_s = 0.0
        spans = 0
        for r in results:
            t = r["trace"]
            run_s += r["run_s"]
            counter_s += t["counter_s"]
            spans += t["spans"]
            for name in tracer.FUNCTIONS:
                vals[f"{name}.calls"] += t["calls"][name]
                vals[f"{name}.self_s"] += t["self_s"][name]
                self_sum += t["self_s"][name]
            for name in tracer.COUNTERS:
                vals[name] += t["counters"][name]
            distinct["fields"] += t["residual_fields_distinct"]
            distinct["algebras"] += t["algebras_distinct"]
        raw = vals["prolongation.determining.equations_raw"]
        calls = vals["prolongation.symmetry_residual.calls"]
        classify = vals["optimal.classify_directions.calls"]
        vals["prolongation.determining.dedup_ratio"] = (
            vals["prolongation.determining.equations_deduped"] / raw if raw else 0.0)
        vals["prolongation.symmetry_residual.distinct_ratio"] = (
            distinct["fields"] / calls if calls else 0.0)
        vals["optimal.classify_directions.distinct_ratio"] = (
            distinct["algebras"] / classify if classify else 0.0)
        vals["trace.run_s"] = run_s
        vals["trace.attributed_share"] = self_sum / run_s if run_s else 0.0
        vals["trace.counter_s"] = counter_s
        vals["trace.spans"] = spans
        per_pass.append(vals)
    metrics = {}
    for name in per_pass[0]:
        metrics[name] = median([v[name] for v in per_pass])
    untraced_run = median([sum(r["run_s"] for r in res) for res in untraced])
    metrics["trace.untraced_run_s"] = untraced_run
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - untraced_run
    metrics.update(host_metrics(untraced))
    return {name: {"value": value, "unit": layer_unit(name)} for name, value in metrics.items()}


def host_metrics(passes):
    """Raw wall time of an untraced pass and the factor that scaled it."""
    wall = [sum(r["run_wall_s"] for r in res) for res in passes]
    scaled = [sum(r["run_s"] for r in res) for res in passes]
    return {
        "host.run_wall_s": median(wall),
        "host.scale": median([s / w for s, w in zip(scaled, wall) if w]),
    }


def layer_unit(name):
    if name == "host.scale":
        return "ratio"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def main(argv=None):
    args = parse_args(argv)
    started = time.monotonic()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "liepde", "__init__.py")):
        print("error: run from the root of a liepde checkout (src/liepde not found)",
              file=sys.stderr)
        return 2
    import checks
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    folder = os.path.join(root, OUT_DIR, args.workload)
    shutil.rmtree(folder, ignore_errors=True)
    os.makedirs(folder)
    # The sampler and every child share one CPU, so the sampler measures the
    # CPU the operations run on.
    pin = functools.partial(os.sched_setaffinity, 0, {max(os.sched_getaffinity(0))})
    speed = HostSpeed(folder, pin)
    try:
        return measure(args, root, folder, started, speed, pin, checks, workloads)
    finally:
        speed.stop()


def measure(args, root, folder, started, speed, pin, checks, workloads):
    # Byte-compile the package first, so no child pays for it inside set-up.
    subprocess.run([sys.executable, "-m", "compileall", "-q", os.path.join("src", "liepde")],
                   cwd=root, check=True, capture_output=True)

    inputs = workloads.make_inputs(args.seed, os.path.join(OUT_DIR, args.workload, "inputs"))
    ctx = checks.Context(inputs)
    ops = workloads.WORKLOADS[args.workload](inputs)
    speed.wait_ready()
    runner = Runner(root, folder, started + DEADLINE_S, speed, pin)

    print(f"# liepde benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# python {platform.python_version()}  nproc {os.cpu_count()}  "
          f"commit {commit(root)}")

    untraced, traced = [], []
    verdicts = {}
    attempted = failed = 0
    wrong = []
    loop_start = time.monotonic()
    longest = 0.0
    while True:
        t = time.monotonic()
        for mode in ((False, True) if args.trace else (False,)):
            results = run_pass(runner, ops, ctx, mode, len(untraced) + len(traced), checks,
                               verdicts)
            (traced if mode else untraced).append(results)
            attempted += len(results)
            for r in results:
                if "run_s" in r:
                    print(f"#   {'traced' if mode else 'pass  '} {r['op']:18s} "
                          f"setup {r['setup_s']:.4f} s  run {r['run_s']:.4f} s "
                          f"(wall {r['run_wall_s']:.4f} s, scale {r['scale']:.3f})  "
                          f"rss {r['peak_rss_kb'] / 1024:.1f} MB")
                if r["failure"]:
                    failed += 1
                    print(f"# FAILED {r['op']}: {r['failure']}"
                          + (" (known fault)" if r["known"] else ""))
                    if not r["known"]:
                        wrong.append(r["op"])
        longest = max(longest, time.monotonic() - t)
        if time.monotonic() - loop_start >= args.seconds:
            break
        if runner.deadline - time.monotonic() < 1.5 * longest:
            break

    # A pass in which an operation did not run to its end has no pass time;
    # such a run is already marked incorrect.
    untraced, traced = clean(untraced), clean(traced)
    setup_samples = [r["setup_s"] for res in untraced for r in res]
    if args.trace:
        metrics = per_layer(traced or [[]], untraced or [[]])
    else:
        # Set-up-only children, until the median rests on enough samples.
        probes = 0
        while len(setup_samples) < MIN_SETUP_SAMPLES and runner.deadline - time.monotonic() > 5:
            res = runner.child(dict(ops[probes % len(ops)].spec, probe=True))
            probes += 1
            if "error" in res:
                wrong.append(f"set-up probe: {res['error']}")
            else:
                setup_samples.append(res["setup_s"])
        metrics = end_to_end(untraced or [[]], setup_samples)
        print(f"# set-up: median {median(setup_samples):.5f} s over {len(setup_samples)} "
              f"children")
        if untraced:
            host = host_metrics(untraced)
            print(f"# untraced pass: wall {host['host.run_wall_s']:.4f} s, "
                  f"scale {host['host.scale']:.4f}")
    print(f"# passes {len(untraced)} untraced, {len(traced)} traced run to their end; "
          f"wall {time.monotonic() - started:.1f} s")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
