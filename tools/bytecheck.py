"""Compare the CLI output of two source trees byte for byte.

    python3 tools/bytecheck.py PARENT_TREE CHANGE_TREE

Writes its own inputs to a temporary directory, runs a fixed list of
``python -m liepde`` commands once with each tree's ``src`` on PYTHONPATH
(PYTHONHASHSEED=0, working directory the input directory, two processes at
a time, each stopped after TIMEOUT_S seconds) and prints one line per
command: ``same``, or ``DIFF`` with every stream that differs (stdout,
stderr, exit code) and the first line where it differs, or ``TIMEOUT`` and
the side that ran out of time.  The exit status is 0 when every command is
identical and 1 otherwise.

The inputs are the documents of ``tests/corpus.py``, read from this
file's own checkout, under the file names that its `SYSTEMS`,
`BAD_SYSTEMS`, `HIGH_ORDER`, `ALGEBRAS`, `TABLES` and `MALFORMED` give
them, and three algebras generated here (`algebra_documents`): b(4) in the
benchmark's seeded basis, labelled b1..b10, and [v1, v2] = c v2 with c
near 10^12 and with c the prime 10^24 + 7.  The optimal table for
``verify-optimal`` and the printed variant are the files bundled with
PARENT_TREE.  The commands, in text and JSON where a command has both:

- the shipped fixture at ansatz degrees 1-4, and at degrees 5 and 6 in
  JSON (determining matrices of 2884x1260 and 5723x2310, large enough that
  a change in the elimination's pivot path shows in the basis), every
  subcommand on it, its computed algebra (``--reference off``) at degrees
  1-2, and normal forms with negative, prime and scaled coordinates;
- each corpus system at the ansatz degrees and with the commands that the
  comments in `write_inputs` name, the baseline comparison on `FORCED`,
  `RENAMED` and the printed variant, and on `BURGERS`, which lacks the
  boundary-layer shape;
- ``structure --constants``, ``normal-form --constants`` and
  ``verify-optimal --constants`` on the corpus algebras and tables, and
  normal forms on the generated ones;
- every malformed system and document, which must end in its error, the
  usage, and the command lines refused before any stage runs.

A tree whose elimination takes the first candidate of least complexity as
the pivot, whatever its row's length, spends more than TIMEOUT_S on
`TWO_PARAMETER` at degree 3 (32 s on an idle 2-vCPU VM) and shows
``TIMEOUT`` there; so does a tree that does not bound the power that a
stage forms from `STAGE_POWER`.  ``algebra_documents`` and ``vectors`` are
also read by the test suite, so its number-type tests run on these inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                                "tests"))
import corpus  # noqa: E402

TABLE = os.path.join("src", "liepde", "data", "boundary_layer_optimal.json")
PRINTED = os.path.join("src", "liepde", "data", "boundary_layer_printed.pde")
TIMEOUT_S = 30

# normal forms on b(4) in the seeded basis of b4_seeded.json: a mixed vector
# with fractions, one whose translations refill each other's components,
# every component nonzero, and one scaling with a negation
B4_SEEDED_VECTORS = ("0,8,5/2,0,7/2,0,0,1,0,-5", "2,7/4,-6,0,0,0,7/4,4/3,-5/2,9",
                     "1,2,3,4,5,6,7,8,9,10", "-4,0,0,0,0,0,0,0,0,0")


def algebra_documents():
    """The structure-constants documents the commands read, by file name."""
    seeded = corpus.borel(4, random.Random(7))
    seeded["labels"] = [f"b{k + 1}" for k in range(seeded["dim"])]
    return {
        **corpus.ALGEBRAS,
        "b4_seeded.json": seeded,
        "spectrum.json": corpus.spectrum(10 ** 12 + random.Random(1).randrange(1, 10 ** 6)),
        "huge.json": corpus.spectrum(corpus.HUGE),
    }


def vectors(rng, count, dim):
    """Seeded nonzero rational vectors, about half their entries zero."""
    out = []
    while len(out) < count:
        v = [Fraction(0) if rng.random() < 0.5 else
             Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
             for _ in range(dim)]
        if any(v):
            out.append(",".join(str(x) for x in v))
    return out


def write_inputs(folder, parent):
    """Write the input files into `folder`; return the command list."""
    documents = {**corpus.TABLES, **corpus.MALFORMED, **algebra_documents()}
    files = {**corpus.SYSTEMS, **corpus.BAD_SYSTEMS, **corpus.HIGH_ORDER,
             **{name: json.dumps(doc) for name, doc in documents.items()}}
    for name, text in files.items():
        with open(os.path.join(folder, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    shutil.copy(os.path.join(parent, TABLE), os.path.join(folder, "table.json"))
    shutil.copy(os.path.join(parent, PRINTED), os.path.join(folder, "printed.pde"))

    js = ["--report", "json"]
    commands = []
    for degree in (1, 2, 3, 4):
        commands.append(["--ansatz-degree", str(degree), "symmetries"])
        commands.append(["--ansatz-degree", str(degree), *js, "symmetries"])
    # 2884x1260 and 5723x2310 determining matrices: a change of pivot path
    # shows here
    for degree in ("5", "6"):
        commands.append(["--ansatz-degree", degree, *js, "symmetries"])
    # the computed algebra's structure, adjoint and optimal sections
    for degree in ("1", "2"):
        for fmt in ([], js):
            commands.append(["--reference", "off", "--ansatz-degree", degree, *fmt,
                             "symmetries"])
    for fmt in ([], js):
        commands += [
            [*fmt, "adjoint"],
            [*fmt, "flows"],
            [*fmt, "structure"],
            [*fmt, "invariants", "--order", "2"],
            [*fmt, "check-generator", "--field", "0; x; 0; u; 0"],
            [*fmt, "normal-form", "--vector", "1,0,0,1,0"],
            [*fmt, "verify-optimal", "--file", "table.json"],
        ]
    # a negative first coordinate, attached and as a separate argument
    commands.append(["normal-form", "--vector=-1,0,0,1,0"])
    commands.append(["normal-form", "--vector", "-1,0,0,1,0"])
    for fmt in ([], js):
        commands.append([*fmt, "structure", "--constants", "b4.json"])
        commands.append([*fmt, "verify-optimal", "--constants", "b4.json",
                         "--file", "b4_table.json"])
    for constants, vecs in (("b4.json", vectors(random.Random(0), 6, 10)),
                            ("spectrum.json", vectors(random.Random(2), 4, 2))):
        for vec in vecs:
            for fmt in ([], js):
                commands.append([*fmt, "normal-form", f"--vector={vec}",
                                 "--constants", constants])
    for fmt in ([], js):
        commands.append([*fmt, "structure", "--constants", "jordan.json"])
    for vec in ("2,1,-3", "0,1/2,3"):
        for fmt in ([], js):
            commands.append([*fmt, "normal-form", f"--vector={vec}",
                             "--constants", "jordan.json"])
    for name in ("burgers.pde", "kdv.pde"):
        commands.append(["--ansatz-degree", "2", "symmetries", name])
        commands.append(["--ansatz-degree", "2", *js, "symmetries", name])
    for fmt in ([], js):
        commands.append(["--ansatz-degree", "2", *fmt, "structure", "burgers.pde"])
    # which algebra normal-form and verify-optimal analyse: the computed one
    # with the reference off or on a system without it, v1..v5 with it on
    # (which Burgers, of the wrong shape, refuses)
    for fmt in ([], js):
        commands += [
            ["--reference", "off", *fmt, "normal-form", "--vector", "1,0,0,1,0,0"],
            ["--reference", "off", *fmt, "verify-optimal", "--file", "table.json"],
            ["--ansatz-degree", "2", *fmt, "normal-form", "--vector", "1,0,0,1,0",
             "burgers.pde"],
            ["--ansatz-degree", "2", *fmt, "check-generator", "--field", "1; 0; 0",
             "burgers.pde"],
            ["--ansatz-degree", "2", *fmt, "check-generator", "--field", "0; 1",
             "burgers.pde"],
            ["--reference", "on", *fmt, "symmetries", "burgers.pde"],
            ["--reference", "on", *fmt, "normal-form", "--vector", "1,0,0",
             "burgers.pde"],
            # the baseline comparison off the fixture: v4 and v5 are not in
            # the span of the printed system's symmetries
            ["--reference", "on", *fmt, "symmetries", "printed.pde"],
            # a span of dimension 2 that lacks x*d/dy + u*d/dv
            ["--reference", "on", *fmt, "symmetries", "forced.pde"],
        ]
    for name in ("two_parameter.pde", "mixed.pde"):
        for degree in ("1", "2"):
            commands.append(["--ansatz-degree", degree, "symmetries", name])
            commands.append(["--ansatz-degree", degree, *js, "symmetries", name])
    for degree in ("1", "2"):
        commands.append(["--ansatz-degree", degree, "symmetries", "heat.pde"])
    commands.append(["symmetries", "negative_power.pde"])
    commands.append(["normal-form", "--vector", "1,1", "--constants", "huge.json"])
    commands.append(["normal-form", "--vector", f"0,{corpus.HUGE},0,0,0"])
    commands.append(["normal-form", "--vector", f"0,0,{corpus.HUGE},0,0"])
    commands.append(["--ansatz-degree", "1", *js, "symmetries", "heat.pde"])
    for fmt in ([], js):
        commands.append([*fmt, "normal-form", "--constants", "e2.json", "--vector", "1,2,0"])
    # the determining split at degree 3 off the fixture, and its refusals
    for name in ("burgers.pde", "kdv.pde"):
        commands.append(["--ansatz-degree", "3", *js, "symmetries", name])
    commands.append(["--ansatz-degree", "3", "symmetries", "heat.pde"])
    commands.append(["symmetries", "divides_by_u.pde"])
    # sl(2) and h(3): a series that stops on a repeated term and one that
    # reaches 0, a normal form with one translation and one that is negated,
    # and a table with one closing and one non-closing entry
    # a scaling step and then the sign fixed by negation
    for fmt in ([], js):
        commands.append([*fmt, "normal-form", "--vector=-8,0,0,0,0"])
    # the heat equation's span at degree 2, not closed under the bracket
    commands.append(["--ansatz-degree", "2", *js, "symmetries", "heat.pde"])
    for fmt in ([], js):
        for constants, vec in (("sl2.json", "3,1,0"), ("h3.json", "0,0,-3")):
            commands.append([*fmt, "structure", "--constants", constants])
            commands.append([*fmt, "normal-form", f"--vector={vec}",
                             "--constants", constants])
        commands.append([*fmt, "verify-optimal", "--constants", "sl2.json",
                         "--file", "sl2_table.json"])
    # a flow with an exponential and a translation, and a skipped transform
    for fmt in ([], js):
        commands.append(["--ansatz-degree", "1", *fmt, "symmetries", "transport.pde"])
    # adjoint entries beyond exp(-eps), and a rotation's omitted adjoint section
    for name in ("drift.pde", "linear_source.pde", "laplace.pde"):
        for fmt in ([], js):
            commands.append(["--ansatz-degree", "1", *fmt, "symmetries", name])
    for degree in ("1", "2"):
        for fmt in ([], js):
            commands.append(["--ansatz-degree", degree, *fmt, "symmetries",
                             "kdv_burgers.pde"])
    # normal forms that differ on one orbit, and one that never settles
    for fmt in ([], js):
        for vec in ("1,0,1", "0,0,1"):
            commands.append([*fmt, "normal-form", "--constants", "e2.json",
                             f"--vector={vec}"])
        for vec in ("1,0,1,0,0,0,0,0", "1,1,1,1,0,0,0,0"):
            commands.append(["--reference", "off", *fmt, "normal-form",
                             f"--vector={vec}", "laplace.pde"])
    for name in ("index0.json", "index3.json", "short_labels.json"):
        commands.append(["structure", "--constants", name])
    commands.append(["verify-optimal", "--file", "float_table.json"])
    # the Fraction branch of the algebra kernels
    for fmt in ([], js):
        commands.append([*fmt, "structure", "--constants", "fractional.json"])
        for vec in corpus.FRACTIONAL_VECTORS:
            commands.append([*fmt, "normal-form", f"--vector={vec}",
                             "--constants", "fractional.json"])
    # a missing key, and a negative option refused before any stage
    for name in ("no_dim.json", "no_coeffs.json"):
        commands.append(["structure", "--constants", name])
    commands.append(["verify-optimal", "--file", "no_entries.json"])
    commands.append(["invariants", "--order", "-1"])
    commands.append(["--ansatz-degree", "-1", "symmetries"])
    # --vector coordinates that are not an integer or num/den, and documents
    # whose brackets or labels are ambiguous
    for fmt in ([], js):
        for vec in ("0.5,0,0,0,0", "1e3,0,0,0,0", "1_0,0,0,0,0", ""):
            commands.append([*fmt, "normal-form", f"--vector={vec}"])
        for name in ("self_bracket.json", "duplicate_labels.json"):
            commands.append([*fmt, "structure", "--constants", name])
        commands.append([*fmt, "verify-optimal", "--file", "numeric_label.json"])
    # the two-parameter system at degree 3: a 77x60 determining matrix whose
    # elimination swells when a long row is taken as the pivot
    for fmt in ([], js):
        commands.append(["--ansatz-degree", "3", *fmt, "symmetries", "two_parameter.pde"])
    # the baseline's claims on renamed variables
    for fmt in ([], js):
        commands.append(["--reference", "on", *fmt, "symmetries", "renamed.pde"])
    commands.append(["--reference", "on", "invariants", "--order", "2", "renamed.pde"])
    commands.append(["--reference", "on", "normal-form", "--vector", "1,0,0,1,0",
                     "renamed.pde"])
    # the parser's error positions, and equations of orders 4 and 7
    for name in corpus.BAD_SYSTEMS:
        commands.append(["symmetries", name])
    for name in corpus.HIGH_ORDER:
        for fmt in ([], js):
            commands.append([*fmt, "symmetries", name])
    commands.append(["symmetries", "high_lead.pde"])
    # b(4) on a shuffled basis with scalings +-1 and +-2: orbit steps whose
    # adjoint columns mix components that stay with ones that move
    for vec in B4_SEEDED_VECTORS:
        for fmt in ([], js):
            commands.append([*fmt, "normal-form", f"--vector={vec}",
                             "--constants", "b4_seeded.json"])
    # the mixing-length closure: 1975 determining rows at degree 3
    for degree in ("1", "2", "3"):
        for fmt in ([], js):
            commands.append(["--ansatz-degree", degree, *fmt, "symmetries",
                             "mixing_length.pde"])
    # the usage, and command lines refused with exit 2 before any stage; a
    # --vector value that starts with "-." is read by the vector reader
    commands += [
        ["--help"], ["symmetries", "--help"], ["frobnicate"],
        ["--bogus", "symmetries"], ["check-generator"],
        ["--report", "xml", "symmetries"], ["--ansatz-degree", "x", "symmetries"],
        ["normal-form", "--vector", "-.5,2"],
    ]
    # a power of a sum past the term budget, refused at its '^'
    commands.append(["symmetries", "power.pde"])
    # a product of sums past the term budget, refused at its '*'
    commands.append(["symmetries", "product.pde"])
    # a long sum that a stage squares, within the budget of a stage's power
    commands.append(["symmetries", "long_sum.pde"])
    # a power that the reduction forms, refused before it is expanded
    commands.append(["symmetries", "stage_power.pde"])
    return commands


def run(tree, argv, folder):
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    try:
        done = subprocess.run([sys.executable, "-m", "liepde", *argv], cwd=folder,
                              env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    return done.stdout, done.stderr, done.returncode


def first_difference(a, b):
    la, lb = a.decode(errors="replace").splitlines(), b.decode(errors="replace").splitlines()
    for k, (x, y) in enumerate(zip(la, lb)):
        if x != y:
            return f"line {k + 1}: {x!r} != {y!r}"
    if len(la) != len(lb):
        return f"{len(la)} lines != {len(lb)} lines"
    return "line endings differ"


def compare(left, right):
    """The differing streams of two (stdout, stderr, exit) results, or the
    sides that timed out (None)."""
    if left is None or right is None:
        return [f"TIMEOUT {side}" for side, result in (("parent", left), ("change", right))
                if result is None]
    out = []
    for name, a, b in zip(("stdout", "stderr"), left, right):
        if a != b:
            out.append(f"{name} {first_difference(a, b)}")
    if left[2] != right[2]:
        out.append(f"exit {left[2]} != {right[2]}")
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as folder:
        commands = write_inputs(folder, args.parent)
        jobs = [(tree, cmd) for cmd in commands for tree in (args.parent, args.change)]
        with ThreadPoolExecutor(2) as pool:
            results = list(pool.map(lambda job: run(*job, folder), jobs))
    differing = 0
    for k, cmd in enumerate(commands):
        diffs = compare(results[2 * k], results[2 * k + 1])
        differing += bool(diffs)
        print(("DIFF " if diffs else "same ") + " ".join(cmd))
        for line in diffs:
            print(f"    {line}")
    print(f"{len(commands) - differing} of {len(commands)} commands identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
