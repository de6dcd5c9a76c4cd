"""Seeded inputs and the operations of each workload.

Every generated input comes from ``random.Random(seed)``; liepde sees only
the files written here (and its own bundled fixture and optimal table).
An operation is one child process: a spec for ``child.py`` plus the check
applied to its output.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction as F

import checks

TABLE = os.path.join("src", "liepde", "data", "boundary_layer_optimal.json")

NONZERO = [F(1), F(2), F(3), F(1, 2), F(3, 2), F(2, 3), F(5, 4), F(-1), F(-2), F(-3, 2)]


def _rational(rng, top, den):
    return F(rng.choice([-1, 1]) * rng.randint(1, top), rng.randint(1, den))


def _vectors(rng, count, dim, top, den, zero_share):
    out = []
    while len(out) < count:
        v = [F(0) if rng.random() < zero_share else _rational(rng, top, den) for _ in range(dim)]
        if any(v):
            out.append([str(x) for x in v])
    return out


def _write(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        if isinstance(data, str):
            fh.write(data)
        else:
            json.dump(data, fh, indent=1)
    return path


def _bracket_doc(n, labels, brackets):
    return {
        "dim": n,
        "labels": labels,
        "brackets": [
            {"i": i + 1, "j": j + 1, "coeffs": [str(F(x)) for x in vec]}
            for (i, j), vec in sorted(brackets.items())
        ],
    }


def borel(rng=None, size=4):
    """b(size) with basis R_k = s_k E_pq.

    With `rng`, the basis order and the integer scalings s_k are seeded;
    without, the order is row by row and every s_k is 1.
    """
    pairs = [(p, q) for p in range(size) for q in range(p, size)]
    scales = [1] * len(pairs)
    if rng is not None:
        rng.shuffle(pairs)
        scales = [rng.choice([1, -1, 2, -2]) for _ in pairs]
    index = {pair: k for k, pair in enumerate(pairs)}
    brackets = {}
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            if a >= b:
                continue
            # [E_ij, E_kl] = delta_jk E_il - delta_li E_kj
            vec = [F(0)] * len(pairs)
            s = scales[a] * scales[b]
            if j == k:
                vec[index[(i, l)]] += F(s, scales[index[(i, l)]])
            if l == i:
                vec[index[(k, j)]] -= F(s, scales[index[(k, j)]])
            if any(vec):
                brackets[(a, b)] = vec
    return pairs, scales, brackets


def make_inputs(seed, folder):
    """Write every seeded input file under `folder`; return paths and check data."""
    rng = random.Random(seed)
    os.makedirs(folder, exist_ok=True)
    inp = {"seed": seed, "table": TABLE}
    inp["sample"] = {"rho": str(F(rng.randint(2, 9), rng.randint(1, 5))),
                     "nu": str(F(rng.randint(2, 9), rng.randint(1, 5)))}

    a = rng.choice(NONZERO)
    inp["burgers"] = (str(a),)
    inp["burgers_file"] = _write(os.path.join(folder, "burgers.pde"), (
        f"# Burgers equation u_t + a u u_x = nu u_xx with a = {a} (seed {seed})\n"
        "param nu > 0\n"
        "independent t x\n"
        "dependent u(t, x)\n"
        f"eq d(u,t) + ({a})*u*d(u,x) = nu*d(u,x,x)\n"
        "lead d(u,t)\n"
    ))
    a, b = rng.choice(NONZERO), rng.choice(NONZERO)
    inp["kdv"] = (str(a), str(b))
    inp["kdv_file"] = _write(os.path.join(folder, "kdv.pde"), (
        f"# KdV equation u_t + a u u_x + b u_xxx = 0 with a = {a}, b = {b} (seed {seed})\n"
        "independent t x\n"
        "dependent u(t, x)\n"
        f"eq d(u,t) + ({a})*u*d(u,x) + ({b})*d(u,x,x,x) = 0\n"
        "lead d(u,x,x,x)\n"
    ))

    inp["fixture_algebra"] = _write(
        os.path.join(folder, "fixture_algebra.json"),
        _bracket_doc(5, checks.LABELS, checks.PAPER_BRACKETS),
    )
    inp["fixture_vectors"] = _vectors(rng, 200, 5, 40, 9, 0.25)
    inp["fixture_vectors_file"] = _write(
        os.path.join(folder, "fixture_vectors.json"), inp["fixture_vectors"])

    pairs, scales, brackets = borel(rng)
    inp["b4_pairs"], inp["b4_scales"] = pairs, scales
    inp["b4_algebra"] = _write(
        os.path.join(folder, "b4_algebra.json"),
        _bracket_doc(len(pairs), [f"b{k + 1}" for k in range(len(pairs))], brackets),
    )

    # Normal forms on b(4) run on fixed inputs: on this algebra normal_form_1d
    # is not idempotent for many vectors (see CHANGES.md), so the operation
    # fails on every run and its failed share cannot depend on the seed.
    pairs, scales, brackets = borel()
    inp["b4_fixed_pairs"], inp["b4_fixed_scales"] = pairs, scales
    inp["b4_fixed_brackets"] = brackets
    inp["b4_fixed_algebra"] = _write(
        os.path.join(folder, "b4_fixed_algebra.json"),
        _bracket_doc(len(pairs), [f"E{p + 1}{q + 1}" for p, q in pairs], brackets),
    )
    inp["b4_fixed_vectors_file"] = _write(
        os.path.join(folder, "b4_fixed_vectors.json"),
        _vectors(random.Random(0), 6, len(pairs), 9, 4, 0.5))

    c = 10 ** 12 + rng.randrange(1, 10 ** 6)
    inp["spectrum_c"] = c
    inp["spectrum_algebra"] = _write(
        os.path.join(folder, "spectrum_algebra.json"),
        _bracket_doc(2, ["v1", "v2"], {(0, 1): [0, c]}),
    )
    inp["spectrum_vectors_file"] = _write(
        os.path.join(folder, "spectrum_vectors.json"), _vectors(rng, 4, 2, 9, 3, 0.2))
    return inp


class Op:
    """One operation.  `known_fault` is the start of the check failure that a
    named program fault causes on every run; a failure with that reason is
    counted in `failed` but does not make the run incorrect.  Any other
    failure of the operation does."""

    def __init__(self, name, spec, check, known_fault=None):
        self.name = name
        self.spec = spec
        self.check = check
        self.known_fault = known_fault


def _cli(argv, **extra):
    return dict({"kind": "cli", "argv": argv}, **extra)


def cli_mix(inp):
    js = ["--report", "json"]
    return [
        Op("symmetries", _cli(["symmetries"]), checks.check_fixture_text),
        Op("symmetries-json", _cli(js + ["symmetries"]), checks.check_fixture_json),
        Op("invariants-order2", _cli(js + ["invariants", "--order", "2"]),
           checks.check_invariants),
        Op("check-generator", _cli(js + ["check-generator", "--field", "0; x; 0; u; 0"]),
           checks.check_generator_op),
        Op("normal-form", _cli(js + ["normal-form", "--vector", "1,0,0,1,0"],
                               post="normal-form-again"),
           checks.check_normal_form_cli),
        Op("verify-optimal", _cli(js + ["verify-optimal", "--file", inp["table"]],
                                  read=[inp["table"]]),
           checks.check_verify_optimal),
        Op("burgers-deg2", _cli(["--ansatz-degree", "2", "symmetries", inp["burgers_file"]],
                                system=inp["burgers_file"]),
           checks.check_pde(checks.pde.burgers, checks.pde.burgers_known, 5)),
        Op("kdv-deg2", _cli(["--ansatz-degree", "2", "symmetries", inp["kdv_file"]],
                            system=inp["kdv_file"]),
           checks.check_pde(checks.pde.kdv, checks.pde.kdv_known, 4)),
    ]


def fixture_deg3(inp):
    return [
        Op("symmetries-deg3",
           _cli(["--ansatz-degree", "3", "--report", "json", "symmetries"], post="determining"),
           checks.check_fixture_deg3),
    ]


def algebra_orbits(inp):
    return [
        Op("fixture-algebra", {
            "kind": "fixture-algebra",
            "files": {"algebra": inp["fixture_algebra"],
                      "vectors": inp["fixture_vectors_file"], "table": inp["table"]},
        }, checks.check_fixture_algebra),
        Op("b4", {
            "kind": "b4",
            "files": {"algebra": inp["b4_algebra"]},
        }, checks.check_b4),
        Op("b4-normal-forms", {
            "kind": "forms",
            "files": {"algebra": inp["b4_fixed_algebra"],
                      "vectors": inp["b4_fixed_vectors_file"]},
        }, checks.check_b4_forms,
           known_fault=checks.NOT_IDEMPOTENT),
        Op("large-spectrum", {
            "kind": "spectrum",
            "files": {"algebra": inp["spectrum_algebra"],
                      "vectors": inp["spectrum_vectors_file"]},
        }, checks.check_spectrum),
    ]


WORKLOADS = {
    "cli-mix": cli_mix,
    "fixture-deg3": fixture_deg3,
    "algebra-orbits": algebra_orbits,
}
