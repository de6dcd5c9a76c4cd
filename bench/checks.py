"""Correctness checks on each operation's outputs.

Every check compares liepde's output with an independent computation or a
property, never with saved output: symmetry conditions are tested with
sympy on systems written out in ``pde.py``; brackets, ranks, Killing forms
and adjoint actions are recomputed with ``exact.py``.  A check returns None
when the output is right and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction as F

import sympy as sp

import exact
import pde

# -- the paper's tables for the boundary-layer algebra --------------------------------

PAPER_GENERATORS = [
    (["1", "0"], ["0", "0", "0"]),
    (["0", "1"], ["0", "0", "0"]),
    (["0", "0"], ["0", "0", "1"]),
    (["x", "0"], ["u", "0", "2*p"]),
    (["0", "y"], ["-2*u", "-v", "-4*p"]),
]

# [v_i, v_j] for i < j; every other bracket is zero or follows by antisymmetry.
PAPER_BRACKETS = {
    (0, 3): [1, 0, 0, 0, 0],
    (1, 4): [0, 1, 0, 0, 0],
    (2, 3): [0, 0, 2, 0, 0],
    (2, 4): [0, 0, -4, 0, 0],
}

PAPER_KILLING = [
    [0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0],
    [0, 0, 0, 5, -8],
    [0, 0, 0, -8, 17],
]

LABELS = ["v1", "v2", "v3", "v4", "v5"]


class Failed(Exception):
    """An output disagrees with its independent check."""


def require(cond, reason):
    if not cond:
        raise Failed(reason)


def fracs(row):
    return [F(x) for x in row]


class Context:
    """Everything the checks of one run share: the seeded inputs and caches."""

    def __init__(self, inputs):
        self.inputs = inputs
        self.sample = {sp.Symbol(k, positive=True): sp.Rational(v)
                       for k, v in inputs["sample"].items()}
        self.fixture = pde.boundary_layer()
        self.paper = exact.Algebra(5, PAPER_BRACKETS)
        self._verdicts = {}
        self._table = None

    def is_symmetry(self, system, key, xi, phi):
        cache_key = (key, tuple(xi), tuple(phi))
        if cache_key not in self._verdicts:
            self._verdicts[cache_key] = system.is_symmetry(xi, phi)
        return self._verdicts[cache_key]

    def paper_table(self):
        """The commutator table recomputed from brackets of the paper's generators.

        It must equal the paper's printed table; the checks then compare
        liepde's table with it.
        """
        if self._table is None:
            sys_ = self.fixture
            coords = sys_.x + sys_.base
            fields = [[sys_.parse(c) for c in xi + phi] for xi, phi in PAPER_GENERATORS]
            vectors = [_vector(f, coords) for f in fields]
            table = []
            for a in fields:
                row = []
                for b in fields:
                    br = [
                        sp.expand(
                            sum(a[j] * sp.diff(b[k], z) - b[j] * sp.diff(a[k], z)
                                for j, z in enumerate(coords))
                        )
                        for k in range(len(coords))
                    ]
                    c = exact.combination(vectors, _vector(br, coords))
                    if c is None:
                        raise RuntimeError("paper generators do not close")
                    row.append(c)
                table.append(row)
            for i in range(5):
                for j in range(5):
                    if table[i][j] != self.paper.C[i][j]:
                        raise RuntimeError("paper commutator table disagrees with its generators")
            if self.paper.killing() != [fracs(r) for r in PAPER_KILLING]:
                raise RuntimeError("paper Killing form disagrees with its table")
            self._table = table
        return self._table


def _vector(field, coords):
    out = {}
    for slot, e in enumerate(field):
        if e == 0:
            continue
        for monom, c in sp.Poly(e, *coords).terms():
            out[(slot, monom)] = F(int(c.p), int(c.q))
    return out


def run_check(check, ctx, output):
    try:
        check(ctx, output)
    except Failed as exc:
        return str(exc)
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError,
            AttributeError, json.JSONDecodeError, sp.SympifyError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return None


# -- symmetry algebras of PDE systems --------------------------------------------------

def check_generators(ctx, system, key, gens, known, dimension=None):
    """gens: [(xi, phi)] as strings.  Verified, independent, and containing `known`."""
    for xi, phi in gens:
        require(ctx.is_symmetry(system, key, xi, phi),
                f"generator xi={xi} phi={phi} fails the symmetry condition")
    rows = _dense([system.field_vector(xi, phi, ctx.sample) for xi, phi in gens + known])
    span = rows[:len(gens)]
    require(exact.rank(span) == len(gens), "generators are linearly dependent")
    for (xi, phi), row in zip(known, rows[len(gens):]):
        require(exact.in_span(span, row),
                f"known symmetry xi={xi} phi={phi} is not in the returned span")
    require(len(gens) >= len(known), "fewer generators than known symmetries")
    if dimension is not None:
        require(len(gens) == dimension, f"dimension {len(gens)}, expected {dimension}")


def _dense(vectors):
    """Map (slot, monomial)-keyed dicts onto one shared column numbering."""
    keys = {}
    out = []
    for v in vectors:
        row = {}
        for k, c in v.items():
            row[keys.setdefault(k, len(keys))] = c
        out.append(row)
    return out


_GEN_LINE = re.compile(r"^\s+(g\d+): xi=\((.*)\) phi=\((.*)\)  \[(.*)\]$")


def text_generators(text):
    gens = []
    for line in text.splitlines():
        m = _GEN_LINE.match(line)
        if m:
            require(m.group(4) == "residuals 0", f"{m.group(1)} reported {m.group(4)}")
            gens.append((m.group(2).split(", "), m.group(3).split(", ")))
    m = re.search(r"nullspace dimension (\d+)", text)
    require(m is not None and int(m.group(1)) == len(gens),
            "reported dimension differs from the generator count")
    return gens


def json_generators(doc):
    gens = []
    for g in doc["generators"]:
        require(g["residual_zero"] and all(r == "0" for r in g["residuals"]),
                f"{g['label']} reported a nonzero residual")
        gens.append((g["xi"], g["phi"]))
    require(doc["determining"]["dimension"] == len(gens),
            "reported dimension differs from the generator count")
    return gens


def cli_output(output):
    require(output["exit"] == 0, f"exit code {output['exit']}: {output['stderr'].strip()}")
    return output["stdout"]


def check_fixture_structure(ctx, commutators, killing):
    """commutators[i][j]: coordinate list of [v_i, v_j]; killing: rows."""
    table = ctx.paper_table()
    for i in range(5):
        for j in range(5):
            require(fracs(commutators[i][j]) == table[i][j],
                    f"[v{i + 1}, v{j + 1}] differs from the recomputed bracket")
    require([fracs(r) for r in killing] == ctx.paper.killing(),
            "Killing form differs from the paper's")


def check_fixture_text(ctx, output):
    text = cli_output(output)
    gens = text_generators(text)
    check_generators(ctx, ctx.fixture, "fixture", gens, pde.boundary_layer_known(1))
    lines = text.splitlines()
    start = lines.index("commutator table ([row, column]):") + 2
    names = {n: sp.Symbol(n) for n in LABELS}
    commutators = []
    for line in lines[start:start + 5]:
        cells = line.split()[1:]
        row = []
        for cell in cells:
            e = sp.sympify(cell, locals=names)
            row.append([F(str(e.coeff(names[n]))) for n in LABELS])
        commutators.append(row)
    k = lines.index("Killing form:") + 1
    killing = [
        [x.strip() for x in line.strip()[1:-1].split(",")] for line in lines[k:k + 5]
    ]
    check_fixture_structure(ctx, commutators, killing)


def check_fixture_json(ctx, output, degree=1):
    doc = json.loads(cli_output(output))
    gens = json_generators(doc)
    check_generators(ctx, ctx.fixture, "fixture", gens, pde.boundary_layer_known(degree))
    require(doc["structure"]["labels"] == LABELS, "structure is not on the reference basis")
    check_fixture_structure(ctx, doc["structure"]["commutators"], doc["structure"]["killing"])
    return doc


def check_fixture_deg3(ctx, output):
    doc = check_fixture_json(ctx, output, degree=3)
    check_nullity(ctx, doc, output["determining"], len(doc["generators"]))


def check_nullity(ctx, doc, det, dimension):
    """The dimension is at most the nullity of the determining matrix at the sample."""
    require(len(det["unknowns"]) == doc["determining"]["unknowns"], "unknown count differs")
    require(len(det["rows"]) == doc["determining"]["equations_deduped"], "equation count differs")
    names = {p: sp.Symbol(p, positive=True) for p in det["parameters"]}
    values = {}
    rows = []
    for form in det["rows"]:
        row = {}
        for col, text in form:
            if text not in values:
                e = sp.sympify(text.replace("^", "**"), locals=names).subs(ctx.sample)
                values[text] = F(int(sp.Rational(e).p), int(sp.Rational(e).q))
            if values[text]:
                row[col] = values[text]
        rows.append(row)
    nullity = len(det["unknowns"]) - exact.rank(rows)
    require(dimension <= nullity,
            f"dimension {dimension} exceeds the sampled nullity {nullity}")


def check_invariants(ctx, output):
    doc = check_fixture_json(ctx, output)
    inv = doc["invariants"]
    weights = [fracs(r) for r in inv["weights"]]
    lattice = inv["lattice"]
    n = len(inv["coordinates"])
    require(all(len(r) == n for r in weights + lattice), "weight or lattice width mismatch")
    for vec in lattice:
        for w in weights:
            require(sum(a * b for a, b in zip(w, vec)) == 0,
                    f"lattice vector {vec} is not in the weight kernel")
    require(exact.rank(lattice) == len(lattice) == n - exact.rank(weights),
            "lattice rank is not the number of coordinates minus the weight rank")


def check_generator_op(ctx, output):
    doc = json.loads(cli_output(output))
    field = doc["field"]
    ours = ctx.is_symmetry(ctx.fixture, "fixture", field["xi"], field["phi"])
    require(doc["is_symmetry"] == ours, f"is_symmetry {doc['is_symmetry']}, expected {ours}")
    require(all(r == "0" for r in doc["residuals"]) == ours, "residuals disagree with the verdict")


def check_pde(system_fn, known_fn, dimension):
    def check(ctx, output):
        args = ctx.inputs[system_fn.__name__]
        system = system_fn(*args)
        gens = text_generators(cli_output(output))
        check_generators(ctx, system, system_fn.__name__, gens, known_fn(*args), dimension)
    return check


# -- normal forms and optimal-system tables ------------------------------------------

NOT_IDEMPOTENT = "normal form is not idempotent"


def check_forms(alg, forms, replay):
    """Fingerprint kept and the recorded steps reproduce the output, then idempotence.

    Every other property is checked on every form first, so a failure that
    starts with NOT_IDEMPOTENT means that only idempotence failed.
    """
    inv = alg.invariant_components()
    not_idempotent = []
    for f in forms:
        a, out = fracs(f["input"]), fracs(f["output"])
        require(f["fingerprint_indices"] == inv, "fingerprint components differ")
        require(all(out[j] == a[j] for j in inv), f"normal form of {f['input']} moved its fingerprint")
        require(any(out), "normal form is zero")
        cur = a
        for step in f["steps"]:
            cur = replay(step, cur)
            require(cur == fracs(step["after"]), f"step {step} does not reproduce its result")
        if f["negated"]:
            cur = [-x for x in cur]
        require(cur == out, f"steps of {f['input']} do not end at the output")
        if f["again"] is None or fracs(f["again"]) != out:
            not_idempotent.append(f["input"])
    require(not not_idempotent,
            f"{NOT_IDEMPOTENT} for {len(not_idempotent)} of {len(forms)} inputs: {not_idempotent}")


def structure_replay(alg):
    def replay(step, cur):
        if step["kind"] == "translate":
            return alg.translate(step["index"], F(step["parameter"]), cur)
        require(step["kind"] == "scale", f"unknown step kind {step['kind']}")
        return alg.scale(step["index"], F(step["parameter"]), cur)
    return replay


def check_normal_form_cli(ctx, output):
    doc = json.loads(cli_output(output))
    again = json.loads(output["again"])
    form = {
        "input": doc["input"],
        "output": doc["output"],
        "negated": doc["negated"],
        "fingerprint_indices": [LABELS.index(x) for x in doc["fingerprint_components"]],
        "steps": [
            {"kind": s["kind"], "index": LABELS.index(s["direction"]),
             "parameter": s["parameter"], "after": s["after"]}
            for s in doc["steps"]
        ],
        "again": again["output"],
    }
    require(doc["fingerprint"] == [doc["input"][j] for j in form["fingerprint_indices"]],
            "reported fingerprint is not the input's")
    check_forms(ctx.paper, [form], structure_replay(ctx.paper))


def check_table(ctx, entries, table_doc):
    alg = ctx.paper
    require(len(entries) == len(table_doc["entries"]), "entry count differs")
    not_closed = []
    for got, given in zip(entries, table_doc["entries"]):
        vectors = [fracs(v) for v in given["vectors"]]
        require(got["dimension"] == exact.rank(vectors), f"{given['label']}: dimension")
        closed = exact.closed(alg, vectors)
        require(got["closed"] == closed, f"{given['label']}: closed flag {got['closed']}")
        if closed:
            require(got["abelian"] == exact.abelian(alg, vectors), f"{given['label']}: abelian flag")
            require(got["ideal"] == exact.ideal(alg, vectors), f"{given['label']}: ideal flag")
        else:
            not_closed.append(given["label"])
    require(not_closed and all(
        label.startswith("dim2 <b1*v2+b2*v3, v1+5/2*b3*(v4+v5)>") for label in not_closed
    ), f"unexpected non-closed entries {not_closed}")


def check_verify_optimal(ctx, output):
    doc = json.loads(cli_output(output))
    with open(ctx.inputs["table"], encoding="utf-8") as fh:
        table_doc = json.load(fh)
    check_table(ctx, doc["entries"], table_doc)


def check_fixture_algebra(ctx, output):
    with open(ctx.inputs["table"], encoding="utf-8") as fh:
        table_doc = json.load(fh)
    require(len(output["forms"]) == len(ctx.inputs["fixture_vectors"]), "normal-form count")
    for f, v in zip(output["forms"], ctx.inputs["fixture_vectors"]):
        require(fracs(f["input"]) == fracs(v), "normal forms out of order")
    check_forms(ctx.paper, output["forms"], structure_replay(ctx.paper))
    check_table(ctx, output["table"], table_doc)
    alg = ctx.paper
    inv = alg.invariant_components()
    reps = [
        [fracs(v)[j] for j in inv] for e in table_doc["entries"]
        if len(e["vectors"]) == 1 for v in e["vectors"]
    ]
    gaps = []
    for j in range(alg.n):
        sig = [alg.unit(j)[k] for k in inv]
        if any(sig):
            covered = any(any(r) and exact.rank([sig, r]) == 1 for r in reps)
        else:
            covered = any(not any(r) for r in reps)
        if not covered:
            gaps.append(LABELS[j])
    require(output["gaps"] == gaps, f"coverage gaps {output['gaps']}, expected {gaps}")


def check_adjoint(expected, got):
    for i, (E, M) in enumerate(zip(expected, got)):
        for r, (erow, mrow) in enumerate(zip(E, M)):
            for k, (e, m) in enumerate(zip(erow, mrow)):
                require(exact.ep_from_terms(m) == e,
                        f"Ad(exp(eps e{i + 1})) entry ({r + 1},{k + 1}) differs from its closed form")


class Borel:
    """b(4) through its matrix realisation R_k = s_k E_(p_k, q_k)."""

    def __init__(self, pairs, scales):
        self.pairs = [tuple(p) for p in pairs]
        self.scales = [F(s) for s in scales]
        self.n = len(pairs)

    def matrix(self, coords):
        A = [[F(0)] * 4 for _ in range(4)]
        for (p, q), s, a in zip(self.pairs, self.scales, coords):
            A[p][q] += s * a
        return A

    def coords(self, A):
        out = [A[p][q] / s for (p, q), s in zip(self.pairs, self.scales)]
        require(all(A[p][q] == 0 for p in range(4) for q in range(p)),
                "conjugation left the upper-triangular algebra")
        return out

    def _exp(self, i, t):
        """exp(t R_i) as a 4x4 matrix of exponential polynomials, t = +-eps."""
        (p, q), s = self.pairs[i], self.scales[i]
        E = [[exact.ep_const(int(r == c)) for c in range(4)] for r in range(4)]
        if p == q:
            E[p][p] = {(0, t * s): F(1)}
        else:
            E[p][q] = {(1, F(0)): t * s}
        return E

    def adjoint_matrices(self):
        """Ad(exp(eps R_i)) R_r = exp(-eps R_i) R_r exp(eps R_i), in coordinates."""
        out = []
        for i in range(self.n):
            left, right = self._exp(i, F(-1)), self._exp(i, F(1))
            rows = []
            for r in range(self.n):
                R = [[exact.ep_const(x) for x in row] for row in self.matrix(self.unit(r))]
                C = _ep_matmul(_ep_matmul(left, R), right)
                rows.append([exact.ep_scale(C[p][q], 1 / s)
                             for (p, q), s in zip(self.pairs, self.scales)])
            out.append(rows)
        return out

    def unit(self, r):
        return [F(int(k == r)) for k in range(self.n)]

    def replay(self, step, cur):
        i = step["index"]
        (p, q), s = self.pairs[i], self.scales[i]
        A = self.matrix(cur)
        value = F(step["parameter"])
        left = [[F(int(r == c)) for c in range(4)] for r in range(4)]
        right = [row[:] for row in left]
        if step["kind"] == "translate":
            require(p != q, "translate step along a diagonal direction")
            left[p][q], right[p][q] = -value * s, value * s
        else:
            require(step["kind"] == "scale" and p == q and s.denominator == 1,
                    "scale step along a non-diagonal direction")
            left[p][p], right[p][p] = value ** int(-s), value ** int(s)
        return self.coords(exact.mat_mul(exact.mat_mul(left, A), right))

    def killing(self):
        """sum over positive roots alpha(H) alpha(H') on the diagonal, zero elsewhere."""
        K = [[F(0)] * self.n for _ in range(self.n)]
        for a, ((i, i2), sa) in enumerate(zip(self.pairs, self.scales)):
            for b, ((j, j2), sb) in enumerate(zip(self.pairs, self.scales)):
                if i == i2 and j == j2:
                    K[a][b] = sa * sb * sum(
                        (int(i == p) - int(i == r)) * (int(j == p) - int(j == r))
                        for p in range(4) for r in range(p + 1, 4)
                    )
        return K

    def span(self, min_gap):
        """span{R_k : q_k - p_k >= min_gap}."""
        return [self.unit(k) for k, (p, q) in enumerate(self.pairs) if q - p >= min_gap]


def _ep_matmul(A, B):
    out = []
    for i in range(len(A)):
        row = []
        for j in range(len(B[0])):
            acc = {}
            for t in range(len(B)):
                if A[i][t] and B[t][j]:
                    acc = exact.ep_add(acc, exact.ep_mul(A[i][t], B[t][j]))
            row.append(acc)
        out.append(row)
    return out


def check_b4(ctx, output):
    b = Borel(ctx.inputs["b4_pairs"], ctx.inputs["b4_scales"])
    require([fracs(r) for r in output["killing"]] == b.killing(), "Killing form of b(4)")
    derived = [[fracs(v) for v in s] for s in output["derived"]]
    expected = [b.span(0), b.span(1), b.span(2), []]
    require(len(derived) == len(expected), f"derived series length {len(derived)}")
    for got, want in zip(derived, expected):
        require(len(got) == len(want) and exact.same_span(got, want) if want else not got,
                "derived series of b(4) differs from its closed form")
    lower = [[fracs(v) for v in s] for s in output["lower"]]
    require(len(lower) == 2 and exact.same_span(lower[0], b.span(0))
            and exact.same_span(lower[1], b.span(1)), "lower central series of b(4)")
    require(output["flags"] == {"solvable": True, "nilpotent": False, "semisimple": False},
            f"b(4) flags {output['flags']}")
    check_adjoint(b.adjoint_matrices(), output["ads"])


def check_b4_forms(ctx, output):
    b = Borel(ctx.inputs["b4_fixed_pairs"], ctx.inputs["b4_fixed_scales"])
    alg = exact.Algebra(b.n, ctx.inputs["b4_fixed_brackets"])
    check_forms(alg, output["forms"], b.replay)


def check_spectrum(ctx, output):
    c = F(ctx.inputs["spectrum_c"])
    alg = exact.Algebra(2, {(0, 1): [0, c]})
    require(output["roots"] == {"0": 1, str(c): 1},
            f"eigenvalues {output['roots']}, expected 0 and {c}")
    check_adjoint([alg.adjoint_matrix(i) for i in range(2)], output["ads"])
    check_forms(alg, output["forms"], structure_replay(alg))
