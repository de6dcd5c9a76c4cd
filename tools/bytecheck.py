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

The list covers the shipped fixture at ansatz degrees 1-4 in text and JSON
and at degrees 5 and 6 in JSON (determining matrices of 2884x1260 and
5723x2310, large enough that a change in the elimination's pivot path shows
in the basis),
its ``adjoint``, ``flows``, ``structure``, ``invariants --order 2``,
``check-generator``, ``normal-form`` and ``verify-optimal`` runs, the
fixture's computed algebra (``--reference off symmetries``) at degrees 1-2
in text and JSON, b(4) ``structure --constants``, six fixed
``normal-form`` vectors and ``verify-optimal --constants`` on a table
with an ideal, an abelian non-ideal, a closed entry that is neither and a
non-closing entry, normal forms on an algebra whose spectrum is near
10^12, ``structure --constants`` and two ``normal-form`` vectors on a
solvable 3-dimensional algebra whose ad v1 is one Jordan block with
eigenvalue 1/2, Burgers and KdV at ansatz degree 2 (and ``structure`` on
Burgers in text and JSON), the algebra that ``normal-form`` and
``verify-optimal`` choose (in text and JSON: both on the fixture's computed
algebra with ``--reference off``; ``normal-form`` and ``check-generator``,
also with the wrong number of coefficients, on Burgers at degree 2;
``--reference on`` ``symmetries`` and ``normal-form`` on Burgers, which
lacks the boundary-layer shape), the baseline comparison on the fixture's
printed variant and on the fixture with ``+ x*y`` added to the x-momentum
equation, whose symmetry span has dimension 2 and holds only v3 and v4
(``--reference on symmetries``, in text and JSON), a
two-parameter system at degrees 1-2, a Burgers-type system whose fractional
coefficients multiply to integers at degrees 1-2, the heat equation at
degrees 1-2 (at degree 2 its span does not close under the bracket, so
the report stops after the symmetries with a note),
a system whose equation divides by an independent variable (exit 1),
three normal forms with the prime 10^24 + 7 as an eigenvalue or a
component, the heat equation at degree 1 in JSON (its flows and
transformed solutions), a ``normal-form`` on e(2), whose ad v3 is a
rotation with the eigenvalues +-i, in text and JSON, Burgers and KdV at
ansatz degree 3 in JSON, the heat equation at degree 3 (its span does
not close either), a
system whose equation divides by the dependent variable (exit 1 at the
determining stage), and, in text and JSON, ``structure --constants`` and one
``normal-form --constants`` on sl(2) and on h(3) and ``verify-optimal
--constants`` on a two-entry sl(2) table in which <e, h> closes and <e, f>
does not, the fixture's ``normal-form --vector=-8,0,0,0,0`` (a scaling,
then a negation) in text and JSON, the heat equation at degree 2 in
JSON, and the transport equation u_t = (1 + x) u_x at degree 1 in text
and JSON (its (1 + x) d/dx is a flow with both an exponential and a
translation, and its u d/dt has no solution transform), and, in text and
JSON at degree 1, u_t = u_xx + u_x and u_t = u_x + u + x (adjoint entries
with exp(-eps), exp(2*eps) and a negative second term) and the Laplace
equation u_xx + u_yy = 0 (a rotation, whose adjoint section is omitted with
a note), a KdV-Burgers system u_t + 2 u u_x + b u_xxx = c u_xx at degrees
1-2 in text and JSON (numbers meet the parametric pivots b and c in its
elimination), and, in text and JSON, the normal forms that are not yet orbit
invariants: ``normal-form --constants`` on e(2) at v1 + v3 and at v3, which
one Ad(exp(v2)) maps onto each other, and ``--reference off normal-form``
on the Laplace equation at g1 + g3 and at g1 + g2 + g3 + g4, whose g1 and
g2 translations refill each other through the rotation g4 until the sweep
bound stops them (exit 1), and, last, malformed input that must end in an
error: ``structure --constants`` on documents with a bracket index of 0
and of 3 on a two-dimensional algebra and with one label for two
dimensions, and ``verify-optimal --file`` on a table whose coordinate is
the JSON float 0.1, and then, in text and JSON, ``structure --constants``
and two ``normal-form --constants`` vectors with fractional coordinates on
a four-dimensional algebra whose structure constants are not all integral
(the Fraction branch of every algebra kernel), ``structure --constants`` on
a document without ``dim`` and on a bracket without ``coeffs``,
``verify-optimal --file`` on a table without ``entries``, and ``invariants
--order -1`` and ``--ansatz-degree -1 symmetries``, which must fail before
any stage runs, and, in text and JSON, ``normal-form`` with a decimal, an
exponent, an underscore and an empty ``--vector``, ``structure --constants``
on a document with a nonzero self-bracket and on one with two equal labels,
and ``verify-optimal --file`` on a table entry whose label is a number,
and, in text and JSON, the two-parameter system at degree 3 (exit 1 at the
structure stage), and, last, the fixture with x, y, u, v, p renamed to s,
t, a, b, c with ``--reference on``: ``symmetries`` in text and JSON,
``invariants --order 2`` and ``normal-form --vector 1,0,0,1,0``, which pin
the positional mapping of the baseline's claims onto other names, and,
last, ``symmetries`` on malformed system documents whose errors pin the
parser's line and column (a comment where the right-hand side belongs,
trailing input, a tab, an equation before the declarations, a derivative
by a parameter, a double declaration and non-ASCII characters), and, in
text and JSON, on u_t = u_xxxx and u_t = u_xxxxxxx, whose reduction
reaches orders 7 and 13, and, last, ``symmetries`` on a system whose
``lead d(u,y,y,y,y)`` is of higher order than its one equation
``d(u,x) = 0``, which must end in the lead's own error, and, last, in
text and JSON, four ``normal-form --constants`` vectors on b(4) in a
seeded basis order with scalings +-1 and +-2 (the benchmark's seeded
b(4)), where an orbit step keeps some components and moves others, and,
last, in text and JSON at degrees 1-3, the mixing-length closure (the
fixture with 2 kappa^2 y u_y^2 + 2 kappa^2 y^2 u_y u_yy in the x-momentum
equation, solved for p_x), whose degree-3 determining system has 1975
rows before dedup and 728 after, with the generators d/dx, d/dp and one
scaling, and, last, the usage: ``--help``, ``symmetries --help``, an
unknown command, an unknown option, ``check-generator`` without
``--field``, a bad ``--report`` choice, a bad ``--ansatz-degree`` integer
and ``normal-form --vector -.5,2`` (exit 1 from the vector reader), and
``symmetries`` on u_t = u_xx + (x+t)^4000, whose power is refused at its
``^`` before any product is formed, and on u_t = u_xx + u u_x + (x + x^2 +
... + x^49) u_x, whose 51-term right-hand side the determining stage
squares (the term budget bounds only powers written in the file).  A
tree whose elimination takes the first candidate of least complexity as
the pivot, whatever its row's length, spends more than TIMEOUT_S on the
two-parameter system at degree 3 (32 s on an idle 2-vCPU VM) and shows
``TIMEOUT`` there.  The optimal table for
``verify-optimal`` and the printed variant are the files bundled with
PARENT_TREE.  ``algebra_documents``
and ``vectors`` are also read by the test suite, so its number-type tests
run on these inputs.
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

TABLE = os.path.join("src", "liepde", "data", "boundary_layer_optimal.json")
PRINTED = os.path.join("src", "liepde", "data", "boundary_layer_printed.pde")
TIMEOUT_S = 30
HUGE = 10 ** 24 + 7

BURGERS = """\
param nu > 0
independent t x
dependent u(t, x)
eq d(u,t) + (3/2)*u*d(u,x) = nu*d(u,x,x)
lead d(u,t)
"""

KDV = """\
independent t x
dependent u(t, x)
eq d(u,t) + (2)*u*d(u,x) + (-1/2)*d(u,x,x,x) = 0
lead d(u,x,x,x)
"""

TWO_PARAMETER = """\
param z
param a
independent t x
dependent u(t, x)
eq d(u,t) = (z - a)*d(u,x,x) + (a + z)*u*d(u,x) + (a - 2*z)*d(u,x)
lead d(u,t)
"""

MIXED = """\
param nu > 0
independent t x
dependent u(t, x)
eq (2/3)*d(u,t) = (3/4)*nu*d(u,x,x) - (3/2)*u*d(u,x)
lead d(u,t)
"""

HEAT = """\
independent t x
dependent u(t, x)
eq d(u,t) = d(u,x,x)
lead d(u,t)
"""

# (1 + x) d/dx maps x to -1 + exp(eps) + x*exp(eps)
TRANSPORT = """\
independent t x
dependent u(t, x)
eq d(u,t) = d(u,x) + x*d(u,x)
lead d(u,t)
"""

# adjoint entries exp(eps) - exp(2*eps) and -2 + exp(-eps) + exp(eps)
DRIFT = """\
independent t x
dependent u(t, x)
eq d(u,t) = d(u,x,x) + d(u,x)
lead d(u,t)
"""

LINEAR_SOURCE = """\
independent t x
dependent u(t, x)
eq d(u,t) = d(u,x) + u + x
lead d(u,t)
"""

# y d/dx - x d/dy is a rotation: its ad has no rational spectrum
LAPLACE = """\
independent x y
dependent u(x, y)
eq d(u,x,x) + d(u,y,y) = 0
lead d(u,x,x)
"""

# the fixture with a forcing term x*y in the x-momentum equation
FORCED = """\
param rho > 0
param nu > 0
independent x y
dependent u(x, y)
dependent v(x, y)
dependent p(x, y)
eq d(u,x) + d(v,y) = 0
eq u*d(u,x) + v*d(u,y) = -(1/rho)*d(p,x) + nu*d(u,y,y) + x*y
eq d(p,y) = 0
lead d(v,y)
lead d(u,y,y)
lead d(p,y)
"""

NEGATIVE_POWER = """\
independent t x
dependent u(t, x)
eq d(u,t) = d(u,x,x)/x
lead d(u,t)
"""

# KdV-Burgers with its parameters on the linear terms: rational cells meet
# parametric pivots other than the fixture's nu and 1/rho
KDV_BURGERS = """\
param b
param c
independent t x
dependent u(t, x)
eq d(u,t) + 2*u*d(u,x) + b*d(u,x,x,x) = c*d(u,x,x)
lead d(u,t)
"""

# the mixing-length closure: the fixture with d/dy(kappa^2 y^2 u_y^2) in the
# x-momentum equation, solved for p_x; three generators at degrees 1-3
MIXING_LENGTH = """\
param rho > 0
param nu > 0
param kappa > 0
independent x y
dependent u(x, y)
dependent v(x, y)
dependent p(x, y)
eq d(u,x) + d(v,y) = 0
eq u*d(u,x) + v*d(u,y) = -(1/rho)*d(p,x) + nu*d(u,y,y) + 2*kappa^2*y*d(u,y)^2 \
+ 2*kappa^2*y^2*d(u,y)*d(u,y,y)
eq d(p,y) = 0
lead d(v,y)
lead d(p,x)
lead d(p,y)
"""

# divides by the dependent variable: the determining split refuses u^-1
DIVIDES_BY_U = """\
independent t x
dependent u(t, x)
eq d(u,t) = d(u,x,x)/u
lead d(u,t)
"""

# the fixture with x, y, u, v, p renamed to s, t, a, b, c
RENAMED = """\
param rho > 0
param nu > 0
independent s t
dependent a(s, t)
dependent b(s, t)
dependent c(s, t)
eq d(a,s) + d(b,t) = 0
eq a*d(a,s) + b*d(a,t) = -(1/rho)*d(c,s) + nu*d(a,t,t)
eq d(c,t) = 0
lead d(b,t)
lead d(a,t,t)
lead d(c,t)
"""

EVOLUTION = "independent t x\ndependent u(t, x)\n"

# malformed system documents, each an error with its line and column: a
# comment where the right-hand side belongs (before a newline and at the
# end of the text), trailing input, a '$' after a tab, an equation before
# the declarations, a derivative by a parameter, a name declared twice, and
# characters outside ASCII in an exponent and in a name
BAD_SYSTEMS = {
    "comment_rhs.pde": EVOLUTION + "eq d(u,t) =   # rhs missing\nlead d(u,t)\n",
    "comment_eof.pde": EVOLUTION + "eq d(u,t) = # rhs missing",
    "trailing.pde": EVOLUTION + "eq d(u,t) = d(u,x) d(u,x)\nlead d(u,t)\n",
    "tab.pde": EVOLUTION + "eq d(u,t) = d(u,x)\t$\nlead d(u,t)\n",
    "early_equation.pde": "eq d(u,t) = 0\n" + EVOLUTION,
    "by_parameter.pde": "param a\n" + EVOLUTION + "eq d(u,a) = 0\nlead d(u,t)\n",
    "twice.pde": "independent t\ndependent t(t)\n",
    "superscript.pde": EVOLUTION + "eq d(u,t) = u^\u00b2*d(u,x,x)\nlead d(u,t)\n",
    "greek.pde": EVOLUTION + "eq d(u,t) = \u03b2*d(u,x,x)\nlead d(u,t)\n",
}

# a lead of order 4 on an equation of order 1: it does not appear in the
# equation, which is the error, not the jet space's order limit
HIGH_LEAD = "independent x y\ndependent u(x, y)\neq d(u,x) = 0\nlead d(u,y,y,y,y)\n"

# u_t = u_xxxx and u_t = u_xxxxxxx: one reduction step reaches order 2m - 1
HIGH_ORDER = {f"order{m}.pde": EVOLUTION + f"eq d(u,t) = d(u{',x' * m})\nlead d(u,t)\n"
              for m in (4, 7)}

# [v1, v2] = v2/2 and [v1, v3] = v2 + v3/2: ad v1 is one Jordan block with
# the eigenvalue 1/2
JORDAN = {"dim": 3, "labels": ["v1", "v2", "v3"],
          "brackets": [{"i": 1, "j": 2, "coeffs": [0, "1/2", 0]},
                       {"i": 1, "j": 3, "coeffs": [0, 1, "1/2"]}]}


# sl(2) on e, h, f: [e, h] = -2e, [e, f] = h and [h, f] = -2f
SL2 = {"dim": 3, "labels": ["e", "h", "f"],
       "brackets": [{"i": 1, "j": 2, "coeffs": [-2, 0, 0]},
                    {"i": 1, "j": 3, "coeffs": [0, 1, 0]},
                    {"i": 2, "j": 3, "coeffs": [0, 0, -2]}]}

# <e, h> closes under the bracket; [e, f] = h leaves <e, f>
SL2_TABLE = {"schema": 1, "entries": [
    {"label": "<e,h>", "vectors": [[1, 0, 0], [0, 1, 0]]},
    {"label": "<e,f>", "vectors": [[1, 0, 0], [0, 0, 1]]}]}

# h(3) on x, y, z: [x, y] = z
H3 = {"dim": 3, "labels": ["x", "y", "z"],
      "brackets": [{"i": 1, "j": 2, "coeffs": [0, 0, 1]}]}


# e(2): [v3, v1] = v2 and [v3, v2] = -v1
E2 = {"dim": 3, "brackets": [{"i": 3, "j": 1, "coeffs": ["0", "1", "0"]},
                             {"i": 3, "j": 2, "coeffs": ["-1", "0", "0"]}]}

# [v1, v2] = 2 v2, [v1, v3] = -3/2 v3, [v1, v4] = v4/2 and [v2, v3] = v4/3:
# structure constants that are not all integral, a Jacobi identity that
# holds, and ad v1 with the eigenvalues 0, 2, -3/2 and 1/2
FRACTIONAL = {"dim": 4, "labels": ["v1", "v2", "v3", "v4"],
              "brackets": [{"i": 1, "j": 2, "coeffs": [0, 2, 0, 0]},
                           {"i": 1, "j": 3, "coeffs": [0, 0, "-3/2", 0]},
                           {"i": 1, "j": 4, "coeffs": [0, 0, 0, "1/2"]},
                           {"i": 2, "j": 3, "coeffs": [0, 0, 0, "1/3"]}]}

# three translations with fractional epsilons, and a negation
FRACTIONAL_VECTORS = ("1/2,-3,5/4,2/3", "0,-4/3,0,5/6")

# malformed documents, each an error: a bracket index of 0 (once read as
# the last element, so that [v1, v2] = -v1) and of 3 on dim 2, one label on
# dim 2, a table whose coordinate is the float 0.1, and documents without
# "dim", a bracket without "coeffs" and a table without "entries"
MALFORMED = {
    "index0.json": {"dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": ["1", "0"]}]},
    "index3.json": {"dim": 2, "brackets": [{"i": 3, "j": 1, "coeffs": ["1", "0"]}]},
    "short_labels.json": {"dim": 2, "labels": ["a"],
                          "brackets": [{"i": 1, "j": 2, "coeffs": ["0", "1"]}]},
    "float_table.json": {"schema": 1, "entries": [
        {"label": "<v1 + v4/10>", "vectors": [[1, 0, 0, 0.1, 0]]}]},
    "no_dim.json": {"entries": [1]},
    "no_coeffs.json": {"dim": 2, "brackets": [{"i": 1, "j": 2}]},
    "no_entries.json": {"dim": 2},
    # a nonzero [v1, v1], two elements with one label, and a table entry
    # whose label is a number
    "self_bracket.json": {"dim": 2, "brackets": [{"i": 1, "j": 1, "coeffs": [1, 0]}]},
    "duplicate_labels.json": {"dim": 2, "labels": ["a", "a"],
                              "brackets": [{"i": 1, "j": 2, "coeffs": [1, 0]}]},
    "numeric_label.json": {"schema": 1, "entries": [
        {"label": 5, "vectors": [[1, 0, 0, 0, 0]]}]},
}


def borel4(rng=None):
    """Structure constants of b(4) on the basis R_k = s_k E_pq.

    Without `rng` the units E_pq come in row order with every s_k = 1 and
    are labelled E11, E12, ...; with it, the order and the s_k in
    {1, -1, 2, -2} are seeded as the benchmark's seeded b(4) draws them,
    and the elements are labelled b1, b2, ...
    """
    pairs = [(p, q) for p in range(4) for q in range(p, 4)]
    scales = [1] * len(pairs)
    labels = [f"E{p + 1}{q + 1}" for p, q in pairs]
    if rng is not None:
        rng.shuffle(pairs)
        scales = [rng.choice([1, -1, 2, -2]) for _ in pairs]
        labels = [f"b{k + 1}" for k in range(len(pairs))]
    index = {pair: k for k, pair in enumerate(pairs)}
    brackets = []
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs[a + 1:], a + 1):
            # [E_ij, E_kl] = delta_jk E_il - delta_li E_kj
            vec = [Fraction(0)] * len(pairs)
            s = scales[a] * scales[b]
            if j == k:
                vec[index[(i, l)]] += Fraction(s, scales[index[(i, l)]])
            if l == i:
                vec[index[(k, j)]] -= Fraction(s, scales[index[(k, j)]])
            if any(vec):
                brackets.append({"i": a + 1, "j": b + 1, "coeffs": [
                    int(x) if x.denominator == 1 else str(x) for x in vec]})
    return {"dim": len(pairs), "labels": labels, "brackets": brackets}


# b(4) on E11, E12, E13, E14, E22, E23, E24, E33, E34, E44 (borel4's order):
# the strictly upper triangular ideal, the abelian diagonal <E11, E22>
# (not an ideal), <E11, E12> (closed, neither abelian nor an ideal) and
# <E12, E23>, which [E12, E23] = E13 leaves
B4_TABLE = {"schema": 1, "entries": [
    {"label": "<E12,E13,E14,E23,E24,E34>",
     "vectors": [[int(k == i) for k in range(10)] for i in (1, 2, 3, 5, 6, 8)]},
    {"label": "<E11,E22>",
     "vectors": [[int(k == i) for k in range(10)] for i in (0, 4)]},
    {"label": "<E11,E12>",
     "vectors": [[int(k == i) for k in range(10)] for i in (0, 1)]},
    {"label": "<E12,E23>",
     "vectors": [[int(k == i) for k in range(10)] for i in (1, 5)]}]}


# normal forms on b(4) in the seeded basis of borel4(random.Random(7)): a
# mixed vector with fractions, one whose translations refill each other's
# components, every component nonzero, and one scaling with a negation
B4_SEEDED_VECTORS = ("0,8,5/2,0,7/2,0,0,1,0,-5", "2,7/4,-6,0,0,0,7/4,4/3,-5/2,9",
                     "1,2,3,4,5,6,7,8,9,10", "-4,0,0,0,0,0,0,0,0,0")


def algebra_documents():
    """The structure-constants documents the commands read, by file name."""
    rng = random.Random(1)
    c = 10 ** 12 + rng.randrange(1, 10 ** 6)
    return {
        "b4.json": borel4(),
        "b4_seeded.json": borel4(random.Random(7)),
        "jordan.json": JORDAN,
        "e2.json": E2,
        "sl2.json": SL2,
        "h3.json": H3,
        "fractional.json": FRACTIONAL,
        "spectrum.json": {"dim": 2, "labels": ["v1", "v2"],
                          "brackets": [{"i": 1, "j": 2, "coeffs": [0, c]}]},
        "huge.json": {"dim": 2, "labels": ["v1", "v2"],
                      "brackets": [{"i": 1, "j": 2, "coeffs": [0, HUGE]}]},
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
    files = {
        "burgers.pde": BURGERS,
        "kdv.pde": KDV,
        "two_parameter.pde": TWO_PARAMETER,
        "mixed.pde": MIXED,
        "heat.pde": HEAT,
        "transport.pde": TRANSPORT,
        "drift.pde": DRIFT,
        "linear_source.pde": LINEAR_SOURCE,
        "laplace.pde": LAPLACE,
        "negative_power.pde": NEGATIVE_POWER,
        "divides_by_u.pde": DIVIDES_BY_U,
        "forced.pde": FORCED,
        "kdv_burgers.pde": KDV_BURGERS,
        "renamed.pde": RENAMED,
        "high_lead.pde": HIGH_LEAD,
        "mixing_length.pde": MIXING_LENGTH,
        "power.pde": EVOLUTION + "eq d(u,t) = d(u,x,x) + (x+t)^4000\nlead d(u,t)\n",
        "long_sum.pde": EVOLUTION + "eq d(u,t) = d(u,x,x) + u*d(u,x)" + "".join(
            f" + x^{k}*d(u,x)" for k in range(1, 50)) + "\nlead d(u,t)\n",
        "b4_table.json": json.dumps(B4_TABLE),
        "sl2_table.json": json.dumps(SL2_TABLE),
        **{name: json.dumps(doc) for name, doc in MALFORMED.items()},
        **BAD_SYSTEMS,
        **HIGH_ORDER,
    }
    files.update((name, json.dumps(doc)) for name, doc in algebra_documents().items())
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
    commands.append(["normal-form", "--vector", f"0,{HUGE},0,0,0"])
    commands.append(["normal-form", "--vector", f"0,0,{HUGE},0,0"])
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
        for vec in FRACTIONAL_VECTORS:
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
    for name in BAD_SYSTEMS:
        commands.append(["symmetries", name])
    for name in HIGH_ORDER:
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
    # a long sum that a stage squares: not budgeted
    commands.append(["symmetries", "long_sum.pde"])
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
