"""The example systems and algebras, each written once.

The tests read their inputs from here, and ``tools/bytecheck.py`` writes
the documents of `SYSTEMS`, `BAD_SYSTEMS`, `HIGH_ORDER`, `ALGEBRAS`,
`TABLES` and `MALFORMED` under their file names, so a system the tests pin
is the one the byte check runs.  This module imports only the standard
library: the byte check loads it from its own checkout, whatever tree it
runs.
"""

from fractions import Fraction

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

# the steady Navier-Stokes equations, the fixture's parent: continuity and
# both momentum equations; five generators at every degree (the
# translations, the rotation, d/dp and the scaling), with cells that are
# almost all parametric and many duplicate rows
NAVIER_STOKES = """\
param rho > 0
param nu > 0
independent x y
dependent u(x, y)
dependent v(x, y)
dependent p(x, y)
eq d(u,x) + d(v,y) = 0
eq u*d(u,x) + v*d(u,y) = -(1/rho)*d(p,x) + nu*d(u,x,x) + nu*d(u,y,y)
eq u*d(v,x) + v*d(v,y) = -(1/rho)*d(p,y) + nu*d(v,x,x) + nu*d(v,y,y)
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

# a lead of order 4 on an equation of order 1: it does not appear in the
# equation, which is the error, not the jet space's order limit
HIGH_LEAD = "independent x y\ndependent u(x, y)\neq d(u,x) = 0\nlead d(u,y,y,y,y)\n"

# a lead of the equation's order that does not appear in it
ABSENT_LEAD = "independent x y\ndependent u(x, y)\neq d(u,x) = 0\nlead d(u,y)\n"

# a power of a sum past the parser's term budget, refused at its '^'
POWER = EVOLUTION + "eq d(u,t) = d(u,x,x) + (x+t)^4000\nlead d(u,t)\n"

# two powers within the budget whose product of 1000 x 1000 terms is past
# it, refused at its '*'
PRODUCT = EVOLUTION + "eq d(u,t) = d(u,x,x) + (x+t)^999*(x+t)^999\nlead d(u,t)\n"

# a 51-term right-hand side that the determining stage squares: within the
# budget of a power that a stage forms
LONG_SUM = EVOLUTION + "eq d(u,t) = d(u,x,x) + u*d(u,x)" + "".join(
    f" + x^{k}*d(u,x)" for k in range(1, 50)) + "\nlead d(u,t)\n"

# the parser passes d(u,t)^4000, a power of a monomial; reducing it by the
# first equation forms (u_xx + u)^4000, over the budget of a stage's power
STAGE_POWER = """\
independent t x
dependent u(t, x)
dependent v(t, x)
eq d(u,t) = d(u,x,x) + u
eq d(v,t) = d(v,x,x) + d(u,t)^4000
lead d(u,t)
lead d(v,t)
"""

SYSTEMS = {
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
    "navier_stokes.pde": NAVIER_STOKES,
    "power.pde": POWER,
    "product.pde": PRODUCT,
    "long_sum.pde": LONG_SUM,
    "stage_power.pde": STAGE_POWER,
}

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

# a prime as an eigenvalue of ad v1 in spectrum(HUGE)
HUGE = 10 ** 24 + 7


def spectrum(c):
    """[v1, v2] = c v2: ad v1 has the eigenvalues 0 and c."""
    return {"dim": 2, "labels": ["v1", "v2"],
            "brackets": [{"i": 1, "j": 2, "coeffs": [0, c]}]}


def borel(size=4, rng=None):
    """Structure constants of b(size), the upper-triangular matrices, on the
    basis R_k = s_k E_pq, labelled E11, E12, ... by their units.

    Without `rng` the units E_pq come in row order with every s_k = 1; with
    it, the order and the s_k in {1, -1, 2, -2} are seeded as the
    benchmark's seeded b(4) draws them.
    """
    pairs = [(p, q) for p in range(size) for q in range(p, size)]
    scales = [1] * len(pairs)
    if rng is not None:
        rng.shuffle(pairs)
        scales = [rng.choice([1, -1, 2, -2]) for _ in pairs]
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
    return {"dim": len(pairs), "labels": [f"E{p + 1}{q + 1}" for p, q in pairs],
            "brackets": brackets}


ALGEBRAS = {
    "b4.json": borel(),
    "jordan.json": JORDAN,
    "e2.json": E2,
    "sl2.json": SL2,
    "h3.json": H3,
    "fractional.json": FRACTIONAL,
}

# b(4) on E11, E12, E13, E14, E22, E23, E24, E33, E34, E44 (borel's order):
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

TABLES = {"b4_table.json": B4_TABLE, "sl2_table.json": SL2_TABLE}

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

# a dimension written as a string, which no byte check command reads
STRING_DIM = {"dim": "2", "brackets": []}
