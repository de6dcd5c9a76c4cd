"""Exact adjoint matrices, one-parameter flows, and solution transforms.

Entries are finite sums c * eps^m * e^(k eps) with rational c, k.  Matrix
exponentials are computed by Putzer's algorithm from the eigenvalues
alone, so exponentials of matrices with rational spectrum are exact and
closed in these sums.  The group parameter is the one symbol eps
(`EPS`, `EPS_SYMBOL`).  A flow is the substitution {z: image} it performs;
images, composites and transformed solutions are `expr` values, with
exp(k eps) as `expr.ParamExp` factors; `matrix_exp` and `ad_exp` return
`ExpPolynomial` term records, which `expression` turns into `expr` values:
the form in which the adjoint entries are compared and rendered.

Both kernels run on integers and sparse rows.  char_poly scales A by the
lcm d of its denominators and runs Faddeev-LeVerrier on dA, where each
division is exact.  matrix_exp forms the Putzer products on the same
integer matrix, holds each scalar r_k(t) as a dict {(m, l): c} integrated
in closed form (`_putzer_step`, the one integrator), and builds each
entry's record once, at the end.  `flow` is matrix_exp of the augmented
[[A, b], [0, 0]] (Olver, Applications of Lie Groups to DEs, section 1.3).
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import expr
from .errors import UnsupportedSpectrumError
from .expr import GROUP, ParamExp, Symbol, ZERO

EPS = "eps"
EPS_SYMBOL = Symbol(EPS, GROUP)
_ZERO = Fraction(0)


class ExpPolynomial:
    """An entry of `matrix_exp` and `ad_exp`: a sum of c * eps^m * e^(k*eps).

    `terms` maps (0, (m,), (k,)) to a nonzero Fraction c, with integer
    m >= 0 and rational k; the parameter is always eps, so the record does
    not name it.  The leading 0 is a constant-exponent slot that
    is always 0.  In the package, `expression` (the entry as an `expr`
    value, which every other reader compares and renders), `pipeline.jexppoly`
    and `optimal`'s two direction readers read this layout; so does the
    benchmark's JSON dump of the adjoint matrices.  The class goes once the
    benchmark reads the entries through `pipeline.jexppoly` and `ad_exp`
    can return `expr` values.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms


# ---------------------------------------------------------------------------
# Spectrum and the matrix exponential
# ---------------------------------------------------------------------------

def char_poly(A):
    """Characteristic polynomial coefficients (low to high) via Faddeev-LeVerrier.

    The recursion runs on the integer matrix B = dA, d the lcm of the
    denominators of A, in sparse rows: M_0 = I, c_k = -tr(B M_(k-1)) / k and
    M_k = B M_(k-1) + c_k I.  The c_k are the integer coefficients of
    det(xI - B), so the division is exact, and det(xI - A) has c_k / d^k
    at x^(n-k).
    """
    return _char_poly(*_integer_rows(A))


def _char_poly(d, B):
    """char_poly of A, given d and the rows of B = dA from _integer_rows."""
    n = len(B)
    c = [Fraction(1)] * (n + 1)
    M = [{i: 1} for i in range(n)]
    for k in range(1, n + 1):
        BM = _rows_mul(B, M)
        ck = -sum(row.get(i, 0) for i, row in enumerate(BM)) // k
        c[n - k] = Fraction(ck, d ** k)
        for i, row in enumerate(BM):
            x = row.get(i, 0) + ck
            if x:
                row[i] = x
            else:
                row.pop(i, None)
        M = BM
    return c


def _integer_rows(A):
    """(d, B): d the lcm of the denominators of A (ints or Fractions), B = dA
    as sparse integer rows {column: entry}."""
    d = math.lcm(*(x.denominator for row in A for x in row))
    return d, [{j: x.numerator * (d // x.denominator) for j, x in enumerate(row) if x}
               for row in A]


def _rows_mul(A, B, shift=0):
    """(A - shift I) B for matrices held as sparse rows, zeros dropped."""
    out = []
    for arow, brow in zip(A, B):
        acc = {j: -shift * x for j, x in brow.items()} if shift else {}
        for t, a in arow.items():
            for j, b in B[t].items():
                acc[j] = acc.get(j, 0) + a * b
        out.append({j: x for j, x in acc.items() if x})
    return out


def rational_eigenvalues(c):
    """Roots of a rational-coefficient polynomial with multiplicities.

    Keys come 0 first, then by (|numerator|, denominator, positive before
    negative), each root once with its multiplicity.  Raises
    UnsupportedSpectrumError if the polynomial does not split over the
    rationals; the message carries the stuck factor.
    """
    p = list(c)
    roots = {}
    # strip roots at 0
    while len(p) > 1 and p[0] == 0:
        roots[Fraction(0)] = roots.get(Fraction(0), 0) + 1
        p = p[1:]
    if len(p) > 1 and p[-1] != 0:
        for root in sorted(_rational_roots(p), key=_search_order):
            while len(p) > 1:
                quotient, value = _deflate(p, root)
                if value:
                    break
                p = quotient
                roots[root] = roots.get(root, 0) + 1
    if len(p) > 1:
        raise UnsupportedSpectrumError(
            "characteristic polynomial does not split over the rationals; "
            f"stuck factor has coefficients {[str(x) for x in p]}"
        )
    return roots


def _search_order(r):
    """Key order of rational_eigenvalues: |numerator|, denominator, + before -."""
    return abs(r.numerator), r.denominator, r < 0


def _rational_roots(p):
    """The distinct rational roots of p (coefficients low to high, p[-1] != 0).

    With p cleared of denominators and made primitive, a_n^(n-1) p(y / a_n)
    is a monic integer polynomial in y = a_n x, so the rational roots of p
    are its integer roots divided by a_n.
    """
    ints = _primitive(p)
    n, an = len(ints) - 1, ints[-1]
    monic = [a * an ** (n - 1 - i) for i, a in enumerate(ints[:-1])] + [1]
    return [Fraction(y, an) for y in _integer_roots(monic)]


def _integer_roots(f):
    """The distinct integer roots of a monic integer polynomial.

    Bisection on integer endpoints within the Cauchy bound, counting the
    roots in (lo, hi] by the sign changes of the Sturm sequence of the
    square-free part; every interval that holds a root is halved until it
    has width one, and its right end is tested exactly.
    """
    chain = _sturm_chain(f)
    if len(chain[-1]) > 1:  # gcd(f, f') is not constant: divide it out
        chain = _sturm_chain(_poly_divmod(f, chain[-1])[0])
    h = chain[0]
    bound = 1 + max(abs(x) for x in f[:-1])
    changes = {}

    def sign_changes(x):
        if x not in changes:
            signs = [v for v in (_value(g, x) for g in chain) if v]
            changes[x] = sum((a < 0) != (b < 0) for a, b in zip(signs, signs[1:]))
        return changes[x]

    roots = []
    intervals = [(-bound, bound)]
    while intervals:
        lo, hi = intervals.pop()
        if sign_changes(lo) == sign_changes(hi):
            continue
        if hi - lo == 1:
            if _value(h, hi) == 0:
                roots.append(hi)
            continue
        mid = (lo + hi) // 2
        intervals += [(lo, mid), (mid, hi)]
    return roots


def _sturm_chain(f):
    """f, f' and the negated remainders, each scaled to a primitive integer
    polynomial (a positive scaling, so signs are kept).  The last member is
    gcd(f, f') up to a constant."""
    chain = [_primitive(f), _primitive([k * x for k, x in enumerate(f)][1:])]
    while len(chain[-1]) > 1:
        rem = _poly_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(_primitive([-x for x in rem]))
    return chain


def _primitive(p):
    """The positive multiple of p with coprime integer coefficients."""
    scale = math.lcm(*(Fraction(x).denominator for x in p))
    ints = [int(x * scale) for x in p]
    content = math.gcd(*ints)
    return [x // content for x in ints]


def _poly_divmod(a, b):
    """Quotient and remainder of a by b in Q[x], coefficients low to high;
    the remainder has no trailing zeros (the zero polynomial is [])."""
    rem = [Fraction(x) for x in a]
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for shift in range(len(quot) - 1, -1, -1):
        f = rem[shift + len(b) - 1] / b[-1]
        quot[shift] = f
        for k, y in enumerate(b):
            rem[shift + k] -= f * y
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem


def _value(p, x):
    acc = 0
    for coeff in reversed(p):
        acc = acc * x + coeff
    return acc


def _deflate(p, r):
    """(q, p(r)) with p = (x - r) q + p(r), by Horner; coefficients low to high."""
    acc = Fraction(0)
    q = []
    for coeff in reversed(p):
        acc = acc * r + coeff
        q.append(acc)
    value = q.pop()
    return q[::-1], value


def matrix_exp(A):
    """Exact exp(eps * A) for a matrix of ints and Fractions with rational
    spectrum.

    Putzer's algorithm: with the eigenvalues l_1..l_n listed with
    multiplicity, exp(tA) = sum_k r_{k+1}(t) P_k, where P_0 = I,
    P_k = (A - l_k I) P_{k-1}, r_1 = e^(l_1 t) and
    r_{k+1}(t) = e^(l_{k+1} t) int_0^t e^(-l_{k+1} s) r_k(s) ds.
    By Cayley-Hamilton P_n = 0; the sum stops at the first P_k = 0.

    Each r_k is a dict {(m, l): c} for c t^m e^(l t).  The products run on
    the integer matrix B = dA of char_poly: the eigenvalues of B are the
    integers d l_k, so Q_k = d^k P_k = (B - d l_k I) Q_{k-1} stays integral,
    and step k adds r_{k+1} / d^k times Q_k to the cells.  A nilpotent A
    has every l_k = 0, each step is t^m -> t^(m+1) / (m+1), and the result
    is the finite series sum (tA)^m / m!.
    """
    n = len(A)
    d, B = _integer_rows(A)
    roots = rational_eigenvalues(_char_poly(d, B))
    result = [[{} for _ in range(n)] for _ in range(n)]
    slots = {}  # (m, l) -> its index in the cells, in first-seen order
    Q = [{i: 1} for i in range(n)]
    r = None
    scale = 1
    for lam in [lam for lam, m in roots.items() for _ in range(m)]:
        r = {(0, lam): Fraction(1)} if r is None else _putzer_step(r, lam)
        terms = [(slots.setdefault(key, len(slots)), c / scale) for key, c in r.items()]
        for cells, row in zip(result, Q):
            for j, q in row.items():
                cell = cells[j]
                for slot, c in terms:
                    cell[slot] = cell.get(slot, 0) + q * c
        shift = lam.numerator * (d // lam.denominator)
        Q = _rows_mul(B, Q, shift)
        if not any(Q):
            break
        scale *= d
    keys = [(_ZERO, (m,), (lam,)) for m, lam in slots]
    return [tuple(ExpPolynomial({keys[slot]: c for slot, c in cell.items() if c})
                  for cell in row) for row in result]


def _putzer_step(r, lam):
    """r_{k+1} from r_k = {(m, mu): c} and lam = l_{k+1}, in closed form.

    With nu = mu - lam, e^(lam t) int_0^t c s^m e^(nu s) ds is
    c t^(m+1) e^(lam t) / (m+1) when nu = 0, and otherwise
    sum_{j<=m} c (-1)^(m-j) m!/j! t^j e^(mu t) / nu^(m-j+1) minus its
    j = 0 coefficient times e^(lam t).
    """
    out = {}

    def add(key, c):
        s = out.get(key, 0) + c
        if s:
            out[key] = s
        else:
            out.pop(key, None)

    for (m, mu), c in r.items():
        nu = mu - lam
        if not nu:
            add((m + 1, lam), c / (m + 1))
            continue
        coeff = c / nu
        for j in range(m, 0, -1):
            add((j, mu), coeff)
            coeff = -coeff * j / nu
        add((0, mu), coeff)
        add((0, lam), -coeff)
    return out


def ad_matrix(L, a):
    """Matrix of ad(sum a_i e_i): column j = [a, e_j] in coordinates."""
    return L.ad(tuple(Fraction(x) for x in a))


def ad_exp(L, i):
    """Adjoint matrix of exp(eps * v_i), in the row convention.

    Row r holds the coordinates of Ad(exp(eps v_i)) v_r, so a coordinate
    row vector transforms as a -> a . M.  The matrix is the transpose of
    matrix_exp(-ad v_i), the closed form of the Lie series
    Ad(exp(t v_i)) v_j = v_j - t [v_i, v_j] + t^2/2 [v_i,[v_i,v_j]] - ...
    Results are cached on the algebra (it, and they, are immutable).
    """
    key = ("ad_exp", i)
    if key not in L.memo:
        e_i = [Fraction(0)] * L.n
        e_i[i] = Fraction(1)
        ad = L.ad(e_i)
        neg = [[-x for x in row] for row in ad]
        col = matrix_exp(neg)  # column convention: image of e_j in column j
        L.memo[key] = [tuple(col[j][r] for j in range(L.n)) for r in range(L.n)]
    return L.memo[key]


# ---------------------------------------------------------------------------
# Flows of affine vector fields
# ---------------------------------------------------------------------------

def exp_term(c, m, k):
    """c * eps^m * exp(k*eps) as an `expr` value, for rational c and k and
    an integer m >= 0; factors equal to 1 are not multiplied in."""
    term = expr.constant(c)
    if m:
        term = term * EPS_SYMBOL ** m
    return term * ParamExp(EPS_SYMBOL, k) if k else term


def expression(e):
    """The entry `e` of `matrix_exp` or `ad_exp` as the `expr` sum of its
    terms c * eps^m * exp(k*eps)."""
    return sum((exp_term(c, m, k) for (_, (m,), (k,)), c in e.terms.items()), ZERO)


def flow(vf):
    """Exact flow of a vector field with affine rational coefficients.

    The flow of dz/dt = A z + b is exp(t [[A, b], [0, 0]]) =
    [[exp(tA), (int_0^t exp(sA) ds) b], [0, 1]], one `matrix_exp` call E;
    it is returned as the substitution {z_i: sum_j E_ij z_j + E_in} it
    performs, with `expr` images in `EPS_SYMBOL`.
    """
    coords = vf.coordinates
    rows = []
    zero_subs = {z: ZERO for z in coords}
    for coeff in vf.coefficients:
        row = []
        for z in coords:
            d = expr.diff(coeff, z)
            val = expr.constant_value(d)
            if val is None:
                raise ValueError(
                    f"flow requires affine coefficients with rational slopes; got {coeff}"
                )
            row.append(val)
        const = expr.constant_value(expr.substitute(coeff, zero_subs))
        if const is None:
            raise ValueError(
                f"flow requires affine coefficients with rational constants; got {coeff}"
            )
        rows.append(row + [const])
    # check affineness exactly
    for coeff, row in zip(vf.coefficients, rows):
        linear = expr.Rational(row[-1])
        for z, a in zip(coords, row):
            linear = linear + expr.Rational(a) * z
        if not expr.equal(coeff, linear):
            raise ValueError(f"coefficient {coeff} is not affine in the base variables")
    E = matrix_exp(rows + [[_ZERO] * (len(coords) + 1)])
    return {z: sum((expression(e) * w for e, w in zip(row, coords)), expression(row[-1]))
            for z, row in zip(coords, E)}


def compose(f, g):
    """Map composition f after g, exact in `expr`."""
    return {z: expr.substitute(e, g) for z, e in f.items()}


def transform_solution(flow_map, space):
    """New solution functions produced by a flow, in the baseline orientation.

    The arguments of each solution function are pushed forward through the
    flow; each dependent value is divided by its linear coefficient while
    translation parts are kept forward, so e.g. a flow scaling u by e^t
    transforms u = f(x, y) into e^(-t) f(x e^t, y).  The functions are named
    by `JetSpace.function_names`.
    """
    # forward-transformed independent arguments
    args = []
    for z in space.independent:
        if set(space.dependent) & expr.free_symbols(flow_map[z]):
            raise ValueError("independent coordinates must transform among themselves")
        args.append(flow_map[z])
    out = {}
    for name, dep in zip(space.function_names(), space.dependent):
        image = flow_map[dep]
        if not expr.free_symbols(image) <= {dep, EPS_SYMBOL}:
            raise ValueError(
                f"dependent coordinate {dep.name} mixes with other coordinates; "
                "no diagonal solution transform exists"
            )
        lam = expr.diff(image, dep)
        # not c * exp(k eps); a row of exp(tA) with no off-diagonal entry
        # is e^(a t), so no flow gets here
        terms = expr.monomials(lam)
        if len(terms) != 1 or terms[0][0][0]:
            raise ValueError(f"cannot invert the coefficient {lam} of {dep.name}")
        func = expr.FunctionApplication(name, tuple(args))
        out[dep] = func / lam + expr.substitute(image, {dep: ZERO})
    return out
