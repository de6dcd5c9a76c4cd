"""Exact adjoint matrices, one-parameter flows, and solution transforms.

Entries are finite sums c * eps^m * e^(k eps) with rational c, k.  Matrix
exponentials are computed by Putzer's algorithm from the eigenvalues
alone, so exponentials of matrices with rational spectrum are exact and
closed in these sums.  The group parameter is the one symbol eps
(`EPS`, `EPS_SYMBOL`).  A flow is the substitution {z: image} it performs;
images, composites and transformed solutions are `expr` values, with
exp(k eps) a monomial factor that `expr.ParamExp` builds; `matrix_exp`
and `ad_exp` return `ExpPolynomial` term records, which `expression` turns
into `expr` values: the form in which the adjoint entries are compared
and rendered.

Every rational here, a characteristic-polynomial coefficient, an
eigenvalue, an ad entry or a term coefficient, is held as the package holds
one (`expr.as_rational`): an int when it is integral and a Fraction
otherwise.  Each division goes through `expr.quotient`, as `/` on two ints
would give a float.

Both kernels run on integers and sparse rows, and both stop at the first
zero matrix product.  char_poly scales A by the lcm d of its denominators
and runs Faddeev-LeVerrier on dA, where each division is exact; once a
product M_k is zero, every later one is zero and every later coefficient 0,
so a nilpotent A costs as many products as its nilpotency index.
matrix_exp first deflates the characteristic polynomial by the distinct
diagonal entries of A, each only while it is a root, and leaves the root
search to what remains: every ad and flow matrix the package meets is
triangular up to a permutation and a scaling of its basis, so its diagonal
holds its spectrum and the search runs on a constant.  It forms the Putzer
products on the same integer matrix, taking
the eigenvalues by ascending multiplicity so that the most repeated one
comes last and the products reach zero once they hold the minimal
polynomial; on a nilpotent A these are the powers B^k that char_poly
formed, and it reads them instead.  It holds each scalar r_k(t) as a dict
{(m, l): c} integrated
in closed form (`_putzer_step`, the one integrator), and builds each
entry's record once, at the end, every zero entry being one shared
record.  `flow` is matrix_exp of the augmented
[[A, b], [0, 0]] (Olver, Applications of Lie Groups to DEs, section 1.3),
with A and b read off one `expr.collect` per coefficient and each image
written as one polynomial dict from the entries' terms.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import expr
from .errors import NonPolynomialError, UnsupportedSpectrumError
from .expr import GROUP, ParamExp, Symbol, ZERO, as_rational, quotient
from .structure import per_algebra

EPS = "eps"
EPS_SYMBOL = Symbol(EPS, GROUP)


class ExpPolynomial:
    """An entry of `matrix_exp` and `ad_exp`: a sum of c * eps^m * e^(k*eps).

    `terms` maps (0, (m,), (k,)) to a nonzero rational c, with integer
    m >= 0 and rational k, c and k each an int when integral and a
    Fraction otherwise; the parameter is always eps, so the record does
    not name it.  The leading 0 is a constant-exponent slot that
    is always 0.  In the package, `expression` (the entry as an `expr`
    value, which every other reader compares and renders), `pipeline.jexppoly`
    and `optimal._split_terms` read this layout; so does the
    benchmark's JSON dump of the adjoint matrices.  The class goes once the
    benchmark reads the entries through `pipeline.jexppoly` and `ad_exp`
    can return `expr` values.  Nothing mutates a record, so every zero entry
    is the one record `_ZERO_ENTRY`, whose `terms` is empty.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms


_ZERO_ENTRY = ExpPolynomial({})


# ---------------------------------------------------------------------------
# Spectrum and the matrix exponential
# ---------------------------------------------------------------------------

def char_poly(A):
    """Characteristic polynomial coefficients (low to high) via Faddeev-LeVerrier.

    The recursion runs on the integer matrix B = dA, d the lcm of the
    denominators of A, in sparse rows: M_0 = I, c_k = -tr(B M_(k-1)) / k and
    M_k = B M_(k-1) + c_k I.  The c_k are the integer coefficients of
    det(xI - B), so the division is exact, and det(xI - A) has c_k / d^k
    at x^(n-k).  Once some M_k is zero, every later c is 0: B M_k = 0 gives
    c_(k+1) = 0 and M_(k+1) = 0.  So the loop stops at the first zero M_k,
    and on a nilpotent A it takes as many products as A's nilpotency index.
    """
    return _char_poly(*_integer_rows(A))[0]


def _char_poly(d, B):
    """(c, products): char_poly of A, given d and the rows of B = dA from
    _integer_rows, and the products M_1, M_2, ... up to the first zero one.
    When every c_k is 0, as on a nilpotent A, M_k is the power B^k."""
    n = len(B)
    c = [0] * n + [1]
    M = [{i: 1} for i in range(n)]
    products = []
    for k in range(1, n + 1):
        M = _rows_mul(B, M)
        products.append(M)
        ck = -sum(row.get(i, 0) for i, row in enumerate(M)) // k
        c[n - k] = quotient(ck, d ** k)
        for i, row in enumerate(M):
            x = row.get(i, 0) + ck
            if x:
                row[i] = x
            else:
                row.pop(i, None)
        if not any(M):
            break
    return c, products


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
        roots[0] = roots.get(0, 0) + 1
        p = p[1:]
    if len(p) > 1 and p[-1] != 0:
        for root in sorted(_rational_roots(p), key=_search_order):
            while len(p) > 1:
                rest, value = _deflate(p, root)
                if value:
                    break
                p = rest
                roots[root] = roots.get(root, 0) + 1
    if len(p) > 1:
        raise UnsupportedSpectrumError(
            "characteristic polynomial does not split over the rationals; "
            f"stuck factor has coefficients {[str(x) for x in p]}"
        )
    return roots


def _spectrum(c, guesses):
    """rational_eigenvalues(c), trying the rationals `guesses` first.

    c is deflated by each guess exactly, and only while it is a root, and
    rational_eigenvalues searches what remains; when the guesses hold the
    whole spectrum that is a constant.  The keys come in rational_eigenvalues'
    order, and a factor that does not split raises its error, naming the same
    stuck factor: the quotient by every rational root does not depend on the
    order of the deflations.
    """
    p = c
    roots = {}
    for r in guesses:
        while len(p) > 1:
            rest, value = _deflate(p, r)
            if value:
                break
            p = rest
            roots[r] = roots.get(r, 0) + 1
    roots.update(rational_eigenvalues(p))
    return {r: roots[r] for r in sorted(roots, key=_search_order)}


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
    return [quotient(y, an) for y in _integer_roots(monic)]


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
    scale = math.lcm(*(x.denominator for x in p))
    ints = [x.numerator * (scale // x.denominator) for x in p]
    content = math.gcd(*ints)
    return [x // content for x in ints]


def _poly_divmod(a, b):
    """Quotient and remainder of a by b in Q[x], coefficients low to high;
    the remainder has no trailing zeros (the zero polynomial is [])."""
    rem = [as_rational(x) for x in a]
    quot = [0] * max(len(a) - len(b) + 1, 0)
    for shift in range(len(quot) - 1, -1, -1):
        f = quotient(rem[shift + len(b) - 1], b[-1])
        quot[shift] = f
        for k, y in enumerate(b):
            rem[shift + k] = as_rational(rem[shift + k] - f * y)
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
    acc = 0
    q = []
    for coeff in reversed(p):
        acc = as_rational(acc * r + coeff)
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
    By Cayley-Hamilton P_n = 0; the sum stops at the first P_k = 0, which
    is the first product that the minimal polynomial divides.  The
    eigenvalues are listed by ascending multiplicity, ties in the key order
    of rational_eigenvalues, so the most repeated one comes last and its
    repeats beyond its largest Jordan block are never multiplied in: a
    diagonalisable A whose most repeated eigenvalue has multiplicity m
    stops m - 1 products early.

    Each r_k is a dict {(m, l): c} for c t^m e^(l t).  The products run on
    the integer matrix B = dA of char_poly: the eigenvalues of B are the
    integers d l_k, so Q_k = d^k P_k = (B - d l_k I) Q_{k-1} stays integral,
    and step k adds r_{k+1} / d^k times Q_k to the cells.  A nilpotent A
    has every l_k = 0, each step is t^m -> t^(m+1) / (m+1), and the result
    is the finite series sum (tA)^m / m!, whose Q_k are the powers B^k
    that char_poly formed: they are read, not multiplied again.

    The spectrum is `_spectrum` with the distinct diagonal entries of A as
    its guesses, which gives rational_eigenvalues' keys, order and errors
    for any A, and runs no root search when the diagonal holds the spectrum.
    """
    n = len(A)
    d, B = _integer_rows(A)
    coeffs, powers = _char_poly(d, B)
    roots = _spectrum(coeffs, dict.fromkeys(quotient(row.get(i, 0), d)
                                       for i, row in enumerate(B)))
    nilpotent = roots == {0: n}
    order = sorted(roots, key=roots.get)  # stable: ties keep the key order
    result = [[{} for _ in range(n)] for _ in range(n)]
    slots = {}  # (m, l) -> its index in the cells, in first-seen order
    Q = [{i: 1} for i in range(n)]
    r = None
    scale = 1
    for k, lam in enumerate([lam for lam in order for _ in range(roots[lam])]):
        r = {(0, lam): 1} if r is None else _putzer_step(r, lam)
        terms = [(slots.setdefault(key, len(slots)), quotient(c, scale))
                 for key, c in r.items()]
        for cells, row in zip(result, Q):
            for j, q in row.items():
                cell = cells[j]
                for slot, c in terms:
                    cell[slot] = cell.get(slot, 0) + q * c
        Q = powers[k] if nilpotent else _rows_mul(
            B, Q, lam.numerator * (d // lam.denominator))
        if not any(Q):
            break
        scale *= d
    keys = [(0, (m,), (lam,)) for m, lam in slots]
    return [tuple(ExpPolynomial(terms) if (terms := {keys[slot]: as_rational(c)
                                                     for slot, c in cell.items() if c})
                  else _ZERO_ENTRY for cell in row) for row in result]


def _putzer_step(r, lam):
    """r_{k+1} from r_k = {(m, mu): c} and lam = l_{k+1}, in closed form.

    With nu = mu - lam, e^(lam t) int_0^t c s^m e^(nu s) ds is
    c t^(m+1) e^(lam t) / (m+1) when nu = 0, and otherwise
    sum_{j<=m} c (-1)^(m-j) m!/j! t^j e^(mu t) / nu^(m-j+1) minus its
    j = 0 coefficient times e^(lam t).
    """
    out = {}

    def add(key, c):
        s = as_rational(out.get(key, 0) + c)
        if s:
            out[key] = s
        else:
            out.pop(key, None)

    for (m, mu), c in r.items():
        nu = mu - lam
        if not nu:
            add((m + 1, lam), quotient(c, m + 1))
            continue
        coeff = quotient(c, nu)
        for j in range(m, 0, -1):
            add((j, mu), coeff)
            coeff = quotient(-coeff * j, nu)
        add((0, mu), coeff)
        add((0, lam), -coeff)
    return out


def ad_matrix(L, a):
    """Matrix of ad(sum a_i e_i): column j = [a, e_j] in coordinates."""
    return L.ad(tuple(as_rational(x) for x in a))


@per_algebra
def ad_exp(L, i):
    """Adjoint matrix of exp(eps * v_i), in the row convention.

    Row r holds the coordinates of Ad(exp(eps v_i)) v_r, so a coordinate
    row vector transforms as a -> a . M.  The matrix is the transpose of
    matrix_exp(-ad v_i), the closed form of the Lie series
    Ad(exp(t v_i)) v_j = v_j - t [v_i, v_j] + t^2/2 [v_i,[v_i,v_j]] - ...
    Results are cached on the algebra (it, and they, are immutable).
    """
    e_i = [0] * L.n
    e_i[i] = 1
    neg = [[-x for x in row] for row in L.ad(e_i)]
    col = matrix_exp(neg)  # column convention: image of e_j in column j
    return [tuple(col[j][r] for j in range(L.n)) for r in range(L.n)]


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
    performs, with `expr` images in `EPS_SYMBOL`.  A and b are read off one
    `expr.collect` per coefficient (`_affine_row`, which raises ValueError
    for a coefficient that is not affine with rational slopes and constant),
    and each image is one polynomial dict built from the terms of E
    (`_image`).
    """
    coords = vf.coordinates
    # collect's exponents follow the coordinates in canonical order
    canonical = sorted(range(len(coords)), key=coords.__getitem__)
    rows = [_affine_row(coeff, coords, canonical) for coeff in vf.coefficients]
    E = matrix_exp(rows + [[0] * (len(coords) + 1)])
    factors = [((w, 1),) for w in coords] + [()]
    return {z: _image(row, factors) for z, row in zip(coords, E)}


def _affine_row(coeff, coords, canonical):
    """[a_1, ..., a_n, b] for coeff = a_1 z_1 + ... + a_n z_n + b with
    rational a_j and b, read off one `expr.collect`; `canonical` lists the
    indices of the coordinates in canonical order.  Otherwise ValueError
    naming the rational slopes, for a term of degree two or more, a slope
    that is not a number, or a coordinate in a function application or a
    negative power; and, only when every slope is rational, naming the
    rational constants."""
    def error(what):
        return ValueError(f"flow requires affine coefficients with rational {what}; got {coeff}")

    try:
        parts = expr.collect(coeff, coords)
    except NonPolynomialError:  # a coordinate in an application or a negative power
        raise error("slopes") from None
    row = [0] * (len(coords) + 1)
    const = ZERO
    for exps, part in parts.items():
        if not any(exps):
            const = part
            continue
        value = expr.constant_value(part) if sum(exps) == 1 else None
        if value is None:
            raise error("slopes")
        row[canonical[exps.index(1)]] = value
    row[-1] = expr.constant_value(const)
    if row[-1] is None:
        raise error("constants")
    return row


def _image(row, factors):
    """sum_j row[j] * w_j for a row of `matrix_exp` entries, as one `expr`
    value: the polynomial dict with the term c * w_j * eps^m * exp(k eps)
    for each term of each entry, `factors[j]` holding the monomial powers
    of w_j (none for the constant column).  The monomials are distinct, and
    a coordinate sorts before the group parameter, whose role comes last."""
    poly = {}
    for e, powers in zip(row, factors):
        for (_, (m,), (k,)), c in e.terms.items():
            poly[(powers + ((EPS_SYMBOL, m),) if m else powers,
                  ((EPS_SYMBOL, Fraction(k)),) if k else ())] = c
    return expr.canonical(poly)


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
