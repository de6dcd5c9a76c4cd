import random
from fractions import Fraction

import pytest

from liepde import expr, linalg, reference
from liepde.cli import main as cli_main
from liepde.errors import InternalCheckError, NonPolynomialError
from liepde.expr import DEPENDENT, INDEPENDENT, ZERO, Symbol
from liepde.jet import JetSpace, PDESystem
from liepde.parser import build_system, parse_system
from liepde.prolongation import (
    Ansatz,
    build_determining,
    determining_pdes,
    prolong,
    solve_determining,
    span_contains,
    split_variables,
    symmetry_residual,
)

import corpus
from baseline import claimed, fixture_system
from conftest import assert_element, parts, random_affine_field


class TestBuildDetermining:
    def test_unknown_count_forced_by_ansatz(self, golden):
        # 5 coefficient functions x 6 affine monomials in (x, y, u, v, p)
        _, system, _ = golden
        ds = build_determining(system, 1)
        assert len(ds.ansatz.unknowns) == 30

    def test_equations_are_linear_homogeneous(self, golden):
        _, system, _ = golden
        ds = build_determining(system, 1)
        assert ds.raw_count >= ds.deduped_count > 0
        unknowns = set(ds.ansatz.unknowns)
        for form in ds.equations:
            assert form
            for sym, coeff in form.items():
                assert sym in unknowns
                assert not (expr.free_symbols(coeff) & unknowns)

    def test_degree_zero_counts(self, golden):
        _, system, _ = golden
        ds = build_determining(system, 0)
        assert len(ds.ansatz.unknowns) == 5


class TestSolveDetermining:
    def test_degree_one_span_contains_reference_generators(
        self, golden, symmetry_basis
    ):
        _, system, gens = golden
        assert span_contains(symmetry_basis, gens, system) == [True] * len(gens)

    def test_degree_one_span_contains_extra_field(self, golden, symmetry_basis):
        space, system, _ = golden
        assert span_contains(symmetry_basis, claimed(space, "excluded-generator"),
                             system) == [True]

    def test_dimension_reported(self, golden, symmetry_basis):
        # the exact degree-1 dimension; the baseline count is 5 and the
        # delta is carried as a pipeline note, not forced here
        assert len(symmetry_basis) == 6

    def test_every_solution_has_zero_residual(self, golden, symmetry_basis):
        _, system, _ = golden
        for vf in symmetry_basis:
            assert all(expr.is_zero(r) for r in symmetry_residual(vf, system))

    def test_xi1_depends_linearly_on_x_only(self, golden, symmetry_basis):
        # every solved field has xi_1 = a + b*x
        space, system, _ = golden
        x = space.independent[0]
        others = [s for s in space.independent + space.dependent if s != x]
        for vf in symmetry_basis:
            xi1 = vf.xi[0]
            for s in others:
                assert expr.is_zero(expr.diff(xi1, s))
            assert expr.is_zero(expr.diff(expr.diff(xi1, x), x))

    def test_degree_zero_gives_translations(self, golden):
        _, system, gens = golden
        basis = solve_determining(build_determining(system, 0))
        assert len(basis) == 3
        # one answer per candidate: the translations are in, the scalings not
        assert span_contains(basis, gens, system) == [True] * 3 + [False] * 2

    def test_single_equation_system_self_consistency(self):
        # u_x = 0 in two independent variables: every returned field has
        # zero residual (the self-check contract)
        x = Symbol("x", INDEPENDENT)
        y = Symbol("y", INDEPENDENT)
        u = Symbol("u", DEPENDENT)
        space = JetSpace((x, y), (u,), 1)
        ux = space.coordinate(u, (1, 0))
        system = PDESystem(space, (ux,), ((ux, expr.ZERO),))
        basis = solve_determining(build_determining(system, 1))
        assert basis
        for vf in basis:
            assert all(expr.is_zero(r) for r in symmetry_residual(vf, system))


# Rendered bases of `corpus.TWO_PARAMETER`; the degree-2 generator's sign
# comes from graded lex in the declared parameter order (z, a).
TWO_PARAMETER_BASES = {
    1: [
        "d/dt",
        "d/dx",
        "(t*a + t*z)*d/dx + -1*d/du",
        "2*t*d/dt + (-t*a + 2*t*z + x)*d/dx + -u*d/du",
    ],
}
TWO_PARAMETER_BASES[2] = TWO_PARAMETER_BASES[1] + [
    "(3*t^2*a*z^2 - t^2*a^3 + 2*t^2*z^3)*d/dt"
    " + (3*t*x*a*z^2 - t*x*a^3 + 2*t*x*z^3)*d/dx"
    " + (-3*t*u*a*z^2 + t*u*a^3 - 2*t*u*z^3 - 3*t*a^2*z + t*a^3 + 4*t*z^3"
    " - x*a*z + x*a^2 - 2*x*z^2)*d/du",
]


@pytest.mark.parametrize("degree", [1, 2])
def test_two_parameter_basis_is_pinned(degree):
    _, system = build_system(parse_system(corpus.TWO_PARAMETER))
    basis = solve_determining(build_determining(system, degree))
    assert [str(vf) for vf in basis] == TWO_PARAMETER_BASES[degree]


def test_two_parameter_system_solves_at_degree_3(tmp_path, capsys):
    # a 77x60 determining matrix whose parametric entries swell when a long
    # row is taken as the pivot; the solve checks each field's residual
    _, system = build_system(parse_system(corpus.TWO_PARAMETER))
    ds = build_determining(system, 3)
    assert (len(ds.rows), len(ds.ansatz.unknowns)) == (77, 60)
    assert len(solve_determining(ds)) == 5
    path = tmp_path / "two_parameter.pde"
    path.write_text(corpus.TWO_PARAMETER)
    assert cli_main(["--ansatz-degree", "3", "symmetries", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: stage 'structure': bracket of elements 1 and 3 is outside the span\n")


@pytest.mark.parametrize("text", [reference.fixture_text(), corpus.TWO_PARAMETER],
                         ids=["fixture", "two-parameter"])
def test_solve_leaves_the_determining_rows_unchanged(text):
    # the elimination works in place, so the solve eliminates on copies;
    # a second solve of the same system sees the same rows and basis
    _, system = build_system(parse_system(text))
    ds = build_determining(system, 2)

    def cells():
        return [{c: (type(x), *parts(x)) for c, x in row.items()} for row in ds.rows]

    before = cells()
    first = [str(vf) for vf in solve_determining(ds)]
    assert cells() == before
    assert [str(vf) for vf in solve_determining(ds)] == first
    assert cells() == before


def test_wrong_kernel_vector_is_a_typed_error(golden, monkeypatch):
    # solve_determining re-checks every basis field; a kernel vector that is
    # not a symmetry raises a package error, not a bare assertion.
    _, system, _ = golden
    ds = build_determining(system, 1)
    monkeypatch.setattr(
        linalg, "nullspace_param",
        lambda rows, ncols: [{k: 1 for k in range(ncols)}],
    )
    with pytest.raises(InternalCheckError):
        solve_determining(ds)


# ---------------------------------------------------------------------------
# The build from the determining PDEs against the two-pass build of the
# generic polynomial field
# ---------------------------------------------------------------------------

def _old_linear_form(coefficient, unknowns):
    """Split a residual coefficient into a linear form over the unknowns."""
    mm = expr.collect(coefficient, set(unknowns))
    form = {}
    variables = sorted(set(unknowns))
    for exps, c in mm.items():
        degree = sum(exps)
        if degree == 0:
            raise NonPolynomialError(
                "determining equation has a term without any unknown"
            )
        if degree > 1:
            raise NonPolynomialError(
                "determining equation is not linear in the unknowns"
            )
        idx = exps.index(1)
        form[variables[idx]] = form.get(variables[idx], ZERO) + c
    return {k: v for k, v in form.items() if not expr.is_zero(v)}


def _old_canonical_equation(form, unknowns, params):
    """Hashable canonical key of a linear form, scaled by its first coefficient."""
    entries = []
    first = None
    for u in unknowns:
        if u in form:
            fr = linalg.expr_to_paramfrac(form[u], params)
            if first is None:
                first = fr
            entries.append((u.name, fr * linalg.ParamFrac.inverse(first)))
    return tuple((name, *parts(fr)) for name, fr in entries)


def old_build_determining(system, degree):
    """The two-pass build: collect each residual over the jet coordinates and
    base variables, then each coefficient over the unknowns.  The residuals
    come from the full, eager prolongation."""
    js = system.space
    ansatz = Ansatz(js, degree)
    order = max(
        max((s.order for s in js.jet_symbols_in(eq)), default=0)
        for eq in system.equations
    )
    # the generic polynomial field: every unknown times its base monomial
    pr = prolong(ansatz.field_from_values(dict(enumerate(ansatz.unknowns))), order)
    residuals = [system.reduce(pr.apply(eq)) for eq in system.equations]
    split_vars = set(js.independent) | set(js.dependent) | {
        s
        for s in js.coordinates(js.limit, min_order=1)
    }
    equations = []
    seen = set()
    raw = 0
    for res in residuals:
        mm = expr.collect(res, split_vars)
        for exps in sorted(mm):
            form = _old_linear_form(mm[exps], ansatz.unknowns)
            if not form:
                continue
            raw += 1
            key = _old_canonical_equation(form, ansatz.unknowns, system.parameters)
            if key in seen:
                continue
            seen.add(key)
            equations.append(form)
    return equations, raw


def _system(name):
    if name == "fixture":
        return fixture_system()[1]
    text = {"burgers": corpus.BURGERS, "kdv": corpus.KDV, "heat": corpus.HEAT,
            "two-parameter": corpus.TWO_PARAMETER,
            "mixing-length": corpus.MIXING_LENGTH}[name]
    return build_system(parse_system(text))[1]


@pytest.mark.parametrize("name, degree", [
    ("fixture", 1), ("fixture", 2), ("fixture", 3), ("fixture", 4), ("burgers", 2),
    ("burgers", 3), ("kdv", 2), ("kdv", 3), ("two-parameter", 1), ("two-parameter", 2),
    ("heat", 1), ("heat", 2), ("heat", 3), ("mixing-length", 1), ("mixing-length", 2),
])
def test_one_walk_build_matches_two_pass_build(name, degree):
    system = _system(name)
    ds = build_determining(system, degree)
    equations, raw = old_build_determining(system, degree)
    assert ds.raw_count == raw
    assert len(ds.equations) == len(equations)
    for new, old in zip(ds.equations, equations):
        # same unknowns in the same order, same coefficient expressions
        assert list(new) == list(old)
        assert [c._key for c in new.values()] == [c._key for c in old.values()]
    # each row holds the conversion that solve_determining used to make: a
    # rational cell is the number the coefficient stands for
    column = {u: k for k, u in enumerate(ds.ansatz.unknowns)}
    assert len(ds.rows) == len(equations)
    for row, form in zip(ds.rows, equations):
        assert sorted(row) == sorted(column[u] for u in form)
        for u, c in form.items():
            cell = row[column[u]]
            value = expr.constant_value(c)
            if value is None:
                fr = linalg.expr_to_paramfrac(c, system.parameters)
                assert (cell.num, cell.den) == (fr.num, fr.den)
            else:
                assert type(cell) in (int, Fraction) and cell == value


@pytest.mark.parametrize("name, degree", [
    ("fixture", 1), ("fixture", 2), ("fixture", 3), ("two-parameter", 1),
    ("two-parameter", 2), ("burgers", 2), ("mixing-length", 1),
])
def test_cells_are_numbers_or_parametric_fractions(name, degree):
    # a rational cell is an int or a Fraction, never a float, and only a cell
    # that holds a parameter is a ParamFrac: in the built rows, in their
    # reduced echelon form and in the kernel vectors
    system = _system(name)
    ds = build_determining(system, degree)
    ncols = len(ds.ansatz.unknowns)
    reduced = linalg.Echelon([dict(row) for row in ds.rows], ncols).rows
    kernel = linalg.nullspace_param(ds.rows, ncols)
    built = [x for row in ds.rows for x in row.values()]
    for cells in (built, [x for row in reduced for x in row.values()],
                  [x for v in kernel for x in v.values()]):
        assert cells
        for x in cells:
            assert_element(x)
    assert {type(x) for x in built} >= {int, linalg.ParamFrac}


def test_mixing_length_closure_at_degree_1():
    # the closure's eddy-viscosity term leaves three generators: d/dx, d/dp
    # and the scaling x*d/dx + y*d/dy - u*d/du - v*d/dv - 2*p*d/dp
    ds = build_determining(_system("mixing-length"), 1)
    assert (ds.raw_count, ds.deduped_count) == (118, 37)
    assert len(solve_determining(ds)) == 3


def test_one_walk_build_keeps_typed_errors():
    for divisor, text in (("x", corpus.NEGATIVE_POWER), ("u", corpus.DIVIDES_BY_U)):
        _, system = build_system(parse_system(text))
        message = f"^negative power of {divisor} is not polynomial$"
        with pytest.raises(NonPolynomialError, match=message):
            old_build_determining(system, 1)
        with pytest.raises(NonPolynomialError, match=message):
            build_determining(system, 1)


@pytest.mark.parametrize("rhs", [
    "t*d(u,x,x)/u + d(u,x)/x", "x*d(u,x)/u + d(u,x,x)/t", "d(u,x,x) + 1/d(u,x)",
    "d(u,x,x)/d(u,x) + t/x",
])
@pytest.mark.parametrize("degree", [0, 1, 2])
def test_negative_power_error_names_the_first_term(rhs, degree):
    # the error names the variable of the first offending term of the
    # generic residual in canonical order, or none when no term is left
    text = corpus.EVOLUTION + f"eq d(u,t) = {rhs}\nlead d(u,t)\n"
    _, system = build_system(parse_system(text))
    outcomes = []
    for build in (old_build_determining, build_determining):
        try:
            build(system, degree)
            outcomes.append(None)
        except NonPolynomialError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


def pde_residuals(system, vf):
    """The determining PDEs of `system` with F_k the coefficients of `vf`:
    each derivative of F_k is its `expr.diff`, each term multiplied out."""
    js = system.space
    base = js.independent + js.dependent
    split = split_variables(js)
    out = []
    for terms in determining_pdes(system):
        total = ZERO
        for exps, slot, multi, coefficient in terms:
            value = vf.coefficients[slot]
            for var, count in zip(base, multi):
                for _ in range(count):
                    value = expr.diff(value, var)
            for var, e in zip(split, exps):
                value = value * var ** e
            total = total + coefficient * value
        out.append(total)
    return out


def test_fixture_pdes_have_78_terms():
    system = _system("fixture")
    assert [len(terms) for terms in determining_pdes(system)] == [17, 55, 6]


@pytest.mark.parametrize("name, degree", [
    ("fixture", 1), ("fixture", 2), ("fixture", 3), ("burgers", 1), ("burgers", 2),
])
def test_basis_fields_solve_the_pdes(name, degree):
    system = _system(name)
    basis = solve_determining(build_determining(system, degree))
    assert basis
    for vf in basis:
        assert all(expr.is_zero(r) for r in pde_residuals(system, vf)), str(vf)


@pytest.mark.parametrize("name", ["fixture", "burgers", "kdv", "heat", "two-parameter"])
def test_pdes_give_the_symmetry_residual(name):
    # the PDEs instantiated at any field are its symmetry residuals, so a
    # field that check-generator rejects leaves a nonzero PDE
    system = _system(name)
    rng = random.Random(f"pdes-{name}")
    rejected = 0
    for _ in range(6):
        vf = random_affine_field(rng, system.space)
        residuals = pde_residuals(system, vf)
        assert residuals == symmetry_residual(vf, system)
        rejected += not all(expr.is_zero(r) for r in residuals)
    assert rejected


def test_restricted_prolongation_matches_full(golden):
    space, _, _ = golden
    rng = random.Random(61)
    coordinates = space.coordinates(3)
    for _ in range(25):
        vf = random_affine_field(rng, space)
        full = prolong(vf, 3)
        wanted = rng.sample(coordinates, rng.randint(1, len(coordinates)))
        part = prolong(vf, 3, coordinates=wanted)
        assert set(part.coefficients) == set(wanted)
        for sym in wanted:
            assert part.coefficient(sym) == full.coefficient(sym), sym.name


# ---------------------------------------------------------------------------
# Symmetry residuals against an independent sympy prolongation
# ---------------------------------------------------------------------------

def sympy_residuals(system, vf):
    """The reduced symmetry residuals of `vf`, computed with sympy alone.

    pr X(Delta) = xi^i dDelta/dx^i + sum_J dDelta/du^a_J (D_J Q^a
    + xi^i u^a_{J,i}) with Q^a = phi^a - xi^i u^a_i (Olver, Applications of
    Lie Groups to Differential Equations, Thm 2.36); dependent variables are
    sympy functions of the independent ones, so D_J is sympy's derivative.
    Leading coordinates and their derivatives are then replaced by the
    differentiated right-hand sides until none is left.  Jet coordinates
    come back as symbols named as liepde names them.
    """
    sp = pytest.importorskip("sympy")
    js = system.space
    xs = [sp.Symbol(s.name) for s in js.independent]
    names = {s.name: sp.Symbol(s.name) for s in js.independent + js.dependent}
    names.update({s.name: sp.Symbol(s.name) for s in system.parameters})
    funcs = {s.name: sp.Function(s.name)(*xs) for s in js.dependent}

    def jet(sym):
        f = funcs[sym.base]
        counts = [(x, k) for x, k in zip(xs, sym.multi) if k]
        return sp.Derivative(f, *counts) if counts else f

    # dependent variables as functions, jet coordinates as their derivatives
    jets = {s.name: jet(s) for s in js.coordinates(js.limit)}

    def lift(e):
        """A liepde expression in sympy, on the functions and derivatives."""
        return sp.sympify(expr.render(e).replace("^", "**"), locals=dict(names, **jets))

    def flatten(e):
        """Derivatives and functions back to liepde-named symbols."""
        out = {}
        for d in e.atoms(sp.Derivative):
            counts = dict(d.variable_count)
            out[d] = sp.Symbol(d.expr.func.__name__ + "_" + "".join(
                x.name * counts.get(x, 0) for x in xs))
        e = e.xreplace(out)
        return e.xreplace({f: names[n] for n, f in funcs.items()})

    xi = [lift(c) for c in vf.xi]
    phi = {dep.name: lift(c) for dep, c in zip(js.dependent, vf.phi)}
    q = {n: phi[n] - sum(xi[i] * f.diff(x) for i, x in enumerate(xs))
         for n, f in funcs.items()}
    rules = [(lead.base, lead.multi, lift(rhs)) for lead, rhs in system.solved]
    out = []
    for eq in system.equations:
        atoms = sorted(js.jet_symbols_in(eq), key=lambda s: s._key)
        dummies = [sp.Dummy() for _ in atoms]
        flat = sp.sympify(expr.render(eq).replace("^", "**"),
                          locals=dict(names, **{s.name: d for s, d in zip(atoms, dummies)}))
        back = {d: jet(s) for s, d in zip(atoms, dummies)}
        total = sum(xi[i] * flat.diff(x) for i, x in enumerate(xs)).xreplace(back)
        for s, d in zip(atoms, dummies):
            partial = flat.diff(d).xreplace(back)
            dq = q[s.base]
            for x, k in zip(xs, s.multi):
                if k:
                    dq = dq.diff(x, k)
            lifted = sum(xi[i] * jet(js.lift(s, i)) for i in range(js.p))
            total += partial * (dq + lifted)
        total = sp.expand(total)
        for _ in range(100):
            replace = {}
            for d in total.atoms(sp.Derivative):
                counts = dict(d.variable_count)
                multi = tuple(counts.get(x, 0) for x in xs)
                for base, lmulti, rhs in rules:
                    if base == d.expr.func.__name__ and all(
                        a >= b for a, b in zip(multi, lmulti)
                    ):
                        extra = [(x, a - b) for x, a, b in zip(xs, multi, lmulti) if a > b]
                        replace[d] = rhs.diff(*extra) if extra else rhs
                        break
            if not replace:
                break
            total = sp.expand(total.xreplace(replace))
        else:
            raise AssertionError("sympy reduction did not terminate")
        out.append(flatten(total))
    return out, names


@pytest.mark.parametrize("name", ["fixture", "burgers"])
def test_residuals_match_sympy_prolongation(name):
    sp = pytest.importorskip("sympy")
    system = _system(name)
    js = system.space
    rng = random.Random(f"sympy-{name}")
    for _ in range(8):
        vf = random_affine_field(rng, js)
        expected, names = sympy_residuals(system, vf)
        jets = {s.name: sp.Symbol(s.name) for s in js.coordinates(js.limit)}
        for got, want in zip(symmetry_residual(vf, system), expected):
            got = sp.sympify(expr.render(got).replace("^", "**"), locals=dict(names, **jets))
            assert sp.expand(got - want) == 0
