import pytest

from liepde import expr, reference
from liepde.adjoint import EPS_SYMBOL
from liepde.errors import ParseError
from liepde.prolongation import build_determining, solve_determining
import corpus
from baseline import fixture_system
from liepde.parser import (
    POWER_TERMS,
    build_system,
    parse_expressions,
    parse_system,
    print_system,
)


class TestParseFixture:
    def test_shipped_fixture_shape(self):
        doc = reference.fixture_document()
        assert len(doc.equations) == 3
        assert len(doc.independents) == 2
        assert len(doc.dependents) == 3
        assert len(doc.parameters) == 2
        assert all(positive for _, positive in doc.parameters)
        assert len(doc.leads) == 3

    def test_round_trip(self):
        doc = reference.fixture_document()
        assert parse_system(print_system(doc)) == doc

    def test_round_trip_is_stable(self):
        doc = reference.fixture_document()
        once = print_system(doc)
        assert print_system(parse_system(once)) == once

    def test_build_system(self):
        space, system = fixture_system()
        assert space.max_order == 2
        assert [lead.name for lead, _ in system.solved] == ["v_y", "u_yy", "p_y"]
        rhs = dict((lead.name, rhs) for lead, rhs in system.solved)
        u, v, p = space.dependent
        ux = space.coordinate(u, (1, 0))
        assert expr.equal(rhs["v_y"], -1 * ux)
        assert expr.equal(rhs["p_y"], expr.ZERO)

    def test_build_system_uses_the_document_symbols(self):
        # the symbols the parser resolved are the objects the system holds
        doc = reference.fixture_document()
        space, system = build_system(doc)
        independent, dependent, params = doc.symbols()
        assert all(a is b for a, b in zip(space.independent, independent, strict=True))
        assert all(a is b for a, b in zip(space.dependent, dependent, strict=True))
        assert all(a is b for a, b in zip(system.parameters, params, strict=True))
        assert all(lead is sym for (lead, _), sym in zip(system.solved, doc.leads, strict=True))
        for _, args in doc.dependents:
            assert all(a is b for a, b in zip(args, independent, strict=True))


class TestErrors:
    def test_empty_input(self):
        with pytest.raises(ParseError, match="no equations"):
            parse_system("")

    def test_undeclared_symbol_position(self):
        text = "independent x\ndependent u(x)\neq d(u,x) + q = 0\nlead d(u,x)\n"
        with pytest.raises(ParseError) as err:
            parse_system(text)
        assert "undeclared symbol 'q'" in str(err.value)
        assert err.value.line == 3

    def test_unknown_declaration(self):
        with pytest.raises(ParseError, match="unknown declaration"):
            parse_system("frobnicate x\n")

    def test_double_declaration(self):
        with pytest.raises(ParseError, match="already declared"):
            parse_system("independent x x\n")

    def test_division_by_sum(self):
        text = "independent x\ndependent u(x)\neq 1/(x + u) = 0\n"
        with pytest.raises(ParseError) as err:
            parse_system(text)
        assert err.value.line == 3

    def test_negative_power_of_sum(self):
        text = "independent t x\ndependent u(t, x)\neq d(u,t) = (u + d(u,x))^-1\n"
        with pytest.raises(ParseError, match="^3:25: division is only supported"):
            parse_system(text)

    def test_power_over_the_term_budget(self):
        # refused at its '^' before any product is formed
        with pytest.raises(ParseError, match=(
                "^3:29: a 2-term sum to the power 4000 has up to 4001 terms, "
                "over the budget of 1000$")):
            parse_system(corpus.POWER)

    def test_product_over_the_term_budget(self):
        # each power is formed, and the product of their 1000 x 1000 terms
        # is refused at its '*'
        with pytest.raises(ParseError, match=(
                "^3:33: a product of sums of 1000 and 1000 terms has up to 1000000 "
                "terms, over the budget of 1000$")):
            parse_system(corpus.PRODUCT)

    def test_product_of_sums_within_the_term_budget(self):
        # 40 x 25 = 1000 terms at most: formed; 41 x 25 = 1025: refused; a
        # factor of one term is not counted
        names = reference.fixture_document().names()
        x, y, u = names["x"], names["y"], names["u"]
        [e] = parse_expressions(["(x + y)^39*(x + u)^24"], names)
        assert len(expr.monomials(e)) == 1000
        with pytest.raises(ParseError, match=(
                "^1:11: a product of sums of 41 and 25 terms has up to 1025 terms, "
                "over the budget of 1000$")):
            parse_expressions(["(x + y)^40*(x + u)^24"], names)
        [e] = parse_expressions(["(x + y + u)^43*2*x*u/y"], names)
        assert e == 2 * x * u * (x + y + u) ** 43 / y

    def test_power_of_a_sum_within_the_term_budget(self):
        # C(43 + 2, 2) = 990 terms at most: formed; C(44 + 2, 2) = 1035: refused
        names = reference.fixture_document().names()
        assert POWER_TERMS == 1000
        assert len(expr.monomials(parse_expressions(["(x + y + u)^43"], names)[0])) == 990
        with pytest.raises(ParseError, match=(
                "^1:12: a 3-term sum to the power 44 has up to 1035 terms, "
                "over the budget of 1000$")):
            parse_expressions(["(x + y + u)^44"], names)
        # a monomial, a first power, a zero sum and a negative power are formed
        x, y = reference.fixture_document().symbols()[0]
        assert parse_expressions(["(2*x*y)^5000"], names)[0] == 2**5000 * x**5000 * y**5000
        assert parse_expressions(["(x + y)^1"], names)[0] == x + y
        assert expr.is_zero(parse_expressions(["(x - x)^5000"], names)[0])
        assert parse_expressions(["(x*y)^-5000"], names)[0] == x**-5000 * y**-5000

    def test_bad_character(self):
        with pytest.raises(ParseError, match="unexpected character"):
            parse_system("independent x$\n")

    def test_lead_must_have_derivative(self):
        text = "independent x\ndependent u(x)\neq d(u,x) = 0\nlead d(u)\n"
        with pytest.raises(ParseError, match="at least one derivative"):
            parse_system(text)

    def test_missing_lead_equation(self):
        with pytest.raises(ParseError, match="does not appear"):
            build_system(parse_system(corpus.ABSENT_LEAD))

    def test_nonlinear_lead(self):
        text = "independent x\ndependent u(x)\neq d(u,x)^2 = u\nlead d(u,x)\n"
        with pytest.raises(ParseError, match="linearly"):
            build_system(parse_system(text))


DECLARED = "independent x y\ndependent u(x, y)\n"
EVOLUTION = corpus.EVOLUTION


@pytest.mark.parametrize("text, message", [
    ("independent x\ndependent (x)\n",
     "2:11: expected a dependent variable name, found '('"),
    ("param a b\n", "1:9: unexpected trailing input 'b'"),
    ("param a\nparam a\n", "2:7: 'a' already declared"),
    ("independent x\ndependent u(x)\ndependent u(x)\n", "3:11: 'u' already declared"),
    ("param a > 1\n", "1:11: only '> 0' is supported"),
    ("independent\n", "1:12: expected variable names"),
    ("independent x\ndependent u(y)\n",
     "2:13: argument 'y' is not an independent variable"),
    ("independent x\neq d(u,x) = 0\n", "2:5: variables must be declared before equations"),
    (DECLARED + "eq d(u,x) = 0\nlead u\n",
     "4:6: leading coordinates are written d(u, x, ...)"),
    (DECLARED + "eq d(u,x) = *\n", "3:13: unexpected token '*'"),
    (DECLARED + "eq d(w,x) = 0\n", "3:6: 'w' is not a dependent variable"),
    (DECLARED + "eq d(u,w) = 0\n", "3:8: 'w' is not an independent variable"),
    (DECLARED + "eq d(u,x) = u\n", "no leading coordinates declared (need 'lead d(...)')"),
    # a lead above the equations' order is checked like any other
    (corpus.HIGH_LEAD,
     "leading coordinate u_yyyy does not appear in an unclaimed equation"),
    # a newline or end token after a comment has the column of its '#'
    (EVOLUTION + "eq d(u,t) =   # rhs missing\n", "3:15: unexpected token '\\n'"),
    (corpus.BAD_SYSTEMS["comment_eof.pde"], "3:13: unexpected token ''"),
    (EVOLUTION + "eq d(u,t) = d(u,x) d(u,x)\n", "3:20: unexpected trailing input 'd'"),
    # a tab is one column
    (EVOLUTION + "eq d(u,t) = d(u,x)\t$\n", "3:20: unexpected character '$'"),
    ("eq d(u,t) = 0\nindependent t\n", "1:5: variables must be declared before equations"),
    ("param a\n" + EVOLUTION + "eq d(u,a) = 0\n", "4:8: 'a' is not an independent variable"),
    (corpus.BAD_SYSTEMS["twice.pde"], "2:11: 't' already declared"),
    # names and numbers are ASCII
    (EVOLUTION + "eq d(u,t) = u^²*d(u,x,x)\n", "3:15: unexpected character '²'"),
    (EVOLUTION + "eq d(u,t) = β*d(u,x,x)\n", "3:13: unexpected character 'β'"),
])
def test_error_message(text, message):
    with pytest.raises(ParseError) as err:
        build_system(parse_system(text))
    assert str(err.value) == message


@pytest.mark.parametrize("order", [4, 7])
def test_any_derivative_order(order):
    # u_t = u_x...x: one reduction step reaches order 2*order - 1
    doc = parse_system(corpus.HIGH_ORDER[f"order{order}.pde"])
    space, system = build_system(doc)
    assert space.max_order == order
    assert space.limit == 2 * order - 1
    basis = solve_determining(build_determining(system, 1))
    assert [(tuple(map(expr.render, vf.xi)), tuple(map(expr.render, vf.phi)))
            for vf in basis] == [(("1", "0"), ("0",)), (("0", "1"), ("0",)),
                                 ((f"{order}*t", "x"), ("0",)), (("0", "0"), ("1",)),
                                 (("0", "0"), ("u",)), (("0", "0"), ("x",))]


class TestExpressions:
    def test_unary_plus(self):
        doc = parse_system(DECLARED + "eq +d(u,x) = +u - +x\nlead d(u,x)\n")
        x = doc.symbols()[0][0]
        u = doc.symbols()[1][0]
        lhs, rhs = doc.equations[0]
        assert expr.render(lhs) == "u_x"
        assert expr.equal(rhs, u - x)


    def test_precedence(self):
        doc = reference.fixture_document()
        e = parse_expressions(["1 + 2*x^2"], doc.names())[0]
        x = doc.symbols()[0][0]
        assert expr.equal(e, 1 + 2 * x**2)

    def test_unary_minus(self):
        doc = reference.fixture_document()
        e = parse_expressions(["-x + -(u)"], doc.names())[0]
        x = doc.symbols()[0][0]
        u = doc.symbols()[1][0]
        assert expr.equal(e, -1 * x - u)

    def test_rational_literals(self):
        doc = reference.fixture_document()
        e = parse_expressions(["2/3"], doc.names())[0]
        assert e == expr.Rational(2, 3)

    def test_negative_exponent(self):
        doc = reference.fixture_document()
        e = parse_expressions(["rho^-1"], doc.names())[0]
        assert expr.render(e) == "rho^-1"

    def test_derivative_coordinates(self):
        doc = reference.fixture_document()
        e = parse_expressions(["d(u, x, y)"], doc.names())[0]
        assert expr.render(e) == "u_xy"

    def test_trailing_garbage(self):
        doc = reference.fixture_document()
        with pytest.raises(ParseError, match="trailing"):
            parse_expressions(["x + 1 )"], doc.names())

    def test_group_atoms_only_with_a_group_symbol(self):
        # exp(k*eps), eps and applications read as `expr.render` writes them
        doc = reference.fixture_document()
        [e] = parse_expressions(["f(x + eps, y)*exp(-2*eps) + eps*exp(eps/2)"],
                                doc.names(), EPS_SYMBOL)
        assert expr.render(e) == "eps*exp(1/2*eps) + f(x + eps, y)*exp(-2*eps)"
        for text, message in (("exp(x)", "exp takes one rational multiple of eps"),
                              ("exp(eps, 1)", "exp takes one rational multiple of eps")):
            with pytest.raises(ParseError, match=message):
                parse_expressions([text], doc.names(), EPS_SYMBOL)
        for text in ("eps", "f(x)", "exp(eps)"):
            with pytest.raises(ParseError, match="undeclared symbol"):
                parse_expressions([text], doc.names())
