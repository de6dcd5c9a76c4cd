"""System-definition files: tokenizer, recursive-descent parser, printer.

Grammar (one declaration per line, '#' comments):

    param <name> [> 0]
    independent <name> <name> ...
    dependent <name>(<name>, ...)
    eq <expression> = <expression>
    lead d(<dependent>, <independent>, ...)

Outside comments the input is ASCII: a name is letters, digits and '_', not
starting with a digit.  Expressions use ``+ - * / ^`` with the usual
precedence, integer literals (rationals are built with ``/``), parentheses,
and ``d(f, x, y, ...)`` for derivative coordinates of any order.  All errors
carry line and column positions.

A name becomes a symbol through one table {name: Symbol}: the parser fills
it from the declarations it reads, `SystemDocument.names` gives a parsed
system's, and `parse_expressions` reads expressions in any table, such as
one that maps a document's names onto another system's variables.
"""

from __future__ import annotations

import collections
import itertools
import math
import re

from . import expr
from .errors import ExpansionLimitError, LiepdeError, ParseError, UnsupportedDivisionError
from .expr import (
    DEPENDENT,
    INDEPENDENT,
    PARAMETER,
    ParamExp,
    Power,
    Rational,
    Symbol,
)
from .jet import JetSpace, PDESystem, jet

Token = collections.namedtuple("Token", "kind text line column")

# one alternative per kind, over ASCII classes; any other character is an
# error.  A comment runs to the end of its line and takes no columns, so
# the newline or end token after it has the column of its '#'.
_TOKEN = re.compile(
    r"(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<punct>[(),+\-*/^=>])|(?P<space>[ \t\r]+)"
    r"|(?P<newline>\n)|(?P<number>[0-9]+)|(?P<comment>#[^\n]*)|(?P<bad>.)")

_ROLE = {DEPENDENT: "a dependent variable", INDEPENDENT: "an independent variable"}

# The most terms a power of a sum or a product of sums written in a system
# file may expand to.  No shipped or benchmark input writes a power of a
# sum or a product of two sums: the largest product bound one writes is 2,
# a two-term sum times a monomial.  A two-term sum to the power 999 takes
# 0.7 s; (x + t)^4000 and (x + t)^999*(x + t)^999 are refused at once.
# Powers that the stages form, such as a substitution's, are bounded by
# the looser `expr.POWER_COST`.
POWER_TERMS = 1000


def tokenize(text):
    tokens = []
    line, start = 1, 0  # start: the offset of column 1
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "space":
            continue
        piece = m.group()
        column = m.start() - start + 1
        if kind == "bad":
            raise ParseError(f"unexpected character {piece!r}", line, column)
        if kind == "comment":
            start += len(piece)
            continue
        tokens.append(Token(piece if kind == "punct" else kind, piece, line, column))
        if kind == "newline":
            line, start = line + 1, m.end()
    tokens.append(Token("end", "", line, len(text) - start + 1))
    return tokens


class SystemDocument:
    """Parsed system definition: declarations, equations, leading coordinates,
    each in declaration order and holding the symbols the parser resolved."""

    def __init__(self, parameters, independents, dependents, equations, leads):
        self.parameters = tuple(parameters)      # (Symbol, positive flag)
        self.independents = tuple(independents)  # Symbols
        self.dependents = tuple(dependents)      # (Symbol, argument Symbols)
        self.equations = tuple(equations)        # (lhs Expr, rhs Expr)
        self.leads = tuple(leads)                # jet Symbols

    def symbols(self):
        """(independent, dependent, parameter) Symbols, in declaration order."""
        return (self.independents, tuple(d for d, _ in self.dependents),
                tuple(p for p, _ in self.parameters))

    def names(self):
        """The table {name: Symbol} of the declarations: independent and
        dependent variables, then parameters, each in declaration order."""
        return {s.name: s for s in itertools.chain(*self.symbols())}

    def __eq__(self, other):
        return (
            isinstance(other, SystemDocument)
            and self.parameters == other.parameters
            and self.independents == other.independents
            and self.dependents == other.dependents
            and self.leads == other.leads
            and len(self.equations) == len(other.equations)
            and all(
                expr.equal(a[0] - a[1], b[0] - b[1])
                for a, b in zip(self.equations, other.equations)
            )
        )


def _length(e):
    """The number of terms of `e`: at most 1 unless it is a `Poly`."""
    return len(e.terms) if isinstance(e, expr.Poly) else 1


def _within_budget(bound, what):
    """Raise ExpansionLimitError when `what`, which expands to up to `bound`
    terms, is over POWER_TERMS."""
    if bound > POWER_TERMS:
        raise ExpansionLimitError(
            f"{what} has up to {bound} terms, over the budget of {POWER_TERMS}")


def _budgeted(base, n):
    """The exponent `n`, once the expansion of `base`^`n` is known to stay within
    POWER_TERMS: a k-term sum to a power n > 1 has up to C(n + k - 1, k - 1) terms."""
    k = _length(base)
    if n > 1 and k > 1:
        _within_budget(math.comb(n + k - 1, k - 1), f"a {k}-term sum to the power {n}")
    return n


class _Parser:
    """Recursive descent over the tokens of `text`, resolving each name in
    the table `names`, which the declarations extend."""

    def __init__(self, text, names, group=None):
        self.tokens = tokenize(text)
        self.pos = 0
        self.names = names
        self.group = group
        self.parameters = []
        self.independents = []
        self.dependents = []
        self.equations = []
        self.leads = []

    # -- token helpers -----------------------------------------------------

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what=None):
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"expected {what or kind}, found {tok.text!r}", tok.line, tok.column
            )
        return self.advance()

    def skip_newlines(self):
        while self.peek().kind == "newline":
            self.advance()

    def lookup(self, role, prefix=""):
        """The symbol of the next token, a name declared with `role`."""
        tok = self.expect("name", _ROLE[role])
        sym = self.names.get(tok.text)
        if sym is None or sym.role != role:
            raise ParseError(f"{prefix}{tok.text!r} is not {_ROLE[role]}",
                             tok.line, tok.column)
        return sym

    # -- declarations --------------------------------------------------------

    def parse(self):
        self.skip_newlines()
        while self.peek().kind != "end":
            tok = self.expect("name", "a declaration keyword")
            handler = {
                "param": self._parse_param,
                "independent": self._parse_independent,
                "dependent": self._parse_dependent,
                "eq": self._parse_equation,
                "lead": self._parse_lead,
            }.get(tok.text)
            if handler is None:
                raise ParseError(
                    f"unknown declaration {tok.text!r}", tok.line, tok.column
                )
            handler()
            self.expect_line_end()
            self.skip_newlines()
        if not self.equations:
            raise ParseError("no equations", self.peek().line, self.peek().column)
        return SystemDocument(
            self.parameters, self.independents, self.dependents,
            self.equations, self.leads,
        )

    def expect_line_end(self):
        tok = self.peek()
        if tok.kind not in ("newline", "end"):
            raise ParseError(f"unexpected trailing input {tok.text!r}",
                             tok.line, tok.column)

    def declare(self, tok, role):
        """Enter the name of `tok` in the table as a new symbol of `role`,
        and return that symbol."""
        if tok.text in self.names:
            raise ParseError(f"{tok.text!r} already declared", tok.line, tok.column)
        sym = self.names[tok.text] = Symbol(tok.text, role)
        return sym

    def _parse_param(self):
        sym = self.declare(self.expect("name", "a parameter name"), PARAMETER)
        positive = False
        if self.peek().kind == ">":
            self.advance()
            zero = self.expect("number", "0")
            if zero.text != "0":
                raise ParseError("only '> 0' is supported", zero.line, zero.column)
            positive = True
        self.parameters.append((sym, positive))

    def _parse_independent(self):
        if self.peek().kind != "name":
            tok = self.peek()
            raise ParseError("expected variable names", tok.line, tok.column)
        while self.peek().kind == "name":
            self.independents.append(self.declare(self.advance(), INDEPENDENT))

    def _parse_dependent(self):
        sym = self.declare(self.expect("name", "a dependent variable name"), DEPENDENT)
        self.expect("(")
        args = [self.lookup(INDEPENDENT, "argument ")]
        while self.peek().kind == ",":
            self.advance()
            args.append(self.lookup(INDEPENDENT, "argument "))
        self.expect(")")
        self.dependents.append((sym, tuple(args)))

    def _parse_equation(self):
        lhs = self._parse_sum()
        self.expect("=")
        rhs = self._parse_sum()
        self.equations.append((lhs, rhs))

    def _parse_lead(self):
        tok = self.expect("name", "a derivative d(...)")
        if tok.text != "d":
            raise ParseError(
                "leading coordinates are written d(u, x, ...)", tok.line, tok.column
            )
        sym = self._parse_derivative()
        if sym.role != expr.JET:
            raise ParseError(
                "a leading coordinate must involve at least one derivative",
                tok.line, tok.column,
            )
        self.leads.append(sym)

    # -- expressions ----------------------------------------------------------

    def _parse_sum(self):
        left = self._parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            right = self._parse_term()
            left = left + right if op.kind == "+" else left - right
        return left

    def _parse_term(self):
        """A product: the product of a k-term and an l-term operand has up to
        k * l terms, which is checked against POWER_TERMS at the '*'."""
        left = self._parse_unary()
        while self.peek().kind in ("*", "/"):
            op = self.advance()
            right = self._parse_unary()
            try:
                if op.kind == "*":
                    k, l = _length(left), _length(right)
                    if k > 1 and l > 1:
                        _within_budget(k * l, f"a product of sums of {k} and {l} terms")
                    left = left * right
                else:
                    left = left / right
            except (UnsupportedDivisionError, ExpansionLimitError) as exc:
                raise ParseError(str(exc), op.line, op.column) from exc
        return left

    def _parse_unary(self):
        if self.peek().kind == "-":
            self.advance()
            return -self._parse_unary()
        if self.peek().kind == "+":
            self.advance()
            return self._parse_unary()
        return self._parse_power()

    def _parse_power(self):
        base = self._parse_atom()
        if self.peek().kind == "^":
            op = self.advance()
            sign = 1
            if self.peek().kind == "-":
                self.advance()
                sign = -1
            tok = self.expect("number", "an integer exponent")
            try:
                return Power(base, _budgeted(base, sign * int(tok.text)))
            except (UnsupportedDivisionError, ExpansionLimitError) as exc:
                raise ParseError(str(exc), op.line, op.column) from exc
        return base

    def _parse_atom(self):
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Rational(int(tok.text))
        if tok.kind == "(":
            self.advance()
            inner = self._parse_sum()
            self.expect(")")
            return inner
        if tok.kind == "name":
            self.advance()
            if tok.text == "d" and self.peek().kind == "(":
                return self._parse_derivative()
            if self.group is not None:
                if tok.text == self.group.name:
                    return self.group
                if self.peek().kind == "(":
                    return self._parse_application(tok)
            sym = self.names.get(tok.text)
            if sym is None:
                raise ParseError(f"undeclared symbol {tok.text!r}", tok.line, tok.column)
            return sym
        raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.column)

    def _parse_application(self, tok):
        """exp(k*<group>) for a rational k, or the application name(arg, ...)."""
        self.expect("(")
        args = [self._parse_sum()]
        while self.peek().kind == ",":
            self.advance()
            args.append(self._parse_sum())
        self.expect(")")
        if tok.text != "exp":
            return expr.FunctionApplication(tok.text, args)
        k = expr.constant_value(args[0] / self.group) if len(args) == 1 else None
        if k is None:
            raise ParseError(f"exp takes one rational multiple of {self.group.name}",
                             tok.line, tok.column)
        return ParamExp(self.group, k)

    def _parse_derivative(self):
        """d(f, x, ...) after the d: f differentiated once per x listed."""
        roles = [s.role for s in self.names.values()]
        if INDEPENDENT not in roles or DEPENDENT not in roles:
            tok = self.peek()
            raise ParseError("variables must be declared before equations",
                             tok.line, tok.column)
        self.expect("(")
        dep = self.lookup(DEPENDENT)
        by = []
        while self.peek().kind == ",":
            self.advance()
            by.append(self.lookup(INDEPENDENT))
        self.expect(")")
        if not by:
            return dep
        independent = [s for s in self.names.values() if s.role == INDEPENDENT]
        return jet(dep, independent, tuple(map(by.count, independent)))


def parse_system(text):
    """Parse a system-definition document."""
    return _Parser(text, {}).parse()


def parse_expressions(texts, names, group=None):
    """Parse each text as one expression in the table `names` {name: Symbol},
    such as `SystemDocument.names()`, with one parser.  With a
    group-parameter symbol `group` it also reads what `expr.render` writes
    for transformed solutions: that symbol, exp(k*eps) for a rational k and
    applications f(arg, ...) of names that are not the group's."""
    p = _Parser("", names, group)
    out = []
    for text in texts:
        p.tokens = tokenize(text)
        p.pos = 0
        p.skip_newlines()
        out.append(p._parse_sum())
        p.skip_newlines()
        p.expect_line_end()
    return out


def parse_field(text, names):
    """The coefficients (xi, phi) of a vector field written in the `--field`
    form "xi_1; ...; xi_p; phi_1; ...; phi_q" in the table `names`."""
    pieces = [piece.strip() for piece in text.split(";")]
    roles = [s.role for s in names.values()]
    p, q = roles.count(INDEPENDENT), roles.count(DEPENDENT)
    if len(pieces) != p + q:
        raise LiepdeError(f"--field needs {p + q} coefficients "
                          f"({p} xi then {q} phi), got {len(pieces)}")
    coeffs = parse_expressions(pieces, names)
    return coeffs[:p], coeffs[p:]


# ---------------------------------------------------------------------------
# Printing (round-trip stable)
# ---------------------------------------------------------------------------

def _print_expression(e, independents):
    """Render an expression back into the input grammar, a jet coordinate as
    d(u, x, ...) over the independent symbols `independents`."""
    terms = expr.monomials(e)
    if not terms:
        return "0"
    parts = []
    for (powers, pexps), coeff in terms:
        if pexps:
            raise ValueError("group exponentials have no input syntax")
        factors = []
        for atom, k in powers:
            if not isinstance(atom, Symbol):
                raise ValueError(f"{atom} has no input syntax")
            if atom.role == expr.JET:
                body = _print_jet(atom, independents)
            else:
                body = atom.name
            factors.append(body if k == 1 else f"{body}^{k if k > 0 else f'-{-k}'}")
        num, den = coeff.numerator, coeff.denominator
        text = "*".join(factors)
        if not text:
            text = str(abs(num))
        elif abs(num) != 1:
            text = f"{abs(num)}*{text}"
        if den != 1:
            text = f"{text}/{den}"
        sign = "-" if num < 0 else "+"
        parts.append((sign, text))
    out = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, text in parts[1:]:
        out += f" {sign} {text}"
    return out


def print_system(doc):
    """Canonical text of a document; parses back to an equal document."""
    lines = []
    for sym, positive in doc.parameters:
        lines.append(f"param {sym.name} > 0" if positive else f"param {sym.name}")
    lines.append("independent " + " ".join(s.name for s in doc.independents))
    for sym, args in doc.dependents:
        lines.append(f"dependent {sym.name}({', '.join(a.name for a in args)})")
    for lhs, rhs in doc.equations:
        lines.append(
            f"eq {_print_expression(lhs, doc.independents)} = "
            f"{_print_expression(rhs, doc.independents)}"
        )
    for lead in doc.leads:
        lines.append(f"lead {_print_jet(lead, doc.independents)}")
    return "\n".join(lines) + "\n"


def _print_jet(sym, independents):
    """d(u, x, ...) for the jet symbol `sym`: u differentiated once per x."""
    args = [sym.base]
    for ind, c in zip(independents, sym.multi):
        args.extend([ind.name] * c)
    return f"d({', '.join(args)})"


# ---------------------------------------------------------------------------
# Building the analysis objects
# ---------------------------------------------------------------------------

def build_system(doc):
    """JetSpace and PDESystem (with solved form) from a parsed document."""
    independent, dependent, params = doc.symbols()
    exprs = [lhs - rhs for lhs, rhs in doc.equations]
    symbols = [expr.free_symbols(e) for e in exprs]
    order = max([1, *(s.order for present in symbols for s in present)])
    space = JetSpace(independent, dependent, order)
    if not doc.leads:
        raise ParseError("no leading coordinates declared (need 'lead d(...)')")
    solved = []
    claimed = set()
    for lead in doc.leads:
        found = next((idx for idx, present in enumerate(symbols)
                      if idx not in claimed and lead in present), None)
        if found is None:
            raise ParseError(
                f"leading coordinate {lead.name} does not appear in an unclaimed equation"
            )
        claimed.add(found)
        terms = expr.collect(exprs[found], {lead})
        if (1,) not in terms or terms.keys() - {(0,), (1,)}:
            raise ParseError(
                f"equation does not depend linearly on the leading coordinate {lead.name}"
            )
        solved.append((lead, -terms.get((0,), expr.ZERO) / terms[(1,)]))
    system = PDESystem(space, exprs, tuple(solved), parameters=params)
    return space, system
