"""System-definition files: tokenizer, recursive-descent parser, printer.

Grammar (one declaration per line, '#' comments):

    param <name> [> 0]
    independent <name> <name> ...
    dependent <name>(<name>, ...)
    eq <expression> = <expression>
    lead d(<dependent>, <independent>, ...)

Expressions use ``+ - * / ^`` with the usual precedence, integer literals
(rationals are built with ``/``), parentheses, and ``d(f, x, y, ...)`` for
derivative coordinates.  All errors carry line and column positions.
"""

from __future__ import annotations

from . import expr
from .errors import LiepdeError, ParseError, UnsupportedDivisionError
from .expr import (
    DEPENDENT,
    INDEPENDENT,
    PARAMETER,
    ParamExp,
    Power,
    Rational,
    Symbol,
)
from .jet import JetSpace, PDESystem

_PUNCT = ("(", ")", ",", "+", "-", "*", "/", "^", "=", ">")


class Token:
    __slots__ = ("kind", "text", "line", "column")

    def __init__(self, kind, text, line, column):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column


def tokenize(text):
    tokens = []
    line = 1
    col = 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            tokens.append(Token("newline", "\n", line, col))
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        if ch.isdigit():
            start = i
            startcol = col
            while i < len(text) and text[i].isdigit():
                i += 1
                col += 1
            tokens.append(Token("number", text[start:i], line, startcol))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            startcol = col
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
                col += 1
            tokens.append(Token("name", text[start:i], line, startcol))
            continue
        if ch in _PUNCT:
            tokens.append(Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("end", "", line, col))
    return tokens


class SystemDocument:
    """Parsed system definition: declarations, equations, leading coordinates."""

    def __init__(self, parameters, independents, dependents, equations, leads):
        self.parameters = tuple(parameters)      # (name, positive flag)
        self.independents = tuple(independents)  # names
        self.dependents = tuple(dependents)      # (name, arg names)
        self.equations = tuple(equations)        # (lhs Expr, rhs Expr)
        self.leads = tuple(leads)                # (dep name, multi tuple)

    # symbol construction is deterministic from the declarations
    def symbols(self):
        independent = tuple(Symbol(n, INDEPENDENT) for n in self.independents)
        dependent = tuple(Symbol(n, DEPENDENT) for n, _ in self.dependents)
        params = tuple(Symbol(n, PARAMETER) for n, _ in self.parameters)
        return independent, dependent, params

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


class _Parser:
    def __init__(self, text):
        self.tokens = tokenize(text)
        self.pos = 0
        self.parameters = []
        self.independents = []
        self.dependents = []
        self.equations = []
        self.leads = []
        self.space = None
        self.group = None

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
            if self.peek().kind not in ("newline", "end"):
                bad = self.peek()
                raise ParseError(
                    f"unexpected trailing input {bad.text!r}", bad.line, bad.column
                )
            self.skip_newlines()
        if not self.equations:
            raise ParseError("no equations", self.peek().line, self.peek().column)
        return SystemDocument(
            self.parameters, self.independents, self.dependents,
            self.equations, self.leads,
        )

    def _declared(self, name):
        return (
            name in self.independents
            or any(name == d for d, _ in self.dependents)
            or any(name == p for p, _ in self.parameters)
        )

    def _parse_param(self):
        tok = self.expect("name", "a parameter name")
        if self._declared(tok.text):
            raise ParseError(f"{tok.text!r} already declared", tok.line, tok.column)
        positive = False
        if self.peek().kind == ">":
            self.advance()
            zero = self.expect("number", "0")
            if zero.text != "0":
                raise ParseError("only '> 0' is supported", zero.line, zero.column)
            positive = True
        self.parameters.append((tok.text, positive))

    def _parse_independent(self):
        count = 0
        while self.peek().kind == "name":
            tok = self.advance()
            if self._declared(tok.text):
                raise ParseError(f"{tok.text!r} already declared", tok.line, tok.column)
            self.independents.append(tok.text)
            count += 1
        if count == 0:
            tok = self.peek()
            raise ParseError("expected variable names", tok.line, tok.column)

    def _parse_dependent(self):
        tok = self.expect("name", "a dependent variable name")
        if self._declared(tok.text):
            raise ParseError(f"{tok.text!r} already declared", tok.line, tok.column)
        self.expect("(")
        args = []
        while True:
            arg = self.expect("name", "an independent variable")
            if arg.text not in self.independents:
                raise ParseError(
                    f"argument {arg.text!r} is not an independent variable",
                    arg.line, arg.column,
                )
            args.append(arg.text)
            if self.peek().kind == ",":
                self.advance()
                continue
            break
        self.expect(")")
        self.dependents.append((tok.text, tuple(args)))

    def _ensure_space(self):
        if self.space is None:
            if not self.independents or not self.dependents:
                tok = self.peek()
                raise ParseError(
                    "variables must be declared before equations",
                    tok.line, tok.column,
                )
            independent = tuple(Symbol(n, INDEPENDENT) for n in self.independents)
            dependent = tuple(Symbol(n, DEPENDENT) for n, _ in self.dependents)
            # a generous order cap for parsing; the analysis space is rebuilt
            # at the order actually present in the equations
            self.space = JetSpace(independent, dependent, 4)
        return self.space

    def _parse_equation(self):
        lhs = self._parse_expression()
        self.expect("=")
        rhs = self._parse_expression()
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
        self.leads.append((sym.base, sym.multi))

    # -- expressions ----------------------------------------------------------

    def _parse_expression(self):
        return self._parse_sum()

    def _parse_sum(self):
        left = self._parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            right = self._parse_term()
            left = left + right if op.kind == "+" else left - right
        return left

    def _parse_term(self):
        left = self._parse_unary()
        while self.peek().kind in ("*", "/"):
            op = self.advance()
            right = self._parse_unary()
            if op.kind == "*":
                left = left * right
            else:
                try:
                    left = left / right
                except UnsupportedDivisionError as exc:
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
                return Power(base, sign * int(tok.text))
            except UnsupportedDivisionError as exc:
                raise ParseError(str(exc), op.line, op.column) from exc
        return base

    def _parse_atom(self):
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Rational(int(tok.text))
        if tok.kind == "(":
            self.advance()
            inner = self._parse_expression()
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
            return self._symbol(tok)
        raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.column)

    def _parse_application(self, tok):
        """exp(k*<group>) for a rational k, or the application name(arg, ...)."""
        self.expect("(")
        args = [self._parse_expression()]
        while self.peek().kind == ",":
            self.advance()
            args.append(self._parse_expression())
        self.expect(")")
        if tok.text != "exp":
            return expr.FunctionApplication(tok.text, args)
        k = expr.constant_value(args[0] / self.group) if len(args) == 1 else None
        if k is None:
            raise ParseError(f"exp takes one rational multiple of {self.group.name}",
                             tok.line, tok.column)
        return ParamExp(self.group, k)

    def _symbol(self, tok):
        name = tok.text
        if name in self.independents:
            return Symbol(name, INDEPENDENT)
        for dep, _ in self.dependents:
            if name == dep:
                return Symbol(name, DEPENDENT)
        for par, _ in self.parameters:
            if name == par:
                return Symbol(name, PARAMETER)
        raise ParseError(f"undeclared symbol {name!r}", tok.line, tok.column)

    def _parse_derivative(self):
        space = self._ensure_space()
        self.expect("(")
        ftok = self.expect("name", "a dependent variable")
        dep = None
        for idx, (name, _) in enumerate(self.dependents):
            if name == ftok.text:
                dep = space.dependent[idx]
        if dep is None:
            raise ParseError(
                f"{ftok.text!r} is not a dependent variable", ftok.line, ftok.column
            )
        multi = [0] * len(self.independents)
        count = 0
        while self.peek().kind == ",":
            self.advance()
            vtok = self.expect("name", "an independent variable")
            if vtok.text not in self.independents:
                raise ParseError(
                    f"{vtok.text!r} is not an independent variable",
                    vtok.line, vtok.column,
                )
            multi[self.independents.index(vtok.text)] += 1
            count += 1
        self.expect(")")
        if count == 0:
            return dep
        return space.coordinate(dep, multi)


def parse_system(text):
    """Parse a system-definition document."""
    return _Parser(text).parse()


def parse_expression(text, doc, group=None):
    """Parse a single expression against a document's declarations.  With a
    group-parameter symbol `group` it also reads what `expr.render` writes
    for transformed solutions: that symbol, exp(k*eps) for a rational k and
    applications f(arg, ...) of undeclared names."""
    [e] = parse_expressions([text], doc, group)
    return e


def parse_expressions(texts, doc, group=None):
    """`parse_expression` of each text, with one parser and jet space."""
    p = _Parser("")
    p.group = group
    p.parameters = list(doc.parameters)
    p.independents = list(doc.independents)
    p.dependents = list(doc.dependents)
    out = []
    for text in texts:
        p.tokens = tokenize(text)
        p.pos = 0
        p.skip_newlines()
        out.append(p._parse_expression())
        p.skip_newlines()
        tok = p.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}",
                             tok.line, tok.column)
    return out


def parse_field(text, doc):
    """The coefficients (xi, phi) of a vector field written in the `--field`
    form "xi_1; ...; xi_p; phi_1; ...; phi_q" in `doc`'s names."""
    pieces = [piece.strip() for piece in text.split(";")]
    p, q = len(doc.independents), len(doc.dependents)
    if len(pieces) != p + q:
        raise LiepdeError(f"--field needs {p + q} coefficients "
                          f"({p} xi then {q} phi), got {len(pieces)}")
    coeffs = parse_expressions(pieces, doc)
    return coeffs[:p], coeffs[p:]


# ---------------------------------------------------------------------------
# Printing (round-trip stable)
# ---------------------------------------------------------------------------

def _print_expression(e, independents):
    """Render an expression back into the input grammar."""
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
                args = [atom.base]
                for name, c in zip(independents, atom.multi):
                    args.extend([name] * c)
                body = f"d({', '.join(args)})"
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
    for name, positive in doc.parameters:
        lines.append(f"param {name} > 0" if positive else f"param {name}")
    lines.append("independent " + " ".join(doc.independents))
    for name, args in doc.dependents:
        lines.append(f"dependent {name}({', '.join(args)})")
    for lhs, rhs in doc.equations:
        lines.append(
            f"eq {_print_expression(lhs, doc.independents)} = "
            f"{_print_expression(rhs, doc.independents)}"
        )
    for dep, multi in doc.leads:
        args = [dep]
        for name, c in zip(doc.independents, multi):
            args.extend([name] * c)
        lines.append(f"lead d({', '.join(args)})")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Building the analysis objects
# ---------------------------------------------------------------------------

def build_system(doc):
    """JetSpace and PDESystem (with solved form) from a parsed document."""
    independent, dependent, params = doc.symbols()
    order = 1
    probe = JetSpace(independent, dependent, 4)
    exprs = [lhs - rhs for lhs, rhs in doc.equations]
    for e in exprs:
        for s in probe.jet_symbols_in(e):
            if s.role == expr.JET:
                order = max(order, s.order)
    space = JetSpace(independent, dependent, order)
    if not doc.leads:
        raise ParseError("no leading coordinates declared (need 'lead d(...)')")
    solved = []
    claimed = set()
    for dep_name, multi in doc.leads:
        dep = next(d for d in dependent if d.name == dep_name)
        lead = space.coordinate(dep, multi)
        found = None
        for idx, e in enumerate(exprs):
            if idx in claimed:
                continue
            if lead in probe.jet_symbols_in(e):
                found = idx
                break
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
