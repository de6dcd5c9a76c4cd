"""Property: printing a system document and parsing it back gives the same
document, for generated documents with integer and fractional coefficients."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from liepde.expr import DEPENDENT, INDEPENDENT, PARAMETER, ONE, Rational, Symbol, ZERO  # noqa: E402
from liepde.jet import JetSpace  # noqa: E402
from liepde.parser import SystemDocument, parse_system, print_system  # noqa: E402

INDEPENDENTS = ("t", "x", "y")
DEPENDENTS = ("u", "v")
PARAMETERS = ("nu", "a")

coefficients = st.one_of(
    st.integers(-12, 12),
    st.fractions(min_value=-6, max_value=6, max_denominator=8),
)


@st.composite
def documents(draw):
    independents = tuple(Symbol(n, INDEPENDENT)
                         for n in INDEPENDENTS[:draw(st.integers(1, len(INDEPENDENTS)))])
    dependents = tuple(
        (Symbol(name, DEPENDENT),
         tuple(draw(st.lists(st.sampled_from(independents), min_size=1,
                             max_size=len(independents), unique=True))))
        for name in DEPENDENTS[:draw(st.integers(1, len(DEPENDENTS)))]
    )
    parameters = tuple(draw(st.lists(
        st.tuples(st.sampled_from([Symbol(n, PARAMETER) for n in PARAMETERS]),
                  st.booleans()),
        max_size=len(PARAMETERS), unique_by=lambda p: p[0],
    )))
    space = JetSpace(independents, tuple(d for d, _ in dependents), 4)
    multis = st.lists(st.integers(0, 2), min_size=len(independents),
                      max_size=len(independents)).filter(lambda m: 1 <= sum(m) <= 3)
    jets = st.builds(space.coordinate, st.sampled_from(space.dependent), multis)
    atoms = st.one_of(
        st.sampled_from(space.independent + space.dependent),
        st.sampled_from([p for p, _ in parameters] or [ONE]),
        jets,
    )
    powers = st.tuples(atoms, st.integers(-2, 3).filter(bool))
    terms = st.builds(
        lambda c, factors: _product(Rational(c), factors),
        coefficients, st.lists(powers, max_size=3),
    )
    sides = st.lists(terms, max_size=4).map(lambda ts: sum(ts, ZERO))
    equations = draw(st.lists(st.tuples(sides, sides), min_size=1, max_size=3))
    leads = draw(st.lists(jets, max_size=2))
    return SystemDocument(parameters, independents, dependents, equations, leads)


def _product(coeff, factors):
    for atom, exp in factors:
        coeff = coeff * atom ** exp
    return coeff


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(documents())
def test_print_then_parse_is_identity(doc):
    text = print_system(doc)
    again = parse_system(text)
    assert again == doc
    assert print_system(again) == text
