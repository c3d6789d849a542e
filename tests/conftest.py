import pathlib

import pytest
from hypothesis import settings

from wheelerkit import Automaton, OrderedAlphabet

# Deterministic property runs with no per-example deadline: slow shared
# machines must not turn a timing hiccup into a failure.
settings.register_profile("wheelerkit", deadline=None, derandomize=True)
settings.load_profile("wheelerkit")

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def make(symbols, n, initial, finals, edges):
    return Automaton(OrderedAlphabet(tuple(symbols)), n, initial,
                     frozenset(finals), frozenset(edges))


@pytest.fixture
def fixtures_dir():
    return FIXTURES


@pytest.fixture
def wdfa6():
    """Six-state WDFA for a c* + d c* f; its Wheeler order is 0..5."""
    return make(("a", "c", "d", "f"), 6, 0, {1, 2, 5},
                {(0, "a", 1), (1, "c", 2), (2, "c", 2), (0, "d", 4),
                 (4, "c", 3), (3, "c", 3), (3, "f", 5), (4, "f", 5)})


@pytest.fixture
def notwdfa6():
    """Six-state attempt for a c* + b c* f; condition (ii) fails on c-edges."""
    return make(("a", "b", "c", "f"), 6, 0, {1, 3, 5},
                {(0, "a", 1), (1, "c", 3), (3, "c", 3), (0, "b", 2),
                 (2, "c", 4), (4, "c", 4), (4, "f", 5), (2, "f", 5)})


@pytest.fixture
def mind4_wheeler():
    """Minimum DFA of a c* + d c* f (a Wheeler language)."""
    return make(("a", "c", "d", "f"), 4, 0, {1, 3},
                {(0, "a", 1), (1, "c", 1), (0, "d", 2), (2, "c", 2), (2, "f", 3)})


@pytest.fixture
def mind4_nonwheeler():
    """Minimum DFA of a c* + b c* f (not a Wheeler language)."""
    return make(("a", "b", "c", "f"), 4, 0, {1, 3},
                {(0, "a", 1), (1, "c", 1), (0, "b", 2), (2, "c", 2), (2, "f", 3)})


@pytest.fixture
def astar():
    return make(("a",), 1, 0, {0}, {(0, "a", 0)})


@pytest.fixture
def epsonly():
    return make(("a",), 1, 0, {0}, set())


@pytest.fixture
def universal1():
    return make(("d",), 1, 0, {0}, {(0, "d", 0)})


@pytest.fixture
def epsilon_d():
    return make(("d",), 1, 0, {0}, set())


@pytest.fixture
def starfree_nongw():
    """Minimum DFA of a(aba)*a + ba(aba)*b: star-free but not GW."""
    return make(("a", "b"), 8, 0, {3, 7},
                {(0, "a", 1), (0, "b", 2), (1, "a", 3), (2, "a", 4),
                 (3, "b", 5), (4, "a", 6), (4, "b", 7), (5, "a", 1), (6, "b", 2)})
