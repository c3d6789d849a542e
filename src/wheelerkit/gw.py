"""Generalized Wheelerness: search over alphabet orders, and the betweenness
solver used to cross-validate the order-hardness gadget.

An automaton is generalized Wheeler (GW) when some reordering of its alphabet
makes it Wheeler; a language is GW when some order makes the language
Wheeler.  Both checks brute-force the sigma! orders, lexicographically over
permutations of the listed alphabet, and report the first that works.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .automaton import minimize, shortest_entering_words, with_alphabet_order
from .errors import (
    AlphabetTooLarge,
    FormatError,
    InfeasibleEnumeration,
    TooManyElements,
    WheelerkitError,
)
from .language import (
    BOUNDED_WHEELER,
    METHOD_BOTH,
    WHEELER,
    SearchCaps,
    collect_candidates,
    is_language_wheeler_dfa,
    search_witness,
)
from .minwdfa import DEFAULT_WORD_CAP
from .wheeler import (
    WheelerOrder,
    WheelerViolation,
    input_consistency,
    nfa_wheeler_search,
    verify_wheeler,
)

DEFAULT_MAX_SIGMA = 8


def _order_permutations(alphabet, max_sigma):
    if len(alphabet) > max_sigma:
        raise AlphabetTooLarge(
            f"{len(alphabet)}! orders exceed the budget (sigma <= {max_sigma})")
    return itertools.permutations(alphabet.symbols)


def gw_automaton_check(a, max_sigma=DEFAULT_MAX_SIGMA, budget=10 ** 6):
    """First alphabet order making the automaton Wheeler, or None.

    Input consistency does not depend on the order, so an inconsistent
    automaton short-circuits to None.  For DFAs the per-order test reuses one
    set of entering words (any entering word represents its state).
    """
    perms = _order_permutations(a.alphabet, max_sigma)
    if isinstance(input_consistency(a), WheelerViolation):
        return None
    if a.deterministic:
        entering, _ = shortest_entering_words(a, per_state=1)
        if not all(entering.values()):
            raise WheelerkitError("gw check wants a trimmed automaton")
        for symbols in perms:
            candidate = with_alphabet_order(a, symbols)
            key = candidate.alphabet.colex_key
            order = WheelerOrder.from_sequence(
                sorted(range(a.n), key=lambda q: key(entering[q][0])))
            if verify_wheeler(candidate, order) is None:
                return symbols
        return None
    for symbols in perms:
        result = nfa_wheeler_search(with_alphabet_order(a, symbols), budget=budget)
        if isinstance(result, WheelerOrder):
            return symbols
    return None


def gw_language_check(d, max_sigma=DEFAULT_MAX_SIGMA, word_cap=DEFAULT_WORD_CAP):
    """First alphabet order under which the language of the DFA is Wheeler.

    Per order the full two-sided decider runs, but a cheap screen goes first:
    witness candidates (cycle structure and entering words) are collected once
    from the minimized automaton, because only the co-lex comparisons depend
    on the order; any order with a re-validated witness is refuted without
    rebuilding anything.
    """
    if not d.deterministic:
        raise WheelerkitError("gw_language_check wants a DFA")
    perms = _order_permutations(d.alphabet, max_sigma)
    min_dfa = minimize(d)
    screen_caps = SearchCaps(
        gamma_bound=min(64, 4 * min_dfa.n + 8),
        cycle_len_cap=min(min_dfa.n ** 2, 10),
        pump_cap=3,
        path_count_cap=5_000,
    )
    screen = collect_candidates(min_dfa, screen_caps)
    for symbols in perms:
        candidate = with_alphabet_order(min_dfa, symbols)
        if search_witness(candidate, screen) is not None:
            continue
        verdict = is_language_wheeler_dfa(candidate, method=METHOD_BOTH,
                                          word_cap=word_cap)
        if verdict.status == WHEELER:
            return symbols
        if verdict.status == BOUNDED_WHEELER:
            raise InfeasibleEnumeration(
                f"cannot certify the order {' '.join(symbols)} either way")
    return None


@dataclass(frozen=True)
class BetweennessInstance:
    """Ordering problem: per triple (a, b, c), demand a<b<c or a>b>c."""

    elements: tuple
    triples: tuple

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(self, "triples", tuple(tuple(t) for t in self.triples))
        if len(set(self.elements)) != len(self.elements):
            raise WheelerkitError("betweenness elements must be distinct")
        universe = set(self.elements)
        for t in self.triples:
            if len(t) != 3 or len(set(t)) != 3:
                raise WheelerkitError(f"triple {t} must hold three distinct elements")
            if not set(t) <= universe:
                raise WheelerkitError(f"triple {t} uses unknown elements")
        if len(self.triples) >= max(1, len(self.elements) ** 3):
            raise WheelerkitError("too many triples for the element count")


def parse_betweenness(text):
    """`elements <y> ...` then `triple <a> <b> <c>` lines; `#` comments."""
    elements = None
    triples = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        toks = stripped.split()
        if toks[0] == "elements":
            if elements is not None:
                raise FormatError("duplicate elements line", lineno)
            elements = tuple(toks[1:])
        elif toks[0] == "triple":
            if elements is None:
                raise FormatError("triple before elements", lineno)
            if len(toks) != 4:
                raise FormatError("triple wants three elements", lineno)
            triples.append(tuple(toks[1:]))
        else:
            raise FormatError(f"unknown directive {toks[0]!r}", lineno)
    if elements is None:
        raise FormatError("missing elements line")
    try:
        return BetweennessInstance(elements, tuple(triples))
    except WheelerkitError as exc:
        raise FormatError(str(exc)) from None


def serialize_betweenness(inst):
    lines = ["elements " + " ".join(inst.elements)]
    lines.extend("triple " + " ".join(t) for t in inst.triples)
    return "\n".join(lines) + "\n"


def triple_satisfied(position, triple):
    a, b, c = (position[x] for x in triple)
    return a < b < c or a > b > c


def solve_betweenness(inst, max_elements=10):
    """Exhaustive search over permutations, first satisfying order or None."""
    if len(inst.elements) > max_elements:
        raise TooManyElements(
            f"{len(inst.elements)} elements exceed the budget {max_elements}")
    for perm in itertools.permutations(inst.elements):
        position = {y: i for i, y in enumerate(perm)}
        if all(triple_satisfied(position, t) for t in inst.triples):
            return perm
    return None
