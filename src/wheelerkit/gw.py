"""Generalized Wheelerness: search over alphabet orders, and the betweenness
solver used to cross-validate the order-hardness gadget.

An automaton is generalized Wheeler (GW) when some reordering of its alphabet
makes it Wheeler; a language is GW when some order makes the language
Wheeler.  Both checks and the betweenness solver run one depth-first search
over order prefixes (`_first_order`), lexicographic in the listed order, and
report the first order that works.  The search drops a prefix, with all of
its completions, once it satisfies a conflict: a pair of "s before t"
literals that refutes every order satisfying both.  The solver's conflicts
(off the triples) and the language check's (`language.witness_conflicts`)
are exact, so neither tests an order on its own.  The automaton check runs
one library test per order, and a rejected DFA order teaches it a conflict
(a condition-(ii) inversion).  So the test runs only on orders no known
conflict refutes, and the first one it accepts is the first accepted
permutation.  When the conflicts known before the search mention only some
of the symbols, as a betweenness gadget's do, the search first refutes them
on those symbols alone: each literal names two of them, so an order is
refuted exactly when its restriction is, and none of the sigma! orders
needs to be walked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .automaton import minimize, with_alphabet_order
from .errors import AlphabetTooLarge, FormatError, TooManyElements, WheelerkitError
from .language import witness_conflicts
from .wheeler import (
    CONDITION_II,
    DEFAULT_BUDGET,
    WheelerOrder,
    WheelerViolation,
    _colex_candidate,
    _entering_tree,
    input_consistency,
    nfa_wheeler_search,
)

DEFAULT_MAX_SIGMA = 8
MAX_ELEMENTS = 10


def _check_sigma(alphabet, max_sigma):
    if len(alphabet) > max_sigma:
        raise AlphabetTooLarge(
            f"{len(alphabet)}! orders exceed the budget (sigma <= {max_sigma})")


def _first_order(symbols, conflicts, accept):
    """First permutation of `symbols` that satisfies no conflict in full and
    that `accept` takes, or None.

    A literal (s, t) reads "s before t"; a conflict is a tuple of one or two
    literals whose conjunction refutes every order (the empty conflict
    refutes all).  `conflicts` is a list, and `accept` may append to it the
    conflicts an order it rejects satisfies; they prune the rest of the
    search.  The search extends prefixes by the next unplaced symbol in
    listed order, so leaves come in lexicographic order of listed positions,
    the order in which the standard library enumerates permutations.  A
    literal is decided once its first symbol is placed, and holds if its
    second is not placed yet; a prefix is dropped when placing a symbol
    completes a conflict.

    When the conflicts passed in mention fewer symbols than there are, the
    same search first runs over the mentioned symbols alone, accepting every
    order.  Each literal names two mentioned symbols, so an order satisfies
    a conflict iff its restriction to them does: if no restriction survives,
    no order does, and the answer is None without a call to `accept`.
    """
    mentioned = {s for conflict in conflicts for literal in conflict for s in literal}
    if conflicts and len(mentioned) < len(symbols) and _first_order(
            [s for s in symbols if s in mentioned], conflicts, lambda order: True) is None:
        return None
    n = len(symbols)
    index = {s: i for i, s in enumerate(symbols)}
    # watch[s]: (t, p, q) per literal (s, t) of a conflict whose other
    # literal is (p, q); a one-literal conflict is its literal twice
    watch = [[] for _ in range(n)]
    pos = [n] * n  # position in the prefix; n while unplaced
    watched = 0

    def watch_new():
        """Watch the conflicts appended since the last call; return the
        shallowest depth at which one of them holds in full on the current
        prefix (-1 for the empty conflict), or n when none does."""
        nonlocal watched
        cut = n
        for conflict in conflicts[watched:]:
            if not conflict:
                return -1
            lits = [(index[x], index[y]) for x, y in conflict]
            (s, t), (p, q) = lits if len(lits) == 2 else lits * 2
            watch[s].append((t, p, q))
            if (p, q) != (s, t):
                watch[p].append((q, s, t))
            if pos[s] < pos[t] and pos[p] < pos[q]:
                cut = min(cut, max(pos[s], pos[p]))
        watched = len(conflicts)
        return cut

    if watch_new() < 0:
        return None
    prefix = []
    resume = []  # per placed symbol: the index to try next at its depth
    i = 0
    while True:
        depth = len(prefix)
        if depth == n:
            order = tuple(symbols[j] for j in prefix)
            if accept(order):
                return order
            # every leaf sharing the first cut + 1 symbols holds a new conflict
            cut = watch_new()
            while len(prefix) > cut + 1:
                pos[prefix.pop()] = n
                resume.pop()
        else:
            while i < n:
                if pos[i] == n:
                    pos[i] = depth
                    # placed last, i precedes exactly the unplaced symbols
                    if not any(pos[t] == n and pos[p] < pos[q] for t, p, q in watch[i]):
                        break
                    pos[i] = n
                i += 1
            if i < n:
                prefix.append(i)
                resume.append(i + 1)
                i = 0
                continue
        if not prefix:
            return None
        pos[prefix.pop()] = n
        i = resume.pop()


def _before(parent, symbol, x, y):
    """Literal for "the entering word of state x sorts co-lex before that
    of y", the words read up the `parent` tree: the first pair of symbols
    where they differ, or a constant when one word is a suffix of the
    other."""
    while x != y and symbol[x] == symbol[y]:
        x, y = parent[x], parent[y]
    if x == y or symbol[y] is None:
        return False
    return True if symbol[x] is None else (symbol[x], symbol[y])


def _conflict(*literals):
    """Conflict over literals that all hold on some order: the constant
    (always true) ones drop out."""
    return tuple(lit for lit in literals if lit is not True)


def gw_automaton_check(a, max_sigma=DEFAULT_MAX_SIGMA, budget=DEFAULT_BUDGET):
    """First alphabet order making the automaton Wheeler, or None.

    Input consistency does not depend on the order, so an inconsistent
    automaton short-circuits to None.  Each order runs one library test: the
    co-lex candidate of a DFA, from one entering-word parent tree read
    under that order, or `nfa_wheeler_search`.  A rejected DFA order fails
    condition (ii) on two same-label edges (u, c, x) and (v, c, y) with u
    before v and y before x; the co-lex comparisons of their entering
    words, walked up the tree, that put them so refute every order where
    they agree, so the search learns them as a conflict.
    An NFA result is never a violation, so NFAs learn nothing.
    """
    _check_sigma(a.alphabet, max_sigma)
    if isinstance(input_consistency(a), WheelerViolation):
        return None
    if a.deterministic:
        parent, symbol = tree = _entering_tree(a, "gw check")
        test = partial(_colex_candidate, tree=tree)
    else:
        test = partial(nfa_wheeler_search, budget=budget)
    learned = []

    def accept(order):
        result = test(with_alphabet_order(a, order))
        if isinstance(result, WheelerViolation) and result.kind == CONDITION_II:
            (u, _, x), (v, _, y) = result.evidence
            learned.append(_conflict(_before(parent, symbol, u, v),
                                     _before(parent, symbol, y, x)))
        return isinstance(result, WheelerOrder)

    return _first_order(a.alphabet.symbols, learned, accept)


def gw_language_check(d, max_sigma=DEFAULT_MAX_SIGMA):
    """First alphabet order under which the language of the DFA is Wheeler,
    or None.

    Whether an order admits a witness depends only on a few symbol
    comparisons, so the conflicts read once off the minimum DFA refute
    exactly the non-Wheeler orders, and the first order they leave is the
    answer: no order is rebuilt or checked on its own.
    """
    if not d.deterministic:
        raise WheelerkitError("gw_language_check wants a DFA")
    _check_sigma(d.alphabet, max_sigma)
    return _first_order(d.alphabet.symbols, list(witness_conflicts(minimize(d))),
                        lambda order: True)


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


def solve_betweenness(inst):
    """First satisfying order, in permutation order, or None.

    A triple (a, b, c) fails exactly when b comes first or last of the
    three, so each triple gives the conflicts (b<a, b<c) and (a<b, c<b).
    They refute exactly the failing orders, so no order is tested on its own.
    """
    if len(inst.elements) > MAX_ELEMENTS:
        raise TooManyElements(
            f"{len(inst.elements)} elements exceed the budget {MAX_ELEMENTS}")
    conflicts = []
    for (a, b, c) in inst.triples:
        conflicts.append(((b, a), (b, c)))
        conflicts.append(((a, b), (c, b)))
    return _first_order(inst.elements, conflicts, lambda order: True)
