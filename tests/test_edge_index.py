"""`input_consistency` and `verify_wheeler`, which read `edges` directly,
against `reference.indexed_input_consistency` and
`reference.indexed_verify_wheeler`, which read a sorted per-state in-edge
index.  Alphabet headers are shuffled, so that symbol rank and symbol name
order differ, and state ids are permuted."""

import collections
import itertools
import random

from wheelerkit import (
    Automaton,
    dfa_wheeler_order,
    gw_automaton_check,
    input_consistency,
    nfa_wheeler_search,
    parse_automaton,
    reduce_betweenness_to_dfa,
    verify_wheeler,
)
from wheelerkit import wheeler
from wheelerkit.automaton import with_alphabet_order
from wheelerkit.wheeler import (
    CONDITION_I,
    CONDITION_II,
    INITIAL_IN_EDGE,
    INPUT_INCONSISTENT,
    ORDER_CONTRADICTION,
    LambdaMap,
    WheelerOrder,
    _colex_candidate,
    _entering_tree,
)
from corpus import (enumerate_small_betweenness, random_trie, random_trimmed_nfa,
                    random_wheeler_nfa)
from reference import indexed_input_consistency, indexed_verify_wheeler
from test_acceptance import corpus_200
from test_order_search import random_consistent_nfa, shuffled, star


def shuffled_header(rng, a):
    return with_alphabet_order(a, rng.sample(a.alphabet.symbols, len(a.alphabet)))


def draws(fixtures_dir):
    rng = random.Random(29)
    inputs = [parse_automaton(path.read_text(encoding="utf-8"))
              for path in sorted(fixtures_dir.glob("*.aut"))]
    inputs += corpus_200()
    inputs += [random_trimmed_nfa(rng, max_n=6, density=rng.choice((0.15, 0.3)))
               for _ in range(500)]
    inputs += [random_wheeler_nfa(rng, max_n=10)[0] for _ in range(300)]
    inputs += [random_consistent_nfa(rng) for _ in range(300)]
    return inputs + [shuffled(rng, shuffled_header(rng, a)) for a in inputs]


def candidate_orders(rng, a, labels):
    """A random order, one with the initial state first and, for a consistent
    automaton, one sorted by in-label rank with random ties, which leaves
    condition (ii) to decide."""
    ranked = rng.sample(range(a.n), a.n)
    yield ranked
    rest = [q for q in ranked if q != a.initial]
    yield [a.initial] + rest
    if isinstance(labels, LambdaMap):
        pos = a.alphabet.position
        yield [a.initial] + sorted(rest, key=lambda q: pos[labels[q]])


def kind(result):
    return "none" if result is None or isinstance(result, LambdaMap) else result.kind


def test_input_consistency_matches_the_indexed_check(fixtures_dir):
    seen = collections.Counter()
    for a in draws(fixtures_dir):
        got = input_consistency(a)
        assert got == indexed_input_consistency(a)
        seen[kind(got)] += 1
    assert seen[INITIAL_IN_EDGE] >= 100
    assert seen[INPUT_INCONSISTENT] >= 100
    assert seen["none"] >= 100


def test_verify_wheeler_matches_the_indexed_check(fixtures_dir):
    rng = random.Random(31)
    seen = collections.Counter()
    for a in draws(fixtures_dir):
        labels = input_consistency(a)
        if a.n <= 4:
            orders = itertools.permutations(range(a.n))
        else:
            orders = candidate_orders(rng, a, labels)
        for states in orders:
            order = WheelerOrder.from_sequence(states)
            got = verify_wheeler(a, order)
            assert got == indexed_verify_wheeler(a, order)
            seen[kind(got)] += 1
    for k in (ORDER_CONTRADICTION, INITIAL_IN_EDGE, CONDITION_I, CONDITION_II, "none"):
        assert seen[k] >= 100, seen


def gadget_copies(monkeypatch, rng):
    """(copy, co-lex candidate) for each copy of a small betweenness gadget
    that `gw_automaton_check` verifies, one per alphabet order it tries, and
    for 20 more alphabet orders per gadget drawn at random."""
    seen = []

    def spy(a, order):
        seen.append((a, order))
        return verify_wheeler(a, order)

    with monkeypatch.context() as m:
        m.setattr(wheeler, "verify_wheeler", spy)
        for inst in enumerate_small_betweenness():
            gadget = reduce_betweenness_to_dfa(inst).automaton
            gw_automaton_check(gadget)
            tree = _entering_tree(gadget, "gadget_copies")
            for _ in range(20):
                _colex_candidate(shuffled_header(rng, gadget), tree)
    return seen


def test_verify_wheeler_matches_on_gadget_copies_tries_and_stars(monkeypatch):
    # the inputs the benchmark verifies: each gadget copy with the co-lex
    # candidate its alphabet order gives, and tries of 200 to 400 states and
    # stars of 10 to 60 leaves with their Wheeler order; each also with that
    # order's neighbours (two adjacent states swapped) and the candidate
    # orders above
    rng = random.Random(37)
    cases = gadget_copies(monkeypatch, rng)
    assert len(cases) >= 24 * 20 + 90
    for a in [random_trie(rng, n) for n in (200, 250, 300, 400)] + [
            star(k) for k in range(10, 61, 10)]:
        order = dfa_wheeler_order(a) if a.deterministic else nfa_wheeler_search(a)
        cases.append((a, order))
    seen = collections.Counter()
    for a, order in cases:
        states = list(order.sequence())
        orders = [states] + list(candidate_orders(rng, a, input_consistency(a)))
        after_initial = range(1, a.n - 1)
        for i in rng.sample(after_initial, min(len(after_initial), 8)):
            swapped = list(states)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            orders.append(swapped)
        for states in orders:
            order = WheelerOrder.from_sequence(states)
            got = verify_wheeler(a, order)
            assert got == indexed_verify_wheeler(a, order)
            seen[kind(got)] += 1
    for k in (ORDER_CONTRADICTION, CONDITION_I, CONDITION_II, "none"):
        assert seen[k] >= 100, seen


def test_the_checks_build_no_per_state_edge_index(wdfa6):
    # gw_automaton_check verifies a fresh copy per alphabet order: the
    # checks must not pay for a table per state on each one
    a = Automaton(wdfa6.alphabet, wdfa6.n, wdfa6.initial, wdfa6.finals, wdfa6.edges)
    input_consistency(a)
    verify_wheeler(a, WheelerOrder(tuple(range(a.n))))
    assert not {"succ", "pred", "delta", "in_edges"} & set(vars(a))

