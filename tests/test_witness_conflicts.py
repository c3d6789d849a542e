"""The witness-conflict walk, one walk per cyclic component of the pair
product, against the walk per state pair it replaced
(`reference.pair_witness_conflicts`), and its memory at scale."""

import functools
import random
import tracemalloc

from wheelerkit import (
    Automaton,
    OrderedAlphabet,
    determinize,
    minimize,
    parse_automaton,
    reduce_betweenness_to_dfa,
    reduce_universality,
    serialize_automaton,
    trim_basic,
)
from wheelerkit.language import witness_conflicts
from reference import pair_witness_conflicts
from conftest import FIXTURES
from corpus import (enumerate_small_betweenness, random_feasible_dfa, random_trie,
                    random_trimmed_nfa)
from test_acceptance import corpus_200
from test_cli import _aut, run_cli
from test_gw_search import four_element_instances


def kth_from_last(k):
    """NFA for "the k-th symbol from the end is a" over a, b: its minimum
    DFA has 2^k states, one per window of the last k symbols, all on cycles."""
    edges = {(0, "a", 0), (0, "b", 0), (0, "a", 1)}
    edges |= {(i, s, i + 1) for i in range(1, k) for s in ("a", "b")}
    return Automaton(OrderedAlphabet(("a", "b")), k + 1, 0, frozenset({k}), frozenset(edges))


def minimum_dfa(a):
    a = trim_basic(a)
    return minimize(a if a.deterministic else determinize(a))


def differential_inputs():
    rng = random.Random(2206)
    for path in sorted(FIXTURES.glob("*.aut")):
        yield minimum_dfa(parse_automaton(path.read_text()))
    yield from map(minimum_dfa, corpus_200())
    for inst in enumerate_small_betweenness() + four_element_instances():
        yield minimum_dfa(reduce_betweenness_to_dfa(inst).automaton)
    for _ in range(300):
        nfa = random_trimmed_nfa(rng, 3, 2, 0.35, force_eps=True)
        yield minimum_dfa(reduce_universality(nfa).automaton)
    for _ in range(1600):
        yield minimum_dfa(random_feasible_dfa(rng, max_n=7, max_sigma=4))
    for _ in range(400):
        yield minimum_dfa(random_trimmed_nfa(rng, max_n=6))
    yield from (minimum_dfa(kth_from_last(k)) for k in range(2, 8))


def cyclic_pair_components(m):
    """Components of pairs u < v on a cycle of the pair product, by one
    forward reach per ordered pair."""
    reach = {}
    for u in range(m.n):
        for v in range(m.n):
            if u != v:
                seen, stack = set(), [(u, v)]
                while stack:
                    p, q = stack.pop()
                    for nxt in zip(m.delta[p], m.delta[q]):
                        if None not in nxt and nxt not in seen:
                            seen.add(nxt)
                            stack.append(nxt)
                reach[u, v] = seen
    return {frozenset(y for y in reach[x] if x in reach.get(y, ()))
            for x in reach if x[0] < x[1] and x in reach[x]}


def test_the_component_walk_matches_the_pair_walk():
    kinds = {"empty": 0, "every order": 0, "other": 0, "two or more components": 0}
    inputs = 0
    for m in differential_inputs():
        conflicts = witness_conflicts(m)
        assert conflicts == pair_witness_conflicts(m), m
        inputs += 1
        kinds["empty" if not conflicts else "every order" if conflicts == {()} else "other"] += 1
        if m.n <= 8 and len(cyclic_pair_components(m)) >= 2:
            kinds["two or more components"] += 1
    assert inputs > 2500
    assert all(kinds.values()), kinds


def cyclic_states(m):
    def reach(s):
        seen, stack = set(), [s]
        while stack:
            for t in m.delta[stack.pop()]:
                if t is not None and t not in seen:
                    seen.add(t)
                    stack.append(t)
        return seen
    return [s for s in range(m.n) if s in reach(s)]


def walk_peak(m):
    """Peak bytes the walk allocates, with the DFA's edge indexes built."""
    m.delta, m.pred
    tracemalloc.start()
    try:
        conflicts = witness_conflicts(m)
        return conflicts, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_walk_memory_on_the_256_state_kth_from_last_dfa():
    m = minimum_dfa(kth_from_last(8))
    cyclic = len(cyclic_states(m))
    assert m.n == cyclic == 256
    conflicts, peak = walk_peak(m)
    assert conflicts == set()
    assert peak <= 64 * cyclic ** 2, peak / cyclic ** 2


@functools.lru_cache(maxsize=None)
def trie_10k():
    return random_trie(random.Random(1), 10_000)


def test_walk_on_an_acyclic_trie_takes_no_pair_index():
    m = minimum_dfa(trie_10k())  # a finite language: no cycle
    assert m.n > 2000
    conflicts, peak = walk_peak(m)
    assert conflicts == set()
    assert peak <= 1024 * m.n, peak / m.n


def test_check_gw_language_on_the_256_state_kth_from_last_dfa(tmp_path):
    text = serialize_automaton(minimum_dfa(kth_from_last(8)))
    code, _, block, _ = run_cli("check-gw", _aut(tmp_path, text), "--language")
    assert code == 0 and block["order"] == "a b"


def test_check_gw_language_on_a_ten_thousand_state_trie(tmp_path):
    code, _, block, _ = run_cli("check-gw", _aut(tmp_path, serialize_automaton(trie_10k())),
                                "--language")
    assert code == 0 and block["order"] == "a b c"
