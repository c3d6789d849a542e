"""The witness printer's lazy paths against the eager ones they replace.

`collect_candidates` keeps the cycle words by length and builds each length
bucket's gammas only when the search reaches it; `reference.eager_gammas`
builds every gamma at once.  `_simple_cycle_labels` walks product successor
rows; `reference.generator_cycle_labels` walks one `moves` generator per
node.  `method="both"` stops the conflict walk at the first conflict the
DFA's order satisfies; `reference.drained_walk_status` reads the whole set.
"""

import functools
import random
import tracemalloc

from wheelerkit import (
    SearchCaps,
    determinize,
    is_language_wheeler_dfa,
    minimize,
    parse_automaton,
    reduce_universality,
    trim_basic,
)
from wheelerkit import language
from wheelerkit.language import (NOT_WHEELER, WHEELER, _product_rows, _simple_cycle_labels,
                                 collect_candidates, search_witness, witness_conflicts)
from conftest import FIXTURES
from corpus import random_feasible_dfa, random_trimmed_nfa
from reference import drained_walk_status, eager_gammas, generator_cycle_labels
from test_acceptance import corpus_200
from test_minwdfa import criterion_9_nfas

SMALL_PATH_COUNT_CAPS = (1, 2, 3, 5, 10, 50)

# The 5-state NFA whose minimum DFA (20 states) made the eager printer build
# 192,371 gammas in about 530 MB before it found `gamma: b b`.
HEAVY_NFA = """alphabet b c a
states 5
initial 4
final 2 4
""" + "".join(f"edge {e}\n" for e in (
    "0 b 0", "0 c 3", "0 c 4", "0 a 2", "1 b 1", "1 b 3", "1 c 0", "1 c 3", "1 a 0",
    "2 b 3", "2 b 4", "2 a 1", "2 a 3", "2 a 4", "3 b 1", "3 c 1", "3 a 0", "3 a 3",
    "4 b 2", "4 c 1", "4 a 0"))


def minimum_dfa(a):
    a = trim_basic(a)
    return minimize(a if a.deterministic else determinize(a))


def seeded_min_dfas(count, seed):
    """`count` minimum DFAs, in turn of a `random_feasible_dfa` draw and of
    determinized `random_trimmed_nfa` draws over two and three symbols."""
    rng = random.Random(seed)
    draws = (lambda: random_feasible_dfa(rng),
             lambda: random_trimmed_nfa(rng, max_n=4, max_sigma=2),
             lambda: random_trimmed_nfa(rng, max_n=3, max_sigma=3))
    for i in range(count):
        yield minimum_dfa(draws[i % 3]())


@functools.lru_cache(maxsize=None)
def differential_inputs(universal1, epsilon_d):
    """The fixtures, `corpus_200`, criterion 9's gadgets and 1,500 draws."""
    dfas = [minimum_dfa(parse_automaton(path.read_text()))
            for path in sorted(FIXTURES.glob("*.aut"))]
    dfas += map(minimum_dfa, corpus_200())
    for a in criterion_9_nfas(universal1, epsilon_d):
        m = minimum_dfa(reduce_universality(a).automaton)
        if m not in dfas:
            dfas.append(m)
    dfas += seeded_min_dfas(1500, 3001)
    return tuple(dfas)


def test_buckets_hold_the_eager_gammas(universal1, epsilon_d):
    """Every bucket holds exactly the eager build's gammas of its length,
    anchor sets included, and the buckets come by increasing length."""
    inputs = differential_inputs(universal1, epsilon_d)
    assert len(inputs) > 1700
    refuted = 0
    for m in inputs:
        caps = SearchCaps.default(m.n)
        candidates = collect_candidates(m, caps)
        gammas, truncated = eager_gammas(m, caps)
        assert candidates.truncated == truncated, m
        lengths = []
        for length, bucket in candidates.buckets():
            lengths.append(length)
            assert bucket == {g: pairs for g, pairs in gammas.items() if len(g) == length}, m
        assert lengths == sorted({len(g) for g in gammas}), m
        assert candidates.gammas == gammas, m
        refuted += bool(gammas)
    assert refuted > 100


def test_the_row_walk_finds_the_generator_walks_labels(universal1, epsilon_d):
    """Labels and truncation agree on every state pair, under the default
    step budget and under budgets small enough to cut the walk."""
    inputs = differential_inputs(universal1, epsilon_d)
    cuts = 0
    for m in inputs:
        n, rows = m.n, _product_rows(m)
        max_len = min(SearchCaps.default(n).cycle_len_cap, n * n)
        for budget in SMALL_PATH_COUNT_CAPS + (SearchCaps.default(n).path_count_cap,):
            for u in range(n):
                for v in range(u + 1, n):
                    got = _simple_cycle_labels(rows, u * n + v, max_len, budget)
                    assert got == generator_cycle_labels(m, u, v, max_len, budget), (m, u, v)
                    cuts += got[1]
    assert cuts > 100


def test_the_first_hit_decision_matches_the_drained_set(universal1, epsilon_d):
    statuses = set()
    for m in differential_inputs(universal1, epsilon_d):
        status = is_language_wheeler_dfa(m).status
        assert status == drained_walk_status(m), m
        statuses.add(status)
    assert statuses == {WHEELER, NOT_WHEELER}


def test_both_stops_the_walk_at_the_first_conflict_that_holds(monkeypatch, universal1,
                                                               epsilon_d):
    """On a refuted gadget, `both` draws fewer conflicts from the walk than
    the whole conflict set holds."""
    drawn = []

    def counting(min_dfa):
        for conflict in walk(min_dfa):
            drawn.append(conflict)
            yield conflict

    walk = language._conflicts
    monkeypatch.setattr(language, "_conflicts", counting)
    early = 0
    for a in criterion_9_nfas(universal1, epsilon_d):
        m = minimum_dfa(reduce_universality(a).automaton)
        drawn.clear()
        if is_language_wheeler_dfa(m).status == NOT_WHEELER:
            early += len(drawn) < len(witness_conflicts(m))
    assert early


def test_the_printer_holds_one_bucket_at_a_time():
    """On the heavy NFA's 20-state minimum DFA the witness sits in the
    length-2 bucket; the eager build held all 1,418 gammas of the capped
    search and peaked at 1.2 MiB."""
    m = minimum_dfa(parse_automaton(HEAVY_NFA))
    assert m.n == 20
    m.delta, m.pred
    caps = SearchCaps.default(m.n, SearchCaps(path_count_cap=1000))
    tracemalloc.start()
    try:
        witness = search_witness(m, collect_candidates(m, caps))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert witness.words() == (("c", "b"), ("a", "b"), ("b", "b"))
    assert peak < 0.25 * 2 ** 20, peak
