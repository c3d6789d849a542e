import bisect
import functools
import itertools
import random

import pytest

from wheelerkit import (
    Automaton,
    WheelerkitError,
    ConstructionInconsistent,
    InfeasibleEnumeration,
    OrderedAlphabet,
    build_min_wdfa,
    colex_compare,
    determinize,
    dfa_walk,
    dfa_wheeler_order,
    language_equal,
    minimize,
    parse_automaton,
    reduce_universality,
    run,
    trim_basic,
    verify_wheeler,
    word,
)
from wheelerkit.alphabet import INITIAL_MARK
from wheelerkit.automaton import relabel_by_order
from wheelerkit.minwdfa import (
    Wdfa,
    certifying_depth,
    colex_class_runs,
    compute_fingerprint,
    enumerate_prefixes,
)
from wheelerkit.wheeler import WheelerOrder
from conftest import make
from corpus import all_words, random_feasible_dfa, random_trimmed_nfa
from test_acceptance import (
    CORPUS_SEED,
    CORPUS_WORD_CAP,
    brute_universal_to_6,
    corpus_200,
    cycle_dfa,
    exact_universal,
)


def brute_prefixes(a, depth):
    """Oracle: readable words by exhaustive word generation, sorted by the
    comparison function (not by the enumeration under test)."""
    found = [w for w in all_words(a.alphabet.symbols, depth) if run(a, w)]
    cmp = functools.cmp_to_key(lambda x, y: colex_compare(a.alphabet, x, y).value)
    return sorted(found, key=cmp)


def count_paths_oracle(d, depth):
    """Oracle: independent path-count dynamic program."""
    vec = {d.initial: 1}
    total = 1
    for _ in range(depth):
        nxt = {}
        for q, c in vec.items():
            for (u, s, v) in d.edges:
                if u == q:
                    nxt[v] = nxt.get(v, 0) + c
        vec = nxt
        total += sum(vec.values())
        if not vec:
            break
    return total


def test_enumerate_prefixes_depth3_against_oracle(mind4_wheeler):
    m = minimize(mind4_wheeler)
    p = enumerate_prefixes(m, 3)
    assert list(p.words) == brute_prefixes(m, 3)
    assert list(p.words) == [(), ("a",), word("a c"), word("a c c"),
                             word("d c c"), word("d c"), ("d",),
                             word("d c f"), word("d f")]
    assert p.last_sym[0] == "#"
    assert len(set(p.words)) == len(p.words)


def test_enumerate_prefixes_depth20_count(mind4_wheeler):
    m = minimize(mind4_wheeler)
    assert certifying_depth(m.n) == 20
    p = enumerate_prefixes(m, 20)
    assert len(p.words) == 60 == count_paths_oracle(m, 20)


def test_enumerate_prefixes_epsilon_language(epsonly):
    p = enumerate_prefixes(minimize(epsonly), 7)
    assert p.words == ((),)


def test_enumerate_prefixes_word_cap():
    full = make(("a", "b"), 1, 0, {0}, {(0, "a", 0), (0, "b", 0)})
    with pytest.raises(InfeasibleEnumeration):
        enumerate_prefixes(minimize(full), 30, word_cap=1000)
    with pytest.raises(WheelerkitError):
        enumerate_prefixes(minimize(full), -1)


def test_fingerprint_of_the_wheeler_language(mind4_wheeler):
    # six classes, matching the six states of the known minimum WDFA
    m = minimize(mind4_wheeler)
    fp = compute_fingerprint(m, enumerate_prefixes(m, 20))
    assert fp.classes == 6
    assert list(fp.representatives) == [(), ("a",), word("a c"), word("d c"),
                                        ("d",), word("d f")]


def test_fingerprint_epsilon(epsonly):
    m = minimize(epsonly)
    fp = compute_fingerprint(m, enumerate_prefixes(m, 5))
    assert fp.representatives == ((),)


def test_fingerprint_fragments_with_depth_when_not_wheeler(mind4_nonwheeler):
    m = minimize(mind4_nonwheeler)
    shallow = compute_fingerprint(m, enumerate_prefixes(m, 10)).classes
    deep = compute_fingerprint(m, enumerate_prefixes(m, 20)).classes
    assert deep > shallow


def independent_class_count(m, prefixes):
    """Oracle: classes as connected runs of (same state, same last symbol)
    adjacency over the sorted word list, built by union-find."""
    parent = list(range(len(prefixes.words)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(1, len(prefixes.words)):
        if (prefixes.class_of[i] == prefixes.class_of[i - 1]
                and prefixes.last_sym[i] == prefixes.last_sym[i - 1]):
            parent[find(i)] = find(i - 1)
    return len({find(i) for i in range(len(prefixes.words))})


def test_build_min_wdfa_matches_the_six_state_automaton(mind4_wheeler, wdfa6):
    wdfa = build_min_wdfa(minimize(mind4_wheeler))
    assert wdfa.certified
    assert wdfa.automaton.n == 6
    assert verify_wheeler(wdfa.automaton, wdfa.order) is None
    assert language_equal(wdfa.automaton, mind4_wheeler)
    # order-preserving isomorphism against the known WDFA
    known_order = dfa_wheeler_order(wdfa6)
    assert relabel_by_order(wdfa6, known_order.ranks) == wdfa.automaton


def test_build_min_wdfa_astar(astar):
    wdfa = build_min_wdfa(minimize(astar))
    a = wdfa.automaton
    assert a.n == 2
    assert a.finals == frozenset({0, 1})
    assert a.edges == frozenset({(0, "a", 1), (1, "a", 1)})


def test_build_min_wdfa_epsilon(epsonly):
    wdfa = build_min_wdfa(minimize(epsonly))
    assert wdfa.automaton.n == 1 and not wdfa.automaton.edges
    assert wdfa.automaton.finals == frozenset({0})


def test_build_min_wdfa_refuses_non_wheeler(mind4_nonwheeler):
    with pytest.raises(ConstructionInconsistent):
        build_min_wdfa(minimize(mind4_nonwheeler))


def test_shallow_depth_is_not_certified(mind4_wheeler):
    wdfa = build_min_wdfa(minimize(mind4_wheeler), depth=6)
    assert not wdfa.certified


def test_representative_length_bound_and_class_count_on_corpus():
    rng = random.Random(1009)
    checked = 0
    while checked < 30:
        d = random_feasible_dfa(rng, max_n=4, max_sigma=3, word_cap=100_000)
        m = minimize(d)
        try:
            wdfa = build_min_wdfa(m)
        except ConstructionInconsistent:
            continue
        checked += 1
        bound = certifying_depth(m.n)
        assert all(len(r) < bound for r in wdfa.representatives)
        prefixes = enumerate_prefixes(m, bound)
        assert wdfa.automaton.n == independent_class_count(m, prefixes)
        assert verify_wheeler(wdfa.automaton, wdfa.order) is None
        assert language_equal(wdfa.automaton, m)


def accepts_ac_star(w):
    return len(w) >= 1 and w[0] == "a" and all(s == "c" for s in w[1:])


def test_minimality_no_smaller_wheeler_dfa_for_ac_star():
    # the three-state result is minimum: no two-state Wheeler DFA does it
    acstar = make(("a", "c"), 2, 0, {1}, {(0, "a", 1), (1, "c", 1)})
    wdfa = build_min_wdfa(minimize(acstar))
    assert wdfa.automaton.n == 3
    syms = ("a", "c")
    for finals in ([0], [1], [0, 1]):
        for picks in itertools.product([None, 0, 1], repeat=4):
            edges = set()
            for idx, tgt in enumerate(picks):
                if tgt is not None:
                    edges.add((idx // 2, syms[idx % 2], tgt))
            try:
                cand = Automaton(OrderedAlphabet(syms), 2, 0,
                                 frozenset(finals), frozenset(edges))
            except Exception:
                continue
            lang_ok = all(bool(run(cand, w) & cand.finals) == accepts_ac_star(w)
                          for w in all_words(syms, 6))
            if not lang_ok:
                continue
            wheeler_ok = any(
                verify_wheeler(cand, _order(p)) is None
                for p in itertools.permutations(range(2)))
            assert not wheeler_ok


def _order(perm):
    from wheelerkit.wheeler import WheelerOrder
    return WheelerOrder(tuple(perm))


@functools.lru_cache(maxsize=16)
def oracle_runs(m, depth, word_cap):
    """Oracle for colex_class_runs: enumerate, sort and scan, then walk and
    key each representative."""
    reps = compute_fingerprint(m, enumerate_prefixes(m, depth, word_cap)).representatives
    return (reps, tuple(dfa_walk(m, r) for r in reps),
            tuple(m.alphabet.colex_key(r) for r in reps))


def oracle_build(m, depth, word_cap):
    """Oracle for build_min_wdfa: the transition probes on the oracle's
    representatives, with words and colex_key in place of the fold's keys."""
    reps, rep_state, keys = oracle_runs(m, depth, word_cap)
    key = m.alphabet.colex_key
    size = len(reps)
    edges = set()
    for j, rep in enumerate(reps):
        for c in m.alphabet.symbols:
            probe_state = dfa_walk(m, (c,), start=rep_state[j])
            if probe_state is None:
                continue
            pk = key(rep + (c,))
            pos = bisect.bisect_left(keys, pk)
            if pos < size and keys[pos] == pk:
                target = pos
            elif pos in (0, size):
                target = min(pos, size - 1)
            else:
                s, s1 = pos - 1, pos
                eq_s, eq_s1 = rep_state[s] == probe_state, rep_state[s1] == probe_state
                if not eq_s and not eq_s1:
                    raise ConstructionInconsistent(
                        "probe falls between two representatives of other classes",
                        word=rep, symbol=c)
                if eq_s and eq_s1:
                    last_s = reps[s][-1] if reps[s] else INITIAL_MARK
                    last_s1 = reps[s1][-1] if reps[s1] else INITIAL_MARK
                    if (last_s == c) == (last_s1 == c):
                        raise ConstructionInconsistent(
                            "end-symbol tie between enclosing representatives",
                            word=rep, symbol=c)
                    eq_s = last_s == c
                target = s if eq_s else s1
            edges.add((j, c, target))
    finals = frozenset(j for j in range(size) if rep_state[j] in m.finals)
    automaton = Automaton(m.alphabet, size, 0, finals, frozenset(edges))
    order = WheelerOrder(tuple(range(size)))
    certifying = depth >= certifying_depth(m.n)
    if certifying:
        violation = verify_wheeler(automaton, order)
        if violation is not None:
            raise ConstructionInconsistent(f"built automaton is not Wheeler: {violation}")
        if not language_equal(automaton, m):
            raise ConstructionInconsistent("built automaton changes the language")
    return Wdfa(automaton, order, reps, certifying)


def outcome(f, *args):
    try:
        return "value", f(*args)
    except WheelerkitError as exc:
        return type(exc), str(exc)


def assert_fold_matches_oracle(m, word_cap):
    full = certifying_depth(m.n)
    for depth in sorted({0, 1, 2, min(5, full), full}):
        assert (outcome(colex_class_runs, m, depth, word_cap)
                == outcome(oracle_runs, m, depth, word_cap)), (m, depth)
        assert (outcome(build_min_wdfa, m, depth, word_cap)
                == outcome(oracle_build, m, depth, word_cap)), (m, depth)


def test_fold_matches_the_oracle_on_the_fixtures(fixtures_dir):
    for path in sorted(fixtures_dir.glob("*.aut")):
        a = trim_basic(parse_automaton(path.read_text()))
        assert_fold_matches_oracle(minimize(determinize(a)), CORPUS_WORD_CAP)


def test_fold_matches_the_oracle_on_random_dfas():
    for d in corpus_200():  # the random_feasible_dfa draws of the acceptance corpus
        assert_fold_matches_oracle(minimize(d), CORPUS_WORD_CAP)


def test_fold_matches_the_oracle_on_cycle_dfas():
    for j in (8, 12, 17, 24, 34, 48):
        assert_fold_matches_oracle(minimize(cycle_dfa(j)), CORPUS_WORD_CAP)


def test_fold_matches_the_oracle_on_the_universality_gadgets(universal1, epsilon_d):
    # the NFAs of acceptance criterion 9, drawn the same way
    samples = [universal1, epsilon_d]
    rng = random.Random(CORPUS_SEED + 9)
    while len(samples) < 42:
        a = random_trimmed_nfa(rng, max_n=3, max_sigma=2, density=0.35, force_eps=True)
        if len(a.alphabet) <= 2 and brute_universal_to_6(a) == exact_universal(a):
            samples.append(a)
    gadgets = []
    for a in samples:
        m = minimize(determinize(reduce_universality(a).automaton))
        if m not in gadgets:
            gadgets.append(m)
    for m in gadgets:
        assert_fold_matches_oracle(m, CORPUS_WORD_CAP)


def test_deep_fold_needs_no_recursion():
    m = minimize(cycle_dfa(40))
    assert certifying_depth(m.n) == 1640
    wdfa = build_min_wdfa(m)
    assert wdfa.certified and wdfa.automaton.n == len(wdfa.representatives)


def test_build_min_wdfa_word_cap_message(mind4_wheeler):
    m = minimize(mind4_wheeler)
    with pytest.raises(InfeasibleEnumeration) as info:
        build_min_wdfa(m, word_cap=59)
    assert str(info.value) == "60 readable words up to depth 20 exceed the cap 59"
    assert build_min_wdfa(m, word_cap=60).automaton.n == 6
