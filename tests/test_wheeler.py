import contextlib
import io
import itertools
import random
import tracemalloc

import pytest

from wheelerkit import (
    INITIAL_MARK,
    Automaton,
    SearchBudgetExceeded,
    WheelerkitError,
    determinize,
    dfa_wheeler_order,
    input_consistency,
    nfa_wheeler_search,
    parse_automaton,
    reduce_betweenness_to_dfa,
    run,
    trim_basic,
    verify_wheeler,
    with_alphabet_order,
)
from wheelerkit.automaton import serialize_automaton
from wheelerkit.cli import main
from wheelerkit.wheeler import (
    CONDITION_II,
    INITIAL_IN_EDGE,
    INPUT_INCONSISTENT,
    LambdaMap,
    WheelerOrder,
    WheelerViolation,
    _colex_candidate,
    _entering_tree,
)
from reference import (
    is_primitive,
    least_entering_words,
    path_coherence_check,
    recheck_violation,
    word_colex_candidate,
)
from corpus import (
    all_words,
    enumerate_simple_cycles,
    enumerate_small_betweenness,
    random_feasible_dfa,
    random_trie,
    random_trimmed_nfa,
    random_wheeler_nfa,
)
from test_acceptance import corpus_200
from test_order_search_work import chain


def test_input_consistency_wdfa6(wdfa6):
    lam = input_consistency(wdfa6)
    assert isinstance(lam, LambdaMap)
    assert lam.labels == (INITIAL_MARK, "a", "c", "c", "d", "f")


def test_input_consistency_single_state(epsonly):
    lam = input_consistency(epsonly)
    assert lam.labels == (INITIAL_MARK,)


def test_input_consistency_min_dfa_fails(mind4_wheeler):
    # the minimum DFA mixes in-labels a and c at the a-branch state
    v = input_consistency(mind4_wheeler)
    assert isinstance(v, WheelerViolation) and v.kind == INPUT_INCONSISTENT
    assert recheck_violation(mind4_wheeler, v)


def test_input_consistency_initial_in_edge(astar):
    v = input_consistency(astar)
    assert isinstance(v, WheelerViolation) and v.kind == INITIAL_IN_EDGE
    assert recheck_violation(astar, v)


def test_dfa_wheeler_order_unique_order(wdfa6):
    order = dfa_wheeler_order(wdfa6)
    assert isinstance(order, WheelerOrder)
    assert order.sequence() == (0, 1, 2, 3, 4, 5)


def test_dfa_wheeler_order_condition_ii_failure(notwdfa6):
    v = dfa_wheeler_order(notwdfa6)
    assert isinstance(v, WheelerViolation) and v.kind == CONDITION_II
    assert all(e[1] == "c" for e in v.evidence)
    assert recheck_violation(notwdfa6, v, order=_forced_order(notwdfa6))


def word_sort_outcome(d):
    """dfa_wheeler_order as it was: the candidate from materialized words."""
    lam = input_consistency(d)
    if isinstance(lam, WheelerViolation):
        return lam
    try:
        return word_colex_candidate(d, least_entering_words(d))
    except WheelerkitError as exc:
        return str(exc)


def test_the_rank_candidate_matches_the_word_sort(fixtures_dir):
    # under the listed alphabet order and two shuffled ones, as the GW
    # check reads one tree under each order it tries
    rng = random.Random(27)
    dfas = [trim_basic(parse_automaton(path.read_text()))
            for path in sorted(fixtures_dir.glob("*.aut"))]
    dfas += [trim_basic(d) for d in corpus_200()]
    dfas += [random_feasible_dfa(rng, max_n=7, max_sigma=4) for _ in range(300)]
    dfas += [random_trie(rng, n) for n in (2, 30, 120)] + [chain(n) for n in (1, 2, 40)]
    dfas += [reduce_betweenness_to_dfa(inst).automaton for inst in enumerate_small_betweenness()]
    kinds = set()
    for d in dfas:
        if not d.deterministic:
            continue
        result = dfa_wheeler_order(d)
        assert result == word_sort_outcome(d), d
        kinds.add(type(result))
        if isinstance(input_consistency(d), WheelerViolation):
            continue
        tree, words = _entering_tree(d, "test"), least_entering_words(d)
        for _ in range(2):
            r = with_alphabet_order(d, tuple(rng.sample(d.alphabet.symbols, len(d.alphabet))))
            assert _colex_candidate(r, tree) == word_colex_candidate(r, words), (d, r.alphabet)
        # a state the initial one does not reach has no entering word
        unreached = Automaton(d.alphabet, d.n + 1, d.initial, d.finals, d.edges)
        with pytest.raises(WheelerkitError, match="^dfa_wheeler_order wants a trimmed"):
            dfa_wheeler_order(unreached)
        assert word_sort_outcome(unreached) == "dfa_wheeler_order wants a trimmed automaton"
    assert kinds == {WheelerOrder, WheelerViolation}


def test_a_long_path_is_ordered_without_its_words(tmp_path):
    # the least entering words of an n-state path hold n(n-1)/2 symbols,
    # 96.6 MB of tuples at n = 5,000, where the ranks take O(n)
    a = chain(5000)
    path = tmp_path / "path.aut"
    path.write_text(serialize_automaton(a))
    out = io.StringIO()
    tracemalloc.start()
    try:
        assert dfa_wheeler_order(a).ranks == tuple(range(5000))
        _, order_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        with contextlib.redirect_stdout(out):
            assert main(["check-dfa", str(path)]) == 0
        _, cli_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "verdict: wheeler\norder.0: 0\n" in out.getvalue()
    assert order_peak < 10 * 2 ** 20, f"{order_peak / 2 ** 20:.1f} MiB"
    assert cli_peak < 20 * 2 ** 20, f"{cli_peak / 2 ** 20:.1f} MiB"


def _forced_order(a):
    return WheelerOrder(tuple(range(a.n)))


def test_dfa_wheeler_order_single_state(epsonly):
    order = dfa_wheeler_order(epsonly)
    assert isinstance(order, WheelerOrder) and order.ranks == (0,)


def test_verify_wheeler_accepts_caption_order(wdfa6):
    assert verify_wheeler(wdfa6, _forced_order(wdfa6)) is None


def test_verify_wheeler_swapped_pair(wdfa6):
    swapped = WheelerOrder((0, 1, 3, 2, 4, 5))
    v = verify_wheeler(wdfa6, swapped)
    assert v is not None and v.kind == CONDITION_II
    assert recheck_violation(wdfa6, v, order=swapped)


def test_verify_wheeler_single_state(epsonly):
    assert verify_wheeler(epsonly, WheelerOrder((0,))) is None


def test_verify_wheeler_rejects_broken_rankings(wdfa6):
    v = verify_wheeler(wdfa6, WheelerOrder((0, 0, 1, 2, 3, 4)))
    assert v is not None and v.kind == "order-contradiction"
    v = verify_wheeler(wdfa6, WheelerOrder((1, 0, 2, 3, 4, 5)))
    assert v is not None and v.kind == "order-contradiction"
    assert recheck_violation(wdfa6, v)


def test_dfa_order_uniqueness_exhaustive(wdfa6):
    # whenever the procedure succeeds, every other ranking fails verification
    good = dfa_wheeler_order(wdfa6)
    count = 0
    for perm in itertools.permutations(range(6)):
        order = WheelerOrder(perm)
        if verify_wheeler(wdfa6, order) is None:
            count += 1
            assert order == good
    assert count == 1


def exhaustive_order_exists(a):
    return any(verify_wheeler(a, WheelerOrder(p)) is None
               for p in itertools.permutations(range(a.n)))


def test_nfa_search_on_wdfa6_as_nfa(wdfa6):
    order = nfa_wheeler_search(wdfa6)
    assert isinstance(order, WheelerOrder)
    assert order.sequence() == (0, 1, 2, 3, 4, 5)


def test_nfa_search_rejects_notwdfa6(notwdfa6):
    assert nfa_wheeler_search(notwdfa6) is None


def test_nfa_search_reports_consistency_violations(astar, mind4_wheeler):
    v = nfa_wheeler_search(astar)
    assert isinstance(v, WheelerViolation) and v.kind == INITIAL_IN_EDGE
    v = nfa_wheeler_search(mind4_wheeler)
    assert isinstance(v, WheelerViolation) and v.kind == INPUT_INCONSISTENT


def test_nfa_search_agrees_with_exhaustive_order_testing():
    rng = random.Random(17)
    tested = 0
    while tested < 40:
        a = random_trimmed_nfa(rng, max_n=6, max_sigma=3, density=0.25)
        if a.n > 6:
            continue
        tested += 1
        result = nfa_wheeler_search(a)
        if isinstance(result, WheelerOrder):
            assert verify_wheeler(a, result) is None
            assert exhaustive_order_exists(a)
        else:
            assert not exhaustive_order_exists(a)


def test_nfa_search_budget_is_enforced():
    rng = random.Random(3)
    with pytest.raises(SearchBudgetExceeded):
        for _ in range(400):
            a = random_trimmed_nfa(rng, max_n=7, max_sigma=3, density=0.3)
            nfa_wheeler_search(a, budget=3)


def test_wheeler_nfa_generator_is_certified():
    rng = random.Random(41)
    nondet = 0
    for _ in range(20):
        a, order = random_wheeler_nfa(rng)
        assert verify_wheeler(a, order) is None
        nondet += not a.deterministic
    assert nondet >= 5  # the corpus genuinely exercises nondeterminism


def test_violations_are_self_evident_randomized():
    rng = random.Random(57)
    seen = 0
    while seen < 25:
        a = random_trimmed_nfa(rng, max_n=5, max_sigma=3, density=0.3)
        perm = list(range(a.n))
        rng.shuffle(perm)
        order = WheelerOrder(tuple(perm))
        v = verify_wheeler(a, order)
        if v is None:
            continue
        seen += 1
        assert recheck_violation(a, v, order=order), (a, v, order)


def test_path_coherence_wdfa6(wdfa6):
    order = dfa_wheeler_order(wdfa6)
    assert path_coherence_check(wdfa6, order, 6) is None


def test_path_coherence_maxlen_zero_is_vacuous(notwdfa6):
    assert path_coherence_check(notwdfa6, _forced_order(notwdfa6), 0) is None


def test_path_coherence_counterexample_reverifies(notwdfa6):
    # the automaton is not Wheeler under this order, so the property may
    # fail; the checker must terminate and any report must re-verify
    cex = path_coherence_check(notwdfa6, _forced_order(notwdfa6), 3)
    if cex is not None:
        image = run(notwdfa6, cex.word, start=set(cex.interval))
        assert image == frozenset(cex.image)
        ranks = sorted(cex.image)
        assert ranks[-1] - ranks[0] + 1 > len(ranks)


def test_entering_word_sets_characterize_the_order(wdfa6):
    # for q < p, every enumerated word entering q precedes every word
    # entering p outside the shared ones
    order = dfa_wheeler_order(wdfa6)
    ranks = order.ranks
    by_state = {q: set() for q in range(wdfa6.n)}
    for w in all_words(wdfa6.alphabet.symbols, 8):
        reached = run(wdfa6, w)
        for q in reached:
            by_state[q].add(w)
    key = wdfa6.alphabet.colex_key
    for q in range(wdfa6.n):
        for p in range(wdfa6.n):
            if ranks[q] < ranks[p] and by_state[q] != by_state[p]:
                shared = by_state[q] & by_state[p]
                for wq in by_state[q]:
                    for wp in by_state[p]:
                        if wq in shared and wp in shared:
                            continue
                        assert key(wq) < key(wp)


def test_certified_wdfa_cycle_labels_are_primitive(wdfa6):
    for label in enumerate_simple_cycles(wdfa6):
        assert is_primitive(label)


def test_certified_random_wnfa_determinization_cycles_primitive():
    rng = random.Random(4242)
    for _ in range(10):
        a, _ = random_wheeler_nfa(rng, max_n=6)
        d = determinize(a)
        order = dfa_wheeler_order(d)
        assert isinstance(order, WheelerOrder)
        for label in enumerate_simple_cycles(d):
            assert is_primitive(label)
