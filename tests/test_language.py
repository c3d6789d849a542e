import random

import pytest

from wheelerkit import (
    SearchCaps,
    StateBlowupExceeded,
    Witness,
    WheelerkitError,
    check_witness_dfa,
    determinize,
    gamma_length_bound,
    is_language_wheeler_dfa,
    is_language_wheeler_nfa,
    minimize,
    parse_automaton,
    reduce_universality,
    trim_basic,
    with_alphabet_order,
    word,
)
from wheelerkit.language import (BOUNDED_WHEELER, METHOD_CONSTRUCT, METHOD_WITNESS,
                                 NOT_WHEELER, WHEELER)
from reference import (
    check_witness_nfa,
    dfa_witness_bound_ok,
    find_witness,
    independent_language_status,
    nfa_witness_bound_ok,
    right_context_equal,
)
from conftest import FIXTURES, make
from corpus import random_feasible_dfa
from test_acceptance import corpus_200
from test_minwdfa import criterion_9_nfas


def test_gamma_length_bound_values():
    assert gamma_length_bound(4) == 4 ** 3 + 2 * 16 + 4 + 2 == 102
    assert SearchCaps.default(4).gamma_bound == 102


def test_caps_validation():
    with pytest.raises(WheelerkitError):
        SearchCaps(0, 1, 1, 1)


def test_check_witness_worked_example(mind4_nonwheeler):
    m = minimize(mind4_nonwheeler)
    assert check_witness_dfa(m, Witness(("a",), ("b",), ("c",)))
    assert check_witness_dfa(m, Witness(("a",), ("b",), word("c c")))
    # gamma is a suffix of mu: rejected by the suffix clause
    assert not check_witness_dfa(m, Witness(word("a c"), ("b",), ("c",)))


def test_check_witness_fails_on_the_wheeler_twin(mind4_wheeler):
    # under a < c < d < f the side condition fails: a < c but d > c
    m = minimize(mind4_wheeler)
    assert not check_witness_dfa(m, Witness(("a",), ("d",), ("c",)))


def test_witness_bounds():
    w = Witness(("a",), ("b",), ("c",))
    assert dfa_witness_bound_ok(4, w)
    assert not nfa_witness_bound_ok(w)  # the NFA form is strict
    assert nfa_witness_bound_ok(Witness(("a",), ("b",), word("c c")))


def test_check_witness_nfa_on_universality_gadget(epsilon_d):
    gadget = reduce_universality(epsilon_d).automaton
    assert check_witness_nfa(gadget, Witness(("a",), ("b",), ("c",)))
    assert not check_witness_nfa(gadget, Witness(word("a c"), ("b",), ("c",)))


def test_check_witness_nfa_side_condition(wdfa6):
    assert not check_witness_nfa(wdfa6, Witness(("a",), ("d",), ("c",)))


def test_check_witness_nfa_honors_given_anchors(epsilon_d):
    gadget = reduce_universality(epsilon_d).automaton
    # reading a ends in the back-edged original state (0), reading b in the
    # all-accepting sink (last id); both carry c-cycles
    sink = gadget.n - 1
    assert check_witness_nfa(gadget, Witness(("a",), ("b",), ("c",),
                                             anchors=(0, sink)))
    assert not check_witness_nfa(gadget, Witness(("a",), ("b",), ("c",),
                                                 anchors=(sink, 0)))


def test_find_witness_minimal_on_nonwheeler(mind4_nonwheeler):
    w = find_witness(minimize(mind4_nonwheeler))
    assert w.words() == (("a",), ("b",), ("c",))


def test_find_witness_none_on_wheeler(mind4_wheeler):
    assert find_witness(minimize(mind4_wheeler)) is None


def test_find_witness_starfree_under_both_orders(starfree_nongw):
    m = minimize(starfree_nongw)
    for symbols in (("a", "b"), ("b", "a")):
        w = find_witness(minimize(with_alphabet_order(m, symbols)))
        assert w is not None


def test_language_decider_on_the_twin_pair(mind4_wheeler, mind4_nonwheeler):
    good = is_language_wheeler_dfa(mind4_wheeler)
    assert good.status == WHEELER and good.wdfa.automaton.n == 6
    bad = is_language_wheeler_dfa(mind4_nonwheeler)
    assert bad.status == NOT_WHEELER
    assert bad.witness.words() == (("a",), ("b",), ("c",))


def test_language_decider_methods_agree_on_fixtures(mind4_wheeler, mind4_nonwheeler):
    for a in (mind4_wheeler, mind4_nonwheeler):
        vw = is_language_wheeler_dfa(a, method=METHOD_WITNESS)
        vc = is_language_wheeler_dfa(a, method=METHOD_CONSTRUCT)
        assert vw.status == vc.status


def test_bounded_verdict_under_tiny_caps(mind4_wheeler, starfree_nongw):
    caps = SearchCaps(gamma_bound=2, cycle_len_cap=1, pump_cap=1, path_count_cap=10)
    v = is_language_wheeler_dfa(mind4_wheeler, method=METHOD_WITNESS, caps=caps)
    assert v.status == "bounded-wheeler"
    assert v.caps == caps
    # `both` follows the walk where the search is capped and the construction
    # infeasible
    for a, status, reason in (
            (mind4_wheeler, WHEELER, "witness search exhausted"),
            (starfree_nongw, NOT_WHEELER, "a witness exists, none within caps")):
        v = is_language_wheeler_dfa(a, caps=caps, word_cap=10)
        assert (v.status, v.witness, v.wdfa) == (status, None, None)
        assert v.reason == reason + "; construction infeasible"


def test_nfa_language_decider(wdfa6, universal1, epsilon_d):
    assert is_language_wheeler_nfa(wdfa6).status == WHEELER
    assert is_language_wheeler_nfa(reduce_universality(universal1).automaton).status == WHEELER
    v = is_language_wheeler_nfa(reduce_universality(epsilon_d).automaton)
    assert v.status == NOT_WHEELER


def test_nfa_state_cap():
    # (a|b)* a (a|b)(a|b): the subset construction needs 2^3 states
    a = make(("a", "b"), 4, 0, {3},
             {(0, "a", 0), (0, "b", 0), (0, "a", 1),
              (1, "a", 2), (1, "b", 2), (2, "a", 3), (2, "b", 3)})
    with pytest.raises(StateBlowupExceeded):
        is_language_wheeler_nfa(a, state_cap=4)


def colex_key(a, w):
    return a.alphabet.colex_key(w)


def test_monotone_family_spot_check_on_corpus():
    """Pumped witness families interleave on one side and stay inequivalent."""
    rng = random.Random(271)
    seen = 0
    while seen < 12:
        d = random_feasible_dfa(rng)
        m = minimize(d)
        w = find_witness(m)
        if w is None:
            continue
        seen += 1
        mu, nu, gamma = w.words()
        key = m.alphabet.colex_key
        family_mu = [mu + gamma * i for i in range(9)]
        family_nu = [nu + gamma * i for i in range(9)]
        for x in family_mu:
            for y in family_nu:
                assert not right_context_equal(m, x, y)
        if key(mu) < key(gamma):
            chain = [x for pair in zip(family_mu, family_nu) for x in pair]
            assert all(key(chain[i]) < key(chain[i + 1]) for i in range(len(chain) - 1))
        else:
            chain = [x for pair in zip(family_nu, family_mu) for x in pair]
            assert all(key(chain[i]) > key(chain[i + 1]) for i in range(len(chain) - 1))


def test_witness_and_construct_agree_on_random_corpus():
    rng = random.Random(613)
    wheeler = not_wheeler = 0
    for _ in range(60):
        d = random_feasible_dfa(rng)
        vw = is_language_wheeler_dfa(d, method=METHOD_WITNESS)
        vc = is_language_wheeler_dfa(d, method=METHOD_CONSTRUCT, word_cap=300_000)
        assert vw.status == vc.status, d
        if vc.status == WHEELER:
            wheeler += 1
        else:
            not_wheeler += 1
        if vw.witness is not None:
            m = minimize(d)
            assert check_witness_dfa(m, vw.witness)
            assert dfa_witness_bound_ok(m.n, vw.witness)
    assert wheeler and not_wheeler  # the corpus exercises both verdicts


def test_both_gives_the_independent_deciders_answers(universal1, epsilon_d):
    """`both` never answers bounded-wheeler; its status is the independent
    deciders', its witness the witness search's and its certificate the
    construction's."""
    dfas = [determinize(trim_basic(parse_automaton(path.read_text())))
            for path in sorted(FIXTURES.glob("*.aut"))]
    dfas += corpus_200()
    dfas += [determinize(reduce_universality(a).automaton)
             for a in criterion_9_nfas(universal1, epsilon_d)]
    rng = random.Random(1019)
    dfas += [random_feasible_dfa(rng, max_n=4, max_sigma=2) for _ in range(1000)]
    statuses = set()
    for d in dfas:
        v = is_language_wheeler_dfa(d)
        assert v.status == independent_language_status(d) != BOUNDED_WHEELER, d
        statuses.add(v.status)
        if v.witness is not None:
            assert v.witness == is_language_wheeler_dfa(d, method=METHOD_WITNESS).witness
        if v.wdfa is not None:
            assert v.wdfa == is_language_wheeler_dfa(d, method=METHOD_CONSTRUCT).wdfa
    assert statuses == {WHEELER, NOT_WHEELER}
