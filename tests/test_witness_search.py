"""The lazy witness search against the eager one it replaces.

`search_witness` takes entering words one length layer at a time, only up
to the gamma it tests, and sorts the gammas one length bucket at a time.
`reference.eager_witness_verdict` takes every entering word up to the
longest gamma first and sorts all gammas at once; `method="witness"` must
give the same verdict, witness and anchors included, and must not take the
words the search never reads.
"""

import random

from wheelerkit import (
    SearchCaps,
    determinize,
    is_language_wheeler_dfa,
    minimize,
    parse_automaton,
    reduce_universality,
    trim_basic,
)
from wheelerkit.automaton import count_readable_words
from wheelerkit.language import (BOUNDED_WHEELER, METHOD_WITNESS, NOT_WHEELER, WHEELER,
                                 collect_candidates, search_witness)
from conftest import FIXTURES
from corpus import random_feasible_dfa
from reference import eager_witness_verdict
from test_acceptance import corpus_200
from test_minwdfa import criterion_9_nfas

SMALL_PATH_COUNT_CAPS = (1, 2, 3, 5, 10, 50)


def gadget_min_dfas(universal1, epsilon_d):
    """The distinct minimum DFAs of criterion 9's universality gadgets."""
    gadgets = []
    for a in criterion_9_nfas(universal1, epsilon_d):
        m = minimize(determinize(reduce_universality(a).automaton))
        if m not in gadgets:
            gadgets.append(m)
    return gadgets


def assert_same_verdict(d, caps=None):
    got = is_language_wheeler_dfa(d, method=METHOD_WITNESS, caps=caps)
    min_dfa = minimize(d)
    assert got == eager_witness_verdict(min_dfa, SearchCaps.default(min_dfa.n, caps)), d
    return got


def test_lazy_search_matches_the_eager_search(universal1, epsilon_d):
    dfas = [determinize(trim_basic(parse_automaton(path.read_text())))
            for path in sorted(FIXTURES.glob("*.aut"))]
    dfas += corpus_200()
    dfas += gadget_min_dfas(universal1, epsilon_d)
    rng = random.Random(1118)
    dfas += [random_feasible_dfa(rng, max_n=4) for _ in range(500)]
    statuses = {assert_same_verdict(d).status for d in dfas}
    assert statuses == {WHEELER, NOT_WHEELER}


def test_lazy_search_matches_the_eager_search_when_the_budget_cuts_a_layer():
    """With a path-count cap of a few words the walk is cut inside a layer
    at or below the witness's gamma, where the words of the cut layer that
    the search reads are exactly the eager walk's."""
    rng = random.Random(1119)
    statuses = set()
    cut_at_or_below_gamma = 0
    for _ in range(500):
        d = random_feasible_dfa(rng, max_n=4)
        for cap in SMALL_PATH_COUNT_CAPS:
            verdict = assert_same_verdict(d, SearchCaps(path_count_cap=cap))
            statuses.add(verdict.status)
            if verdict.witness is not None:
                readable = count_readable_words(minimize(d), len(verdict.witness.gamma))
                cut_at_or_below_gamma += readable > cap
    assert statuses == {WHEELER, NOT_WHEELER, BOUNDED_WHEELER}
    assert cut_at_or_below_gamma


def test_witness_search_takes_only_the_words_up_to_its_gamma(universal1, epsilon_d):
    """On a refuted gadget whose eager walk would hit the path-count cap,
    the search takes no more entering words than there are readable words
    of length at most |gamma| of the witness it returns."""
    pinned = 0
    for min_dfa in gadget_min_dfas(universal1, epsilon_d):
        caps = SearchCaps.default(min_dfa.n)
        candidates = collect_candidates(min_dfa, caps)
        max_gamma = max(map(len, candidates.gammas), default=0)
        if count_readable_words(min_dfa, max_gamma) <= caps.path_count_cap:
            continue
        witness = search_witness(min_dfa, candidates)
        assert witness is not None, min_dfa
        taken = sum(len(words) for words in candidates.entering.values())
        assert taken <= count_readable_words(min_dfa, len(witness.gamma)), min_dfa
        pinned += 1
    assert pinned
