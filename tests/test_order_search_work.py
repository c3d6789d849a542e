"""The NFA order search against `reference.PairOrderSearch`, the per-pair
calls its decision loop replaced, and `reference.RoundOrderSearch`, the
full-round refinement and unfiltered propagation before that, and pins on
the work it does: node counts and memory per node, not times."""

import contextlib
import io
import itertools
import random
import tracemalloc

import pytest

from wheelerkit import (
    Automaton,
    OrderedAlphabet,
    SearchBudgetExceeded,
    nfa_wheeler_search,
    parse_automaton,
    trim_basic,
)
from wheelerkit.cli import main
from wheelerkit.wheeler import (
    WheelerOrder,
    WheelerViolation,
    _OrderSearch,
    input_consistency,
    label_blocks,
    verify_wheeler,
)
from corpus import random_trie, random_trimmed_nfa, random_wheeler_nfa
from reference import PairOrderSearch, RoundOrderSearch, order_search
from test_acceptance import corpus_200
from test_order_search import (
    BUDGETS,
    random_consistent_nfa,
    shuffled,
    staircase,
    star,
)


def chain(n):
    """The n-state path 0 -a-> 1 -a-> ... -a-> n-1."""
    return Automaton(OrderedAlphabet(("a",)), n, 0, frozenset({n - 1}),
                     frozenset((q, "a", q + 1) for q in range(n - 1)))


# The sink run's two exits.  Classes {0, 3} and {1, 5}: the run puts the
# sink 0 before 3, then 1 before 5 fails (1 reaches 0, 5 reaches 4 of an
# earlier class) and 5 before 1 needs 3 before 0, so backtracking flips the
# run decision.  With the third sink 6 under 1, the flipped 3 before 0 leaves
# 0 with a mate below it that 6 lacks, so the run stops at (0, 6) and that
# pair's closure pushes 3 before 6.
SINK_RUN_FLIPPED = """alphabet a b
states 6
initial 2
final 0 1 3 4 5
edge 1 a 0
edge 1 a 3
edge 2 b 1
edge 2 b 5
edge 3 a 4
edge 5 a 3
edge 5 a 4
"""
SINK_RUN_STOPPED = SINK_RUN_FLIPPED.replace("states 6", "states 7") + "edge 1 a 6\n"


def differential_inputs(fixtures_dir):
    rng = random.Random(13)
    inputs = [parse_automaton(SINK_RUN_FLIPPED), parse_automaton(SINK_RUN_STOPPED)]
    inputs += [trim_basic(d) for d in corpus_200()]
    inputs += [trim_basic(parse_automaton(path.read_text(encoding="utf-8")))
               for path in sorted(fixtures_dir.glob("*.aut"))]
    inputs += [star(k) for k in range(1, 61)] + [chain(n) for n in (2, 3, 40)]
    inputs += [random_trie(rng, n) for n in (20, 50, 100, 200)]
    inputs += [staircase(rng) for _ in range(200)]
    inputs += [shuffled(rng, random_wheeler_nfa(rng, max_n=10)[0]) for _ in range(300)]
    inputs += [random_consistent_nfa(rng) for _ in range(500)]
    inputs += [random_trimmed_nfa(rng, max_n=7, max_sigma=3, density=0.3)
               for _ in range(500)]
    return inputs


def refined(a, search_class):
    search = search_class(a, label_blocks(a, input_consistency(a)), 10 ** 9)
    return search.refine(), search.classes, search.rank, search.nodes


def test_refinement_matches_the_round_refinement(fixtures_dir):
    # Where the rounds refute, the classes may differ: parts whose source
    # intervals nest sort one way under a coarse partition and the other
    # way under a finer one, so the order of the splits shows.  The
    # fixpoint check refutes nested intervals either way.
    refuted = 0
    for a in differential_inputs(fixtures_dir):
        if isinstance(input_consistency(a), WheelerViolation):
            continue
        want, got = refined(a, RoundOrderSearch), refined(a, _OrderSearch)
        if want[0]:
            assert got[:3] == want[:3], a
        else:
            refuted += 1
            assert not got[0], a
        assert got[3] <= want[3], a
    assert refuted


def test_outcomes_match_the_reference_with_no_more_nodes(fixtures_dir):
    traded = 0
    for a in differential_inputs(fixtures_dir):
        for budget in BUDGETS:
            want, reference = order_search(a, budget, RoundOrderSearch)
            got, search = order_search(a, budget, _OrderSearch)
            if want[0] == "budget":
                # either stops past the budget by the nodes it counted last
                traded += got[0] != "budget"
                continue
            assert got == want, f"{a} at budget {budget}"
            if reference is not None:
                assert search.nodes <= reference.nodes, f"{a} at budget {budget}"
    assert traded


def with_shuffled_header(rng, a):
    """a with its alphabet order shuffled, so symbol rank and name disagree."""
    symbols = tuple(rng.sample(a.alphabet.symbols, len(a.alphabet)))
    return Automaton(OrderedAlphabet(symbols), a.n, a.initial, a.finals, a.edges)


def test_the_decision_loop_matches_the_pair_search_node_for_node(fixtures_dir):
    rng = random.Random(21)
    inputs = differential_inputs(fixtures_dir)
    for _ in range(800):
        inputs.append(shuffled(rng, random_wheeler_nfa(rng, max_n=14)[0]))
        inputs.append(with_shuffled_header(rng, random_consistent_nfa(rng)))
    outcomes = set()
    for a in inputs:
        for budget in BUDGETS:
            want, reference = order_search(a, budget, PairOrderSearch)
            got, search = order_search(a, budget, _OrderSearch)
            assert got == want, f"{a} at budget {budget}"
            if reference is not None:
                assert search.nodes == reference.nodes, f"{a} at budget {budget}"
            outcomes.add(got[0])
    assert outcomes == {"order", "none", "violation", "budget"}


def test_memory_per_node_on_a_star_out_of_budget():
    # a 2,000-leaf star orients one leaf pair per node; each leaves two set
    # entries, two trail slots and, as a decision, two list slots and two ints
    a = star(2000)
    tracemalloc.start()
    try:
        with pytest.raises(SearchBudgetExceeded):
            nfa_wheeler_search(a, budget=50_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 300 * 50_000, f"{peak / 50_000:.0f} bytes per node"


def nodes_to_decide(a):
    """The least budget that decides a: nodes are counted, then checked."""
    return order_search(a, 10 ** 9, _OrderSearch)[1].nodes


@pytest.mark.parametrize("leaves", range(1, 61))
def test_a_star_takes_its_leaves_plus_one_node_per_leaf_pair(leaves):
    # the first refinement step keys every leaf; each leaf pair is then
    # oriented by one node, and no closure step revisits a known pair.  A
    # single leaf is a one-state class, never keyed.
    nodes = leaves + leaves * (leaves - 1) // 2 if leaves > 1 else 0
    assert nodes_to_decide(star(leaves)) == nodes
    assert nfa_wheeler_search(star(leaves), budget=nodes).ranks == tuple(range(leaves + 1))
    if nodes:
        with pytest.raises(SearchBudgetExceeded):
            nfa_wheeler_search(star(leaves), budget=nodes - 1)


@pytest.mark.parametrize("n", [2, 3, 10, 100, 1000, 4000])
def test_a_chain_refines_in_at_most_two_nodes_per_state(n):
    # each split peels off one state and re-keys only its successor
    assert nfa_wheeler_search(chain(n), budget=2 * n).ranks == tuple(range(n))


def test_out_edges_are_visited_by_symbol_name():
    # under the header "b a" symbol rank and symbol name disagree; the
    # search takes out-edges by name, and refutes this NFA in 9 nodes (by
    # rank it would take 10)
    edges = {(0, "b", 3), (0, "b", 4), (1, "a", 0), (1, "b", 3), (2, "b", 4),
             (2, "b", 5), (3, "b", 1), (4, "b", 1), (4, "b", 3), (4, "b", 4),
             (5, "a", 2), (5, "b", 1), (5, "b", 3), (6, "b", 5)}
    a = Automaton(OrderedAlphabet(("b", "a")), 7, 6, frozenset({0, 2, 3, 5}),
                  frozenset(edges))
    assert order_search(a, 10 ** 6, _OrderSearch)[0] == ("none",)
    assert nodes_to_decide(a) == 9


# Every state reads b, so refinement finds no contradiction; the pair search
# then refutes every order of 1..4 (0 reaches 1, 2 and 3; 1 and 2 both reach
# 3 and 4).
REFUTED = """alphabet b
states 5
initial 0
final 0 1 2 3 4
edge 0 b 1
edge 0 b 2
edge 0 b 3
edge 1 b 3
edge 1 b 4
edge 2 b 3
edge 2 b 4
"""


def test_the_search_refutes_every_order_after_refinement_passes(tmp_path):
    a = parse_automaton(REFUTED)
    search = _OrderSearch(a, label_blocks(a, input_consistency(a)), 10 ** 6)
    assert search.refine()
    assert not search.solve()
    assert search.nodes == 8
    assert nfa_wheeler_search(a, budget=8) is None
    with pytest.raises(SearchBudgetExceeded):
        nfa_wheeler_search(a, budget=7)
    outcome, pair = order_search(a, 10 ** 6, PairOrderSearch)
    assert (outcome, pair.nodes) == (("none",), 8)
    assert order_search(a, 10 ** 6, RoundOrderSearch)[0] == ("none",)
    assert not any(verify_wheeler(a, WheelerOrder.from_sequence((0, *rest))) is None
                   for rest in itertools.permutations(range(1, 5)))

    path = tmp_path / "refuted.aut"
    path.write_text(REFUTED)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(["check-nfa", str(path)]) == 1
        assert main(["check-nfa", str(path), "--budget", "7"]) == 2
    assert "violation: search-exhausted\n" in out.getvalue()
