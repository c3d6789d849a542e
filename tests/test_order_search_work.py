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
    dfa_wheeler_order,
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
from corpus import SYMS, random_trie, random_trimmed_nfa, random_wheeler_nfa
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

# A later mate below the sink.  Classes {1, 2} and {3, 4, 5}: deciding 1
# before 2 pushes 4 before 3 and 4 before 5, so when the scan reaches the
# sink 3, its mate 4, after it by id, already precedes it; 4 precedes 5 too,
# so the run still puts 3 before 5.
SINK_RUN_LATER_BELOW = """alphabet a
states 6
initial 0
final 3 4 5
edge 0 a 1
edge 0 a 2
edge 1 a 4
edge 2 a 3
edge 2 a 5
"""

# A later mate below the sink that stops the run.  Classes {3, 4, 5, 6} and
# {1, 2}: the leaves' rows put them in id order, and then 1 before 2 (it
# puts 5 and 6 before 4) and 2 before 1 (4 before 3) both fail until
# backtracking flips 4 before 5.  The sink 4 then has its later mate 5
# below it while 6 is open with both, so the run stops at (4, 6), and that
# pair's closure pushes 5 before 6.  A run that skipped the test of the
# later mates would orient 4 before 6 alone and take two more nodes.
SINK_RUN_LATER_BELOW_STOPS = """alphabet a b
states 7
initial 0
final 3 4 5 6
edge 0 b 1
edge 0 b 2
edge 1 a 3
edge 1 a 5
edge 1 a 6
edge 2 a 4
"""


def rooted_tree(rng, max_n=14):
    """A rooted NFA tree: each state but the initial one has one in-edge,
    from a state drawn before it, and siblings may share a label.  Ids are
    shuffled, so the initial state is anywhere."""
    n = rng.randint(1, max_n)
    symbols = SYMS[:rng.randint(1, 3)]
    edges = {(rng.randrange(v), rng.choice(symbols), v) for v in range(1, n)}
    leaves = set(range(n)) - {u for u, _, _ in edges}
    finals = frozenset(q for q in range(n) if q in leaves or rng.random() < 0.2)
    return shuffled(rng, Automaton(OrderedAlphabet(symbols), n, 0, finals,
                                   frozenset(edges)))


def unrooted_functional_graph(rng, max_n=12):
    """Each state but the initial one has one in-edge, but a cycle, and the
    states hanging off it, cannot be reached from the initial state."""
    n = rng.randint(2, max_n)
    symbols = SYMS[:rng.randint(1, 3)]
    cycle = rng.sample(range(1, n), rng.randint(1, n - 1))
    placed = [0] + cycle
    edges = {(u, rng.choice(symbols), v) for u, v in zip(cycle[-1:] + cycle, cycle)}
    for v in range(1, n):
        if v not in cycle:
            edges.add((rng.choice(placed), rng.choice(symbols), v))
            placed.append(v)
    finals = frozenset(q for q in range(n) if rng.random() < 0.3)
    return shuffled(rng, Automaton(OrderedAlphabet(symbols), n, 0, finals,
                                   frozenset(edges)))


def differential_inputs(fixtures_dir):
    rng = random.Random(13)
    inputs = [parse_automaton(text)
              for text in (SINK_RUN_FLIPPED, SINK_RUN_STOPPED, SINK_RUN_LATER_BELOW,
                           SINK_RUN_LATER_BELOW_STOPS)]
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
    inputs += [rooted_tree(rng) for _ in range(200)]
    inputs += [unrooted_functional_graph(rng) for _ in range(100)]
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


class ScanCheckingSearch(PairOrderSearch):
    """`PairOrderSearch` that checks, at each open pair p, q its scan finds
    with p a state of no out-edges, that every state above q is above p,
    and counts the pairs where that fails for a p with out-edges and the
    pairs where p already has a mate after it below it."""

    later_below = 0
    above_only_q = 0

    def next_open(self, bi, i, j):
        pos = super().next_open(bi, i, j)
        if pos is not None:
            p = self.blocks[pos[0]][pos[1]]
            q = self.classes[self.rank[p]][pos[2]]
            if not self.above[q] <= self.above[p]:
                assert self.sends[p], (p, q)
                self.above_only_q += 1
            self.later_below += any(r > p for r in self.below[p])
        return pos


def test_every_state_above_an_open_pairs_second_is_above_its_first(fixtures_dir):
    # The scan reaches an open pair p, q with every pair that has a mate
    # before p oriented and the relation closed, so a state above q but not
    # above p would be a later mate r with q before r while p and r are
    # open.  Where p has no out-edges, no input here, nor any of 70,000
    # random consistent NFAs of up to 30 states, has one: the sink run's
    # test above[q] <= above[p] never fails on them, and the run keeps it
    # as a guard.  A p with out-edges can have one: state 0 of one unrooted
    # functional graph, before its mates 2 and 3.  Pairs whose p has a later
    # mate below it, which the run's other test reads, do occur.
    later_below = above_only_q = 0
    for a in differential_inputs(fixtures_dir):
        search = order_search(a, 10 ** 6, ScanCheckingSearch)[1]
        if search is not None:
            later_below += search.later_below
            above_only_q += search.above_only_q
    assert later_below
    assert above_only_q == 2


def test_the_order_is_read_off_the_classes(fixtures_dir):
    # extract_order places each state at its class's start plus the number
    # of mates below it, as sorting by (rank, mates below) did
    orders = 0
    for a in differential_inputs(fixtures_dir):
        lam = input_consistency(a)
        if isinstance(lam, WheelerViolation):
            continue
        search = _OrderSearch(a, label_blocks(a, lam), 10 ** 6)
        if search.refine() and search.solve():
            states = sorted(range(a.n), key=lambda q: (search.rank[q], len(search.below[q])))
            assert search.extract_order() == WheelerOrder.from_sequence(states), a
            orders += 1
    assert orders >= 500


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


def tree_charge(a):
    """The states of the in-label blocks of two or more: what the Hopcroft
    loop's first step keys, and all that `refine` charges on a rooted tree."""
    return sum(len(states) for states in label_blocks(a, input_consistency(a))
               if len(states) > 1)


def test_a_rooted_tree_refines_in_one_node_per_keyed_state():
    # A rooted tree's classes are its states' entering words, ranked co-lex
    # by prefix doubling, and refine charges the tree charge alone: 399
    # nodes on the 400-state trie, where the Hopcroft loop took 966.  solve
    # then spends nothing on a trie, whose classes are single states, and
    # orients the mates of an NFA tree.
    rng = random.Random(33)
    tries = [random_trie(rng, n) for n in (50, 100, 200, 400)]
    trees = [a for a in (rooted_tree(rng) for _ in range(40)) if tree_charge(a)]
    assert any(not a.deterministic for a in trees)
    for a in tries + trees:
        search = _OrderSearch(a, label_blocks(a, input_consistency(a)), 10 ** 9)
        assert search.refine()
        assert search.nodes == tree_charge(a)
        assert search.solve()
        budget = search.nodes
        order = nfa_wheeler_search(a, budget=budget)
        if a.deterministic:
            assert order == dfa_wheeler_order(a)
        assert verify_wheeler(a, order) is None
        with pytest.raises(SearchBudgetExceeded):
            nfa_wheeler_search(a, budget=budget - 1)


# A cycle the initial state cannot reach: 3 and 4 read a from each other, so
# every state but 0 has one in-edge, but the input is no rooted tree.  The
# Hopcroft loop keys the a-block {1, 2, 3, 4}, splits off 1 and re-keys 2,
# 5 nodes, and solve refutes 3 before 4 and 4 before 3 in 4 more.
UNROOTED = """alphabet a
states 5
initial 0
final 4
edge 0 a 1
edge 1 a 2
edge 3 a 4
edge 4 a 3
"""


def test_an_unrooted_functional_graph_keeps_the_hopcroft_loop():
    a = parse_automaton(UNROOTED)
    search = _OrderSearch(a, label_blocks(a, input_consistency(a)), 10 ** 6)
    assert search.refine()
    assert search.nodes == 5 > tree_charge(a)
    assert not search.solve()
    assert search.nodes == 9
    assert nfa_wheeler_search(a, budget=9) is None
    with pytest.raises(SearchBudgetExceeded):
        nfa_wheeler_search(a, budget=8)


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
