"""The ranked-class NFA order search against the block-seeded search it
replaced, kept here as the oracle: same ranks, None, violation or budget
exhaustion wherever the oracle decides."""

import random

import pytest

from wheelerkit import (
    Automaton,
    OrderedAlphabet,
    SearchBudgetExceeded,
    WheelerkitError,
    gw_automaton_check,
    nfa_wheeler_search,
    parse_automaton,
    trim_basic,
)
from wheelerkit.alphabet import INITIAL_MARK
from wheelerkit.wheeler import (
    WheelerOrder,
    WheelerViolation,
    input_consistency,
    verify_wheeler,
)
from corpus import SYMS, random_trie, random_trimmed_nfa, random_wheeler_nfa

BUDGETS = (10, 10 ** 3, 10 ** 6)


class OracleSearch:
    """The search before the ranked classes, seeded pair by pair below.

    Backtracking over within-block state orders with constraint propagation.

    Blocks (states grouped by in-label) are already totally ordered by the
    alphabet, so condition (i) holds structurally; the search decides the
    relative order of same-block pairs.  Orienting u1 < u2 forces v1 < v2 for
    every pair of equally labeled edges with targets v1 != v2, and order
    relations are kept transitively closed inside each block.  Implications
    are generated from the out-edges on demand and decisions live on an
    explicit stack, so memory is O(states + edges + oriented pairs).
    """

    def __init__(self, a, blocks, budget):
        self.blocks = blocks
        self.budget = budget
        self.nodes = 0
        self.block_of = [0] * a.n
        for bi, states in enumerate(blocks):
            for q in states:
                self.block_of[q] = bi
        self.out = [{} for _ in range(a.n)]  # state -> symbol -> sorted targets
        for (u, sym, v) in sorted(a.edges):
            self.out[u].setdefault(sym, []).append(v)
        self.below = [set() for _ in range(a.n)]  # same-block states known to precede
        self.above = [set() for _ in range(a.n)]  # same-block states known to follow
        self.trail = []  # oriented pairs (p before q), oldest first

    def implied(self, p, q):
        """Target pairs (v, w) that p-before-q pushes into v-before-w."""
        out_q = self.out[q]
        for sym, vs in self.out[p].items():
            for v in vs:
                for w in out_q.get(sym, ()):
                    if v != w:
                        yield v, w

    def before(self, p, q):
        """+1 if p is known to precede q, -1 if q precedes p, 0 if open."""
        bp, bq = self.block_of[p], self.block_of[q]
        if bp != bq:
            return 1 if bp < bq else -1
        return 1 if p in self.below[q] else -1 if q in self.below[p] else 0

    def orient(self, p, q):
        """Record p before q; propagate; False on contradiction."""
        stack = [(p, q)]
        while stack:
            self.nodes += 1
            if self.nodes > self.budget:
                raise SearchBudgetExceeded(f"order search passed {self.budget} nodes")
            x, y = stack.pop()
            cur = self.before(x, y)
            if cur == 1:
                continue
            if cur == -1:
                return False
            self.below[y].add(x)
            self.above[x].add(y)
            self.trail.append((x, y))
            stack.extend(self.implied(x, y))
            # close transitively: r < x gives r < y, and y < r gives x < r;
            # blocks list states by id, so id order is block order
            below_x, above_y = self.below[x], self.above[y]
            for r in sorted(below_x | above_y):
                if r in below_x:
                    stack.append((r, y))
                if r in above_y:
                    stack.append((x, r))
        return True

    def undo(self, mark):
        while len(self.trail) > mark:
            p, q = self.trail.pop()
            self.below[q].discard(p)
            self.above[p].discard(q)

    def next_open(self, bi, i, j):
        """Position (bi, i, j) of the first unoriented pair blocks[bi][i] <
        blocks[bi][j] at or after the given position, or None."""
        for bi in range(bi, len(self.blocks)):
            states = self.blocks[bi]
            for i in range(i, len(states)):
                above, below = self.above[states[i]], self.below[states[i]]
                for j in range(max(j, i + 1), len(states)):
                    if states[j] not in above and states[j] not in below:
                        return bi, i, j
                j = 0
            i = 0
        return None

    def solve(self):
        """Depth first: orient the first open pair one way, then the other.
        Pairs before a decision stay oriented below it, so scans resume there."""
        decisions = []  # (trail mark, pair position, second way taken)
        pos, flipped = self.next_open(0, 0, 1), False
        while pos is not None:
            bi, i, j = pos
            p, q = self.blocks[bi][i], self.blocks[bi][j]
            mark = len(self.trail)
            if self.orient(*((q, p) if flipped else (p, q))):
                decisions.append((mark, pos, flipped))
                pos, flipped = self.next_open(*pos), False
                continue
            self.undo(mark)
            while flipped:  # both ways failed: back up to a decision with one left
                if not decisions:
                    return False
                mark, pos, flipped = decisions.pop()
                self.undo(mark)
            flipped = True
        return True

    def extract_order(self):
        states = sorted(range(len(self.block_of)),
                        key=lambda q: (self.block_of[q], len(self.below[q])))
        return WheelerOrder.from_sequence(states)


def oracle_nfa_wheeler_search(a, budget=10 ** 6):
    lam = input_consistency(a)
    if isinstance(lam, WheelerViolation):
        return lam
    label_rank = {INITIAL_MARK: -1}
    label_rank.update(a.alphabet.position)
    grouped = {}
    for q in range(a.n):
        grouped.setdefault(label_rank[lam[q]], []).append(q)
    blocks = [sorted(grouped[r]) for r in sorted(grouped)]

    search = OracleSearch(a, blocks, budget)
    # seed with the implications of the already-fixed cross-block source pairs
    senders = [p for p in range(a.n) if search.out[p]]
    for p in senders:
        for q in senders:
            if search.block_of[p] < search.block_of[q]:
                for (v, w) in search.implied(p, q):
                    if not search.orient(v, w):
                        return None
    if not search.solve():
        return None
    order = search.extract_order()
    assert verify_wheeler(a, order) is None
    return order


def outcome(search, a, budget):
    try:
        result = search(a, budget=budget)
    except SearchBudgetExceeded as e:
        return ("budget", str(e))
    if isinstance(result, WheelerOrder):
        return ("order", result.ranks)
    if isinstance(result, WheelerViolation):
        return ("violation", result.kind, result.evidence, result.detail)
    assert result is None
    return ("none",)


def assert_agrees(automata):
    """Identical outcomes at budgets 10^3 and 10^6 wherever the oracle
    decides; at budget 10 the refinement's own nodes may trade a decision
    for budget exhaustion or the other way, but never one verdict for
    another.  Returns the oracle's outcome kinds at 10^6."""
    kinds = []
    for a in automata:
        for budget in BUDGETS:
            want = outcome(oracle_nfa_wheeler_search, a, budget)
            got = outcome(nfa_wheeler_search, a, budget)
            if budget == BUDGETS[-1]:
                kinds.append(want[0])
            traded = "budget" in (want[0], got[0]) and (
                budget == BUDGETS[0] or want[0] == "budget")
            assert want == got or traded, (
                f"{a} at budget {budget}: oracle {want}, search {got}")
    return kinds


def random_consistent_nfa(rng):
    """Random trimmed NFA whose states each take one in-label."""
    while True:
        n = rng.randint(3, 16)
        symbols = SYMS[:rng.randint(1, 3)]
        label = [rng.choice(symbols) for _ in range(n)]
        density = rng.uniform(0.03, 0.25)
        edges = {(rng.randrange(n), label[v], v) for v in range(1, n)}
        edges |= {(u, label[v], v) for v in range(1, n) for u in range(n)
                  if rng.random() < density}
        finals = frozenset(q for q in range(n) if rng.random() < 0.3)
        a = trim_basic(Automaton(OrderedAlphabet(symbols), n, 0, finals,
                                 frozenset(edges)))
        if a.n >= 3:
            return a


def shuffled(rng, a):
    """a with its state ids permuted at random."""
    ids = rng.sample(range(a.n), a.n)
    return Automaton(a.alphabet, a.n, ids[a.initial], frozenset(ids[q] for q in a.finals),
                     frozenset((ids[u], s, ids[v]) for (u, s, v) in a.edges))


def staircase(rng, max_n=24):
    """Wheeler-by-layout NFA, drawn like random_wheeler_nfa but kept only
    when every state is useful, and certified by verify_wheeler alone."""
    while True:
        n = rng.randint(3, max_n)
        sigma = rng.randint(2, min(3, n - 1))
        cuts = sorted(rng.sample(range(2, n), sigma - 1))
        bounds = [1] + cuts + [n]
        edges = set()
        for i in range(sigma):
            u = 0
            for v in range(bounds[i], bounds[i + 1]):
                edges.add((u, SYMS[i], v))
                while rng.random() < 0.35:
                    u = min(u + rng.randint(0, 2), n - 1)
                    edges.add((u, SYMS[i], v))
                if rng.random() < 0.5:
                    u = min(u + rng.randint(0, 2), n - 1)
        finals = frozenset(q for q in range(n) if rng.random() < 0.5) or frozenset({n - 1})
        a = Automaton(OrderedAlphabet(SYMS[:sigma]), n, 0, finals, frozenset(edges))
        if (trim_basic(a).n == n
                and verify_wheeler(a, WheelerOrder(tuple(range(n)))) is None):
            return a


def star(leaves):
    return Automaton(OrderedAlphabet(("a",)), leaves + 1, 0,
                     frozenset(range(1, leaves + 1)),
                     frozenset((0, "a", v) for v in range(1, leaves + 1)))


def test_random_trimmed_nfas_match_the_oracle():
    rng = random.Random(5)
    kinds = assert_agrees(random_trimmed_nfa(rng, max_n=7, max_sigma=3, density=0.3)
                          for _ in range(600))
    assert {"order", "none", "violation"} <= set(kinds)


def test_wheeler_nfas_match_the_oracle():
    # drawn with ids in Wheeler order; shuffled, class rank and id order
    # disagree, so the order in which pairs are decided shows
    rng = random.Random(6)
    kinds = assert_agrees(shuffled(rng, random_wheeler_nfa(rng, max_n=10)[0])
                          for _ in range(500))
    assert set(kinds) == {"order"}


def test_pairs_are_decided_by_block_and_id_not_by_class():
    # classes {3, 4} < {1, 2} of one block; 3 < 4 would force 2 < 1, so
    # deciding 1 < 2 first leaves 4 < 3
    a = Automaton(OrderedAlphabet(("a",)), 5, 0, frozenset({1, 2}),
                  frozenset({(0, "a", 3), (0, "a", 4), (3, "a", 2), (4, "a", 1)}))
    for search in (oracle_nfa_wheeler_search, nfa_wheeler_search):
        assert search(a).sequence() == (0, 4, 3, 1, 2)


def test_input_consistent_nfas_match_the_oracle():
    rng = random.Random(7)
    kinds = assert_agrees(random_consistent_nfa(rng) for _ in range(800))
    assert {"order", "none"} <= set(kinds)


def test_stars_match_the_oracle():
    kinds = assert_agrees(star(k) for k in [*range(1, 46), 50, 60])
    assert set(kinds) == {"order"}


def test_tries_and_staircases_match_the_oracle():
    rng = random.Random(8)
    tries = [random_trie(rng, n) for n in (20, 50, 100, 150, 200, 300, 500)]
    kinds = assert_agrees(tries + [staircase(rng) for _ in range(200)])
    assert set(kinds) <= {"order", "budget"} and "budget" in kinds


def test_unreachable_state_is_an_error_not_a_key_error():
    a = parse_automaton("alphabet a b\nstates 3\ninitial 0\nfinal 1\n"
                        "edge 0 a 1\nedge 2 a 1\n")
    with pytest.raises(WheelerkitError, match="wants a trimmed automaton"):
        nfa_wheeler_search(a)
    with pytest.raises(WheelerkitError, match="wants a trimmed automaton"):
        gw_automaton_check(a)
