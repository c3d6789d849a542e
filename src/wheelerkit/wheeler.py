"""Deciding whether an automaton is Wheeler under its fixed alphabet order.

A Wheeler order is a total order on states with the initial state as minimum
(and no edges into it) such that, for any two edges (u1,a1,v1), (u2,a2,v2):

  (i)  a1 < a2                 implies  v1 < v2
  (ii) a1 = a2 and u1 < u2     implies  v1 <= v2

For DFAs the order, when it exists, is unique: sort states by the
co-lexicographic order of any word entering them; `dfa_wheeler_order` and
each alphabet order the GW check tries share that candidate.  Each state's
least entering word is its parent's plus one symbol, so prefix doubling up
that parent tree ranks the words in about log2(depth) sorts and O(n)
memory, and no word is built.  For NFAs a stable-rank refinement first
splits each in-label block into ranked classes, sorting states by the
(min, max) rank of their in-edge sources until no class splits; every
Wheeler order agrees with those ranks, and the fixpoint refutes every
order when a class is inconsistent.  The refinement is
Hopcroft-style: a split re-keys only the successors of its smaller parts,
so a chain of n states costs about 2n re-keys, not n^2/2.  Existence
is then decided by backtracking over the orderings inside each class, in
one loop that scans, decides and propagates with no call or tuple per node,
and propagation pushes only pairs it does not know yet.  A state with no
out-edges is oriented before its open class mates in one run while that
pushes no pair, with the same decisions, trail and node count as one pair
at a time; the run's test reads only the mates after that state.  A
candidate order is verified in one pass over the edges.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass

from .alphabet import INITIAL_MARK
from .errors import (InternalDisagreement, NotDeterministic, SearchBudgetExceeded,
                     WheelerkitError)

INITIAL_IN_EDGE = "initial-has-in-edge"
INPUT_INCONSISTENT = "input-inconsistent"
CONDITION_I = "condition-i"
CONDITION_II = "condition-ii"
ORDER_CONTRADICTION = "order-contradiction"
DEFAULT_BUDGET = 10 ** 6


@dataclass(frozen=True)
class WheelerOrder:
    """ranks[state id] = position in the order (initial state must get 0)."""

    ranks: tuple

    @staticmethod
    def from_sequence(states):
        ranks = [0] * len(states)
        for pos, q in enumerate(states):
            ranks[q] = pos
        return WheelerOrder(tuple(ranks))

    def sequence(self):
        return WheelerOrder.from_sequence(self.ranks).ranks  # the inverse permutation


@dataclass(frozen=True)
class WheelerViolation:
    kind: str
    evidence: tuple  # the offending edges (or states) in a self-checkable form
    detail: str = ""

    def __str__(self):
        return f"{self.kind}: {self.detail}" if self.detail else self.kind


@dataclass(frozen=True)
class LambdaMap:
    """Per-state in-label; the initial state carries the reserved mark."""

    labels: tuple

    def __getitem__(self, q):
        return self.labels[q]


def input_consistency(a):
    """All in-edges of a state must share one label, and none may enter the
    initial state.  Returns the in-label map or the violation at the least
    offending state, from its in-edges sorted by (source, symbol, target)."""
    labels = [None] * a.n
    labels[a.initial] = INITIAL_MARK  # reserved: differs from every symbol
    bad = a.n
    for (_, sym, v) in a.edges:
        if labels[v] is None:
            labels[v] = sym
        elif labels[v] != sym and v < bad:
            bad = v
    if bad == a.n:
        return LambdaMap(tuple(labels))
    first, *rest = sorted(e for e in a.edges if e[2] == bad)
    if bad == a.initial:
        return WheelerViolation(
            INITIAL_IN_EDGE, (first,), f"edge {first} enters the initial state")
    edge = next(e for e in rest if e[1] != first[1])
    return WheelerViolation(
        INPUT_INCONSISTENT, (first, edge),
        f"state {bad} has in-labels {first[1]} and {edge[1]}")


def verify_wheeler(a, order):
    """Check a candidate order against the Wheeler conditions.

    Returns None when the order is valid, otherwise the first violation in a
    deterministic sweep.  Works for NFAs and DFAs alike.  One pass over the
    edges keeps the least and largest target rank per (label, source rank),
    and one sweep over those in order checks (i) and (ii).
    """
    ranks, n = order.ranks, a.n
    if len(ranks) != n or sorted(ranks) != list(range(n)):
        return WheelerViolation(
            ORDER_CONTRADICTION, tuple(ranks), "ranking is not a bijection onto 0..n-1")
    if ranks[a.initial] != 0:
        return WheelerViolation(
            ORDER_CONTRADICTION, (a.initial,), "the initial state is not the minimum")
    symbols = a.alphabet.symbols
    base = {sym: i * n for i, sym in enumerate(symbols)}
    lo, hi = {}, {}  # label position * n + source rank -> least, largest target rank
    for u, sym, v in a.edges:
        key, t = base[sym] + ranks[u], ranks[v]
        if t < lo.get(key, n):
            lo[key] = t
        if t > hi.get(key, -1):
            hi[key] = t
    if 0 in lo.values():  # rank 0 is the initial state's
        edge = min(e for e in a.edges if e[2] == a.initial)
        return WheelerViolation(
            INITIAL_IN_EDGE, (edge,), f"edge {edge} enters the initial state")

    # per nonempty label: [least target, its least key, largest target, its largest key]
    blocks, crossing, label = [], None, -1
    for key in sorted(lo):
        least, most = lo[key], hi[key]
        if key // n != label:
            label, best, best_key = key // n, most, key
            blocks.append(block := [least, key, most, key])
            continue
        if least < block[0]:
            block[0], block[1] = least, key
        if most >= block[2]:
            block[2], block[3] = most, key
        if best > least and crossing is None:  # (ii): a target below one of an earlier source
            crossing = (best_key, best, key, least)
        if most > best:
            best, best_key = most, key
    # (i): all targets of an a-block must lie strictly below all targets of a
    # b-block when a < b; checking consecutive nonempty blocks suffices.
    bad = next(((x, y) for x, y in zip(blocks, blocks[1:]) if x[2] >= y[0]), None)
    if bad is None and crossing is None:
        return None
    state = order.sequence()

    def edge(key, t):
        return (state[key % n], symbols[key // n], state[t])

    if bad is not None:
        prev_max, first = edge(bad[0][3], bad[0][2]), edge(bad[1][1], bad[1][0])
        return WheelerViolation(
            CONDITION_I, (prev_max, first),
            f"{prev_max} does not precede {first} despite the smaller label")
    larger, smaller = edge(*crossing[:2]), edge(*crossing[2:])
    return WheelerViolation(
        CONDITION_II, (larger, smaller),
        f"{larger} and {smaller} share label {smaller[1]} but cross the order")


def dfa_wheeler_order(d):
    """Wheeler order of a trimmed DFA, or the violation refuting every order.

    Ranks states by the co-lex order of one entering word each, then
    verifies; for a DFA this candidate is the only order that can work.
    """
    if not d.deterministic:
        raise NotDeterministic("dfa_wheeler_order wants a DFA")
    lam = input_consistency(d)
    if isinstance(lam, WheelerViolation):
        return lam
    return _colex_candidate(d, _entering_tree(d, "dfa_wheeler_order"))


def _entering_tree(d, caller):
    """(parent, symbol) per state of a trimmed DFA: its (length, co-lex)
    least entering word is its parent's plus that symbol, the least symbol
    into it from the previous length layer and, for that symbol, the layer's
    co-lex first source (the tests check the words against a Dijkstra walk
    over words).  The initial state is its own parent, with symbol None."""
    syms = d.alphabet.symbols
    parent, symbol = [None] * d.n, [None] * d.n
    parent[d.initial] = d.initial
    layer = [d.initial]
    while layer:
        children = [[] for _ in syms]
        for q in layer:
            for i, targets in enumerate(d.succ[q]):
                for t in targets:
                    if parent[t] is None:
                        children[i].append((q, t))
        layer = []
        for s, group in zip(syms, children):
            for q, t in group:
                if parent[t] is None:
                    parent[t], symbol[t] = q, s
                    layer.append(t)
    if None in parent:
        raise WheelerkitError(f"{caller} wants a trimmed automaton")
    return parent, symbol


def _colex_candidate(d, tree):
    """DFA states ranked co-lex by the words of `tree` (from `_entering_tree`,
    read under `d`'s alphabet order), or `verify_wheeler`'s first violation.

    A word read backwards is the symbol path from its state up to the root,
    so prefix doubling ranks them: rank the first two symbols of each path,
    then each round ranks twice as many as the pair (rank here, rank at the
    ancestor that many steps up), the root's empty path lowest, until the
    ranks are distinct, as a DFA's words are.  About log2(depth) sorts of n
    pairs, and no word is built.
    """
    parent, symbol = tree
    pos = d.alphabet.position
    rank = [0 if s is None else pos[s] + 1 for s in symbol]
    m = max(d.n, len(pos)) + 1  # (rank, rank) pairs packed as rank * m + rank
    keys = [x * m + rank[u] for x, u in zip(rank, parent)]
    up = [parent[u] for u in parent]
    while True:
        states = sorted(range(d.n), key=keys.__getitem__)
        r, last = 0, None
        for q in states:
            if keys[q] != last:
                r, last = r + 1, keys[q]
            rank[q] = r
        if r == d.n:
            break
        keys = [x * m + rank[u] for x, u in zip(rank, up)]
        up = [up[u] for u in up]
    order = WheelerOrder.from_sequence(states)
    return verify_wheeler(d, order) or order


class _OrderSearch:
    """Backtracking over the orders inside ranked classes, with propagation.

    Blocks (states grouped by in-label) are already totally ordered by the
    alphabet, so condition (i) holds structurally.  `refine` first splits
    the blocks into ranked classes whose order every Wheeler order shares,
    so a pair of states in different classes is fixed and compared by rank,
    in O(1) and never stored.  The search decides the relative order of
    same-class pairs.  Orienting u1 < u2 forces v1 < v2 for every pair of
    equally labeled edges with targets v1 != v2, and order relations are
    kept transitively closed inside each class; propagation pushes only
    pairs not yet known, so each node orients a pair or finds a
    contradiction, bar pairs that another step orients while they wait on
    the stack.  The search keeps no edge map: it reads the automaton's
    `succ`, taking out-edges by symbol name, which fixes the order of the
    work and so the node counts, and one list of sources per state.
    Decisions live on an explicit stack, so memory is O(states + edges +
    oriented pairs): an oriented pair is two set entries and two slots of
    the flat trail, and a decision two list slots and two ints, about 270
    bytes per node at the tracemalloc peak of a 2,000-leaf star that runs
    out of budget.
    """

    def __init__(self, a, blocks, budget):
        self.blocks = blocks
        self.budget = budget
        self.nodes = 0
        self.block_of = [0] * a.n
        for bi, states in enumerate(blocks):
            for q in states:
                self.block_of[q] = bi
        self.succ = a.succ
        self.sources = [[] for _ in range(a.n)]  # in-edge sources; one in-label each
        for u, _, v in a.edges:
            self.sources[v].append(u)
        self.sends = [any(row) for row in a.succ]  # has out-edges
        self.by_name = sorted(range(len(a.alphabet)), key=a.alphabet.symbols.__getitem__)
        self.rank = list(self.block_of)  # class position; classes refine blocks
        self.classes = [list(states) for states in blocks]  # by rank, each by id
        self.below = [set() for _ in range(a.n)]  # class mates known to precede
        self.above = [set() for _ in range(a.n)]  # class mates known to follow
        self.trail = []  # oriented pairs flat (p0, q0, p1, q1, ...: p before q), oldest first

    def count(self, nodes):
        self.nodes += nodes
        if self.nodes > self.budget:
            raise SearchBudgetExceeded(f"order search passed {self.budget} nodes")

    def refine(self):
        """Split classes by source interval until none splits; False when
        the fixpoint shows that no Wheeler order exists.

        By condition (ii), a source of v in an earlier class than a source
        of w puts v before w, so sorting a class by the (min, max) rank of
        its states' sources gives an order every Wheeler order shares.  A
        class's rank is its start position, so a split moves no other
        class.  Hopcroft-style, a split keeps the class id for its largest
        part and re-keys only the out-edge targets of the other parts: the
        states that are not re-keyed had one key and still share one, as
        their sources in the split class all stayed in the largest part.
        The first step keys every state of a class of two or more; each
        re-key of a state in such a class counts one node.  Re-keys run in
        rounds: a state whose class still waits in this round joins it,
        others wait for the next, so no state is re-keyed twice in a round
        and no more rounds run than full rounds over every class would.
        A key reads the state's sources from one flat list, built in one
        pass over the edges, and a state with one source skips the min and
        max.  Classes with one state skip the sort; the same loop then
        assigns dense ranks and checks the fixpoint.
        """
        cls = list(self.block_of)  # class id of each state
        members = [set(states) for states in self.blocks]
        start, pos = [], 0  # first position of each class, by id
        for states in self.blocks:
            start.append(pos)
            pos += len(states)
        sources, succ, by_name = self.sources, self.succ, self.by_name

        def interval(q):
            us = sources[q]
            if len(us) == 1:
                r = start[cls[us[0]]]
                return (r, r)
            ranks = [start[cls[u]] for u in us]
            return (min(ranks), max(ranks)) if ranks else (-1, -1)

        dirty = defaultdict(set)  # class id -> states to re-key, this round
        later = defaultdict(set, {c: set(states) for c, states in enumerate(members)
                                  if len(states) > 1})
        while dirty or later:
            if not dirty:
                dirty, later = later, defaultdict(set)
            c, keyed = dirty.popitem()
            self.count(len(keyed))
            rest = members[c]
            rest -= keyed
            parts = defaultdict(set)
            for q in keyed:
                parts[interval(q)].add(q)
            if rest:  # they share one key; pop() finds one of them in O(1),
                # where next(iter(rest)) would scan the slots emptied above
                r = rest.pop()
                rest.add(r)
                key = interval(r)
                rest.update(parts.get(key, ()))
                parts[key] = rest
            if len(parts) == 1:
                members[c], = parts.values()
                continue
            order = [parts[key] for key in sorted(parts)]
            largest = max(order, key=len)
            pos = start[c]
            for part in order:
                if part is largest:
                    members[c], start[c] = part, pos
                else:
                    d = len(members)
                    for q in part:
                        cls[q] = d
                    members.append(part)
                    start.append(pos)
                pos += len(part)
            for part in order:
                if part is not largest:
                    for q in part:
                        row = succ[q]
                        for r in by_name:
                            for v in row[r]:
                                d = cls[v]
                                if len(members[d]) > 1:
                                    (dirty if d in dirty else later)[d].add(v)
        # A class of two or more with lo < hi has each state before the other;
        # a class whose lo lies below an earlier class's hi (same block) has a
        # state before one of an earlier class.  Otherwise cross-class source
        # pairs only push cross-class target pairs, and those agree with rank.
        classes, rank, block_of = [], self.rank, self.block_of
        self.classes = classes
        top = None  # (block, hi) of the previous class, the block's largest hi
        for c in sorted(range(len(members)), key=start.__getitem__):
            states, r = members[c], len(classes)
            states = sorted(states) if len(states) > 1 else list(states)
            for q in states:
                rank[q] = r
            classes.append(states)
            lo, hi = interval(states[0])
            if len(states) > 1 and lo != hi:
                return False
            block = block_of[states[0]]
            if top is not None and top[0] == block and top[1] > lo:
                return False
            top = (block, hi)
        return True

    def solve(self):
        """Depth first: orient the first open pair one way, then the other.

        One loop over locals scans for the first open pair, decides it and
        drains the propagation stack, one node per pair popped.  Pairs p
        before q of class mates come in the order (block, id of p, id of
        q > id of p); pairs before a decision stay oriented below it, so
        scans resume there.  Orienting x before y pushes the implied target
        pairs not known to be in that order, then the closure pairs.  The
        stack holds pairs flat, and a decision is its trail mark and one
        int packing its pair's position and whether its second way is
        taken.  The node count lives in a local until the loop exits.

        A scan that finds p with no out-edges runs on through p's open
        class mates q while below[p] <= below[q] and above[q] <= above[p]:
        orienting p before such a q pushes no target pair (p has none) and
        no closure pair, so the run spends the node, appends the decision
        and the two trail slots the general path would, and skips the
        stack.  The first q that fails the test takes the general path.
        The first test reads only the mates after p, collected once per p,
        which is exact: every pair with a mate before p is oriented and the
        relation is closed, so an r before p below p is below q, or q would
        precede p.  The second has failed on no input tried, and stays as a
        guard."""
        order = [p for states in self.blocks for p in states]  # p in scan order
        n = len(order)
        classes, rank, below, above = self.classes, self.rank, self.below, self.above
        succ, sends, by_name = self.succ, self.sends, self.by_name
        budget, nodes, trail = self.budget, self.nodes, self.trail
        stack, decisions = [], []
        push, pop, decide, record = stack.append, stack.pop, decisions.append, trail.append
        k = j = 0  # scan position: order[k] and its class mate at j (0: the first after it)
        flipped = False
        try:
            while True:
                if not flipped:  # scan for the first open pair at or after (k, j)
                    while k < n:
                        p = order[k]
                        mates = classes[rank[p]]
                        j = j or bisect_right(mates, p)
                        above_p, below_p = above[p], below[p]
                        later = None  # mates after p known to precede it, once p runs
                        while j < len(mates):
                            q = mates[j]
                            if q in above_p or q in below_p:
                                j += 1
                                continue
                            if later is None:
                                if sends[p]:
                                    break
                                later = {r for r in below_p if r > p}
                            below_q = below[q]
                            if not (later <= below_q and above[q] <= above_p):
                                break
                            # the sink run: p before q pushes no pair
                            nodes += 1
                            if nodes > budget:
                                raise SearchBudgetExceeded(f"order search passed {budget} nodes")
                            decide(len(trail))
                            decide((k * n + j) * 2)
                            below_q.add(p)
                            above_p.add(q)
                            record(p)
                            record(q)
                            j += 1
                        else:
                            k, j = k + 1, 0
                            continue
                        break
                    else:
                        return True
                mark = len(trail)
                if flipped:
                    push(q)
                    push(p)
                else:
                    push(p)
                    push(q)
                while stack:
                    nodes += 1
                    if nodes > budget:
                        raise SearchBudgetExceeded(f"order search passed {budget} nodes")
                    y = pop()
                    x = pop()
                    if rank[x] != rank[y]:
                        break  # a cross-class pair is pushed only out of rank order
                    below_y, below_x = below[y], below[x]
                    if x in below_y:
                        continue
                    if y in below_x:
                        break
                    above_x = above[x]
                    below_y.add(x)
                    above_x.add(y)
                    record(x)
                    record(y)
                    if sends[x] and sends[y]:
                        row_x, row_y = succ[x], succ[y]
                        for r in by_name:
                            for v in row_x[r]:
                                for w in row_y[r]:
                                    if v != w and (rank[v] > rank[w] or rank[v] == rank[w]
                                                   and v not in below[w]):
                                        push(v)
                                        push(w)
                    # close transitively: r < x gives r < y, and y < r gives x < r
                    below_x = below_x and below_x - below_y
                    above_y = above[y] and above[y] - above_x
                    if below_x or above_y:
                        for r in sorted(below_x | above_y):
                            if r in below_x:
                                push(r)
                                push(y)
                            if r in above_y:
                                push(x)
                                push(r)
                else:
                    decide(mark)
                    decide((k * n + j) * 2 + flipped)
                    flipped = False
                    continue
                stack.clear()
                while flipped:  # both ways failed: back up to a decision with one left
                    if not decisions:
                        return False
                    code = decisions.pop()
                    mark = decisions.pop()
                    (k, j), flipped = divmod(code >> 1, n), code & 1
                for i in range(mark, len(trail), 2):
                    below[trail[i + 1]].discard(trail[i])
                    above[trail[i]].discard(trail[i + 1])
                del trail[mark:]
                p = order[k]
                q = classes[rank[p]][j]
                flipped = True
        finally:
            self.nodes = nodes

    def extract_order(self):
        """The order `solve` left: each class in rank order, and inside one
        the state with i mates below it at the class's i-th position."""
        ranks, below, pos = [0] * len(self.rank), self.below, 0
        for states in self.classes:
            for q in states:
                ranks[q] = pos + len(below[q])
            pos += len(states)
        return WheelerOrder(tuple(ranks))


def label_blocks(a, lam):
    """States grouped by in-label, blocks in alphabet order (the initial
    state's first), each listed by id."""
    if None in lam.labels:
        raise WheelerkitError("nfa_wheeler_search wants a trimmed automaton")
    grouped = defaultdict(list)
    for q, label in enumerate(lam.labels):
        grouped[label].append(q)
    return [grouped[INITIAL_MARK]] + [grouped[s] for s in a.alphabet.symbols if s in grouped]


def nfa_wheeler_search(a, budget=DEFAULT_BUDGET):
    """Find some Wheeler order for an NFA, if one exists.

    Returns a WheelerOrder, or an input-consistency WheelerViolation, or None
    when the exhaustive search proves no order works.  Raises
    SearchBudgetExceeded when the node budget (refinement re-keys plus
    propagation steps, one per pair pushed while not yet oriented) runs out
    first, and WheelerkitError when a state other than the initial one has
    no in-edge.
    """
    lam = input_consistency(a)
    if isinstance(lam, WheelerViolation):
        return lam
    search = _OrderSearch(a, label_blocks(a, lam), budget)
    if not search.refine() or not search.solve():
        return None
    order = search.extract_order()
    violation = verify_wheeler(a, order)
    if violation is not None:
        raise InternalDisagreement(f"order search produced an invalid order: {violation}")
    return order
