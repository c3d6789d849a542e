"""Deciding whether an automaton is Wheeler under its fixed alphabet order.

A Wheeler order is a total order on states with the initial state as minimum
(and no edges into it) such that, for any two edges (u1,a1,v1), (u2,a2,v2):

  (i)  a1 < a2                 implies  v1 < v2
  (ii) a1 = a2 and u1 < u2     implies  v1 <= v2

For DFAs the order, when it exists, is unique: sort states by the
co-lexicographic order of any word entering them; `dfa_wheeler_order` and
each alphabet order the GW check tries share that candidate.  For NFAs a
stable-rank refinement first splits each in-label block into ranked classes,
sorting states by the (min, max) rank of their in-edge sources until no
class splits; every Wheeler order agrees with those ranks, and the fixpoint
refutes every order when a class is inconsistent.  The refinement is
Hopcroft-style: a split re-keys only the successors of its smaller parts,
so a chain of n states costs about 2n re-keys, not n^2/2.  Existence
is then decided by backtracking over the orderings inside each class, in
one loop that scans, decides and propagates with no call or tuple per node,
and propagation pushes only pairs it does not know yet.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

from .alphabet import INITIAL_MARK
from .automaton import shortest_entering_words
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
        return tuple(sorted(range(len(self.ranks)), key=lambda q: self.ranks[q]))


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
    deterministic sweep.  Works for NFAs and DFAs alike.
    """
    ranks = order.ranks
    if len(ranks) != a.n or sorted(ranks) != list(range(a.n)):
        return WheelerViolation(
            ORDER_CONTRADICTION, tuple(ranks), "ranking is not a bijection onto 0..n-1")
    if ranks[a.initial] != 0:
        return WheelerViolation(
            ORDER_CONTRADICTION, (a.initial,), "the initial state is not the minimum")
    edge = min((e for e in a.edges if e[2] == a.initial), default=None)
    if edge is not None:
        return WheelerViolation(
            INITIAL_IN_EDGE, (edge,), f"edge {edge} enters the initial state")

    by_label = {}
    for e in a.edges:
        by_label.setdefault(e[1], []).append(e)

    # (i): all targets of an a-block must lie strictly below all targets of a
    # b-block when a < b; checking consecutive nonempty blocks suffices.
    prev_max = None
    for sym in a.alphabet.symbols:
        block = by_label.get(sym)
        if not block:
            continue
        lo = min(block, key=lambda e: (ranks[e[2]], ranks[e[0]]))
        hi = max(block, key=lambda e: (ranks[e[2]], ranks[e[0]]))
        if prev_max is not None and ranks[prev_max[2]] >= ranks[lo[2]]:
            return WheelerViolation(
                CONDITION_I, (prev_max, lo),
                f"{prev_max} does not precede {lo} despite the smaller label")
        prev_max = hi

    # (ii): within one label, targets may not decrease as sources increase.
    for sym in a.alphabet.symbols:
        block = by_label.get(sym)
        if not block:
            continue
        block.sort(key=lambda e: (ranks[e[0]], ranks[e[2]]))
        best = None  # edge with the largest target seen at a strictly smaller source
        for _, group in groupby(block, key=itemgetter(0)):
            group = list(group)
            if best is not None and ranks[best[2]] > ranks[group[0][2]]:
                return WheelerViolation(
                    CONDITION_II, (best, group[0]),
                    f"{best} and {group[0]} share label {sym} but cross the order")
            if best is None or ranks[group[-1][2]] > ranks[best[2]]:
                best = group[-1]
    return None


def dfa_wheeler_order(d):
    """Wheeler order of a trimmed DFA, or the violation refuting every order.

    Sorts states by the co-lex order of one entering word each, then verifies;
    for a DFA this candidate is the only order that can work.
    """
    if not d.deterministic:
        raise NotDeterministic("dfa_wheeler_order wants a DFA")
    lam = input_consistency(d)
    if isinstance(lam, WheelerViolation):
        return lam
    return _colex_candidate(d, _entering_words(d, "dfa_wheeler_order"))


def _entering_words(d, caller):
    """The (length, co-lex) least entering word of each state of a trimmed DFA."""
    entering, _ = shortest_entering_words(d, per_state=1)
    if not all(entering.values()):
        raise WheelerkitError(f"{caller} wants a trimmed automaton")
    return [ws[0] for ws in entering.values()]


def _colex_candidate(d, words):
    """DFA states sorted co-lex by `words`, or `verify_wheeler`'s first violation."""
    key = d.alphabet.colex_key
    order = WheelerOrder.from_sequence(sorted(range(d.n), key=lambda q: key(words[q])))
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
    `succ` and `pred`, taking out-edges by symbol name, which fixes the
    order of the work and so the node counts.  Decisions live on an
    explicit stack, so memory is O(states + edges + oriented pairs): an
    oriented pair is two set entries and two slots of the flat trail, and
    a decision two list slots and two ints, about 270 bytes per node at
    the tracemalloc peak of a 2,000-leaf star that runs out of budget.
    """

    def __init__(self, a, blocks, budget):
        self.blocks = blocks
        self.budget = budget
        self.nodes = 0
        self.block_of = [0] * a.n
        for bi, states in enumerate(blocks):
            for q in states:
                self.block_of[q] = bi
        self.succ, self.pred = a.succ, a.pred
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
        """
        cls = list(self.block_of)  # class id of each state
        members = [set(states) for states in self.blocks]
        start, pos = [], 0  # first position of each class, by id
        for states in self.blocks:
            start.append(pos)
            pos += len(states)

        def interval(q):
            ranks = [start[cls[u]] for sources in self.pred[q] for u in sources]
            return (min(ranks), max(ranks)) if ranks else (-1, -1)

        dirty = {}  # class id -> states to re-key, this round
        later = {c: set(states) for c, states in enumerate(members) if len(states) > 1}
        while dirty or later:
            if not dirty:
                dirty, later = later, {}
            c, keyed = dirty.popitem()
            self.count(len(keyed))
            rest = members[c]
            rest -= keyed
            parts = {}
            for q in keyed:
                parts.setdefault(interval(q), set()).add(q)
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
                    for q in part:
                        cls[q] = len(members)
                    members.append(part)
                    start.append(pos)
                pos += len(part)
            for part in order:
                if part is not largest:
                    for q in part:
                        for r in self.by_name:
                            for v in self.succ[q][r]:
                                d = cls[v]
                                if len(members[d]) > 1:
                                    pending = dirty if d in dirty else later
                                    pending.setdefault(d, set()).add(v)
        self.classes = [sorted(members[c]) for c in sorted(range(len(members)),
                                                            key=start.__getitem__)]
        for r, states in enumerate(self.classes):
            for q in states:
                self.rank[q] = r
        # A class of two or more with lo < hi has each state before the other;
        # a class whose lo lies below an earlier class's hi (same block) has a
        # state before one of an earlier class.  Otherwise cross-class source
        # pairs only push cross-class target pairs, and those agree with rank.
        top = None  # (block, hi) of the previous class, the block's largest hi
        for states in self.classes:
            lo, hi = interval(states[0])
            if len(states) > 1 and lo != hi:
                return False
            block = self.block_of[states[0]]
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
        taken.  The node count lives in a local until the loop exits."""
        order = [p for states in self.blocks for p in states]  # p in scan order
        n = len(order)
        classes, rank, below, above = self.classes, self.rank, self.below, self.above
        succ, sends, by_name = self.succ, self.sends, self.by_name
        budget, nodes, trail = self.budget, self.nodes, self.trail
        stack, decisions = [], []
        push, pop = stack.append, stack.pop
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
                        while j < len(mates) and (mates[j] in above_p or mates[j] in below_p):
                            j += 1
                        if j < len(mates):
                            q = mates[j]
                            break
                        k, j = k + 1, 0
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
                    trail.append(x)
                    trail.append(y)
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
                    decisions.append(mark)
                    decisions.append((k * n + j) * 2 + flipped)
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
        states = sorted(range(len(self.rank)),
                        key=lambda q: (self.rank[q], len(self.below[q])))
        return WheelerOrder.from_sequence(states)


def label_blocks(a, lam):
    """States grouped by in-label, blocks in alphabet order (the initial
    state's first), each listed by id."""
    if None in lam.labels:
        raise WheelerkitError("nfa_wheeler_search wants a trimmed automaton")
    label_rank = {INITIAL_MARK: -1}
    label_rank.update(a.alphabet.position)
    grouped = {}
    for q in range(a.n):
        grouped.setdefault(label_rank[lam[q]], []).append(q)
    return [sorted(grouped[r]) for r in sorted(grouped)]


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
