"""Answer keys the benchmark checks every verdict against.

Nothing here calls wheelerkit: each key is a small, direct computation over
the automaton's edges (subset walks, brute-force permutations, pairwise
checks of the Wheeler conditions), so a wrong verdict from the program cannot
be mirrored by its own answer key.  The trimming and minimum DFA here serve
input selection in workloads.py, for the same reason.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


@dataclass(frozen=True)
class Alphabet:
    symbols: tuple


@dataclass(frozen=True)
class Nfa:
    """An automaton the benchmark builds itself.  It has the fields the keys
    read, so every key works on it and on wheelerkit's Automaton alike."""

    alphabet: Alphabet
    n: int
    initial: int
    finals: frozenset
    edges: frozenset


def colex_key(symbols, word):
    """Co-lex sort key of a word under the symbol order `symbols`."""
    rank = {s: i for i, s in enumerate(symbols)}
    return tuple(rank[s] for s in reversed(word))


def successors(a):
    """(state, symbol) -> set of targets."""
    out = {}
    for (u, s, v) in a.edges:
        out.setdefault((u, s), set()).add(v)
    return out


def useful_states(a):
    """States reachable from the initial state and co-reachable to a final
    state."""
    succ, pred = {}, {}
    for (u, _, v) in a.edges:
        succ.setdefault(u, set()).add(v)
        pred.setdefault(v, set()).add(u)

    def closure(start, step):
        seen, stack = set(start), list(start)
        while stack:
            for t in step.get(stack.pop(), ()):
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return seen

    return closure({a.initial}, succ) & closure(a.finals, pred)


def trim(a):
    """Keep the useful states (the initial state must be one), renumbered in
    their old relative order."""
    keep = useful_states(a)
    rename = {q: i for i, q in enumerate(sorted(keep))}
    return Nfa(a.alphabet, len(keep), rename[a.initial],
               frozenset(rename[q] for q in a.finals if q in keep),
               frozenset((rename[u], s, rename[v]) for (u, s, v) in a.edges
                         if u in keep and v in keep))


def minimum_dfa(a):
    """Minimum trimmed DFA of an NFA whose initial state is co-reachable:
    subset construction, Moore refinement, then states numbered breadth first
    from the initial state in alphabet order (a unique numbering)."""
    out = successors(a)
    syms = a.alphabet.symbols
    subsets = [frozenset({a.initial})]
    ids = {subsets[0]: 0}
    edges = set()
    for subset in subsets:
        for s in syms:
            nxt = frozenset(t for q in subset for t in out.get((q, s), ()))
            if nxt:
                if nxt not in ids:
                    ids[nxt] = len(subsets)
                    subsets.append(nxt)
                edges.add((ids[subset], s, ids[nxt]))
    finals = frozenset(i for i, subset in enumerate(subsets) if subset & a.finals)
    d = trim(Nfa(a.alphabet, len(subsets), 0, finals, frozenset(edges)))
    step = {(u, s): v for (u, s, v) in d.edges}
    block = [int(q in d.finals) for q in range(d.n)]
    while True:
        sigs = {}
        new = [sigs.setdefault((block[q],) + tuple(block[step[q, s]] if (q, s) in step else -1
                                                   for s in syms), len(sigs))
               for q in range(d.n)]
        if len(sigs) == len(set(block)):
            break
        block = new
    quotient = {(block[u], s): block[v] for (u, s, v) in d.edges}
    rename = {block[d.initial]: 0}
    queue = [block[d.initial]]
    for q in queue:
        for s in syms:
            t = quotient.get((q, s))
            if t is not None and t not in rename:
                rename[t] = len(rename)
                queue.append(t)
    return Nfa(a.alphabet, len(rename), 0, frozenset(rename[block[q]] for q in d.finals),
               frozenset((rename[u], s, rename[v]) for (u, s), v in quotient.items()))


def is_universal(a):
    """Exact universality of an NFA (no epsilon moves) over its alphabet: every
    subset reachable from {initial} must contain a final state."""
    out = successors(a)
    start = frozenset({a.initial})
    seen = {start}
    stack = [start]
    while stack:
        subset = stack.pop()
        if not subset & a.finals:
            return False
        for s in a.alphabet.symbols:
            nxt = frozenset(t for q in subset for t in out.get((q, s), ()))
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return True


def betweenness_satisfiable(elements, triples):
    """Brute force over all orders of the elements."""
    return any(order_satisfies(elements, perm, triples)
               for perm in itertools.permutations(elements))


def order_satisfies(elements, order, triples):
    """`order` lists every element once and puts each triple's middle
    element between the other two."""
    if sorted(order) != sorted(elements):
        return False
    pos = {y: i for i, y in enumerate(order)}
    return all(pos[x] < pos[y] < pos[z] or pos[x] > pos[y] > pos[z]
               for (x, y, z) in triples)


def wheeler_order_ok(a, ranks, symbols=None):
    """Pairwise check of a state order against the Wheeler conditions.

    The initial state has rank 0 and no in-edges, and for every two edges
    (u1, a1, v1), (u2, a2, v2): (i) a1 < a2 implies v1 < v2, and (ii) a1 == a2
    and u1 < u2 imply v1 <= v2.  `symbols` overrides the alphabet order.
    """
    symbols = a.alphabet.symbols if symbols is None else tuple(symbols)
    if sorted(ranks) != list(range(a.n)) or ranks[a.initial] != 0:
        return False
    rank_of = {s: i for i, s in enumerate(symbols)}
    edges = list(a.edges)
    if any(v == a.initial for (_, _, v) in edges):
        return False
    for (u1, s1, v1) in edges:
        for (u2, s2, v2) in edges:
            if rank_of[s1] < rank_of[s2] and not ranks[v1] < ranks[v2]:
                return False
            if s1 == s2 and ranks[u1] < ranks[u2] and not ranks[v1] <= ranks[v2]:
                return False
    return True


def dfa_colex_ranks(d, symbols=None):
    """Ranks of a trimmed DFA's states by the co-lex order of one shortest
    entering word each: the only order that can be Wheeler for a DFA."""
    symbols = d.alphabet.symbols if symbols is None else tuple(symbols)
    out = successors(d)
    word = {d.initial: ()}
    frontier = [d.initial]
    while frontier:
        nxt = []
        for q in frontier:
            for s in symbols:
                for t in out.get((q, s), ()):
                    if t not in word:
                        word[t] = word[q] + (s,)
                        nxt.append(t)
        frontier = nxt
    ordered = sorted(word, key=lambda q: colex_key(symbols, word[q]))
    ranks = [0] * d.n
    for pos, q in enumerate(ordered):
        ranks[q] = pos
    return tuple(ranks)
