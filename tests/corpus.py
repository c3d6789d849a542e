"""Seeded random automaton corpora shared by the property and acceptance tests."""

import itertools

from wheelerkit import (
    Automaton,
    OrderedAlphabet,
    WheelerkitError,
    minimize,
    nfa_wheeler_search,
    trim_basic,
)
from wheelerkit.automaton import count_readable_words
from wheelerkit.minwdfa import certifying_depth
from wheelerkit.wheeler import WheelerOrder

SYMS = ("a", "b", "c")


def all_words(symbols, max_len):
    for length in range(max_len + 1):
        yield from itertools.product(symbols, repeat=length)


def random_trimmed_nfa(rng, max_n=5, max_sigma=3, density=0.3, force_eps=False):
    """Random trimmed NFA with a nonempty language."""
    while True:
        n = rng.randint(1 if force_eps else 2, max_n)
        sigma = rng.randint(1, max_sigma)
        alphabet = OrderedAlphabet(SYMS[:sigma])
        edges = set()
        for q in range(n):
            for s in alphabet.symbols:
                for t in range(n):
                    if rng.random() < density:
                        edges.add((q, s, t))
        finals = {q for q in range(n) if rng.random() < 0.4}
        if force_eps:
            finals.add(0)
        try:
            a = trim_basic(Automaton(alphabet, n, 0, frozenset(finals), frozenset(edges)))
        except WheelerkitError:
            continue
        if a.finals:
            return a


def random_feasible_dfa(rng, max_n=5, max_sigma=3, word_cap=300_000):
    """Random trimmed partial DFA whose bounded prefix enumeration stays
    under `word_cap` (so the construct-and-verify decider is applicable)."""
    while True:
        n = rng.randint(2, max_n)
        sigma = rng.randint(1, max_sigma)
        alphabet = OrderedAlphabet(SYMS[:sigma])
        edges = set()
        for q in range(n):
            for s in alphabet.symbols:
                if rng.random() < 0.45:
                    edges.add((q, s, rng.randrange(n)))
        finals = frozenset(q for q in range(n) if rng.random() < 0.4)
        try:
            a = trim_basic(Automaton(alphabet, n, 0, finals, frozenset(edges)))
        except WheelerkitError:
            continue
        if not a.finals or a.n < 2:
            continue
        d = minimize(a)
        if count_readable_words(d, certifying_depth(d.n)) > word_cap:
            continue
        return a


def random_wheeler_nfa(rng, max_n=8, max_sigma=3):
    """Random NFA that is Wheeler by construction, certified by the search.

    States are laid out in their intended order, in-labels ascend along it,
    and each label block receives a monotone staircase of edges so condition
    (ii) cannot fail.  Returns (automaton, certified order).
    """
    while True:
        n = rng.randint(3, max_n)
        sigma = rng.randint(2, min(max_sigma, n - 1))
        alphabet = OrderedAlphabet(SYMS[:sigma])
        cuts = sorted(rng.sample(range(2, n), sigma - 1)) if n > 2 else []
        bounds = [1] + cuts + [n]
        edges = set()
        for i in range(len(bounds) - 1):
            sym = alphabet.symbols[i]
            u = 0
            for v in range(bounds[i], bounds[i + 1]):
                u = min(u, n - 1)
                edges.add((u, sym, v))
                while rng.random() < 0.35:
                    u = min(u + rng.randint(0, 2), n - 1)
                    edges.add((u, sym, v))
                if rng.random() < 0.5:
                    u = min(u + rng.randint(0, 2), n - 1)
        finals = frozenset(q for q in range(n) if rng.random() < 0.5) or frozenset({n - 1})
        try:
            a = trim_basic(Automaton(alphabet, n, 0, finals, frozenset(edges)))
        except WheelerkitError:
            continue
        if a.n < 3:
            continue
        order = nfa_wheeler_search(a)
        if isinstance(order, WheelerOrder):
            return a, order


def random_trie(rng, n):
    """Random trie (tree DFA) with n states over a, b, c, as the benchmark's
    nfa-order workload draws them: leaves are final and so is each inner
    state with probability 0.2."""
    free = {0: list(SYMS)}
    edges = set()
    for q in range(1, n):
        u = rng.choice([p for p in free if free[p]])
        edges.add((u, free[u].pop(rng.randrange(len(free[u]))), q))
        free[q] = list(SYMS)
    finals = {q for q in range(n) if len(free[q]) == len(SYMS) or rng.random() < 0.2}
    return Automaton(OrderedAlphabet(SYMS), n, 0, frozenset(finals), frozenset(edges))


def enumerate_simple_cycles(a):
    """Labels of simple cycles, each read from its smallest state."""
    labels = []
    for root in range(a.n):
        stack = [(root, (), frozenset())]
        while stack:
            q, w, seen = stack.pop()
            for (u, sym, v) in sorted(a.edges):
                if u != q or v < root:
                    continue
                if v == root:
                    labels.append(w + (sym,))
                elif v not in seen:
                    stack.append((v, w + (sym,), seen | {v}))
    return labels


def enumerate_small_betweenness(elements=("y1", "y2", "y3"), max_triples=2):
    """Every instance over a fixed 3-element set with at most two triples,
    plus the trivially satisfiable smaller element sets."""
    from wheelerkit import BetweennessInstance

    instances = [BetweennessInstance(("y1",), ()),
                 BetweennessInstance(("y1", "y2"), ())]
    triples = list(itertools.permutations(elements, 3))
    instances.append(BetweennessInstance(elements, ()))
    for t in triples:
        instances.append(BetweennessInstance(elements, (t,)))
    if max_triples >= 2:
        for t1, t2 in itertools.combinations(triples, 2):
            instances.append(BetweennessInstance(elements, (t1, t2)))
    return instances
