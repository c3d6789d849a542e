"""The three hardness-reduction gadgets, as executable constructions.

Each reduction takes a problem instance and emits an automaton whose
(generalized) Wheelerness encodes the instance's answer:

  * universality of an NFA        <->  Wheelerness of the language of A''
  * Wheelerness of an NFA         <->  generalized Wheelerness of A'
  * betweenness satisfiability    <->  generalized Wheelerness of a DFA

Fresh symbols are minted with a trailing '!' whenever a preferred name
collides with an input symbol.
"""

from __future__ import annotations

from dataclasses import dataclass

from .alphabet import OrderedAlphabet
from .automaton import Automaton, empty_language_automaton
from .errors import PreconditionViolated


@dataclass(frozen=True)
class ReductionReport:
    automaton: Automaton
    fresh_symbols: tuple
    states_added: int
    symbols_added: int


def mint_symbols(taken, names):
    """Pick fresh tokens near the preferred names, avoiding `taken`."""
    taken = set(taken)
    fresh = []
    for name in names:
        candidate = name
        while candidate in taken:
            candidate += "!"
        taken.add(candidate)
        fresh.append(candidate)
    return tuple(fresh)


def reduce_universality(a):
    """Universality-to-Wheelerness: emit A'' with language a(Lc)*L + b(S+c)*.

    Wants a trimmed NFA accepting the empty word.  A' adds a c-back-edge from
    every final state to the initial state; A'' prepends a fresh initial that
    branches on `a` into A' and on `b` into an all-accepting sink.  The fresh
    symbols are appended to the alphabet in the order a, b, c.
    """
    if a.initial not in a.finals:
        raise PreconditionViolated(
            "the input must accept the empty word (initial state final)")
    sym_a, sym_b, sym_c = mint_symbols(a.alphabet.symbols, ("a", "b", "c"))
    alphabet = OrderedAlphabet(a.alphabet.symbols + (sym_a, sym_b, sym_c))
    new_initial = a.n
    sink = a.n + 1
    edges = set(a.edges)
    edges.update((f, sym_c, a.initial) for f in a.finals)
    edges.add((new_initial, sym_a, a.initial))
    edges.add((new_initial, sym_b, sink))
    for sym in a.alphabet.symbols + (sym_c,):
        edges.add((sink, sym, sink))
    out = Automaton(alphabet, a.n + 2, new_initial,
                    a.finals | {sink}, frozenset(edges))
    return ReductionReport(out, (sym_a, sym_b, sym_c), 2, 3)


def reduce_nfa_wheeler_to_gw(a):
    """Wheeler-to-GW: one seven-state gadget per consecutive symbol pair.

    Wants a trimmed NFA whose initial state has no in-edges.  For each pair
    (a_i, a_{i+1}) of order-adjacent symbols, the gadget pins their relative
    order inside any alphabet order making the output Wheeler:

        q0 -a_{i+1}-> g3 -x_i-> g5 -x_i-> g7 -a_i-> g2 -x_i-> g5,  g5 -e-> qe
        q0 -x_i->     g4 -x_i-> g6 -a_i-> g1 -x_i-> g4,            g4 -f-> qf

    The output alphabet order is a_1 .. a_sigma, x_1 .. x_{sigma-1}, e, f.
    """
    if any(a.pred[a.initial]):
        raise PreconditionViolated("the initial state must have no in-edges")
    sigma = len(a.alphabet)
    x_names = [f"x{i}" for i in range(1, sigma)]
    fresh = mint_symbols(a.alphabet.symbols, x_names + ["e", "f"])
    xs, sym_e, sym_f = fresh[:-2], fresh[-2], fresh[-1]
    alphabet = OrderedAlphabet(a.alphabet.symbols + fresh)
    if sigma < 2:
        # no adjacent pair, hence no gadget; the sinks would dangle untrimmed
        out = Automaton(alphabet, a.n, a.initial, a.finals, a.edges)
        return ReductionReport(out, fresh, 0, len(fresh))

    q_e = a.n
    q_f = a.n + 1
    edges = set(a.edges)
    for i in range(1, sigma):
        low, high = a.alphabet.symbols[i - 1], a.alphabet.symbols[i]
        x = xs[i - 1]
        g = {s: a.n + 2 + 7 * (i - 1) + (s - 1) for s in range(1, 8)}
        edges.update([
            (a.initial, high, g[3]), (g[3], x, g[5]), (g[5], x, g[7]),
            (g[7], low, g[2]), (g[2], x, g[5]), (g[5], sym_e, q_e),
            (a.initial, x, g[4]), (g[4], x, g[6]), (g[6], low, g[1]),
            (g[1], x, g[4]), (g[4], sym_f, q_f),
        ])
    n = a.n + 2 + 7 * (sigma - 1)
    out = Automaton(alphabet, n, a.initial, a.finals | {q_e, q_f}, frozenset(edges))
    return ReductionReport(out, fresh, n - a.n, len(fresh))


def reduce_betweenness_to_dfa(inst):
    """Betweenness-to-GW: a DFA whose alphabet order must sort the elements.

    Per triple (a_i, b_i, c_i) two three-cycles labeled x_i b_i x_i hang off
    the entry states of a_i and c_i; the first exits on e, the second on f.
    Entry states exist only for elements used as a first or third component.
    """
    used = set()
    for (first, _, third) in inst.triples:
        used.add(first)
        used.add(third)
    k = len(inst.triples)
    x_names = [f"x{i}" for i in range(1, k + 1)]
    fresh = mint_symbols(inst.elements, x_names + ["e", "f"])
    xs, sym_e, sym_f = fresh[:-2], fresh[-2], fresh[-1]
    alphabet = OrderedAlphabet(tuple(inst.elements) + fresh)

    if k == 0:
        return ReductionReport(empty_language_automaton(alphabet), fresh, 0, len(fresh))

    entry = {}
    for y in inst.elements:
        if y in used:
            entry[y] = 1 + len(entry)
    base = 1 + len(entry)
    q_e = base + 6 * k
    q_f = q_e + 1
    edges = {(0, y, entry[y]) for y in entry}
    for i, (first, mid, third) in enumerate(inst.triples, start=1):
        x = xs[i - 1]
        g = {s: base + 6 * (i - 1) + (s - 1) for s in range(1, 7)}
        edges.update([
            (entry[first], x, g[1]), (g[1], x, g[3]), (g[3], mid, g[5]),
            (g[5], x, g[1]), (g[1], sym_e, q_e),
            (entry[third], x, g[2]), (g[2], x, g[4]), (g[4], mid, g[6]),
            (g[6], x, g[2]), (g[2], sym_f, q_f),
        ])
    n = q_f + 1
    out = Automaton(alphabet, n, 0, frozenset({q_e, q_f}), frozenset(edges))
    return ReductionReport(out, fresh, n, len(fresh))
