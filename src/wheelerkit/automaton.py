"""Finite automata and the classical constructions.

An Automaton is an NFA over an ordered alphabet with a single initial state;
DFAs are just automata where every (state, symbol) has at most one out-edge.
Every operation is a pure function returning fresh values.

Readers get the transition function from three views of `edges`, built once
per automaton and indexed by state and symbol rank (position in the
alphabet): `succ[q][r]` and `pred[q][r]` are the sorted targets of q's
rank-r out-edges and the sorted sources of its rank-r in-edges, and, for a
DFA only, `delta[q][r]` is the one target or None (reading `delta` on an
NFA raises NotDeterministic).  These are the only per-state edge indexes,
and they are shared: never mutate a row.  They have one row per declared
state, so `trim_basic`, which runs on raw input, reads `edges` instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from operator import itemgetter

from .alphabet import OrderedAlphabet
from .errors import (
    AlphabetMismatch,
    FormatError,
    NotDeterministic,
    StateBlowupExceeded,
    WheelerkitError,
)


@dataclass(frozen=True)
class Automaton:
    """States are 0..n-1; edges are (source, symbol, target) triples."""

    alphabet: OrderedAlphabet
    n: int
    initial: int
    finals: frozenset
    edges: frozenset

    def __post_init__(self):
        object.__setattr__(self, "finals", frozenset(self.finals))
        object.__setattr__(self, "edges", frozenset(self.edges))
        if self.n < 1:
            raise WheelerkitError("an automaton needs at least one state")
        if not 0 <= self.initial < self.n:
            raise WheelerkitError(f"initial state {self.initial} out of range")
        for q in self.finals:
            if not 0 <= q < self.n:
                raise WheelerkitError(f"final state {q} out of range")
        for (u, a, v) in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise WheelerkitError(f"edge {(u, a, v)} out of range")
            if a not in self.alphabet:
                raise WheelerkitError(f"edge symbol {a!r} not in alphabet")

    @cached_property
    def deterministic(self):
        return len({(u, a) for (u, a, _) in self.edges}) == len(self.edges)

    def _table(self, triples):
        """Rows by state of sorted tuples, from (state, symbol, other) triples."""
        pos = self.alphabet.position
        rows = [[()] * len(self.alphabet) for _ in range(self.n)]
        for (q, a), group in groupby(sorted(triples), key=itemgetter(0, 1)):
            rows[q][pos[a]] = tuple(t for _, _, t in group)
        return rows

    @cached_property
    def succ(self):
        """succ[q][r]: sorted targets of q's edges labelled by the rank-r symbol."""
        return self._table(self.edges)

    @cached_property
    def pred(self):
        """pred[q][r]: sorted sources of the edges into q labelled by the rank-r symbol."""
        return self._table((v, a, u) for (u, a, v) in self.edges)

    @cached_property
    def delta(self):
        """delta[q][r]: target of q's edge labelled by the rank-r symbol, or None."""
        if not self.deterministic:
            raise NotDeterministic("the transition table wants a DFA")
        pos = self.alphabet.position
        rows = [[None] * len(self.alphabet) for _ in range(self.n)]
        for (u, a, v) in self.edges:
            rows[u][pos[a]] = v
        return rows

    def step(self, states, sym):
        r = self.alphabet.position.get(sym)
        if r is None:
            return frozenset()
        return frozenset(t for q in states for t in self.succ[q][r])


def run(a, w, start=None):
    """Reach set of `w` read from `start` (default: the initial state).

    The empty set means the word is not readable.  `start` accepts any
    iterable of states, which covers the run-from-a-set-of-states variant.
    """
    states = frozenset(start) if start is not None else frozenset({a.initial})
    for sym in w:
        states = a.step(states, sym)
        if not states:
            break
    return states


def accepts(a, w):
    return bool(run(a, w) & a.finals)


def dfa_walk(d, w, start=None):
    """State reached by `w` in a DFA, or None when the walk dies."""
    delta, pos = d.delta, d.alphabet.position
    q = d.initial if start is None else start
    for sym in w:
        r = pos.get(sym)
        q = None if r is None else delta[q][r]
        if q is None:
            return None
    return q


def entering_layers(d, words, max_len, budget):
    """Every word entering each state of a DFA, by (length, co-lex): appends
    them to the lists in `words` (state -> list), extends none past
    `max_len`, and yields after each length layer, False once it is all
    taken, or True, last, when it would take more than `budget` words.

    In a DFA each word reaches one state, and the co-lex key of w + (s,) is
    the rank of s followed by the key of w, so the next layer in co-lex
    order is, per symbol in rank order, the extensions of the current layer
    in its order.
    """
    syms = d.alphabet.symbols
    layer = [((), d.initial)]
    while layer:
        children = [[] for _ in syms]
        for w, q in layer:
            budget -= 1
            if budget < 0:
                yield True
                return
            words[q].append(w)
            if len(w) >= max_len:
                continue
            for i, targets in enumerate(d.succ[q]):
                for t in targets:
                    children[i].append((w + (syms[i],), t))
        layer = [child for group in children for child in group]
        yield False


def parse_automaton(text):
    """Parse the line-oriented automaton format.

    Header lines `alphabet`, `states`, `initial`, `final` in that order,
    then one `edge <src> <sym> <dst>` line per edge.  `#` starts a comment.
    """
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        lines.append((lineno, stripped.split()))

    rest = iter(lines)

    def take(expected):
        line = next(rest, None)
        if line is None:
            raise FormatError(f"missing {expected} line")
        lineno, toks = line
        if toks[0] != expected:
            raise FormatError(f"expected {expected!r}, found {toks[0]!r}", lineno)
        return lineno, toks[1:]

    lineno, syms = take("alphabet")
    try:
        alphabet = OrderedAlphabet(tuple(syms))
    except WheelerkitError as exc:
        raise FormatError(str(exc), lineno) from None

    lineno, toks = take("states")
    # ASCII digits only: str.isdigit() also accepts digits such as '²'
    if len(toks) != 1 or not (toks[0].isascii() and toks[0].isdigit()):
        raise FormatError("states wants one non-negative integer", lineno)
    n = int(toks[0])
    if n < 1:
        raise FormatError("states must be at least 1", lineno)

    def state_id(tok, lineno):
        if not (tok.isascii() and tok.isdigit()) or not int(tok) < n:
            raise FormatError(f"undefined state {tok!r}", lineno)
        return int(tok)

    lineno, toks = take("initial")
    if len(toks) != 1:
        raise FormatError("initial wants exactly one state id", lineno)
    initial = state_id(toks[0], lineno)

    lineno, toks = take("final")
    finals = frozenset(state_id(t, lineno) for t in toks)

    edges = set()
    for lineno, toks in rest:
        if toks[0] != "edge":
            raise FormatError(f"expected 'edge', found {toks[0]!r}", lineno)
        if len(toks) != 4:
            raise FormatError("edge wants: edge <src> <sym> <dst>", lineno)
        src = state_id(toks[1], lineno)
        sym = toks[2]
        if sym not in alphabet:
            raise FormatError(f"undefined symbol {sym!r}", lineno)
        dst = state_id(toks[3], lineno)
        if (src, sym, dst) in edges:
            raise FormatError(f"duplicate edge {src} {sym} {dst}", lineno)
        edges.add((src, sym, dst))

    return Automaton(alphabet, n, initial, frozenset(finals), frozenset(edges))


def serialize_automaton(a):
    """Inverse of parse_automaton, with deterministic line order."""
    pos = a.alphabet.position
    out = [
        "alphabet " + " ".join(a.alphabet.symbols),
        f"states {a.n}",
        f"initial {a.initial}",
        ("final " + " ".join(str(q) for q in sorted(a.finals))).rstrip(),
    ]
    for (u, sym, v) in sorted(a.edges, key=lambda e: (e[0], pos[e[1]], e[2])):
        out.append(f"edge {u} {sym} {v}")
    return "\n".join(out) + "\n"


def empty_language_automaton(alphabet):
    """Canonical automaton for the empty language: one state, no finals."""
    return Automaton(alphabet, 1, 0, frozenset(), frozenset())


def trim_basic(a):
    """Restrict to states reachable from the initial state and co-reachable
    to a final state; state ids are compacted preserving their relative order."""
    fwd, bwd = {}, {}  # keyed by the states with edges, not by declared ones
    for (u, _, v) in a.edges:
        fwd.setdefault(u, []).append(v)
        bwd.setdefault(v, []).append(u)

    def closure(start, adj):
        seen, frontier = set(start), list(start)
        while frontier:
            for p in adj.get(frontier.pop(), ()):
                if p not in seen:
                    seen.add(p)
                    frontier.append(p)
        return seen

    keep = closure({a.initial}, fwd) & closure(a.finals, bwd)
    if a.initial not in keep:
        return empty_language_automaton(a.alphabet)
    rename = {old: new for new, old in enumerate(sorted(keep))}
    return Automaton(a.alphabet, len(keep), rename[a.initial],
                     frozenset(rename[q] for q in a.finals if q in keep),
                     frozenset((rename[u], s, rename[v]) for (u, s, v) in a.edges
                               if u in keep and v in keep))


def determinize(a, state_cap=None):
    """Subset construction over reachable nonempty subsets; output is trimmed.

    Raises StateBlowupExceeded when more than `state_cap` subsets appear.
    """
    start = frozenset({a.initial})
    ids = {start: 0}
    order = [start]
    edges = set()
    i = 0
    while i < len(order):
        subset = order[i]
        i += 1
        for sym in a.alphabet.symbols:
            nxt = a.step(subset, sym)
            if not nxt:
                continue
            if nxt not in ids:
                if state_cap is not None and len(ids) >= state_cap:
                    raise StateBlowupExceeded(
                        f"subset construction passed {state_cap} states")
                ids[nxt] = len(ids)
                order.append(nxt)
            edges.add((ids[subset], sym, ids[nxt]))
    finals = frozenset(ids[s] for s in order if s & a.finals)
    return trim_basic(Automaton(a.alphabet, len(order), 0, finals, frozenset(edges)))


def minimize(d):
    """Minimum DFA by partition refinement, in canonical BFS numbering.

    Two words reach the same output state iff they have equal right contexts.
    It numbers the Moore blocks itself, in the order a breadth-first walk
    from the initial block, in alphabet order, first reaches them, and builds
    the result directly; the one-state empty DFA needs no special case.
    """
    d = trim_basic(d)
    if not d.deterministic:
        raise NotDeterministic("minimize wants a deterministic automaton")

    block = [0 if q in d.finals else 1 for q in range(d.n)]
    delta = d.delta
    while True:
        sigs = {}
        new_block = [0] * d.n
        for q in range(d.n):
            sig = (block[q], tuple(-1 if t is None else block[t] for t in delta[q]))
            if sig not in sigs:
                sigs[sig] = len(sigs)
            new_block[q] = sigs[sig]
        if new_block == block:
            break
        block = new_block

    number = {block[d.initial]: 0}
    queue = [d.initial]  # one state per block; its block mates move alike
    for q in queue:  # breadth first: the loop reads what it appends
        for t in delta[q]:
            if t is not None and block[t] not in number:
                number[block[t]] = len(number)
                queue.append(t)
    return Automaton(d.alphabet, len(number), 0,
                     frozenset(number[block[q]] for q in d.finals),
                     frozenset((number[block[u]], s, number[block[v]])
                               for (u, s, v) in d.edges))


def with_alphabet_order(a, symbols):
    """Same automaton under a reordered alphabet (same symbol set)."""
    alphabet = OrderedAlphabet(tuple(symbols))
    if set(alphabet.symbols) != set(a.alphabet.symbols):
        raise AlphabetMismatch("reorder must preserve the symbol set")
    return Automaton(alphabet, a.n, a.initial, a.finals, a.edges)


def language_equal(a, b):
    """True iff the two automata accept the same language.

    Decided by determinize + minimize + isomorphism of the canonical forms.
    """
    if set(a.alphabet.symbols) != set(b.alphabet.symbols):
        raise AlphabetMismatch("language comparison wants equal symbol sets")
    b = with_alphabet_order(b, a.alphabet.symbols)
    ma = minimize(determinize(trim_basic(a)))
    mb = minimize(determinize(trim_basic(b)))
    return ma == mb


def count_readable_words(d, depth):
    """Number of distinct words of length <= depth readable in a DFA.

    Cheap feasibility probe for bounded enumerations (paths = words in a DFA).
    """
    if not d.deterministic:
        raise NotDeterministic("word counting by paths wants a DFA")
    counts = {d.initial: 1}
    total = 1
    for _ in range(depth):
        nxt = {}
        for q, c in counts.items():
            for t in d.delta[q]:
                if t is not None:
                    nxt[t] = nxt.get(t, 0) + c
        if not nxt:
            break
        counts = nxt
        total += sum(counts.values())
    return total


def to_dot(a, ranks=None):
    """Graphviz rendering; finals are double circles, ranks annotate labels."""
    lines = ["digraph automaton {", "  rankdir=LR;", '  __init [shape=point, label=""];']
    for q in range(a.n):
        shape = "doublecircle" if q in a.finals else "circle"
        label = f"q{q}"
        if ranks is not None:
            label += f"\\nrank {ranks[q]}"
        lines.append(f'  {q} [shape={shape}, label="{label}"];')
    lines.append(f"  __init -> {a.initial};")
    pos = a.alphabet.position
    for (u, sym, v) in sorted(a.edges, key=lambda e: (e[0], pos[e[1]], e[2])):
        label = sym.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  {u} -> {v} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
