"""Finite automata and the classical constructions.

An Automaton is an NFA over an ordered alphabet with a single initial state;
DFAs are just automata where every (state, symbol) has at most one out-edge.
Every operation is a pure function returning fresh values.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property

from .alphabet import OrderedAlphabet
from .errors import (
    AlphabetMismatch,
    FormatError,
    NotDeterministic,
    StateBlowupExceeded,
    WheelerkitError,
    WordNotReadable,
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
        seen = set()
        for (u, a, _) in self.edges:
            if (u, a) in seen:
                return False
            seen.add((u, a))
        return True

    @cached_property
    def out_map(self):
        """(state, symbol) -> frozenset of targets."""
        out = {}
        for (u, a, v) in self.edges:
            out.setdefault((u, a), set()).add(v)
        return {k: frozenset(v) for k, v in out.items()}

    @cached_property
    def in_edges(self):
        """state -> tuple of incoming edges, sorted."""
        inc = {q: [] for q in range(self.n)}
        for e in sorted(self.edges):
            inc[e[2]].append(e)
        return {q: tuple(es) for q, es in inc.items()}

    def step(self, states, sym):
        out = self.out_map
        result = set()
        for q in states:
            result |= out.get((q, sym), frozenset())
        return frozenset(result)

    def dstep(self, q, sym):
        """Deterministic single step; None when undefined."""
        targets = self.out_map.get((q, sym))
        if targets is None:
            return None
        if len(targets) != 1:
            raise NotDeterministic(f"state {q} has {len(targets)} {sym}-successors")
        return next(iter(targets))


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
    q = d.initial if start is None else start
    for sym in w:
        q = d.dstep(q, sym)
        if q is None:
            return None
    return q


def shortest_entering_words(a, per_state=None, max_len=None, budget=None):
    """Words entering each state, by (length, co-lex), best first.

    Keeps the first `per_state` words of each state (all when None), extends
    no word past `max_len`, and stops after `budget` heap pops.  Returns the
    words per state and whether the budget cut the walk short.  Words are
    settled when popped, not when pushed: a later predecessor at the same
    distance may enter through a smaller symbol.
    """
    syms = a.alphabet.symbols
    words = {q: [] for q in range(a.n)}
    heap = [(0, (), a.initial)]
    pops = 0
    while heap:
        pops += 1
        if budget is not None and pops > budget:
            return {q: tuple(ws) for q, ws in words.items()}, True
        _, kw, q = heapq.heappop(heap)
        if per_state is not None and len(words[q]) >= per_state:
            continue
        w = tuple(syms[i] for i in reversed(kw))
        words[q].append(w)
        if max_len is not None and len(w) >= max_len:
            continue
        for i, sym in enumerate(syms):
            for t in a.out_map.get((q, sym), ()):
                if per_state is None or len(words[t]) < per_state:
                    # (i,) + kw is the co-lex key of w + (sym,)
                    heapq.heappush(heap, (len(w) + 1, (i,) + kw, t))
    return {q: tuple(ws) for q, ws in words.items()}, False


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
    fwd = {a.initial}
    frontier = [a.initial]
    succ = {}
    pred = {}
    for (u, _, v) in a.edges:
        succ.setdefault(u, set()).add(v)
        pred.setdefault(v, set()).add(u)
    while frontier:
        q = frontier.pop()
        for v in succ.get(q, ()):
            if v not in fwd:
                fwd.add(v)
                frontier.append(v)
    bwd = set(a.finals)
    frontier = list(a.finals)
    while frontier:
        q = frontier.pop()
        for u in pred.get(q, ()):
            if u not in bwd:
                bwd.add(u)
                frontier.append(u)
    keep = fwd & bwd
    if a.initial not in keep:
        return empty_language_automaton(a.alphabet)
    rename = {old: new for new, old in enumerate(sorted(keep))}
    return Automaton(
        a.alphabet,
        len(keep),
        rename[a.initial],
        frozenset(rename[q] for q in a.finals if q in keep),
        frozenset((rename[u], s, rename[v]) for (u, s, v) in a.edges
                  if u in keep and v in keep),
    )


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
    """
    d = trim_basic(d)
    if not d.deterministic:
        raise NotDeterministic("minimize wants a deterministic automaton")
    if not d.finals:
        return empty_language_automaton(d.alphabet)

    block = [0 if q in d.finals else 1 for q in range(d.n)]
    syms = d.alphabet.symbols
    while True:
        sigs = {}
        new_block = [0] * d.n
        for q in range(d.n):
            sig = (block[q],
                   tuple(block[t] if (t := dfa_walk(d, (s,), start=q)) is not None else -1
                         for s in syms))
            if sig not in sigs:
                sigs[sig] = len(sigs)
            new_block[q] = sigs[sig]
        if new_block == block:
            break
        block = new_block

    m = max(block) + 1
    finals = frozenset(block[q] for q in d.finals)
    edges = frozenset((block[u], s, block[v]) for (u, s, v) in d.edges)
    quotient = Automaton(d.alphabet, m, block[d.initial], finals, edges)
    return canonical_dfa(quotient)


def canonical_dfa(d):
    """Renumber a trimmed DFA by BFS from the initial state in alphabet order."""
    if not d.deterministic:
        raise NotDeterministic("canonical numbering wants a DFA")
    rename = {d.initial: 0}
    queue = [d.initial]
    for q in queue:  # breadth first: the loop reads what it appends
        for sym in d.alphabet.symbols:
            t = d.dstep(q, sym)
            if t is not None and t not in rename:
                rename[t] = len(rename)
                queue.append(t)
    if len(rename) != d.n:
        raise WheelerkitError("canonical numbering wants a reachable automaton")
    return Automaton(
        d.alphabet, d.n, 0,
        frozenset(rename[q] for q in d.finals),
        frozenset((rename[u], s, rename[v]) for (u, s, v) in d.edges),
    )


def relabel_by_order(a, ranks):
    """Rename states so that state id equals rank (order-preserving relabeling)."""
    return Automaton(
        a.alphabet, a.n, ranks[a.initial],
        frozenset(ranks[q] for q in a.finals),
        frozenset((ranks[u], s, ranks[v]) for (u, s, v) in a.edges),
    )


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


def right_context_equal(min_dfa, alpha, beta):
    """Myhill-Nerode test on a minimum DFA: equal states iff equal right contexts."""
    u = dfa_walk(min_dfa, alpha)
    if u is None:
        raise WordNotReadable(f"word {' '.join(alpha) or 'epsilon'} is not readable")
    v = dfa_walk(min_dfa, beta)
    if v is None:
        raise WordNotReadable(f"word {' '.join(beta) or 'epsilon'} is not readable")
    return u == v


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
            for sym in d.alphabet.symbols:
                t = d.dstep(q, sym)
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
