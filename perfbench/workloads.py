"""The three seeded workloads: inputs, operations and their answer keys.

A run first selects its inputs from the seed (`select`, untimed), then times
set-up (`setup`: a fresh import of wheelerkit, parsing the selected inputs
and building the reduction gadgets).  A workload is a list of operations,
each one call into the public API plus a judge that checks the result against
an answer key from `oracles`.

Selection runs no wheelerkit code: the benchmark draws, trims, classifies and
certifies its inputs itself (the betweenness instances are the test corpus's
fixed list), so a change to the program can neither change which inputs a
seed selects nor pass its own inputs off as correct.

Random inputs are drawn in fixed proportions of kinds (stratified sampling),
so two seeds time the same mix of work and differ only in which members of
each kind they draw.  For the universality gadgets the kind is a band of
predicted cost, from work the benchmark counts on the gadget's minimum DFA;
costs are heavy-tailed, and without the strata a pass's time would mostly say
how many expensive inputs the seed happened to draw.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import itertools
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles

SYMS = ("a", "b", "c")

# Program defaults at the time the benchmark was defined.  They only classify
# inputs into kinds; they are constants here so that a later change to the
# program's defaults cannot change which inputs a seed selects.
PATH_BUDGET = 100_000
WORD_CAP = 10_000_000

# Seconds per cycle step, entering-word letter and enumerated word: a least
# squares fit of the language decider's time at the seed commit (Python 3.11,
# 2-CPU Linux VM).  Relative sizes are what matter; they only define kinds.
COST_PER = (7e-4, 8.6e-7, 8.7e-6)
GADGET_BANDS = (0.001, 0.01, 0.03, 0.1, 0.3, 1.0, 2.2, 3.0)


@dataclass
class Input:
    """A selected input: its kind, the text the program parses, and the data
    its answer key needs."""

    kind: str
    text: str
    key: object = None


@dataclass
class Op:
    """One operation: `call()` runs the program; `judge(result)` returns
    (decided, verdict_ok), where verdict_ok is None when no key applies."""

    kind: str
    label: str
    call: Callable
    judge: Callable


@dataclass
class Workload:
    ops: list
    undecided_errors: tuple  # exceptions that mean "no verdict" (CLI exit 2)


def automaton_text(a):
    """Benchmark-side writer for the automaton file format (sorted lines)."""
    rank = {s: i for i, s in enumerate(a.alphabet.symbols)}
    lines = ["alphabet " + " ".join(a.alphabet.symbols), f"states {a.n}",
             f"initial {a.initial}",
             ("final " + " ".join(str(q) for q in sorted(a.finals))).rstrip()]
    lines += [f"edge {u} {s} {v}"
              for (u, s, v) in sorted(a.edges, key=lambda e: (e[0], rank[e[1]], e[2]))]
    return "\n".join(lines) + "\n"


def betweenness_text(elements, triples):
    return "\n".join(["elements " + " ".join(elements)]
                     + ["triple " + " ".join(t) for t in triples]) + "\n"


def cost_kind(m, bands):
    """(kind, predicted seconds) of the language decider on minimum DFA `m`.

    The kind is the band of predicted cost between the edges `bands`; from
    0.1 s up it also says which mechanism dominates, enumeration ("e") or
    witness collection ("w"), since the two scale differently and only
    enumeration sets peak memory.
    """
    parts = [c * f for c, f in zip(COST_PER, work_features(m))]
    cost = sum(parts)
    band = sum(cost >= edge for edge in bands)
    if cost < 0.1:
        return f"c{band}", cost
    return f"c{band}{'e' if parts[2] >= parts[0] + parts[1] else 'w'}", cost


def work_features(m):
    """Work the language decider does on the minimum DFA `m`, counted by the
    benchmark: (cycle_steps, entering_letters, enum_words).

    cycle_steps: depth-first steps over simple cycles through each pair of
    states in the product automaton (length < n^2, at most PATH_BUDGET per
    pair).  entering_letters: letters of the words entering states, shortest
    first, up to the longest candidate gamma (the simple cycle labels,
    concatenations of two of the 16 smallest, pumps up to n + 1 times, all
    bounded by n^3 + 2n^2 + n + 2) and at most PATH_BUDGET words.
    enum_words: readable words up to depth n + n^2, which the minimum-WDFA
    builder enumerates (0 above its 10^7 word cap).
    """
    n = m.n
    bound = n ** 3 + 2 * n ** 2 + n + 2
    out = oracles.successors(m)

    def step(q, s):
        return next(iter(out.get((q, s), ())), None)

    steps = longest = 0
    for u in range(n):
        for v in range(u + 1, n):
            start = (u, v)
            labels = set()
            stack = [(start, (), frozenset({start}))]
            pair_steps = 0
            while stack and pair_steps < PATH_BUDGET:
                pair_steps += 1
                node, w, on_path = stack.pop()
                for s in m.alphabet.symbols:
                    x, y = step(node[0], s), step(node[1], s)
                    if x is None or y is None:
                        continue
                    if (x, y) == start:
                        labels.add(w + (s,))
                    elif (x, y) not in on_path and len(w) + 2 < n * n:
                        stack.append(((x, y), w + (s,), on_path | {(x, y)}))
            steps += pair_steps
            few = sorted(labels)[:16]
            lengths = {len(x) for x in labels} | {
                len(x) + len(y) for x in few for y in few
                if x != y and len(x) + len(y) <= bound}
            for c in lengths:
                longest = max(longest, c * min(n + 1, bound // c))
    letters = words = 0
    for length, count in enumerate(words_by_length(m, longest) if longest else ()):
        take = min(count, PATH_BUDGET - words)
        words += take
        letters += take * length
        if words >= PATH_BUDGET:
            break
    enum_words = sum(words_by_length(m, n + n * n))
    return steps, letters, enum_words if enum_words <= WORD_CAP else 0


def words_by_length(d, depth):
    """Numbers of words of each length 0..depth readable in a DFA (the
    counting stops once it passes 100 times WORD_CAP)."""
    out = oracles.successors(d)
    counts = {d.initial: 1}
    result = [1]
    for _ in range(depth):
        nxt = {}
        for q, c in counts.items():
            for s in d.alphabet.symbols:
                for t in out.get((q, s), ()):
                    nxt[t] = nxt.get(t, 0) + c
        if not nxt or sum(result) > 100 * WORD_CAP:
            break
        counts = nxt
        result.append(sum(counts.values()))
    return result


def stratified(draw, quotas, pool_factor=4, max_draws=200_000):
    """Draw from the seeded stream until every kind holds pool_factor times
    its quota, then take each kind's quota at evenly spaced ranks of its
    members sorted by size.  Returns [(kind, item)] in kind order.

    `draw()` returns (kind, size, item).  Kinds without a quota are skipped.
    """
    members = {kind: [] for kind in quotas}
    for _ in range(max_draws):
        if all(len(members[k]) >= pool_factor * q for k, q in quotas.items()):
            break
        kind, size, item = draw()
        if kind in members:
            members[kind].append((size, len(members[kind]), item))
    else:
        raise RuntimeError(f"kinds too rare in the stream: {quotas}")
    picked = []
    for kind, q in quotas.items():
        pool = sorted(members[kind], key=lambda m: m[:2])
        picked += [(kind, pool[int((i + 0.5) * len(pool) / q)][2]) for i in range(q)]
    return picked


def digest(inputs):
    """Digest of the selected inputs, in order."""
    h = hashlib.sha256()
    for i in inputs:
        h.update(f"{i.kind}\0{i.text}\0".encode())
    return h.hexdigest()[:16]


# --- universality-gadgets --------------------------------------------------

# Operations per pass by kind, proportional to the kinds' shares among 20,000
# draws of random_trimmed_nfa classified by their gadgets, by largest
# remainders for a 22-gadget pass: c1 28.3 % (3 ms), c3 25.8 % (38 ms), c5w
# 11.7 % (0.9 s), c6w 3.0 % (1.3 s), c7e 28.2 % (2.3 s: 266k to 270k
# enumerated words), c8e 2.8 % (9.8 s: 1.08M words); the remaining 0.3 % fall
# below half an operation per pass and are not timed.
GADGET_QUOTAS = {"c1": 6, "c3": 6, "c5w": 2, "c6w": 1, "c7e": 6, "c8e": 1}


def random_trimmed_nfa(rng, max_n=3, max_sigma=2, density=0.35):
    """Random trimmed NFA accepting the empty word; the same draws as the test
    corpus's random_trimmed_nfa(rng, 3, 2, 0.35, force_eps=True)."""
    n = rng.randint(1, max_n)
    sigma = rng.randint(1, max_sigma)
    edges = frozenset((q, s, t) for q in range(n) for s in SYMS[:sigma] for t in range(n)
                      if rng.random() < density)
    finals = frozenset(q for q in range(n) if rng.random() < 0.4) | {0}
    return oracles.trim(oracles.Nfa(oracles.Alphabet(SYMS[:sigma]), n, 0, finals, edges))


def universality_gadget(a):
    """The gadget reduce_universality builds, A'' with language
    a(Lc)*L + b(S+c)*; only its fresh symbols are named differently."""
    fresh_a, fresh_b, fresh_c = "#a", "#b", "#c"
    symbols = a.alphabet.symbols
    initial, sink = a.n, a.n + 1
    edges = set(a.edges) | {(f, fresh_c, a.initial) for f in a.finals}
    edges |= {(initial, fresh_a, a.initial), (initial, fresh_b, sink)}
    edges |= {(sink, s, sink) for s in symbols + (fresh_c,)}
    return oracles.Nfa(oracles.Alphabet(symbols + (fresh_a, fresh_b, fresh_c)), a.n + 2,
                       initial, a.finals | {sink}, frozenset(edges))


def select_universality_gadgets(corpus, rng):
    def draw():
        a = random_trimmed_nfa(rng)
        kind, cost = cost_kind(oracles.minimum_dfa(universality_gadget(a)), GADGET_BANDS)
        return kind, cost, a

    return [Input(kind, automaton_text(a), oracles.is_universal(a))
            for kind, a in stratified(draw, GADGET_QUOTAS)]


def setup_universality_gadgets(wk, inputs, workdir):
    ops = []
    for n, i in enumerate(inputs):
        gadget = wk.reduce_universality(wk.parse_automaton(i.text)).automaton
        path = workdir / f"gadget{n}.aut"
        path.write_text(automaton_text(gadget))
        ops.append(Op(i.kind, i.text, lambda p=str(path): run_cli(wk, ["check-lang", p, "--nfa"]),
                      lambda r, universal=i.key: judge_cli(r, universal)))
    return ops


def run_cli(wk, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = wk.cli.main(argv)
    if code not in (0, 1, 2):
        raise RuntimeError(f"check-lang exited {code} on a valid input")
    return code, out.getvalue()


def judge_cli(result, universal):
    code, text = result
    if code == 2:
        return False, None
    block = dict(line.split(": ", 1) for line in text.split("---\n", 1)[-1].splitlines())
    expected = "wheeler" if universal else "not-wheeler"
    return True, code == (0 if universal else 1) and block.get("verdict") == expected


# --- gw-betweenness --------------------------------------------------------

GW_MIN_OPS = 100
OPS_PER_INSTANCE = 3


def select_gw_betweenness(corpus, rng):
    """The 24 instances over three elements with at most two triples, then
    seeded extra instances, in the same mix of kinds, up to GW_MIN_OPS."""
    def kind(elements, triples):
        if not triples:
            return "triples0"
        sat = oracles.betweenness_satisfiable(elements, triples)
        return f"triples{len(triples)}-{'sat' if sat else 'unsat'}"

    base = [(kind(i.elements, i.triples), (i.elements, i.triples))
            for i in corpus.enumerate_small_betweenness()]
    extra = -(-GW_MIN_OPS // OPS_PER_INSTANCE) - len(base)
    shares = {}
    for k, _ in base:
        shares[k] = shares.get(k, 0) + extra / len(base)
    quotas = {k: int(v) for k, v in shares.items()}
    for k in sorted(shares, key=lambda k: int(shares[k]) - shares[k])[:extra - sum(quotas.values())]:
        quotas[k] += 1
    perms = list(itertools.permutations(("y1", "y2", "y3")))

    def draw():
        elements = rng.choice(perms)
        triples = tuple(rng.sample(perms, rng.randint(0, 2)))
        if not triples:
            elements = elements[:rng.randint(1, 3)]
        return kind(elements, triples), 0, (elements, triples)

    return [Input(k, betweenness_text(*inst), oracles.betweenness_satisfiable(*inst))
            for k, inst in base + stratified(draw, quotas, pool_factor=1)]


def setup_gw_betweenness(wk, inputs, workdir):
    ops = []
    for i in inputs:
        inst = wk.parse_betweenness(i.text)
        gadget = wk.reduce_betweenness_to_dfa(inst).automaton
        ops.append(Op(i.kind, i.text, lambda inst=inst: wk.solve_betweenness(inst),
                      lambda r, inst=inst, sat=i.key: (True, (r is not None) == sat and (
                          r is None or oracles.order_satisfies(inst.elements, r, inst.triples)))))
        ops.append(Op(i.kind, i.text, lambda g=gadget: wk.gw_automaton_check(g),
                      lambda r, g=gadget, sat=i.key: (True, judge_gw_automaton(g, r, sat))))
        ops.append(Op(i.kind, i.text, lambda g=gadget: wk.gw_language_check(g),
                      lambda r, sat=i.key: (True, (r is not None) == sat)))
    return ops


def judge_gw_automaton(gadget, symbols, sat):
    if symbols is None:
        return not sat
    return sat and oracles.wheeler_order_ok(
        gadget, oracles.dfa_colex_ranks(gadget, symbols), symbols)


# --- nfa-order -------------------------------------------------------------

TRIE_SIZES = (50, 100, 150, 200, 250, 300, 400)
STAR_LEAVES = tuple(range(10, 61, 2))
STAIRCASES = 61


def random_trie(rng, n):
    """Random trie (tree DFA) with n states over a, b, c; leaves are final
    and so is each inner state with probability 0.2."""
    free = {0: list(SYMS)}
    edges = set()
    for q in range(1, n):
        u = rng.choice([p for p in free if free[p]])
        edges.add((u, free[u].pop(rng.randrange(len(free[u]))), q))
        free[q] = list(SYMS)
    finals = {q for q in range(n) if len(free[q]) == len(SYMS) or rng.random() < 0.2}
    return oracles.Nfa(oracles.Alphabet(SYMS), n, 0, frozenset(finals), frozenset(edges))


def star(leaves):
    return oracles.Nfa(oracles.Alphabet(("a",)), leaves + 1, 0,
                       frozenset(range(1, leaves + 1)),
                       frozenset((0, "a", q) for q in range(1, leaves + 1)))


def staircase(rng, max_n=8, max_sigma=3):
    """Random NFA that is Wheeler by construction, laid out as the test
    corpus's random_wheeler_nfa lays it out: states in their intended order,
    in-labels ascending along it, and a monotone staircase of edges per label.
    A draw is kept only if every state is useful and the layout order passes
    the benchmark's pairwise check."""
    while True:
        n = rng.randint(3, max_n)
        sigma = rng.randint(2, min(max_sigma, n - 1))
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
        a = oracles.Nfa(oracles.Alphabet(SYMS[:sigma]), n, 0, finals, frozenset(edges))
        if len(oracles.useful_states(a)) == n and oracles.wheeler_order_ok(a, tuple(range(n))):
            return a


def select_nfa_order(corpus, rng):
    """Inputs that are Wheeler by construction; a trie's order is unique."""
    inputs = [Input("trie", automaton_text(t), oracles.dfa_colex_ranks(t))
              for t in (random_trie(rng, n) for n in TRIE_SIZES)]
    inputs += [Input("star", automaton_text(star(k))) for k in STAR_LEAVES]
    inputs += [Input("staircase", automaton_text(staircase(rng))) for _ in range(STAIRCASES)]
    return inputs


def setup_nfa_order(wk, inputs, workdir):
    ops = []
    for i in inputs:
        a = wk.parse_automaton(i.text)
        ops.append(Op(i.kind, i.text, lambda a=a: wk.nfa_wheeler_search(a),
                      lambda r, a=a, e=i.key: judge_order(wk, a, r, e)))
        if i.kind == "trie":
            ops.append(Op("trie-dfa", i.text, lambda a=a: wk.dfa_wheeler_order(a),
                          lambda r, a=a, e=i.key: judge_order(wk, a, r, e)))
    return ops


def judge_order(wk, a, result, expected):
    """Every input is Wheeler by construction: the result must be an order
    that passes the pairwise check (and, for tries, the unique DFA order)."""
    if not isinstance(result, wk.WheelerOrder):
        return True, False
    if expected is not None and tuple(result.ranks) != expected:
        return True, False
    return True, oracles.wheeler_order_ok(a, result.ranks)


WORKLOADS = {
    "universality-gadgets": (select_universality_gadgets, setup_universality_gadgets),
    "gw-betweenness": (select_gw_betweenness, setup_gw_betweenness),
    "nfa-order": (select_nfa_order, setup_nfa_order),
}


def import_program():
    """Fresh import of wheelerkit and of the test corpus that draws inputs."""
    for mod in [m for m in sys.modules if m == "corpus" or m.split(".")[0] == "wheelerkit"]:
        del sys.modules[mod]
    wk = importlib.import_module("wheelerkit")
    for sub in ("cli", "language"):
        importlib.import_module(f"wheelerkit.{sub}")
    return wk, importlib.import_module("corpus")


def select(name, seed):
    """The workload's inputs for `seed`, in pass order."""
    _, corpus = import_program()
    rng = random.Random(f"{name}:{seed}")
    inputs = WORKLOADS[name][0](corpus, rng)
    rng.shuffle(inputs)
    return inputs


def setup(name, inputs, workdir, on_import=None):
    """Import wheelerkit afresh and build the operations for `inputs`; files
    go under `workdir`.  `on_import(wk)` runs right after the import."""
    wk, _ = import_program()
    if on_import is not None:
        on_import(wk)
    ops = WORKLOADS[name][1](wk, inputs, Path(workdir))
    undecided = (wk.SearchBudgetExceeded, wk.InfeasibleEnumeration, wk.StateBlowupExceeded,
                 wk.AlphabetTooLarge, wk.TooManyElements)
    return Workload(ops, undecided)
