"""Reference definitions the tests check the library against.

These are direct, unoptimised statements of the paper's definitions (co-lex
comparison, primitivity, Myhill-Nerode equality, path coherence, betweenness),
a (length, co-lex) Dijkstra walk over the words entering each state, the
validators the witness tests need, and the slow paths that faster library
code replaced: among them the witness printer's eager gamma build over a
cycle search with one generator per node, and the language decision read
off the whole conflict set.  Nothing in the library calls them, so they live
with the tests rather than in the package.
"""

import heapq
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum

from wheelerkit import (
    Automaton,
    WheelerkitError,
    determinize,
    dfa_walk,
    minimize,
    run,
    trim_basic,
)
from wheelerkit.alphabet import INITIAL_MARK, is_suffix
from wheelerkit.automaton import empty_language_automaton, entering_layers
from wheelerkit.errors import (
    InfeasibleEnumeration,
    InternalDisagreement,
    NotDeterministic,
    SearchBudgetExceeded,
)
from wheelerkit.language import (
    BOUNDED_WHEELER,
    DEFAULT_STATE_CAP,
    METHOD_CONSTRUCT,
    METHOD_WITNESS,
    NOT_WHEELER,
    WHEELER,
    LanguageVerdict,
    SearchCaps,
    Witness,
    _side_conditions,
    check_witness_dfa,
    collect_candidates,
    gamma_length_bound,
    is_language_wheeler_dfa,
    search_witness,
    witness_conflicts,
)
from wheelerkit.wheeler import (
    CONDITION_I,
    CONDITION_II,
    INITIAL_IN_EDGE,
    INPUT_INCONSISTENT,
    ORDER_CONTRADICTION,
    LambdaMap,
    WheelerOrder,
    WheelerViolation,
    _OrderSearch,
    input_consistency,
    label_blocks,
    verify_wheeler,
)


class WordNotReadable(WheelerkitError):
    """A word left the automaton (empty reach set) where readability was required."""


class ColexVerdict(Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


def colex_compare(alphabet, a, b):
    """Compare two words in the co-lexicographic order of `alphabet`.

    a precedes b iff the reverse of a precedes the reverse of b
    lexicographically; the empty word precedes every other word.
    """
    ka, kb = alphabet.colex_key(a), alphabet.colex_key(b)
    if ka < kb:
        return ColexVerdict.LESS
    if ka > kb:
        return ColexVerdict.GREATER
    return ColexVerdict.EQUAL


def is_primitive(w):
    """True iff the nonempty word `w` is not a proper power of a shorter word."""
    n = len(w)
    if n == 0:
        raise WheelerkitError("the empty word has no primitivity")
    for d in range(1, n):
        if n % d == 0 and w[:d] * (n // d) == w:
            return False
    return True


def right_context_equal(min_dfa, alpha, beta):
    """Myhill-Nerode test on a minimum DFA: equal states iff equal right contexts."""
    u = dfa_walk(min_dfa, alpha)
    if u is None:
        raise WordNotReadable(f"word {' '.join(alpha) or 'epsilon'} is not readable")
    v = dfa_walk(min_dfa, beta)
    if v is None:
        raise WordNotReadable(f"word {' '.join(beta) or 'epsilon'} is not readable")
    return u == v


def heap_entering_words(a, per_state=None, max_len=None, budget=None):
    """Words entering each state of a DFA by a (length, co-lex) Dijkstra
    over words: the first `per_state` words of each state (all when None),
    none extended past `max_len`, stopping after `budget` words are taken
    off the heap.  Returns the words per state and whether the budget cut
    the walk short."""
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
        for i, targets in enumerate(a.succ[q]):
            for t in targets:
                if per_state is None or len(words[t]) < per_state:
                    heapq.heappush(heap, (len(w) + 1, (i,) + kw, t))
    return {q: tuple(ws) for q, ws in words.items()}, False


def least_entering_words(d):
    """The (length, co-lex) least entering word of each state of a trimmed
    DFA, from the heap walk."""
    entering, _ = heap_entering_words(d, per_state=1)
    if not all(entering.values()):
        raise WheelerkitError("dfa_wheeler_order wants a trimmed automaton")
    return [ws[0] for ws in entering.values()]


def word_colex_candidate(d, words):
    """The DFA order candidate from words: states sorted by the co-lex key
    of `words[q]` under `d`'s alphabet order, or the first violation."""
    key = d.alphabet.colex_key
    order = WheelerOrder.from_sequence(sorted(range(d.n), key=lambda q: key(words[q])))
    return verify_wheeler(d, order) or order


def triple_satisfied(position, triple):
    """Betweenness: the middle element of `triple` lies between the other
    two under `position` (element -> index)."""
    a, b, c = (position[x] for x in triple)
    return a < b < c or a > b > c


def word_before(x, y):
    """Literal for "word x sorts co-lex before word y": the first pair of
    symbols where they differ, read from the end, or a constant when one
    word is a suffix of the other."""
    for s, t in zip(reversed(x), reversed(y)):
        if s != t:
            return (s, t)
    return len(x) < len(y)


def relabel_by_order(a, ranks):
    """Rename states so that state id equals rank (order-preserving relabeling)."""
    return Automaton(
        a.alphabet, a.n, ranks[a.initial],
        frozenset(ranks[q] for q in a.finals),
        frozenset((ranks[u], s, ranks[v]) for (u, s, v) in a.edges),
    )


def recheck_violation(a, violation, order=None):
    """Re-evaluate the named clause on the evidence alone; True means the
    violation is self-evident (the clause indeed fails on those edges)."""
    kind, ev = violation.kind, violation.evidence
    if kind == INITIAL_IN_EDGE:
        (edge,) = ev
        return edge in a.edges and edge[2] == a.initial
    if kind == INPUT_INCONSISTENT:
        e1, e2 = ev
        return e1 in a.edges and e2 in a.edges and e1[2] == e2[2] and e1[1] != e2[1]
    if kind == CONDITION_I:
        e1, e2 = ev
        pos = a.alphabet.position
        return (e1 in a.edges and e2 in a.edges
                and pos[e1[1]] < pos[e2[1]]
                and not order.ranks[e1[2]] < order.ranks[e2[2]])
    if kind == CONDITION_II:
        e1, e2 = ev
        r = order.ranks
        return (e1 in a.edges and e2 in a.edges and e1[1] == e2[1]
                and r[e1[0]] < r[e2[0]] and not r[e1[2]] <= r[e2[2]])
    if kind == ORDER_CONTRADICTION:
        return True
    return False


@dataclass(frozen=True)
class PathCoherenceCounterexample:
    interval: tuple  # states of the starting interval, in order
    word: tuple
    image: tuple  # states reached, in order

    def __str__(self):
        return (f"interval {self.interval} under {' '.join(self.word) or 'epsilon'} "
                f"gives non-interval {self.image}")


def path_coherence_check(a, order, maxlen):
    """Bounded check that every interval of states maps to an interval.

    Explores images of every rank interval under all words up to `maxlen`,
    pruning repeated reach sets; returns the first counterexample found.
    """
    ranks = order.ranks
    seq = order.sequence()

    def is_interval(states):
        if not states:
            return True
        rs = sorted(ranks[q] for q in states)
        return rs[-1] - rs[0] + 1 == len(rs)

    for lo in range(a.n):
        for hi in range(lo, a.n):
            start = frozenset(seq[lo:hi + 1])
            frontier = [(start, ())]  # breadth first: the loop reads what it appends
            seen = {start}
            for states, w in frontier:
                if len(w) >= maxlen:
                    continue
                for sym in a.alphabet.symbols:
                    image = a.step(states, sym)
                    if not image:
                        continue
                    if not is_interval(image):
                        return PathCoherenceCounterexample(
                            tuple(sorted(start, key=lambda q: ranks[q])),
                            w + (sym,),
                            tuple(sorted(image, key=lambda q: ranks[q])))
                    if image not in seen:
                        seen.add(image)
                        frontier.append((image, w + (sym,)))
    return None


def dfa_witness_bound_ok(n, witness):
    """Length bound for DFA witnesses: |mu|, |nu| <= |gamma| <= B(n)."""
    mu, nu, gamma = witness.words()
    return max(len(mu), len(nu)) <= len(gamma) <= gamma_length_bound(n)


def nfa_witness_bound_ok(witness):
    """NFA witnesses use the strict form |mu|, |nu| < |gamma|."""
    mu, nu, gamma = witness.words()
    return max(len(mu), len(nu)) < len(gamma)


def check_witness_nfa(a, witness, ijcap=None, state_cap=DEFAULT_STATE_CAP):
    """Validate a witness directly against an NFA.

    The cycle condition is checked on the NFA itself; the inequivalence of
    mu gamma^i and nu gamma^j for all i, j up to min(ijcap, 2^n) is checked
    by determinizing once and walking the two pump orbits through the
    minimum DFA (the orbits close after at most one state per DFA state).
    """
    mu, nu, gamma = witness.words()
    n = a.n
    cap = 2 ** n if ijcap is None else min(ijcap, 2 ** n)

    ends_mu = run(a, mu)
    ends_nu = run(a, nu)
    if not ends_mu or not ends_nu:
        return False

    def cycling(states, wanted=None):
        pool = states if wanted is None else (states & {wanted})
        return any(p in run(a, gamma, start={p}) for p in pool)

    p = witness.anchors[0] if witness.anchors else None
    r = witness.anchors[1] if witness.anchors else None
    if not cycling(ends_mu, p) or not cycling(ends_nu, r):
        return False
    if not _side_conditions(a.alphabet, mu, nu, gamma):
        return False

    min_dfa = minimize(determinize(trim_basic(a), state_cap=state_cap))

    def orbit(word):
        q = dfa_walk(min_dfa, word)
        seen = []
        for _ in range(cap + 1):
            if q in seen or q is None:
                break
            seen.append(q)
            q = dfa_walk(min_dfa, gamma, start=q)
        return set(seen)

    orbit_mu = orbit(mu)
    orbit_nu = orbit(nu)
    if not orbit_mu or not orbit_nu:
        return False
    return not (orbit_mu & orbit_nu)


def find_witness(min_dfa, caps=None):
    """Search for a witness against the minimum DFA, within the caps."""
    caps = SearchCaps.default(min_dfa.n, caps)
    return search_witness(min_dfa, collect_candidates(min_dfa, caps))


def eager_search_witness(min_dfa, gammas, entering):
    """`search_witness` over every gamma in one sort by (|gamma|, co-lex),
    reading `entering`, the words per state taken all at once."""
    key = min_dfa.alphabet.colex_key
    for gamma in sorted(gammas, key=lambda g: (len(g), key(g))):
        kg = key(gamma)
        best = None
        for (u, v) in gammas[gamma]:
            if dfa_walk(min_dfa, gamma, start=u) != u:
                continue
            if dfa_walk(min_dfa, gamma, start=v) != v:
                continue
            picks = {}
            for state in (u, v):
                less = greater = None
                for w in entering[state]:
                    if len(w) > len(gamma) or is_suffix(gamma, w):
                        continue
                    kw = key(w)
                    if kw < kg and (less is None or kw < key(less)):
                        less = w
                    elif kw > kg and (greater is None or kw < key(greater)):
                        greater = w
                picks[state] = (less, greater)
            for side in (0, 1):
                wu, wv = picks[u][side], picks[v][side]
                if wu is None or wv is None:
                    continue
                if key(wu) <= key(wv):
                    cand = Witness(wu, wv, gamma, anchors=(u, v))
                else:
                    cand = Witness(wv, wu, gamma, anchors=(v, u))
                if best is None or (key(cand.mu), key(cand.nu)) < (key(best.mu), key(best.nu)):
                    best = cand
        if best is not None:
            if not check_witness_dfa(min_dfa, best):
                raise InternalDisagreement(f"search produced an invalid witness: {best}")
            return best
    return None


def eager_witness_verdict(min_dfa, caps):
    """`method="witness"` on the minimum DFA with its entering words taken
    eagerly: every word up to the longest gamma, within `path_count_cap`,
    before any gamma is tested."""
    candidates = collect_candidates(min_dfa, caps)
    max_gamma = max(map(len, candidates.gammas), default=0)
    entering = {q: [] for q in range(min_dfa.n)}
    walk_cut = any(entering_layers(min_dfa, entering, max_gamma, caps.path_count_cap))
    witness = eager_search_witness(min_dfa, candidates.gammas, entering)
    if witness is not None:
        return LanguageVerdict(NOT_WHEELER, witness=witness, caps=caps)
    if caps.covers(min_dfa.n) and not (candidates.truncated or walk_cut):
        return LanguageVerdict(WHEELER, caps=caps)
    return LanguageVerdict(BOUNDED_WHEELER, caps=caps, reason="no witness within caps")


def generator_cycle_labels(min_dfa, u, v, max_len, budget):
    """Labels of simple cycles through (u, v) in the product automaton, by
    the depth-first search with one `moves` generator per visited node that
    `language._simple_cycle_labels` replaced; (labels, truncated)."""
    labels = set()
    truncated = False
    steps = 0
    syms, delta = min_dfa.alphabet.symbols, min_dfa.delta
    start = (u, v)
    path = []
    on_path = {start}

    def moves(node):
        for sym, a, b in zip(syms, delta[node[0]], delta[node[1]]):
            if a is not None and b is not None:
                yield sym, (a, b)

    stack = [(start, moves(start))]
    while stack:
        node, it = stack[-1]
        steps += 1
        if steps > budget:
            truncated = True
            break
        advanced = False
        for sym, nxt in it:
            if nxt == start:
                labels.add(tuple(e[0] for e in path) + (sym,))
                continue
            if nxt in on_path or len(path) + 1 >= max_len:
                continue
            path.append((sym, nxt))
            on_path.add(nxt)
            stack.append((nxt, moves(nxt)))
            advanced = True
            break
        if not advanced:
            stack.pop()
            if path:
                _, gone = path.pop()
                on_path.discard(gone)
    return labels, truncated


def eager_gammas(min_dfa, caps):
    """Every candidate gamma with its anchor pairs, built at once from the
    `generator_cycle_labels` of every pair, as `collect_candidates` did
    before it kept the bases by length; (gammas, truncated)."""
    n = min_dfa.n
    truncated = False
    bases = {}
    for u in range(n):
        for v in range(u + 1, n):
            labels, trunc = generator_cycle_labels(
                min_dfa, u, v, min(caps.cycle_len_cap, n * n), caps.path_count_cap)
            truncated |= trunc
            if labels:
                bases[(u, v)] = labels
    gammas = {}
    for pair, labels in bases.items():
        pool = set(labels)
        few = sorted(labels)[:16]
        for x in few:
            for y in few:
                if x != y and len(x) + len(y) <= caps.gamma_bound:
                    pool.add(x + y)
        for base in pool:
            for k in range(1, caps.pump_cap + 1):
                gamma = base * k
                if len(gamma) > caps.gamma_bound:
                    break
                gammas.setdefault(gamma, set()).add(pair)
    return gammas, truncated


def drained_walk_status(min_dfa):
    """The witness-conflict walk's answer under `min_dfa`'s own order, read
    off the whole conflict set as `method="both"` did before it stopped at
    the first conflict that holds."""
    position = min_dfa.alphabet.position
    return NOT_WHEELER if any(all(position[s] < position[t] for s, t in conflict)
                              for conflict in witness_conflicts(min_dfa)) else WHEELER


def pair_witness_conflicts(min_dfa):
    """Conflicts that refute exactly the orders under which the language of
    `min_dfa` has a witness (mu, nu, gamma): mu and nu reach states u != v,
    gamma cycles at both, is a suffix of neither, and sorts co-lex on the
    same side of both.

    Pumping gamma keeps every condition, so no length bound is needed.  Per
    pair u < v, one walk reads gamma backwards from (u, v) in the pair
    product, over pairs the forward walk from (u, v) reaches (so gamma can
    always close into a cycle there), and reads mu and nu backwards from u
    and v alongside it.  A side's status is its DFA state while the word
    equals gamma so far; once decided, it is the literals under which the
    word sorts before gamma: ((x, c),) when it reads x where gamma reads c,
    or () when it ended at the initial state, a proper suffix of gamma.
    """
    init, syms = min_dfa.initial, min_dfa.alphabet.symbols
    delta, pred = min_dfa.delta, min_dfa.pred
    # moves[s][r]: statuses of a word equal to gamma so far at s, after
    # gamma's next letter, the rank-r symbol c
    moves = [[list(same) + [()] * (init in same)
              + [((x, c),) for x, other in zip(syms, pred[s]) if x != c and other]
              for c, same in zip(syms, pred[s])]
             for s in range(min_dfa.n)]
    conflicts = set()
    for u in range(min_dfa.n):
        for v in range(u + 1, min_dfa.n):
            reach, stack = {(u, v)}, [(u, v)]
            while stack:
                p, q = stack.pop()
                for nxt in zip(delta[p], delta[q]):
                    if None not in nxt and nxt not in reach:
                        reach.add(nxt)
                        stack.append(nxt)
            stack = [(u, v, a, b) for a in [u] + [()] * (u == init)
                     for b in [v] + [()] * (v == init)]
            seen = set(stack)
            while stack:
                p, q, a, b = stack.pop()
                if isinstance(a, tuple) and isinstance(b, tuple):
                    if not a + b:  # both proper suffixes: every order has a witness
                        return {()}
                    conflicts.add(a + b)
                    if a and b:  # both after gamma: the flipped literals
                        conflicts.add(tuple((c, x) for (x, c) in a + b))
                    continue
                for r in range(len(syms)):
                    steps_a = (a,) if isinstance(a, tuple) else moves[a][r]
                    steps_b = (b,) if isinstance(b, tuple) else moves[b][r]
                    for p2 in pred[p][r]:
                        for q2 in pred[q][r]:
                            if (p2, q2) not in reach:
                                continue
                            for a2 in steps_a:
                                for b2 in steps_b:
                                    node = (p2, q2, a2, b2)
                                    if node not in seen:
                                        seen.add(node)
                                        stack.append(node)
    return conflicts


def independent_language_status(d):
    """Language status of the DFA `d` from the two independent deciders
    alone: construct-and-verify, or the witness search where the construction
    is infeasible.  It never runs the witness-conflict walk, so the walk and
    `method="both"`, which follows the walk, can be checked against it."""
    try:
        return is_language_wheeler_dfa(d, method=METHOD_CONSTRUCT).status
    except InfeasibleEnumeration:
        return is_language_wheeler_dfa(d, method=METHOD_WITNESS).status


def two_step_minimize(d):
    """`minimize` as two steps: the Moore quotient, its blocks numbered as
    they appear by state id, then renumbered by `canonical_dfa`."""
    d = trim_basic(d)
    if not d.deterministic:
        raise NotDeterministic("minimize wants a deterministic automaton")
    if not d.finals:
        return empty_language_automaton(d.alphabet)

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
        for t in d.delta[q]:
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


def in_edges(a):
    """state -> tuple of its incoming edges, sorted: the per-state index the
    checks below read, which `input_consistency` and `verify_wheeler` replaced
    with passes over `edges`."""
    inc = {q: [] for q in range(a.n)}
    for e in sorted(a.edges):
        inc[e[2]].append(e)
    return {q: tuple(es) for q, es in inc.items()}


def indexed_input_consistency(a):
    """`input_consistency` walking the states in id order over `in_edges`."""
    inc = in_edges(a)
    labels = [None] * a.n
    labels[a.initial] = INITIAL_MARK
    for q in range(a.n):
        for edge in inc[q]:
            if q == a.initial:
                return WheelerViolation(
                    INITIAL_IN_EDGE, (edge,),
                    f"edge {edge} enters the initial state")
            sym = edge[1]
            if labels[q] is None:
                labels[q] = sym
            elif labels[q] != sym:
                first = next(e for e in inc[q] if e[1] == labels[q])
                return WheelerViolation(
                    INPUT_INCONSISTENT, (first, edge),
                    f"state {q} has in-labels {labels[q]} and {sym}")
    return LambdaMap(tuple(labels))


def indexed_verify_wheeler(a, order):
    """`verify_wheeler` reading the initial state's in-edges from `in_edges`
    and sweeping condition (ii) with two indexes."""
    ranks = order.ranks
    if len(ranks) != a.n or sorted(ranks) != list(range(a.n)):
        return WheelerViolation(
            ORDER_CONTRADICTION, tuple(ranks), "ranking is not a bijection onto 0..n-1")
    if ranks[a.initial] != 0:
        return WheelerViolation(
            ORDER_CONTRADICTION, (a.initial,), "the initial state is not the minimum")
    into_initial = in_edges(a)[a.initial]
    if into_initial:
        edge = into_initial[0]
        return WheelerViolation(
            INITIAL_IN_EDGE, (edge,), f"edge {edge} enters the initial state")

    by_label = {}
    for e in a.edges:
        by_label.setdefault(e[1], []).append(e)

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

    for sym in a.alphabet.symbols:
        block = by_label.get(sym)
        if not block:
            continue
        block.sort(key=lambda e: (ranks[e[0]], ranks[e[2]]))
        best = None
        i = 0
        while i < len(block):
            j = i
            while j < len(block) and block[j][0] == block[i][0]:
                j += 1
            group = block[i:j]
            if best is not None and ranks[best[2]] > ranks[group[0][2]]:
                return WheelerViolation(
                    CONDITION_II, (best, group[0]),
                    f"{best} and {group[0]} share label {sym} but cross the order")
            top = group[-1]
            if best is None or ranks[top[2]] > ranks[best[2]]:
                best = top
            i = j
    return None


class PairOrderSearch(_OrderSearch):
    """The NFA order search before its one decision loop: `solve` calls
    `next_open` for the first open pair and `orient` to decide it, with a
    trail of (p, q) tuples and (mark, position, flipped) decisions.  Same
    refinement, same propagation rules, same node accounting."""

    def implied(self, p, q):
        """Target pairs (v, w) that p-before-q pushes into v-before-w."""
        row_p, row_q = self.succ[p], self.succ[q]
        for r in self.by_name:
            for v in row_p[r]:
                for w in row_q[r]:
                    if v != w:
                        yield v, w

    def before(self, p, q):
        """+1 if p is known to precede q, -1 if q precedes p, 0 if open."""
        rp, rq = self.rank[p], self.rank[q]
        if rp != rq:
            return 1 if rp < rq else -1
        return 1 if p in self.below[q] else -1 if q in self.below[p] else 0

    def orient(self, p, q):
        """Record p before q; propagate; False on contradiction.

        Only pairs not known when pushed go on the stack.  A known pair
        stays known until `undo`, which runs after this returns, so the
        pairs left out are exactly the ones that would be popped and
        skipped, and the same pairs are oriented in the same order."""
        stack = [(p, q)]
        while stack:
            self.count(1)
            x, y = stack.pop()
            cur = self.before(x, y)
            if cur == 1:
                continue
            if cur == -1:
                return False
            below_y, above_x = self.below[y], self.above[x]
            below_y.add(x)
            above_x.add(y)
            self.trail.append((x, y))
            if self.sends[x] and self.sends[y]:
                stack.extend(pair for pair in self.implied(x, y) if self.before(*pair) != 1)
            # close transitively: r < x gives r < y, and y < r gives x < r
            below_x, above_y = self.below[x] - below_y, self.above[y] - above_x
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
        """Position (bi, i, j) of the first unoriented pair p = blocks[bi][i]
        before q = classes[rank[p]][j] at or after the given position, or
        None.  Blocks and classes list states by id, so pairs come in the
        order (block, id of p, id of q > id of p)."""
        for bi in range(bi, len(self.blocks)):
            states = self.blocks[bi]
            for i in range(i, len(states)):
                p = states[i]
                mates = self.classes[self.rank[p]]
                above, below = self.above[p], self.below[p]
                for j in range(max(j, bisect_right(mates, p)), len(mates)):
                    if mates[j] not in above and mates[j] not in below:
                        return bi, i, j
                j = 0
            i = 0
        return None

    def solve(self):
        """Depth first: orient the first open pair one way, then the other.
        Pairs before a decision stay oriented below it, so scans resume there."""
        decisions = []  # (trail mark, pair position, second way taken)
        pos, flipped = self.next_open(0, 0, 0), False
        while pos is not None:
            bi, i, j = pos
            p = self.blocks[bi][i]
            q = self.classes[self.rank[p]][j]
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


class RoundOrderSearch(PairOrderSearch):
    """The NFA order search with the refinement and propagation it had
    before the Hopcroft-style `refine` and the filtered `orient`: full
    refinement rounds, in which every state of a class of two or more is
    re-keyed by dense class rank, and propagation that pushes every implied
    and closure pair, known or not, and pays one node to pop each."""

    def interval(self, q):
        """(min, max) rank of the sources of q's in-edges."""
        ranks = [self.rank[u] for u in self.sources[q]]
        return (min(ranks), max(ranks)) if ranks else (-1, -1)

    def refine(self):
        while True:
            split = []
            for members in self.classes:
                if len(members) == 1:
                    split.append(members)
                    continue
                self.count(len(members))
                keyed = {}
                for q in members:
                    keyed.setdefault(self.interval(q), []).append(q)
                split.extend(keyed[key] for key in sorted(keyed))
            if len(split) == len(self.classes):
                break
            self.classes = split
            for r, members in enumerate(split):
                for q in members:
                    self.rank[q] = r
        top = None
        for members in self.classes:
            lo, hi = self.interval(members[0])
            if len(members) > 1 and lo != hi:
                return False
            block = self.block_of[members[0]]
            if top is not None and top[0] == block and top[1] > lo:
                return False
            top = (block, hi)
        return True

    def orient(self, p, q):
        stack = [(p, q)]
        while stack:
            self.count(1)
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
            below_x, above_y = self.below[x], self.above[y]
            for r in sorted(below_x | above_y):
                if r in below_x:
                    stack.append((r, y))
                if r in above_y:
                    stack.append((x, r))
        return True


def order_search(a, budget, search_class):
    """`nfa_wheeler_search` run with `search_class` as its engine.  Returns
    the outcome and the search (None for an input-consistency violation),
    whose `nodes` is the work done, also when the budget ran out."""
    lam = input_consistency(a)
    if isinstance(lam, WheelerViolation):
        return ("violation", lam.kind, lam.evidence, lam.detail), None
    search = search_class(a, label_blocks(a, lam), budget)
    try:
        if not search.refine() or not search.solve():
            return ("none",), search
    except SearchBudgetExceeded as e:
        return ("budget", str(e)), search
    order = search.extract_order()
    assert verify_wheeler(a, order) is None
    return ("order", order.ranks), search
