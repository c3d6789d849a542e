"""Deciding whether the *language* of an automaton is Wheeler.

A language accepted by a DFA is not Wheeler exactly when there are words
mu, nu, gamma such that mu and nu reach inequivalent states, gamma labels a
cycle at both of those states, gamma is a suffix of neither, and gamma sits
co-lexicographically on one side of both (with |mu|, |nu| <= |gamma| <=
n^3 + 2n^2 + n + 2 for the minimum DFA size n).  An exact, cap-free walk
(`witness_conflicts`), one per cyclic component of the pair product, decides
`method="both"`.  Two independent deciders back its answer: a capped search
names a witness, and construct-and-verify gives the certificate.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, replace
from functools import cache

from .alphabet import is_suffix
from .automaton import determinize, dfa_walk, entering_layers, minimize, trim_basic
from .errors import (
    ConstructionInconsistent,
    InfeasibleEnumeration,
    InternalDisagreement,
    NotDeterministic,
    WheelerkitError,
)
from .minwdfa import DEFAULT_WORD_CAP, build_min_wdfa

WHEELER = "wheeler"
NOT_WHEELER = "not-wheeler"
BOUNDED_WHEELER = "bounded-wheeler"

METHOD_WITNESS = "witness"
METHOD_CONSTRUCT = "construct"
METHOD_BOTH = "both"

DEFAULT_STATE_CAP = 2 ** 18


def gamma_length_bound(n):
    """Longest gamma a witness ever needs against an n-state DFA."""
    return n ** 3 + 2 * n ** 2 + n + 2


@dataclass(frozen=True)
class Witness:
    """(mu, nu, gamma) with the pair of states the two paths end in."""

    mu: tuple
    nu: tuple
    gamma: tuple
    anchors: tuple = None  # (u, v) states reached by mu and nu

    def words(self):
        return self.mu, self.nu, self.gamma


@dataclass(frozen=True)
class SearchCaps:
    """Witness search caps; a field left None takes its default for the
    minimum DFA's size (see `default`)."""

    gamma_bound: int = None
    cycle_len_cap: int = None
    pump_cap: int = None
    path_count_cap: int = None

    def __post_init__(self):
        for f in ("gamma_bound", "cycle_len_cap", "pump_cap", "path_count_cap"):
            if getattr(self, f) is not None and getattr(self, f) < 1:
                raise WheelerkitError(f"{f} must be positive")

    @staticmethod
    def default(n, caps=None):
        """Caps for an n-state minimum DFA: the fields `caps` sets, and for
        the rest the defaults, which cover every witness (`covers`)."""
        full = SearchCaps(
            gamma_bound=gamma_length_bound(n),
            cycle_len_cap=n * n,
            pump_cap=n + 1,
            path_count_cap=100_000,
        )
        if caps is None:
            return full
        return replace(full, **{f: v for f, v in vars(caps).items() if v is not None})

    def covers(self, n):
        """True when no witness against an n-state DFA can be out of scope
        merely because of these caps (work budgets aside)."""
        return (self.gamma_bound >= gamma_length_bound(n)
                and self.cycle_len_cap >= n * n
                and self.pump_cap >= n + 1)


@dataclass(frozen=True)
class LanguageVerdict:
    status: str
    witness: Witness = None
    wdfa: object = None  # minwdfa.Wdfa certificate for positive verdicts
    caps: SearchCaps = None
    reason: str = ""


def check_witness_dfa(min_dfa, witness):
    """Validate a witness against a minimum DFA (everything except the bound).

    Checks: mu and nu readable to two distinct states (distinctness in the
    minimum DFA is inequivalence), gamma cycles at both, gamma is a suffix of
    neither word, and the co-lex side condition holds.
    """
    mu, nu, gamma = witness.words()
    u = dfa_walk(min_dfa, mu)
    v = dfa_walk(min_dfa, nu)
    if u is None or v is None or u == v:
        return False
    if witness.anchors is not None and (u, v) != tuple(witness.anchors):
        return False
    if dfa_walk(min_dfa, gamma, start=u) != u:
        return False
    if dfa_walk(min_dfa, gamma, start=v) != v:
        return False
    return _side_conditions(min_dfa.alphabet, mu, nu, gamma)


def _side_conditions(alphabet, mu, nu, gamma):
    if is_suffix(gamma, mu) or is_suffix(gamma, nu):
        return False
    key = alphabet.colex_key
    km, kn, kg = key(mu), key(nu), key(gamma)
    return (km < kg and kn < kg) or (kg < km and kg < kn)


@dataclass
class WitnessCandidates:
    """Order-independent raw material for the witness search.

    `gammas` maps each candidate cycle word to the anchor pairs it cycles at;
    `entering` lists the words taken so far that reach each state, shortest
    first.  They are taken lazily, one length layer at a time, by `walk`, an
    `entering_layers` walk of the DFA the candidates were collected from
    (None once it has ended); `layers` counts the layers taken whole.  `truncated` records that some
    enumeration hit its work budget, in which case an empty search result is
    not a coverage claim; a budget cut of the walk shows there once `take`
    has run the walk to its end.
    """

    gammas: dict
    entering: dict
    truncated: bool
    walk: object
    layers: int = 0

    def take(self, length=None):
        """Take entering words until every one of length <= `length` (of
        any length, when None) is taken or the walk has ended."""
        while self.walk is not None and (length is None or self.layers <= length):
            cut = next(self.walk, None)
            if cut is False:
                self.layers += 1
            else:
                self.truncated |= bool(cut)
                self.walk = None


def _simple_cycle_labels(min_dfa, u, v, max_len, budget):
    """Labels of simple cycles through (u, v) in the product automaton."""
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


def collect_candidates(min_dfa, caps):
    """Gather cycle-label candidates, and the walk of entering words, for
    the search.

    Any cycling word at an anchor pair projects to a closed walk in the
    product automaton; the candidates cover the simple product cycles, their
    two-fold concatenations, and all their pumps within the caps.  The
    entering words, up to the longest gamma and `path_count_cap` taken, are
    left to the search to take as far as it reads them.
    """
    n = min_dfa.n
    truncated = False
    bases = {}
    for u in range(n):
        for v in range(u + 1, n):
            labels, trunc = _simple_cycle_labels(
                min_dfa, u, v, min(caps.cycle_len_cap, n * n), caps.path_count_cap)
            truncated |= trunc
            if labels:
                bases[(u, v)] = labels

    gammas = {}
    max_gamma = 0
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
                max_gamma = max(max_gamma, len(gamma))

    entering = {q: [] for q in range(n)}
    walk = entering_layers(min_dfa, entering, max_len=max_gamma, budget=caps.path_count_cap)
    return WitnessCandidates(gammas=gammas, entering=entering, truncated=truncated, walk=walk)


def _gammas_in_order(candidates, key):
    """The candidate gammas by (length, co-lex): each length bucket is
    sorted, and its entering words taken, only when the search reaches it."""
    buckets = {}
    for gamma in candidates.gammas:
        buckets.setdefault(len(gamma), []).append(gamma)
    for length in sorted(buckets):
        candidates.take(length)
        yield from sorted(buckets[length], key=key)


def search_witness(min_dfa, candidates):
    """Smallest witness over the candidates, by (|gamma|, gamma, mu, nu).

    Visits the gammas one length bucket at a time, sorting a bucket co-lex
    only when it gets there, and takes entering words only up to the length
    of the bucket at hand.  Evaluates the side conditions under `min_dfa`'s
    alphabet order, so the same candidate set can be replayed against
    reordered copies (its walk stays the one of the DFA it was collected
    from).  Each candidate gamma cycles at every one of its anchor pairs, so
    only the entering words and side conditions are checked here; a
    returned witness always re-validates with check_witness_dfa.
    """
    key = min_dfa.alphabet.colex_key
    for gamma in _gammas_in_order(candidates, key):
        kg = key(gamma)
        best = None
        for (u, v) in candidates.gammas[gamma]:
            picks = {}
            for state in (u, v):
                less = greater = None
                for w in candidates.entering[state]:
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


def _cyclic_components(size, roots, succ):
    """Yield, as lists, the strongly connected components with a cycle among
    the nodes 0..size-1 reached from `roots` (iterative Tarjan, 1972).  `succ(x)`
    lists x's successors, again on the way back to x: the stack holds ints."""
    num = array("q", bytes(8 * size))  # DFS number, then `done` once placed
    low = array("q", bytes(8 * size))
    done, count, path, stack = size + 1, 0, [], []  # stack: node, next edge, path length
    for root in roots:
        if num[root] or not (out := succ(root)):  # placed already, or a sink
            num[root] = done
            continue
        count = num[root] = low[root] = count + 1
        stack += (root, 0, len(path))
        path.append(root)
        while stack:  # out = succ(x)
            x, lx = stack[-3], low[stack[-3]]
            for i in range(stack[-2], len(out)):
                y = out[i]
                if not num[y]:
                    if not (below := succ(y)):
                        num[y] = done
                        continue
                    low[x], stack[-2] = lx, i + 1
                    count = num[y] = low[y] = count + 1
                    stack += (y, 0, len(path))
                    path.append(y)
                    out = below
                    break
                lx = min(lx, num[y])
            else:
                k = stack.pop()
                del stack[-2:]
                if lx == num[x]:
                    comp, path[k:] = path[k:], []
                    for y in comp:
                        num[y] = done
                    if len(comp) > 1 or x in out:
                        yield comp
                if stack:
                    low[stack[-3]] = min(low[stack[-3]], lx)
                    out = succ(stack[-3])


def witness_conflicts(min_dfa):
    """Conflicts that refute exactly the orders under which the language of
    `min_dfa` has a witness (mu, nu, gamma): mu and nu reach states u != v,
    gamma cycles at both, is a suffix of neither, and sorts co-lex on the
    same side of both.

    Pumping gamma keeps every condition, so no length bound is needed.  A
    walk reads gamma backwards in the pair product, mu and nu alongside.  A
    side's status is its DFA state while the word equals gamma so far; once
    decided, it is the literals under which the word sorts before gamma:
    ((x, c),) when it reads x where gamma reads c, or () when it ended at
    the initial state, a proper suffix of gamma.  From (u, v), u < v, gamma
    must close into a cycle, so the walk keeps to the strongly connected
    component of (u, v): one walk per component, from its pairs u < v with
    one `seen`, finds what a walk per pair finds.  A pair cycle is a cycle
    on each side, so one pass over pairs of states on cycles finds them.
    """
    init, syms = min_dfa.initial, min_dfa.alphabet.symbols
    delta, pred = min_dfa.delta, min_dfa.pred
    outs = [[t for t in row if t is not None] for row in delta]
    cyc = sorted(s for comp in _cyclic_components(min_dfa.n, range(min_dfa.n), outs.__getitem__)
                 for s in comp)
    if len(cyc) < 2:
        return set()
    m, index = len(cyc), {s: i for i, s in enumerate(cyc)}
    rows = [[index.get(t) for t in delta[s]] for s in cyc]  # successors on a cycle
    roots = (i * m + j for r in range(len(syms))  # pairs i < j sharing an out-symbol
             for out in [[i for i in range(m) if rows[i][r] is not None]]
             for i in out for j in out if i < j)

    @cache  # statuses of a word equal to gamma so far at s, after gamma's
    def step(s, r):  # next letter, the rank-r symbol c
        c, same = syms[r], pred[s][r]
        return list(same) + [()] * (init in same) + [
            ((x, c),) for x, other in zip(syms, pred[s]) if x != c and other]

    conflicts = set()
    sources = {s: [(r, ps) for r, ps in enumerate(pred[s]) if ps] for s in cyc}
    for comp in _cyclic_components(m * m, roots, lambda x: [
            a * m + b for a, b in zip(rows[x // m], rows[x % m])
            if a is not None and b is not None and a != b]):
        pairs = {(cyc[x // m], cyc[x % m]) for x in comp}
        stack = [(u, v, a, b) for u, v in sorted(pairs, reverse=True) if u < v
                 for a in [u] + [()] * (u == init) for b in [v] + [()] * (v == init)]
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
            for r, from_p in sources[p]:
                if pred[q][r]:
                    steps_a = (a,) if isinstance(a, tuple) else step(a, r)
                    steps_b = (b,) if isinstance(b, tuple) else step(b, r)
                    for node in [(p2, q2, a2, b2) for p2 in from_p for q2 in pred[q][r]
                                 if (p2, q2) in pairs for a2 in steps_a for b2 in steps_b]:
                        if node not in seen:
                            seen.add(node)
                            stack.append(node)
    return conflicts


def _by_witness(min_dfa, caps):
    """`witness`: capped witness search.  A hit refutes; a miss certifies
    only when the caps cover the length bound and nothing was truncated."""
    candidates = collect_candidates(min_dfa, caps)
    witness = search_witness(min_dfa, candidates)
    if witness is not None:
        return LanguageVerdict(NOT_WHEELER, witness=witness, caps=caps)
    candidates.take()  # a budget cut of the walk shows only at its end
    if caps.covers(min_dfa.n) and not candidates.truncated:
        return LanguageVerdict(WHEELER, caps=caps)
    return LanguageVerdict(BOUNDED_WHEELER, caps=caps, reason="no witness within caps")


def _by_construction(min_dfa, caps, word_cap):
    """`construct`: build and verify the minimum WDFA; an inconsistency
    refutes.  InfeasibleEnumeration propagates past `word_cap`."""
    try:
        wdfa = build_min_wdfa(min_dfa, word_cap=word_cap)
    except ConstructionInconsistent as exc:
        return LanguageVerdict(NOT_WHEELER, caps=caps, reason=str(exc))
    return LanguageVerdict(WHEELER, wdfa=wdfa, caps=caps)


def is_language_wheeler_dfa(d, method=METHOD_BOTH, caps=None,
                            word_cap=DEFAULT_WORD_CAP):
    """Decide whether the language of a DFA is Wheeler.

    `witness` and `construct` run one independent decider each.  `both`
    takes the witness-conflict walk's answer under the DFA's order, then asks
    the witness search for a witness (not Wheeler) and the construction for
    the certificate (Wheeler, or what the capped search leaves open).  A
    decided answer against the walk raises InternalDisagreement.
    """
    if not d.deterministic:
        raise NotDeterministic("language check wants a DFA (use the nfa variant)")
    min_dfa = minimize(d)
    caps = SearchCaps.default(min_dfa.n, caps)
    if method == METHOD_WITNESS:
        return _by_witness(min_dfa, caps)
    if method == METHOD_CONSTRUCT:
        return _by_construction(min_dfa, caps, word_cap)
    position = min_dfa.alphabet.position
    walk = NOT_WHEELER if any(all(position[s] < position[t] for s, t in conflict)
                              for conflict in witness_conflicts(min_dfa)) else WHEELER
    verdict = _by_witness(min_dfa, caps) if walk == NOT_WHEELER else None
    if verdict is None or verdict.status == BOUNDED_WHEELER:
        try:
            verdict = _by_construction(min_dfa, caps, word_cap)
        except InfeasibleEnumeration:
            # "witness search exhausted" though none ran: decided output, kept as is
            return LanguageVerdict(walk, caps=caps, reason=(
                "witness search exhausted" if walk == WHEELER
                else "a witness exists, none within caps") + "; construction infeasible")
    if verdict.status != walk:
        decider = "construction" if verdict.wdfa or verdict.reason else "witness search"
        raise InternalDisagreement(
            f"the witness-conflict walk says {walk}, the {decider} says {verdict.status}")
    return verdict


def is_language_wheeler_nfa(a, method=METHOD_BOTH, caps=None,
                            word_cap=DEFAULT_WORD_CAP, state_cap=DEFAULT_STATE_CAP):
    """NFA variant: determinize (capped), minimize, and delegate.

    Raises StateBlowupExceeded when the subset construction passes `state_cap`.
    """
    dfa = determinize(trim_basic(a), state_cap=state_cap)
    return is_language_wheeler_dfa(dfa, method=method, caps=caps, word_cap=word_cap)
