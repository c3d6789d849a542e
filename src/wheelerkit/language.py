"""Deciding whether the *language* of an automaton is Wheeler.

A language accepted by a DFA is not Wheeler exactly when there are words
mu, nu, gamma such that mu and nu reach inequivalent states, gamma labels a
cycle at both of those states, gamma is a suffix of neither, and gamma sits
co-lexicographically on one side of both (with |mu|, |nu| <= |gamma| <=
n^3 + 2n^2 + n + 2 for the minimum DFA size n).  Two independent deciders
are provided: a capped search for such a witness, and construct-and-verify
via the minimum-WDFA builder; `method="both"` cross-checks them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .alphabet import is_suffix
from .automaton import (determinize, dfa_walk, minimize, shortest_entering_words,
                        trim_basic)
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
    `entering` lists words reaching each state, shortest first.  `truncated`
    records that some enumeration hit its work budget, in which case an empty
    search result is not a coverage claim.
    """

    gammas: dict
    entering: dict
    truncated: bool


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
    """Gather cycle-label candidates and entering words for the search.

    Any cycling word at an anchor pair projects to a closed walk in the
    product automaton; the candidates cover the simple product cycles, their
    two-fold concatenations, and all their pumps within the caps.
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

    entering, trunc = shortest_entering_words(
        min_dfa, max_len=max_gamma, budget=caps.path_count_cap)
    truncated |= trunc
    return WitnessCandidates(gammas=gammas, entering=entering, truncated=truncated)


def search_witness(min_dfa, candidates):
    """Smallest witness over the candidates, by (|gamma|, gamma, mu, nu).

    Evaluates the side conditions under `min_dfa`'s alphabet order, so the
    same candidate set can be replayed against reordered copies.  A returned
    witness always re-validates with check_witness_dfa.
    """
    key = min_dfa.alphabet.colex_key
    for gamma in sorted(candidates.gammas, key=lambda g: (len(g), key(g))):
        kg = key(gamma)
        best = None
        for (u, v) in candidates.gammas[gamma]:
            if dfa_walk(min_dfa, gamma, start=u) != u:
                continue
            if dfa_walk(min_dfa, gamma, start=v) != v:
                continue
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
                raise WheelerkitError(f"search produced an invalid witness: {best}")
            return best
    return None


def is_language_wheeler_dfa(d, method=METHOD_BOTH, caps=None,
                            word_cap=DEFAULT_WORD_CAP):
    """Decide whether the language of a DFA is Wheeler.

    `witness`: capped witness search; a hit is a proof of not-Wheeler, a miss
    is a proof of Wheeler only when the caps cover the full length bound
    (else the verdict is bounded-wheeler).
    `construct`: build the minimum WDFA and verify it; success certifies
    Wheeler, any construction inconsistency refutes it.
    `both`: run the two and raise InternalDisagreement if they conflict.
    """
    if not d.deterministic:
        raise NotDeterministic("language check wants a DFA (use the nfa variant)")
    min_dfa = minimize(d)
    n = min_dfa.n
    caps = SearchCaps.default(n, caps)

    witness = covered = None
    if method in (METHOD_WITNESS, METHOD_BOTH):
        candidates = collect_candidates(min_dfa, caps)
        witness = search_witness(min_dfa, candidates)
        covered = caps.covers(n) and not candidates.truncated
        del candidates  # free the entering words before the WDFA construction
        if witness is not None and method == METHOD_WITNESS:
            return LanguageVerdict(NOT_WHEELER, witness=witness, caps=caps)
        if method == METHOD_WITNESS:
            if covered:
                return LanguageVerdict(WHEELER, caps=caps)
            return LanguageVerdict(BOUNDED_WHEELER, caps=caps,
                                   reason="no witness within caps")

    built = None
    refutation = infeasible = None
    try:
        built = build_min_wdfa(min_dfa, word_cap=word_cap)
    except ConstructionInconsistent as exc:
        refutation = str(exc)
    except InfeasibleEnumeration as exc:
        infeasible = exc

    if method == METHOD_CONSTRUCT:
        if infeasible is not None:
            raise infeasible
        if built is not None:
            return LanguageVerdict(WHEELER, wdfa=built, caps=caps)
        return LanguageVerdict(NOT_WHEELER, caps=caps, reason=refutation)

    if witness is not None:
        if built is not None:
            raise InternalDisagreement(
                f"witness {witness} found but the WDFA construction succeeded")
        return LanguageVerdict(NOT_WHEELER, witness=witness, caps=caps)
    if built is not None:
        return LanguageVerdict(WHEELER, wdfa=built, caps=caps)
    if refutation is not None:
        if covered:
            raise InternalDisagreement(
                f"WDFA construction failed ({refutation}) but the covered "
                f"witness search found nothing")
        return LanguageVerdict(NOT_WHEELER, caps=caps, reason=refutation)
    # construction infeasible: fall back to the witness-search semantics
    if covered:
        return LanguageVerdict(WHEELER, caps=caps,
                               reason="witness search exhausted; construction infeasible")
    return LanguageVerdict(BOUNDED_WHEELER, caps=caps,
                           reason="construction infeasible, caps not covering")


def is_language_wheeler_nfa(a, method=METHOD_BOTH, caps=None,
                            word_cap=DEFAULT_WORD_CAP, state_cap=DEFAULT_STATE_CAP):
    """NFA variant: determinize (capped), minimize, and delegate.

    Raises StateBlowupExceeded when the subset construction passes `state_cap`.
    """
    dfa = determinize(trim_basic(a), state_cap=state_cap)
    return is_language_wheeler_dfa(dfa, method=method, caps=caps, word_cap=word_cap)
