"""Minimum Wheeler DFA from a minimum DFA.

The states of the minimum WDFA are the classes of the convex, end-symbol
refinement of the Myhill-Nerode equivalence.  Every class has a member
shorter than n + n^2, so the co-lex sorted list of readable words up to that
depth, cut into runs of one class and one last symbol, yields one
representative per class; transitions follow from where representative-plus-
symbol lands among the representatives.

The builder never lists those words.  Co-lex order is the pre-order of the
trie of reversed readable words, children taken in symbol rank, and a node
for a suffix x only needs the partial map T: q -> delta(q, x) to know its
children (the in-edges of dom(T)) and whether x itself is readable (the
initial state is in dom(T)).  The runs of a subtree depend only on T and the
remaining depth, so `colex_class_runs` folds them bottom-up once per distinct
(T, remaining depth), with an explicit stack, and materializes only the
representatives.  `enumerate_prefixes` and `compute_fingerprint` keep the
list-and-scan definition as the reference the fold is tested against.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from itertools import islice

from .alphabet import INITIAL_MARK
from .automaton import Automaton, count_readable_words
from .errors import (
    ConstructionInconsistent,
    InfeasibleEnumeration,
    NotDeterministic,
    WheelerkitError,
)
from .wheeler import WheelerOrder, verify_wheeler

DEFAULT_WORD_CAP = 10 ** 7


def certifying_depth(n):
    """Enumeration depth that is guaranteed to expose every class."""
    return n + n * n


@dataclass(frozen=True)
class PrefixList:
    """All readable words up to the depth, strictly co-lex increasing."""

    words: tuple
    depth: int
    class_of: tuple  # index -> state of the minimum DFA reached
    last_sym: tuple  # index -> last symbol ("#" for the empty word)


@dataclass(frozen=True)
class Fingerprint:
    """One representative word per class, co-lex increasing."""

    representatives: tuple

    @property
    def classes(self):
        return len(self.representatives)


@dataclass(frozen=True)
class Wdfa:
    """A Wheeler DFA: automaton + its state order + the words the states stand for."""

    automaton: Automaton
    order: WheelerOrder
    representatives: tuple
    certified: bool


def _check_enumerable(min_dfa, depth, word_cap):
    if not min_dfa.deterministic:
        raise NotDeterministic("prefix enumeration wants a DFA")
    if depth < 0:
        raise WheelerkitError("depth must be non-negative")
    total = count_readable_words(min_dfa, depth)
    if total > word_cap:
        try:
            count = str(total)
        except ValueError:  # past Python's digit limit; 10^k < 2^(bits - 1) <= total
            count = f"more than 10^{(total.bit_length() - 1) * 30102 // 100000}"
        raise InfeasibleEnumeration(
            f"{count} readable words up to depth {depth} exceed the cap {word_cap}")


def enumerate_prefixes(min_dfa, depth, word_cap=DEFAULT_WORD_CAP):
    """Readable words of the minimum DFA up to `depth`, co-lex sorted.

    Walks only the paths of the automaton (readable words are exactly the
    prefixes of the language on a trimmed machine).  Raises
    InfeasibleEnumeration, without materializing anything, when a path count
    shows more than `word_cap` words.
    """
    _check_enumerable(min_dfa, depth, word_cap)
    syms, delta = min_dfa.alphabet.symbols, min_dfa.delta
    items = [((), min_dfa.initial)]
    frontier = [((), min_dfa.initial)]
    for _ in range(depth):
        nxt = []
        for w, q in frontier:
            for sym, t in zip(syms, delta[q]):
                if t is not None:
                    nxt.append((w + (sym,), t))
        if not nxt:
            break
        frontier = nxt
        items.extend(nxt)

    key = min_dfa.alphabet.colex_key
    items.sort(key=lambda item: key(item[0]))
    return PrefixList(
        words=tuple(w for w, _ in items),
        depth=depth,
        class_of=tuple(q for _, q in items),
        last_sym=tuple(w[-1] if w else INITIAL_MARK for w, _ in items),
    )


def compute_fingerprint(min_dfa, prefixes):
    """Scan the sorted prefix list for runs of one class.

    A new run starts whenever the Myhill-Nerode class or the last symbol
    changes.  The representative of a run is its shortest word (ties broken
    co-lexicographically), which keeps representatives below the n + n^2
    length bound whenever the depth is certifying.
    """
    words, classes, lasts = prefixes.words, prefixes.class_of, prefixes.last_sym
    reps = []
    run_best = None
    for i in range(len(words)):
        if i > 0 and (classes[i] != classes[i - 1] or lasts[i] != lasts[i - 1]):
            reps.append(run_best)
            run_best = None
        if run_best is None or len(words[i]) < len(run_best):
            run_best = words[i]
    if run_best is not None:
        reps.append(run_best)
    return Fingerprint(tuple(reps))


def colex_class_runs(min_dfa, depth, word_cap):
    """compute_fingerprint(min_dfa, enumerate_prefixes(min_dfa, depth)),
    folded over the trie of reversed readable words without listing them.

    Returns three tuples: the representatives, co-lex increasing, the state
    of the minimum DFA each one reaches, and their co-lex keys.  Raises what
    enumerate_prefixes raises, including InfeasibleEnumeration past
    `word_cap` words.

    A trie node is a pair (T, remaining depth); its runs are triples
    (class, length, link) with the length and the word relative to the node.
    A link is None for the empty word or (inner link, rank), the word of the
    inner link followed by that symbol.
    """
    _check_enumerable(min_dfa, depth, word_cap)
    n, init = min_dfa.n, min_dfa.initial
    syms, delta, pred = min_dfa.alphabet.symbols, min_dfa.delta, min_dfa.pred
    far = n + depth  # beyond every distance and every remaining depth
    dist = [far] * n  # length of the shortest word reaching q
    dist[init] = 0
    queue = [init]
    for q in queue:  # breadth first: the loop reads what it appends
        for t in delta[q]:
            if t is not None and dist[t] == far:
                dist[t] = dist[q] + 1
                queue.append(t)

    ids = {}  # T as sorted (q, delta(q, x)) pairs -> id
    maps, emits, kids = [], [], []

    def intern(pairs):
        tid = ids.get(pairs)
        if tid is None:
            tid = ids[pairs] = len(maps)
            maps.append(pairs)
            emits.append(next((t for p, t in pairs if p == init), None))
            kids.append(None)
        return tid

    def children(tid):
        """(rank, child id, distance of the child's nearest state), by rank."""
        if kids[tid] is None:
            groups = [[] for _ in syms]
            for q, t in maps[tid]:
                for group, sources in zip(groups, pred[q]):
                    group.extend((p, t) for p in sources)
            kids[tid] = [(rank, intern(tuple(sorted(group))),
                          min(dist[p] for p, _ in group))
                         for rank, group in enumerate(groups) if group]
        return kids[tid]

    memo = {}  # (id, remaining depth) -> runs of that subtree
    opened = {}  # node -> its kept children, while they are being folded
    root = intern(tuple((q, q) for q in range(n)))
    top = [(rank, (cid, depth - 1)) for rank, cid, near in children(root) if near < depth]
    stack = [node for _, node in top]
    while stack:
        node = stack[-1]
        if node in memo:
            stack.pop()
            continue
        kept = opened.pop(node, None)
        if kept is None:
            tid, r = node
            kept = [(rank, (cid, r - 1)) for rank, cid, near in children(tid) if near < r]
            pending = [child for _, child in kept if child not in memo]
            if pending:
                opened[node] = kept
                stack.extend(pending)
                continue
        stack.pop()
        memo[node] = _concat_runs(emits[node[0]], kept, memo)

    reps, states, keys = [()], [init], [()]
    for rank, node in top:  # no merging here: the last symbol changes
        for cls, _, link in memo[node]:
            key = [rank]
            while link is not None:
                link, r = link
                key.append(r)
            reps.append(tuple(syms[r] for r in reversed(key)))
            states.append(cls)
            keys.append(tuple(key))
    return tuple(reps), tuple(states), tuple(keys)


def _concat_runs(emitted, kept, memo):
    """Runs of a node: its own word, then each kept child's runs in rank
    order; adjacent runs of one class merge and a strictly shorter word wins."""
    runs = [] if emitted is None else [(emitted, 0, None)]
    for rank, child in kept:
        child_runs = memo[child]
        cls, length, link = child_runs[0]
        if runs and runs[-1][0] == cls:
            if length + 1 < runs[-1][1]:
                runs[-1] = (cls, length + 1, (link, rank))
        else:
            runs.append((cls, length + 1, (link, rank)))
        runs.extend((c, k + 1, (w, rank)) for c, k, w in islice(child_runs, 1, None))
    return runs


def build_min_wdfa(min_dfa, depth=None, word_cap=DEFAULT_WORD_CAP):
    """Assemble the minimum WDFA for the language of a minimum DFA.

    With the default depth the construction is certifying: the result is
    verified Wheeler and language-equal to the input.  Its state j is final,
    or has a c-edge, iff rep_state[j] does; so if rep_state maps state 0 to
    the initial state and t to delta(rep_state[j], c) on each edge (j, c, t),
    it is a homomorphism, and both accept the same words.  Any inconsistency
    (raised as ConstructionInconsistent) proves the language is not Wheeler.
    A smaller explicit depth is diagnostic only.
    """
    n = min_dfa.n
    d = certifying_depth(n) if depth is None else depth
    certifying = d >= certifying_depth(n)
    reps, rep_state, keys = colex_class_runs(min_dfa, d, word_cap)
    m = len(reps)
    delta = min_dfa.delta

    finals = frozenset(j for j in range(m) if rep_state[j] in min_dfa.finals)
    edges = set()
    homomorphic = rep_state[0] == min_dfa.initial
    for j, rep in enumerate(reps):
        for rank, c in enumerate(min_dfa.alphabet.symbols):
            probe_state = delta[rep_state[j]][rank]
            if probe_state is None:
                continue  # rep . c is not readable: no c-edge out of this state
            last_c = (rank,)  # key prefix of the words ending in c
            pk = last_c + keys[j]
            pos = bisect.bisect_left(keys, pk)
            if pos < m and keys[pos] == pk:
                target = pos
            elif pos == m:
                target = m - 1
            else:
                s, s1 = pos - 1, pos
                eq_s, eq_s1 = rep_state[s] == probe_state, rep_state[s1] == probe_state
                if not (eq_s or eq_s1):
                    raise ConstructionInconsistent(
                        "probe falls between two representatives of other classes",
                        word=rep, symbol=c)
                if eq_s and eq_s1:  # the one whose word ends in c
                    eq_s = keys[s][:1] == last_c
                    if eq_s == (keys[s1][:1] == last_c):
                        raise ConstructionInconsistent(
                            "end-symbol tie between enclosing representatives",
                            word=rep, symbol=c)
                target = s if eq_s else s1
            edges.add((j, c, target))
            homomorphic = homomorphic and rep_state[target] == probe_state

    automaton = Automaton(min_dfa.alphabet, m, 0, finals, frozenset(edges))
    order = WheelerOrder(tuple(range(m)))
    if certifying:
        violation = verify_wheeler(automaton, order)
        if violation is not None:
            raise ConstructionInconsistent(f"built automaton is not Wheeler: {violation}")
        if not homomorphic:
            raise ConstructionInconsistent("built automaton changes the language")
    return Wdfa(automaton, order, reps, certifying)
