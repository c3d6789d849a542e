import random
import tracemalloc

import pytest

from wheelerkit import (
    AlphabetMismatch,
    Automaton,
    FormatError,
    NotDeterministic,
    OrderedAlphabet,
    accepts,
    determinize,
    dfa_walk,
    language_equal,
    minimize,
    parse_automaton,
    reduce_betweenness_to_dfa,
    reduce_universality,
    run,
    serialize_automaton,
    to_dot,
    trim_basic,
    word,
)
from wheelerkit.automaton import entering_layers
from wheelerkit.wheeler import _entering_tree
from reference import (WordNotReadable, heap_entering_words, right_context_equal,
                       two_step_minimize)
from conftest import make
from corpus import (SYMS, all_words, enumerate_small_betweenness, random_feasible_dfa,
                    random_trimmed_nfa)


def test_parse_wdfa6_fixture(fixtures_dir, wdfa6):
    text = (fixtures_dir / "wdfa6.aut").read_text()
    a = parse_automaton(text)
    assert a == wdfa6
    assert a.n == 6 and len(a.edges) == 8
    assert a.deterministic


def test_parse_single_state_epsilon_language():
    a = parse_automaton("alphabet a\nstates 1\ninitial 0\nfinal 0\n")
    assert a.n == 1 and a.finals == frozenset({0}) and not a.edges
    assert accepts(a, ()) and not accepts(a, ("a",))


@pytest.mark.parametrize("text,fragment", [
    ("alphabet a\nstates 1\ninitial 0\nfinal 0\nedge 0 b 0\n", "symbol"),
    ("alphabet a\nstates 1\ninitial 0\nfinal 0\nedge 0 a 3\n", "state"),
    ("alphabet a\nstates 1\ninitial 0\nfinal 0\nedge 0 a 0\nedge 0 a 0\n", "duplicate"),
    ("alphabet a\nstates 1\nfinal 0\n", "initial"),
    ("states 1\ninitial 0\nfinal 0\n", "alphabet"),
    ("alphabet a a\nstates 1\ninitial 0\nfinal 0\n", "duplicate"),
], ids=["bad-symbol", "bad-state", "dup-edge", "missing-initial",
        "missing-alphabet", "dup-symbol"])
def test_parse_rejections(text, fragment):
    with pytest.raises(FormatError) as err:
        parse_automaton(text)
    assert fragment in str(err.value)


def test_roundtrip_fixtures(wdfa6, mind4_nonwheeler):
    for a in (wdfa6, mind4_nonwheeler):
        assert parse_automaton(serialize_automaton(a)) == a


def test_roundtrip_random_trimmed_nfas():
    rng = random.Random(5)
    for _ in range(25):
        a = random_trimmed_nfa(rng, max_n=50, density=0.05)
        assert parse_automaton(serialize_automaton(a)) == a


def test_trim_keeps_basic_automaton(wdfa6):
    assert trim_basic(wdfa6) == wdfa6


def test_trim_drops_unreachable_final():
    a = make(("a",), 3, 0, {1, 2}, {(0, "a", 1)})
    t = trim_basic(a)
    assert t.n == 2 and t.finals == frozenset({1})
    assert language_equal(a, t)


def test_trim_to_empty_language():
    a = make(("a",), 2, 0, {1}, set())  # the final state is unreachable
    t = trim_basic(a)
    assert t.n == 1 and not t.finals and not t.edges


def test_trim_memory_does_not_grow_with_declared_states():
    # one edge among 200,000 declared states: the per-state tables would
    # take tens of megabytes
    a = make(("a", "b"), 200_000, 0, {1}, {(0, "a", 1)})
    tracemalloc.start()
    try:
        t = trim_basic(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert t.n == 2 and t.edges == frozenset({(0, "a", 1)})
    assert peak < 1_000_000, f"trim_basic peaked at {peak} bytes"


def test_run(wdfa6, mind4_nonwheeler):
    assert run(wdfa6, word("d c f")) == frozenset({5})
    assert run(wdfa6, ()) == frozenset({0})
    assert run(mind4_nonwheeler, word("b a")) == frozenset()


def test_run_from_state_set(wdfa6):
    assert run(wdfa6, ("c",), start={1, 4}) == frozenset({2, 3})


def test_determinize_deterministic_input_is_isomorphic(wdfa6):
    d = determinize(wdfa6)
    assert d.n == wdfa6.n and d.deterministic
    assert language_equal(d, wdfa6)


def test_determinize_mod2_branches_brute_force():
    # two nondeterministic branches, both accepting an even number of a's
    a = make(("a",), 3, 0, {0}, {(0, "a", 1), (0, "a", 2), (1, "a", 0), (2, "a", 0)})
    d = determinize(a)
    assert d.deterministic
    for w in all_words(("a",), 8):
        assert accepts(d, w) == (len(w) % 2 == 0)


def test_determinize_preserves_language_randomized():
    rng = random.Random(11)
    for _ in range(40):
        a = random_trimmed_nfa(rng, max_n=6, max_sigma=3)
        d = determinize(a)
        assert d.deterministic
        for w in all_words(a.alphabet.symbols, 8):
            assert accepts(a, w) == accepts(d, w)


def test_minimize_wdfa6_gives_four_state_min_dfa(wdfa6, mind4_wheeler):
    m = minimize(wdfa6)
    assert m.n == 4
    assert m == minimize(mind4_wheeler)


def test_minimize_is_idempotent_and_shrinks(mind4_nonwheeler):
    m = minimize(mind4_nonwheeler)
    assert m == minimize(m)
    assert m.n <= mind4_nonwheeler.n


def test_minimize_random_dfas_language_preserving():
    rng = random.Random(23)
    for _ in range(20):
        a = determinize(random_trimmed_nfa(rng, max_n=6, max_sigma=2))
        m = minimize(a)
        assert m.n <= a.n
        for w in all_words(a.alphabet.symbols, 9):
            assert accepts(a, w) == accepts(m, w)


def test_minimize_rejects_nfa():
    a = make(("a",), 2, 0, {1}, {(0, "a", 0), (0, "a", 1)})
    with pytest.raises(NotDeterministic):
        minimize(a)


def raw_dfa(rng):
    """Random partial DFA as given: unreachable and dead states, any
    initial state, possibly no final state."""
    n, sigma = rng.randint(1, 6), rng.randint(1, 3)
    edges = {(q, s, rng.randrange(n)) for q in range(n) for s in SYMS[:sigma]
             if rng.random() < 0.5}
    finals = {q for q in range(n) if rng.random() < 0.3}
    return make(SYMS[:sigma], n, rng.randrange(n), finals, edges)


def test_minimize_matches_the_two_step_reference(fixtures_dir):
    rng = random.Random(29)
    inputs = [random_feasible_dfa(rng, max_n=7, max_sigma=3) for _ in range(1000)]
    inputs += [determinize(random_trimmed_nfa(rng, max_n=6, max_sigma=3))
               for _ in range(600)]
    inputs += [determinize(reduce_universality(
        random_trimmed_nfa(rng, max_n=4, force_eps=True)).automaton) for _ in range(300)]
    inputs += [raw_dfa(rng) for _ in range(200)]
    inputs += [reduce_betweenness_to_dfa(inst).automaton
               for inst in enumerate_small_betweenness()]
    inputs += [determinize(parse_automaton(path.read_text(encoding="utf-8")))
               for path in sorted(fixtures_dir.glob("*.aut"))]
    assert len(inputs) >= 2000
    for a in inputs:
        assert minimize(a) == two_step_minimize(a), serialize_automaton(a)


def test_language_equal(wdfa6, mind4_wheeler):
    assert language_equal(wdfa6, mind4_wheeler)
    assert language_equal(wdfa6, wdfa6)
    other_symbols = make(("a", "b", "c", "f"), 4, 0, {1, 3},
                         {(0, "a", 1), (1, "c", 1), (0, "b", 2), (2, "c", 2),
                          (2, "f", 3)})
    with pytest.raises(AlphabetMismatch):
        language_equal(mind4_wheeler, other_symbols)


def test_language_equal_separating_word(mind4_wheeler, mind4_nonwheeler):
    shared = OrderedAlphabet(("a", "b", "c", "d", "f"))
    wa = Automaton(shared, mind4_wheeler.n, 0, mind4_wheeler.finals, mind4_wheeler.edges)
    wb = Automaton(shared, mind4_nonwheeler.n, 0, mind4_nonwheeler.finals,
                   mind4_nonwheeler.edges)
    assert not language_equal(wa, wb)
    assert accepts(wb, word("b c f")) and not accepts(wa, word("b c f"))


def test_readable_words_are_prefixes_of_the_language():
    rng = random.Random(31)
    for _ in range(15):
        a = random_trimmed_nfa(rng, max_n=5, max_sigma=2)
        for w in all_words(a.alphabet.symbols, 5):
            reached = run(a, w)
            if not reached:
                continue
            # extend along co-reachability to an accepted word
            extended = False
            for tail in all_words(a.alphabet.symbols, a.n):
                if run(a, tail, start=reached) & a.finals:
                    extended = True
                    break
            assert extended, (serialize_automaton(a), w)


def test_right_context_equal(mind4_nonwheeler, mind4_wheeler):
    mb = minimize(mind4_nonwheeler)
    assert not right_context_equal(mb, ("a",), ("b",))
    assert right_context_equal(mb, ("a",), ("a",))
    ma = minimize(mind4_wheeler)
    assert right_context_equal(ma, ("a",), word("a c"))
    with pytest.raises(WordNotReadable):
        right_context_equal(ma, word("a f"), ("a",))


def test_to_dot_mentions_every_state_and_edge(wdfa6):
    dot = to_dot(wdfa6)
    assert dot.count("doublecircle") == len(wdfa6.finals)
    assert '0 -> 1 [label="a"]' in dot


def test_entering_words_match_the_heap_walk():
    rng = random.Random(3)
    argument_sets = [(5, 10 ** 4), (6, 0), (6, 1), (8, 50)]  # (max_len, budget)
    truncated = 0
    for _ in range(300):
        d = random_feasible_dfa(rng, max_n=6, max_sigma=3)
        for max_len, budget in argument_sets:
            words = {q: [] for q in range(d.n)}
            cut = any(entering_layers(d, words, max_len, budget))
            got = {q: tuple(ws) for q, ws in words.items()}, cut
            assert got == heap_entering_words(d, max_len=max_len, budget=budget), (max_len, budget)
            truncated += cut
    assert 0 < truncated < 300 * len(argument_sets)


def test_the_entering_tree_reads_the_least_entering_words(fixtures_dir):
    rng = random.Random(3)
    dfas = [random_feasible_dfa(rng, max_n=6, max_sigma=3) for _ in range(300)]
    fixtures = [parse_automaton(p.read_text()) for p in sorted(fixtures_dir.glob("*.aut"))]
    dfas += [trim_basic(a) for a in fixtures if a.deterministic]
    dfas += [reduce_betweenness_to_dfa(inst).automaton for inst in enumerate_small_betweenness()]
    for d in dfas:
        parent, symbol = _entering_tree(d, "test")
        words = {}
        for state in range(d.n):
            w, q = [], state
            while symbol[q] is not None:
                w.append(symbol[q])
                q = parent[q]
            words[state] = (tuple(reversed(w)),)
        assert words == heap_entering_words(d, per_state=1)[0], d


def _table_automata(fixtures_dir):
    """The fixtures and seeded NFA and DFA draws."""
    autos = [parse_automaton(p.read_text()) for p in sorted(fixtures_dir.glob("*.aut"))]
    rng = random.Random(11)
    autos += [random_trimmed_nfa(rng, max_n=6) for _ in range(150)]
    autos += [random_feasible_dfa(rng, max_n=6) for _ in range(150)]
    return autos


def _table_edges(a, rows, flip=False):
    """Edges read back from a table of rows indexed by state and rank."""
    syms = a.alphabet.symbols
    assert len(rows) == a.n and all(len(row) == len(syms) for row in rows)
    edges = set()
    for q, row in enumerate(rows):
        for r, others in enumerate(row):
            assert list(others) == sorted(set(others))
            edges.update((t, syms[r], q) if flip else (q, syms[r], t) for t in others)
    return edges


def test_tables_rebuild_the_edges(fixtures_dir):
    nfas = dfas = 0
    for a in _table_automata(fixtures_dir):
        assert _table_edges(a, a.succ) == a.edges
        assert _table_edges(a, a.pred, flip=True) == a.edges
        if a.deterministic:
            dfas += 1
            delta = [[() if t is None else (t,) for t in row] for row in a.delta]
            assert _table_edges(a, delta) == a.edges
        else:
            nfas += 1
            with pytest.raises(NotDeterministic):
                a.delta
    assert nfas > 50 and dfas > 50


def test_walks_read_no_symbol_outside_the_alphabet(fixtures_dir):
    for a in _table_automata(fixtures_dir):
        for w in [("z",), ("a", "z"), ("z", "a")]:
            assert run(a, w) == frozenset()
            assert accepts(a, w) is False
            if a.deterministic:
                assert dfa_walk(a, w) is None


def test_dfa_walk_rejects_an_nfa_before_reading():
    # a deterministic first step no longer lets the walk start
    nfa = make(("a", "b"), 3, 0, {1, 2}, {(0, "a", 1), (1, "b", 1), (1, "b", 2)})
    for w in [(), ("a",), ("a", "b")]:
        with pytest.raises(NotDeterministic):
            dfa_walk(nfa, w)
