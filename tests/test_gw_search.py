"""The prefix-pruned order search against the exhaustive permutation loops.

The oracles below try every permutation of the alphabet (or of the
elements) in `itertools.permutations` order and run the per-order test on
each, as the searches did before conflicts pruned them.  The searches must
return the same tuple, None or exception on every input.
"""

import itertools
import random
import sys

import pytest

from wheelerkit import (
    BetweennessInstance,
    WheelerkitError,
    gw_automaton_check,
    gw_language_check,
    minimize,
    parse_automaton,
    parse_betweenness,
    reduce_betweenness_to_dfa,
    solve_betweenness,
    trim_basic,
    with_alphabet_order,
)
from wheelerkit.errors import AlphabetTooLarge, InfeasibleEnumeration, TooManyElements
from wheelerkit import gw, wheeler
from wheelerkit.gw import DEFAULT_MAX_SIGMA, _first_order
from wheelerkit.language import (
    BOUNDED_WHEELER,
    NOT_WHEELER,
    WHEELER,
    SearchCaps,
    collect_candidates,
    search_witness,
    witness_conflicts,
)
from wheelerkit.wheeler import (
    CONDITION_II,
    WheelerOrder,
    WheelerViolation,
    dfa_wheeler_order,
    input_consistency,
    nfa_wheeler_search,
    verify_wheeler,
)
from conftest import FIXTURES
from reference import (heap_entering_words, independent_language_status, least_entering_words,
                       triple_satisfied, word_before)
from corpus import (enumerate_small_betweenness, random_feasible_dfa, random_trimmed_nfa,
                    random_wheeler_nfa)


def _orders(alphabet, max_sigma):
    if len(alphabet) > max_sigma:
        raise AlphabetTooLarge(
            f"{len(alphabet)}! orders exceed the budget (sigma <= {max_sigma})")
    return itertools.permutations(alphabet.symbols)


def oracle_gw_automaton(a, max_sigma=DEFAULT_MAX_SIGMA, budget=10 ** 6):
    perms = _orders(a.alphabet, max_sigma)
    if isinstance(input_consistency(a), WheelerViolation):
        return None
    if a.deterministic:
        entering, _ = heap_entering_words(a, per_state=1)
        if not all(entering.values()):
            raise WheelerkitError("gw check wants a trimmed automaton")
        for symbols in perms:
            candidate = with_alphabet_order(a, symbols)
            key = candidate.alphabet.colex_key
            order = WheelerOrder.from_sequence(
                sorted(range(a.n), key=lambda q: key(entering[q][0])))
            if verify_wheeler(candidate, order) is None:
                return symbols
        return None
    for symbols in perms:
        result = nfa_wheeler_search(with_alphabet_order(a, symbols), budget=budget)
        if isinstance(result, WheelerOrder):
            return symbols
    return None


def oracle_gw_language(d, max_sigma=DEFAULT_MAX_SIGMA):
    if not d.deterministic:
        raise WheelerkitError("gw_language_check wants a DFA")
    perms = _orders(d.alphabet, max_sigma)
    min_dfa = minimize(d)
    screen = collect_candidates(min_dfa, SearchCaps(
        gamma_bound=min(64, 4 * min_dfa.n + 8),
        cycle_len_cap=min(min_dfa.n ** 2, 10),
        pump_cap=3,
        path_count_cap=5_000,
    ))
    for symbols in perms:
        candidate = with_alphabet_order(min_dfa, symbols)
        if search_witness(candidate, screen) is not None:
            continue
        status = independent_language_status(candidate)
        if status == WHEELER:
            return symbols
        if status == BOUNDED_WHEELER:
            raise InfeasibleEnumeration(
                f"cannot certify the order {' '.join(symbols)} either way")
    return None


def oracle_solve_betweenness(inst, max_elements=10):
    if len(inst.elements) > max_elements:
        raise TooManyElements(
            f"{len(inst.elements)} elements exceed the budget {max_elements}")
    for perm in itertools.permutations(inst.elements):
        position = {y: i for i, y in enumerate(perm)}
        if all(triple_satisfied(position, t) for t in inst.triples):
            return perm
    return None


def outcome(f, *args):
    try:
        return ("value", f(*args))
    except WheelerkitError as exc:
        return ("raise", type(exc).__name__, str(exc))


def assert_same(f, oracle, *args):
    assert outcome(f, *args) == outcome(oracle, *args), args


@pytest.fixture
def exact_pruning(monkeypatch):
    """Fail when `solve_betweenness` returns an order that breaks a triple:
    its conflicts alone must refute every failing order, as it tests none
    on its own.  DFA orders that fail `verify_wheeler` are logged: each one
    teaches the search the conflict its violation shows, so no two may fail
    on the same edges."""
    solve = solve_betweenness

    def checked(inst):
        order = solve(inst)
        if order is not None:
            position = {y: i for i, y in enumerate(order)}
            broken = [t for t in inst.triples if not triple_satisfied(position, t)]
            assert not broken, (inst, order, broken)
        return order

    monkeypatch.setattr(sys.modules[__name__], "solve_betweenness", checked)
    rejected = []

    def logged(a, order):
        violation = verify_wheeler(a, order)
        if violation is not None:
            rejected.append(violation.evidence)
        return violation

    monkeypatch.setattr(wheeler, "verify_wheeler", logged)
    return rejected


def check_automaton(a, rejected, *args):
    rejected.clear()
    assert_same(gw_automaton_check, oracle_gw_automaton, a, *args)
    assert len(set(rejected)) == len(rejected), a


def four_element_instances(count=40, seed=4):
    rng = random.Random(seed)
    elements = ("w", "x", "y", "z")
    triples = list(itertools.permutations(elements, 3))
    return [BetweennessInstance(elements, tuple(rng.sample(triples, rng.randint(1, 3))))
            for _ in range(count)]


def test_first_order_matches_the_permutation_scan():
    rng = random.Random(11)
    for trial in range(400):
        symbols = tuple("s%d" % i for i in range(rng.randint(0, 6)))
        literals = list(itertools.permutations(symbols, 2))
        conflicts = [tuple(rng.choice(literals) for _ in range(rng.randint(1, 2)))
                     for _ in range(rng.randint(0, 6) if literals else 0)]
        if rng.random() < 0.05:
            conflicts.append(())
        accepted = {p for p in itertools.permutations(symbols) if rng.random() < 0.3}

        def learn(order):
            """Conflicts a rejected order teaches: literals it satisfies."""
            r = random.Random(f"{trial} {order}")
            holding = [(s, t) for k, s in enumerate(order) for t in order[k + 1:]]
            if r.random() < 0.02:
                return [()]
            return [tuple(r.sample(holding, min(len(holding), r.randint(1, 2))))
                    for _ in range(r.randint(0, 2) if holding else 0)]

        def refuted(perm, known):
            position = {s: i for i, s in enumerate(perm)}
            return any(all(position[s] < position[t] for s, t in c) for c in known)

        # the exhaustive scan: every permutation no conflict known so far refutes
        known, expected_seen, expected = list(conflicts), [], None
        for perm in itertools.permutations(symbols):
            if refuted(perm, known):
                continue
            expected_seen.append(perm)
            if perm in accepted:
                expected = perm
                break
            known.extend(learn(perm))

        work, seen = list(conflicts), []

        def accept(order):
            seen.append(order)
            if order in accepted:
                return True
            work.extend(learn(order))
            return False

        assert _first_order(symbols, work, accept) == expected
        assert seen == expected_seen


def test_small_betweenness_gadgets_match_the_oracles(exact_pruning):
    for inst in enumerate_small_betweenness():
        assert_same(solve_betweenness, oracle_solve_betweenness, inst)
        gadget = reduce_betweenness_to_dfa(inst).automaton
        check_automaton(gadget, exact_pruning)
        assert_same(gw_language_check, oracle_gw_language, gadget)


def test_four_element_betweenness_matches_the_oracles(exact_pruning):
    for inst in four_element_instances():
        assert_same(solve_betweenness, oracle_solve_betweenness, inst)
        gadget = reduce_betweenness_to_dfa(inst).automaton
        # sigma = 4 elements + triples + 2: three triples exceed the default budget
        check_automaton(gadget, exact_pruning)
        assert_same(gw_language_check, oracle_gw_language, gadget)


def test_fixtures_match_the_oracles(exact_pruning):
    for path in sorted(FIXTURES.glob("*.aut")):
        a = trim_basic(parse_automaton(path.read_text()))
        check_automaton(a, exact_pruning)
        assert_same(gw_language_check, oracle_gw_language, a)
    for path in sorted(FIXTURES.glob("*.bet")):
        assert_same(solve_betweenness, oracle_solve_betweenness,
                    parse_betweenness(path.read_text()))


def test_random_dfas_match_the_oracles(exact_pruning):
    rng = random.Random(2024)
    for _ in range(400):
        d = random_feasible_dfa(rng, max_n=6, max_sigma=4)
        check_automaton(d, exact_pruning)
        assert_same(gw_language_check, oracle_gw_language, d)


def test_learned_literals_walk_the_entering_words_up_the_parent_tree():
    rng = random.Random(28)
    dfas = [random_feasible_dfa(rng, max_n=7, max_sigma=4) for _ in range(150)]
    dfas += [reduce_betweenness_to_dfa(inst).automaton for inst in enumerate_small_betweenness()]
    literals = set()
    for d in dfas:
        if not d.deterministic or isinstance(input_consistency(d), WheelerViolation):
            continue
        parent, symbol = wheeler._entering_tree(d, "test")
        words = least_entering_words(d)
        for u, v in itertools.product(range(d.n), repeat=2):
            literal = gw._before(parent, symbol, u, v)
            assert literal == word_before(words[u], words[v]), (d, u, v)
            literals.add(literal if isinstance(literal, bool) else "pair")
    assert literals == {True, False, "pair"}


def test_the_dfa_order_and_the_gw_check_share_one_candidate():
    """On an input-consistent DFA the GW check takes the listed order first,
    so it returns that order exactly when `dfa_wheeler_order` finds the
    Wheeler order.  The candidate sorts each state by a word ending in its
    in-label, so it always meets (i): every violation is a condition-(ii)
    one, the kind the GW check learns conflicts from."""
    rng = random.Random(315)
    dfas = [trim_basic(parse_automaton(path.read_text()))
            for path in sorted(FIXTURES.glob("*.aut"))]
    dfas += [random_feasible_dfa(rng) for _ in range(300)]
    dfas += [reduce_betweenness_to_dfa(inst).automaton for inst in enumerate_small_betweenness()]
    kinds = set()
    for d in dfas:
        if not d.deterministic or isinstance(input_consistency(d), WheelerViolation):
            continue
        result = dfa_wheeler_order(d)
        wheeler_as_listed = isinstance(result, WheelerOrder)
        assert (gw_automaton_check(d) == d.alphabet.symbols) == wheeler_as_listed, d
        assert wheeler_as_listed or result.kind == CONDITION_II, (d, result)
        kinds.add(wheeler_as_listed)
    assert kinds == {True, False}


def test_witness_conflicts_refute_exactly_the_non_wheeler_orders():
    rng = random.Random(606)
    orders = refuted = 0
    for _ in range(150):
        m = minimize(random_feasible_dfa(rng, max_n=6, max_sigma=4))
        conflicts = witness_conflicts(m)
        for order in itertools.permutations(m.alphabet.symbols):
            position = {s: i for i, s in enumerate(order)}
            holds = any(all(position[s] < position[t] for s, t in c) for c in conflicts)
            status = independent_language_status(with_alphabet_order(m, order))
            assert holds == (status == NOT_WHEELER), (m, order)
            orders += 1
            refuted += holds
    assert orders > 500 and 100 < refuted < orders - 100


def test_random_nfas_match_the_oracle():
    rng = random.Random(77)
    nfas = [random_trimmed_nfa(rng, max_n=5, max_sigma=3) for _ in range(200)]
    for _ in range(200):
        # Wheeler under the drawn order; a shuffled header makes the search look
        a, _ = random_wheeler_nfa(rng, max_n=7, max_sigma=3)
        nfas.append(with_alphabet_order(
            a, rng.sample(a.alphabet.symbols, len(a.alphabet))))
    searched = 0
    for a in nfas:
        searched += not (a.deterministic
                         or isinstance(input_consistency(a), WheelerViolation))
        for budget in (10, 10 ** 6):
            assert_same(gw_automaton_check, oracle_gw_automaton, a, DEFAULT_MAX_SIGMA,
                        budget)
    assert searched > 50


def test_guards_fire_before_the_search():
    inst = BetweennessInstance(tuple("e%d" % i for i in range(11)), (("e0", "e1", "e2"),))
    assert_same(solve_betweenness, oracle_solve_betweenness, inst)
    gadget = reduce_betweenness_to_dfa(four_element_instances()[0]).automaton
    for max_sigma in (0, 3, 6):
        assert_same(gw_automaton_check, oracle_gw_automaton, gadget, max_sigma)
        assert_same(gw_language_check, oracle_gw_language, gadget, max_sigma)


def _scan(symbols, conflicts, accept):
    """Every permutation that no conflict known so far refutes, in
    `itertools.permutations` order, until `accept` takes one; `accept` may
    extend `conflicts`.  Returns the order taken (or None) and the orders
    offered."""
    offered = []
    for perm in itertools.permutations(symbols):
        position = {s: i for i, s in enumerate(perm)}
        if any(all(position[s] < position[t] for s, t in c) for c in conflicts):
            continue
        offered.append(perm)
        if accept(perm):
            return perm, offered
    return None, offered


def _accepting(take, known, learn=lambda order: ()):
    """An `accept` that takes the orders `take` accepts, adds to `known` the
    conflicts `learn` draws from each order it rejects, and logs every call."""
    calls = []

    def accept(order):
        calls.append(order)
        if take(order):
            return True
        known.extend(learn(order))
        return False

    return accept, calls


def _entry_cases():
    """Fixed conflict sets over 7-8 symbols that mention 0-4 of them."""
    a, b, c, d = "s5", "s1", "s6", "s3"
    cases = [
        [()],
        [((a, b),), ()],
        [((a, b),)],
        [((a, b),), ((b, a),)],  # each order of a and b is refuted
        [((a, b), (b, c))],
        [((a, b),), ((b, c),), ((c, a),)],  # b < a, c < b, a < c: a cycle
        [((b, a), (b, c)), ((a, b), (c, b)), ((c, a), (c, b)), ((a, c), (b, c))],
        [((b, a), (b, c)), ((a, b), (c, b)), ((a, c), (a, d))],
        [((a, b), (c, d)), ((b, a), (d, c)), ((a, b), (d, c)), ((b, a), (c, d))],
        [((a, b), (c, d)), ((b, a), (d, c)), ((a, b), (d, c))],
        [((d, a),), ((a, b), (b, c)), ((b, a), (a, c)), ((c, d),)],
    ]
    rng = random.Random(24)
    while len(cases) < 40:
        named = rng.sample(["s%d" % i for i in range(7)], rng.randint(2, 4))
        literals = list(itertools.permutations(named, 2))
        cases.append([tuple(rng.sample(literals, rng.randint(1, 2)))
                      for _ in range(rng.randint(1, 7))])
    return cases


def test_an_entry_set_naming_few_symbols_matches_the_permutation_scan():
    rng = random.Random(5)
    refuting = 0
    for k, conflicts in enumerate(_entry_cases()):
        symbols = tuple("s%d" % i for i in range(7 + k % 2))
        # sparse, so that surviving sets offer many orders before one is taken
        accepted = {p for p in itertools.permutations(symbols) if rng.random() < 0.002}
        expected, expected_calls = _scan(symbols, conflicts, accepted.__contains__)
        work = list(conflicts)
        accept, calls = _accepting(accepted.__contains__, work)
        assert _first_order(symbols, work, accept) == expected, conflicts
        assert calls == expected_calls, conflicts
        refuting += not expected_calls
    assert 10 <= refuting <= 30


def test_a_learning_run_from_no_conflicts_matches_the_permutation_scan():
    outcomes = set()
    for trial in range(12):
        symbols = tuple("s%d" % i for i in range(7 + trial % 2))
        named = random.Random(trial).sample(symbols, 3)

        def learn(order, trial=trial):
            """A rejected order teaches conflicts over three symbols only."""
            r = random.Random(f"{trial} {order}")
            holding = [(s, t) for i, s in enumerate(order) for t in order[i + 1:]
                       if s in named and t in named]
            return [tuple(r.sample(holding, r.randint(1, 2)))
                    for _ in range(r.randint(0, 1))]

        def accepts(order, trial=trial):
            return random.Random(f"take {trial} {order}").random() < 0.15

        known = []
        expected, expected_calls = _scan(symbols, known,
                                         _accepting(accepts, known, learn)[0])
        work = []
        accept, calls = _accepting(accepts, work, learn)
        assert _first_order(symbols, work, accept) == expected
        assert calls == expected_calls
        outcomes.add(expected is None)
    assert outcomes == {True, False}


def test_betweenness_on_three_of_eight_elements_matches_the_oracle(exact_pruning):
    rng = random.Random(8)
    elements = tuple("y%d" % i for i in range(1, 9))
    outcomes = set()
    for _ in range(12):
        named = rng.sample(elements, 3)
        triples = list(itertools.permutations(named))
        inst = BetweennessInstance(elements, tuple(rng.sample(triples, rng.randint(1, 3))))
        assert_same(solve_betweenness, oracle_solve_betweenness, inst)
        outcomes.add(solve_betweenness(inst) is None)
    assert outcomes == {True, False}


def test_the_entry_check_refutes_on_the_named_symbols_alone():
    # three triples naming each of y8, y9, y10 as the middle: no order of ten
    # survives, and the search must find that out among those three alone,
    # not after every arrangement of the other seven (counted in lines run)
    elements = tuple("y%d" % i for i in range(1, 11))
    inst = BetweennessInstance(elements, (("y8", "y9", "y10"), ("y9", "y10", "y8"),
                                          ("y10", "y8", "y9")))
    lines = 0

    def tracer(frame, event, arg):
        nonlocal lines
        if event == "line" and frame.f_code.co_filename == gw.__file__:
            lines += 1
            if lines > 2_000:
                raise AssertionError("the search runs past the named symbols")
        return tracer

    sys.settrace(tracer)
    try:
        assert solve_betweenness(inst) is None
    finally:
        sys.settrace(None)
