"""The prefix-pruned order search against the exhaustive permutation loops.

The oracles below try every permutation of the alphabet (or of the
elements) in `itertools.permutations` order and run the per-order test on
each, as the searches did before conflicts pruned them.  The searches must
return the same tuple, None or exception on every input.
"""

import itertools
import random

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
from wheelerkit import gw
from wheelerkit.gw import DEFAULT_MAX_SIGMA, _first_order, triple_satisfied
from wheelerkit.automaton import shortest_entering_words
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
    WheelerOrder,
    WheelerViolation,
    input_consistency,
    nfa_wheeler_search,
    verify_wheeler,
)
from conftest import FIXTURES
from reference import independent_language_status
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
        entering, _ = shortest_entering_words(a, per_state=1)
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
    """Fail when an order that reaches a per-order test fails the part of it
    that the conflicts encode, so that the searches must prune, not merely
    return what the exhaustive loops return.  DFA orders that fail
    `verify_wheeler` are logged instead: each one teaches the search the
    conflict its violation shows, so no two may fail on the same edges."""
    def expect(name, value):
        f = getattr(gw, name)

        def checked(*args):
            result = f(*args)
            assert result == value, (name, args)
            return result

        monkeypatch.setattr(gw, name, checked)

    expect("triple_satisfied", True)
    rejected = []

    def logged(a, order):
        violation = verify_wheeler(a, order)
        if violation is not None:
            rejected.append(violation.evidence)
        return violation

    monkeypatch.setattr(gw, "verify_wheeler", logged)
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
