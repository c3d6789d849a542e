import itertools

import pytest

from wheelerkit import (
    AlphabetTooLarge,
    BetweennessInstance,
    FormatError,
    TooManyElements,
    WheelerkitError,
    dfa_wheeler_order,
    gw_automaton_check,
    gw_language_check,
    is_language_wheeler_dfa,
    parse_betweenness,
    reduce_betweenness_to_dfa,
    serialize_betweenness,
    solve_betweenness,
    with_alphabet_order,
)
from wheelerkit.language import NOT_WHEELER, WHEELER
from wheelerkit.wheeler import WheelerOrder
from conftest import make
from reference import triple_satisfied


def test_gw_automaton_identity_order_comes_first(wdfa6):
    assert gw_automaton_check(wdfa6) == ("a", "c", "d", "f")


def test_gw_automaton_on_the_failed_twin(notwdfa6):
    # swapping c between a and b repairs it: a < c < b < f works
    found = gw_automaton_check(notwdfa6)
    assert found is not None
    reordered = with_alphabet_order(notwdfa6, found)
    order = dfa_wheeler_order(reordered)
    assert isinstance(order, WheelerOrder)
    explicit = dfa_wheeler_order(with_alphabet_order(notwdfa6, ("a", "c", "b", "f")))
    assert isinstance(explicit, WheelerOrder)


def test_gw_language_identity_order(mind4_wheeler):
    assert gw_language_check(mind4_wheeler) == ("a", "c", "d", "f")


def test_wheeler_language_turns_non_wheeler_under_a_d_c_f(mind4_wheeler):
    reordered = with_alphabet_order(mind4_wheeler, ("a", "d", "c", "f"))
    assert is_language_wheeler_dfa(reordered).status == NOT_WHEELER


def test_starfree_language_is_not_gw(starfree_nongw):
    assert gw_language_check(starfree_nongw) is None
    assert gw_automaton_check(starfree_nongw) is None


def test_alphabet_budget():
    syms = tuple("s%d" % i for i in range(9))
    edges = {(0, s, 1) for s in syms} | {(1, syms[0], 1)}
    a = make(syms, 2, 0, {1}, edges)
    with pytest.raises(AlphabetTooLarge):
        gw_automaton_check(a)


def test_gw_verdict_independent_of_listed_header_order(mind4_wheeler):
    def satisfying_orders(a):
        return {perm for perm in itertools.permutations(a.alphabet.symbols)
                if is_language_wheeler_dfa(with_alphabet_order(a, perm)).status
                == WHEELER}

    shuffled = with_alphabet_order(mind4_wheeler, ("f", "d", "c", "a"))
    assert satisfying_orders(mind4_wheeler) == satisfying_orders(shuffled)
    assert gw_language_check(shuffled) is not None


def test_solve_betweenness_single_triple():
    inst = BetweennessInstance(("y1", "y2", "y3"), (("y1", "y2", "y3"),))
    order = solve_betweenness(inst)
    position = {y: i for i, y in enumerate(order)}
    assert triple_satisfied(position, ("y1", "y2", "y3"))


def test_solve_betweenness_unsat_pair():
    inst = BetweennessInstance(("p", "q", "r"), (("p", "q", "r"), ("q", "p", "r")))
    assert solve_betweenness(inst) is None


def test_solve_betweenness_empty_constraints():
    inst = BetweennessInstance(("u", "v"), ())
    assert solve_betweenness(inst) == ("u", "v")


def test_solve_betweenness_element_budget():
    inst = BetweennessInstance(tuple("e%d" % i for i in range(11)), ())
    with pytest.raises(TooManyElements):
        solve_betweenness(inst)


def test_betweenness_validation():
    with pytest.raises(WheelerkitError):
        BetweennessInstance(("a", "a"), ())
    with pytest.raises(WheelerkitError):
        BetweennessInstance(("a", "b", "c"), (("a", "a", "b"),))
    with pytest.raises(WheelerkitError):
        BetweennessInstance(("a", "b", "c"), (("a", "b", "z"),))


def test_betweenness_roundtrip(fixtures_dir):
    text = (fixtures_dir / "conflict.bet").read_text()
    inst = parse_betweenness(text)
    assert inst.elements == ("p", "q", "r") and len(inst.triples) == 2
    assert parse_betweenness(serialize_betweenness(inst)) == inst


def test_betweenness_parse_errors():
    with pytest.raises(FormatError):
        parse_betweenness("triple a b c\n")
    with pytest.raises(FormatError):
        parse_betweenness("elements a b\ntriple a b\n")
    with pytest.raises(FormatError):
        parse_betweenness("")


def test_reduction_biconditional_spot_checks():
    sat = BetweennessInstance(("y1", "y2", "y3"), (("y1", "y2", "y3"),))
    unsat = BetweennessInstance(("p", "q", "r"), (("p", "q", "r"), ("q", "p", "r")))
    for inst, expect in ((sat, True), (unsat, False)):
        gadget = reduce_betweenness_to_dfa(inst).automaton
        assert (solve_betweenness(inst) is not None) == expect
        assert (gw_automaton_check(gadget) is not None) == expect
        assert (gw_language_check(gadget) is not None) == expect
