import random

import pytest

from wheelerkit import (
    BetweennessInstance,
    PreconditionViolated,
    accepts,
    gw_automaton_check,
    is_language_wheeler_nfa,
    minimize,
    nfa_wheeler_search,
    parse_automaton,
    reduce_betweenness_to_dfa,
    reduce_nfa_wheeler_to_gw,
    reduce_universality,
    run,
    serialize_automaton,
    trim_basic,
    verify_wheeler,
)
from wheelerkit.language import NOT_WHEELER, WHEELER
from wheelerkit.reductions import mint_symbols
from wheelerkit.wheeler import WheelerOrder
from reference import find_witness
from conftest import make
from corpus import all_words, random_trimmed_nfa


def test_mint_symbols_avoids_collisions():
    assert mint_symbols(("a", "x1"), ("a", "b", "x1")) == ("a!", "b", "x1!")


def test_universality_reduction_universal_input(universal1):
    rep = reduce_universality(universal1)
    out = rep.automaton
    assert out.n == 3 and rep.states_added == 2 and rep.symbols_added == 3
    assert rep.fresh_symbols == ("a", "b", "c")
    # language is (a+b)(d+c)*
    for w in all_words(out.alphabet.symbols, 5):
        expect = (len(w) >= 1 and w[0] in ("a", "b")
                  and all(s in ("d", "c") for s in w[1:]))
        assert accepts(out, w) == expect
    assert is_language_wheeler_nfa(out).status == WHEELER


def test_universality_reduction_epsilon_input(epsilon_d):
    rep = reduce_universality(epsilon_d)
    out = rep.automaton
    # language is a c* + b (d+c)*
    for w in all_words(out.alphabet.symbols, 5):
        expect = ((len(w) >= 1 and w[0] == "a" and all(s == "c" for s in w[1:]))
                  or (len(w) >= 1 and w[0] == "b"
                      and all(s in ("d", "c") for s in w[1:])))
        assert accepts(out, w) == expect
    assert is_language_wheeler_nfa(out).status == NOT_WHEELER


def test_universality_reduction_precondition(epsilon_d):
    no_eps = make(("d",), 2, 0, {1}, {(0, "d", 1)})
    with pytest.raises(PreconditionViolated):
        reduce_universality(no_eps)


def in_lc_star_l(a, w):
    """Membership oracle for (L c)* L built from plain run calls on the input."""
    sym_c = "c"
    ok = [False] * (len(w) + 1)
    ok[0] = True
    in_l = [[False] * (len(w) + 1) for _ in range(len(w) + 1)]
    for i in range(len(w) + 1):
        for j in range(i, len(w) + 1):
            seg = w[i:j]
            if sym_c in seg:
                continue
            in_l[i][j] = bool(run(a, seg) & a.finals)
    for j in range(1, len(w) + 1):
        for i in range(j):
            if ok[i] and w[j - 1] == sym_c and in_l[i][j - 1]:
                ok[j] = True
    return any(ok[i] and in_l[i][len(w)] for i in range(len(w) + 1))


def test_universality_reduction_a_branch_language():
    rng = random.Random(523)
    for _ in range(8):
        a = random_trimmed_nfa(rng, max_n=3, max_sigma=2, density=0.3, force_eps=True)
        if "c" in a.alphabet.symbols:
            continue  # keep the oracle's segment split unambiguous
        rep = reduce_universality(a)
        out = rep.automaton
        sym_a = rep.fresh_symbols[0]
        for w in all_words(a.alphabet.symbols + ("c",), 5):
            assert accepts(out, (sym_a,) + w) == in_lc_star_l(a, w)


def test_reduction_outputs_are_basic_and_serializable(universal1, epsilon_d, wdfa6):
    outputs = [reduce_universality(universal1).automaton,
               reduce_universality(epsilon_d).automaton,
               reduce_nfa_wheeler_to_gw(wdfa6).automaton,
               reduce_betweenness_to_dfa(
                   BetweennessInstance(("y1", "y2", "y3"),
                                       (("y1", "y2", "y3"),))).automaton]
    for out in outputs:
        assert trim_basic(out) == out
        assert parse_automaton(serialize_automaton(out)) == out


def test_gw_gadget_size_for_two_symbols():
    a = make(("a", "b"), 2, 0, {1}, {(0, "a", 1), (1, "b", 1)})
    rep = reduce_nfa_wheeler_to_gw(a)
    assert rep.states_added == 9  # one gadget (7) plus the two sinks
    assert rep.automaton.alphabet.symbols == ("a", "b", "x1", "e", "f")


def test_gw_gadget_on_the_wheeler_six(wdfa6):
    rep = reduce_nfa_wheeler_to_gw(wdfa6)
    out = rep.automaton
    assert out.n == wdfa6.n + 7 * 3 + 2
    # the output alphabet is already listed in the intended order, and a
    # valid state order exists under it
    order = nfa_wheeler_search(out)
    assert isinstance(order, WheelerOrder)
    assert verify_wheeler(out, order) is None


def test_gw_gadget_precondition(astar):
    with pytest.raises(PreconditionViolated):
        reduce_nfa_wheeler_to_gw(astar)


def test_gw_gadget_biconditional_small_scale():
    rng = random.Random(77)
    wheeler_seen = non_wheeler_seen = 0
    while wheeler_seen < 4 or non_wheeler_seen < 4:
        a = random_trimmed_nfa(rng, max_n=4, max_sigma=2, density=0.3)
        if any(a.pred[a.initial]) or len(a.alphabet) != 2:
            continue
        is_wheeler = isinstance(nfa_wheeler_search(a), WheelerOrder)
        out = reduce_nfa_wheeler_to_gw(a).automaton
        gw = gw_automaton_check(out) is not None
        assert gw == is_wheeler, serialize_automaton(a)
        wheeler_seen += is_wheeler
        non_wheeler_seen += not is_wheeler


def test_betweenness_gadget_shape():
    inst = BetweennessInstance(("y1", "y2", "y3"), (("y1", "y2", "y3"),))
    rep = reduce_betweenness_to_dfa(inst)
    out = rep.automaton
    assert out.n == 11
    assert len(out.alphabet) == 6
    assert out.deterministic
    assert out.finals == frozenset({out.n - 2, out.n - 1})


def test_betweenness_gadget_empty_instance():
    rep = reduce_betweenness_to_dfa(BetweennessInstance(("y1", "y2"), ()))
    assert rep.automaton.n == 1 and not rep.automaton.finals


def test_betweenness_gadget_witness_echo():
    # under an order that violates a triple, the refuting cycle word is a
    # pumped x_i b_i x_i for that triple
    inst = BetweennessInstance(("p", "q", "r"), (("p", "q", "r"), ("q", "p", "r")))
    out = reduce_betweenness_to_dfa(inst).automaton
    m = minimize(out)
    # the listed order p < q < r satisfies triple one and violates triple two
    w = find_witness(m)
    assert w is not None
    mu, nu, gamma = w.words()
    patterns = [("x%d" % i, t[1]) for i, t in enumerate(inst.triples, start=1)]
    def is_pump(g, x, b):
        base = (x, b, x)
        return len(g) % 3 == 0 and g == base * (len(g) // 3)
    assert any(is_pump(gamma, x, b) for (x, b) in patterns)
