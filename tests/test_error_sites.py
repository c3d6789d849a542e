"""Every rejection the library and the CLI document, reached on purpose: the
input errors (exit 3 through the CLI), the precondition guards, each way a
witness is refused, and the two self-checks that trap an internal bug."""

import contextlib
import io

import pytest

from wheelerkit import (
    AlphabetMismatch,
    InternalDisagreement,
    NotDeterministic,
    OrderedAlphabet,
    SearchCaps,
    WheelerkitError,
    Witness,
    build_min_wdfa,
    check_witness_dfa,
    dfa_wheeler_order,
    gw_language_check,
    is_language_wheeler_dfa,
    nfa_wheeler_search,
    with_alphabet_order,
    word,
)
from wheelerkit import language, wheeler
from wheelerkit.automaton import count_readable_words
from wheelerkit.cli import main
from wheelerkit.language import collect_candidates, search_witness
from conftest import FIXTURES, make

NFA_TEXT = "alphabet a\nstates 2\ninitial 0\nfinal 1\nedge 0 a 0\nedge 0 a 1\n"
DFA_TEXT = "alphabet a\nstates 2\ninitial 0\nfinal 1\nedge 0 a 1\n"
HEADER = "alphabet a\nstates 2\ninitial 0\nfinal 1\n"


def run_main(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("text, argv, prefix", [
    (NFA_TEXT, ["check-lang", "{in}"], "error: input is nondeterministic; pass --nfa"),
    (NFA_TEXT, ["min-wdfa", "{in}", "-o", "{out}"],
     "error: input is nondeterministic; determinize it first"),
    (NFA_TEXT, ["check-gw", "{in}", "--language"], "error: --language wants a DFA input"),
    (DFA_TEXT, ["check-lang", "{in}", "--caps", "gamma"],
     "error: bad caps item 'gamma' (want key=value)"),
    ("alphabet a\nstates 0\ninitial 0\nfinal\n", ["check-dfa", "{in}"],
     "error: line 2: states must be at least 1"),
    ("alphabet a\nstates 2\ninitial 1 2\nfinal 1\n", ["check-dfa", "{in}"],
     "error: line 3: initial wants exactly one state id"),
    (HEADER + "edges 0 a 1\n", ["check-dfa", "{in}"],
     "error: line 5: expected 'edge', found 'edges'"),
    (HEADER + "edge 0 a\n", ["check-dfa", "{in}"],
     "error: line 5: edge wants: edge <src> <sym> <dst>"),
    ("elements x y z\nelements x y z\n", ["solve-betweenness", "{in}"],
     "error: line 2: duplicate elements line"),
    ("elements x y z\norder x y z\n", ["solve-betweenness", "{in}"],
     "error: line 2: unknown directive 'order'"),
    ("elements x y z\n" + "triple x y z\n" * 27, ["solve-betweenness", "{in}"],
     "error: too many triples for the element count"),
], ids=["check-lang-nfa", "min-wdfa-nfa", "check-gw-language-nfa", "caps-item-without-eq",
        "zero-states", "two-initial-states", "body-line-not-edge", "three-token-edge",
        "duplicate-elements", "unknown-directive", "too-many-triples"])
def test_cli_input_error(tmp_path, text, argv, prefix):
    path = tmp_path / "in.txt"
    path.write_text(text)
    argv = [arg.format(**{"in": path, "out": tmp_path / "out.aut"}) for arg in argv]
    code, err = run_main(argv)
    assert code == 3
    assert err.startswith(prefix), err


NFA = make("a", 2, 0, {1}, {(0, "a", 0), (0, "a", 1)})
UNTRIMMED = make("a", 2, 0, {0}, set())  # state 1 is unreachable


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: make("a", 0, 0, set(), set()), WheelerkitError, "at least one state"),
    (lambda: make("a", 2, 2, set(), set()), WheelerkitError, "initial state 2 out of range"),
    (lambda: make("a", 2, 0, {5}, set()), WheelerkitError, "final state 5 out of range"),
    (lambda: make("a", 2, 0, set(), {(0, "a", 3)}), WheelerkitError, "out of range"),
    (lambda: make("a", 2, 0, set(), {(0, "z", 1)}), WheelerkitError, "not in alphabet"),
    (lambda: OrderedAlphabet(("a b",)), WheelerkitError, "bad symbol token"),
    (lambda: dfa_wheeler_order(NFA), NotDeterministic, "wants a DFA"),
    (lambda: dfa_wheeler_order(UNTRIMMED), WheelerkitError, "wants a trimmed automaton"),
    (lambda: gw_language_check(NFA), WheelerkitError, "wants a DFA"),
    (lambda: is_language_wheeler_dfa(NFA), NotDeterministic, "wants a DFA"),
    (lambda: build_min_wdfa(NFA), NotDeterministic, "wants a DFA"),
    (lambda: with_alphabet_order(NFA, ("b",)), AlphabetMismatch, "symbol set"),
    (lambda: count_readable_words(NFA, 2), NotDeterministic, "wants a DFA"),
], ids=["zero-states", "initial-out-of-range", "final-out-of-range", "edge-out-of-range",
        "edge-symbol", "alphabet-token", "dfa-order-nfa", "dfa-order-untrimmed",
        "gw-language-nfa", "language-nfa", "min-wdfa-nfa", "reorder-other-symbols",
        "count-words-nfa"])
def test_library_rejection(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert fragment in str(info.value)


# a c* + b c* f with an f-loop at 1: (a, b, c) is a witness, and f cycles
# at state 1 but not at state 2
WITNESSED = make(("a", "b", "c", "f"), 4, 0, {1, 3},
                 {(0, "a", 1), (1, "c", 1), (1, "f", 1), (0, "b", 2), (2, "c", 2),
                  (2, "f", 3)})


def test_check_witness_dfa_accepts_the_witness():
    assert check_witness_dfa(WITNESSED, Witness(("a",), ("b",), ("c",), anchors=(1, 2)))


@pytest.mark.parametrize("witness", [
    Witness(("c",), ("b",), ("c",)),
    Witness(("a",), ("c",), ("c",)),
    Witness(("a",), word("a f"), ("c",)),
    Witness(("a",), ("b",), ("c",), anchors=(2, 1)),
    Witness(("b",), ("a",), ("f",)),
    Witness(("a",), ("b",), ("f",)),
    Witness(word("a c"), ("b",), ("c",)),
], ids=["mu-unreadable", "nu-unreadable", "same-state", "wrong-anchors",
        "gamma-leaves-mu-state", "gamma-leaves-nu-state", "gamma-suffix-of-mu"])
def test_check_witness_dfa_rejects(witness):
    assert not check_witness_dfa(WITNESSED, witness)


def test_search_witness_traps_a_witness_its_check_refuses(monkeypatch, mind4_nonwheeler):
    candidates = collect_candidates(mind4_nonwheeler, SearchCaps.default(mind4_nonwheeler.n))
    monkeypatch.setattr(language, "check_witness_dfa", lambda min_dfa, witness: False)
    with pytest.raises(InternalDisagreement, match="invalid witness"):
        search_witness(mind4_nonwheeler, candidates)


def test_order_search_traps_an_order_verify_refuses(monkeypatch, wdfa6):
    monkeypatch.setattr(wheeler, "verify_wheeler", lambda a, order: "forced")
    with pytest.raises(InternalDisagreement, match="invalid order: forced"):
        nfa_wheeler_search(wdfa6)
    code, err = run_main(["check-nfa", str(FIXTURES / "wdfa6.aut")])
    assert code == 4
    assert err.startswith("internal error: InternalDisagreement: "), err
