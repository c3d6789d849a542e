import functools

import pytest
from hypothesis import given, strategies as st

from wheelerkit import (
    OrderedAlphabet,
    WheelerkitError,
    is_suffix,
    word,
)
from reference import ColexVerdict, colex_compare, is_primitive

ACDF = OrderedAlphabet(("a", "c", "d", "f"))

words = st.lists(st.sampled_from(["a", "c", "d", "f"]), max_size=7).map(tuple)


def test_alphabet_rejects_duplicates_and_reserved_mark():
    with pytest.raises(WheelerkitError):
        OrderedAlphabet(("a", "a"))
    with pytest.raises(WheelerkitError):
        OrderedAlphabet(("a", "#"))


def test_word_helper():
    assert word("a c c") == ("a", "c", "c")
    assert word("") == ()


def test_colex_forced_examples():
    # reverse "ca" against reverse "cd"
    assert colex_compare(ACDF, word("a c"), word("d c")) is ColexVerdict.LESS
    assert colex_compare(ACDF, (), ("a",)) is ColexVerdict.LESS
    # reverse "cca" against "cd": the second symbol decides
    assert colex_compare(ACDF, word("a c c"), word("d c")) is ColexVerdict.LESS
    assert colex_compare(ACDF, word("d c c"), word("d c")) is ColexVerdict.LESS
    assert colex_compare(ACDF, word("d c"), word("d")) is ColexVerdict.LESS


@given(words, words)
def test_colex_matches_reversed_lexicographic_oracle(u, v):
    ranks = ACDF.position
    ru = [ranks[s] for s in reversed(u)]
    rv = [ranks[s] for s in reversed(v)]
    expected = (ColexVerdict.LESS if ru < rv
                else ColexVerdict.GREATER if ru > rv else ColexVerdict.EQUAL)
    assert colex_compare(ACDF, u, v) is expected


@given(words, words)
def test_colex_trichotomy_and_antisymmetry(u, v):
    uv = colex_compare(ACDF, u, v)
    vu = colex_compare(ACDF, v, u)
    assert (uv is ColexVerdict.EQUAL) == (u == v)
    assert uv.value == -vu.value


@given(words, words, words)
def test_colex_transitivity(u, v, w):
    if (colex_compare(ACDF, u, v) is not ColexVerdict.GREATER
            and colex_compare(ACDF, v, w) is not ColexVerdict.GREATER):
        assert colex_compare(ACDF, u, w) is not ColexVerdict.GREATER


@given(st.lists(words, max_size=12))
def test_colex_agrees_with_key_sorting(ws):
    by_key = sorted(ws, key=ACDF.colex_key)
    cmp = functools.cmp_to_key(lambda x, y: colex_compare(ACDF, x, y).value)
    assert by_key == sorted(ws, key=cmp)


def test_is_suffix():
    assert is_suffix((), word("a c"))
    assert is_suffix(("c",), word("a c"))
    assert not is_suffix(("a",), word("a c"))
    assert is_suffix(word("a c"), word("a c"))


def naive_primitive(w):
    return not any(w == w[:d] * (len(w) // d)
                   for d in range(1, len(w)) if len(w) % d == 0)


def test_is_primitive_examples():
    assert is_primitive(word("a c a"))
    assert not is_primitive(word("a c a c"))
    assert not is_primitive(("a", "a", "a"))
    with pytest.raises(WheelerkitError):
        is_primitive(())


@given(words.filter(bool))
def test_is_primitive_matches_naive(w):
    assert is_primitive(w) == naive_primitive(w)
