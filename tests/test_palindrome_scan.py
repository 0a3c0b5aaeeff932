"""The centre-expansion scan of palindromic occurrences against the
definitions: core.palindromic_factors against the naive oracle, and
richness by returns against every complete return to every palindromic
factor.  Neither route, nor PAL_BOUND's carried count, may touch the
palindromic tree."""

import dataclasses
import string
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordlab import theorems
from wordlab.classify import is_rich_by_count, is_rich_by_returns, unbalance_witness
from wordlab.core import (
    _palindrome_spans,
    complete_returns,
    is_palindrome,
    occurrences,
    palindromic_factors,
)
from wordlab.generate import lower_christoffel
from wordlab import oracle
from wordlab.oracle import words_up_to
from wordlab.theorems import verify_claim


def palindromic_closure(u: str) -> str:
    """Shortest palindrome with prefix u."""
    k = next(k for k in range(len(u) + 1) if is_palindrome(u[k:]))
    return u + u[:k][::-1]


def flip(w: str, j: int) -> str:
    return w[:j] + ("b" if w[j] == "a" else "a") + w[j + 1 :]


@st.composite
def words_with_long_returns(draw, max_len=300):
    """Words of length <= max_len over 1-26 letters: plain text, or a
    window of an episturmian word (rich, built by iterated palindromic
    closure) with possibly one letter changed."""
    letters = string.ascii_lowercase[: draw(st.integers(1, 26))]
    if draw(st.booleans()):
        return draw(st.text(alphabet=letters, max_size=max_len))
    w = ""
    for x in draw(st.lists(st.sampled_from(letters), min_size=1, max_size=40)):
        w = palindromic_closure(w + x)
        if len(w) >= max_len:
            break
    start = draw(st.integers(0, len(w) - 1))
    w = w[start : start + draw(st.integers(1, max_len))]
    if draw(st.booleans()):
        j = draw(st.integers(0, len(w) - 1))
        w = w[:j] + draw(st.sampled_from(letters)) + w[j + 1 :]
    return w


def structured_words() -> list[str]:
    """a^N, overlapping returns like "aa" in "aaa", and length-300 windows of
    Christoffel words (rich), each also with its first, middle and last
    letter flipped (mostly not rich, with long returns)."""
    words = ["aa", "aaa", "aaaa", "abaab", "aabbaa", "abcab", "a" * 300, "a" * 299 + "b"]
    for p, q in ((1, 299), (144, 233), (113, 300), (201, 302)):
        c = lower_christoffel(p, q)
        window = c[-300:]
        words += [window, *(flip(window, j) for j in (0, 150, 299))]
    return words


def exhaustive_words() -> list[str]:
    return [*words_up_to("ab", 12), *words_up_to("abc", 8)]


def rich_by_definition(w: str) -> bool:
    """Every complete return to every non-empty palindromic factor is a palindrome."""
    return all(
        is_palindrome(ret)
        for u in oracle.palindromic_factors(w)
        if u
        for ret in complete_returns(w, u)
    )


def scan_starts(w: str) -> dict[str, list[int]]:
    """Start of each occurrence the scan yields, per palindrome, in yield order."""
    starts: dict[str, list[int]] = {}
    for i, j in _palindrome_spans(w):
        starts.setdefault(w[i:j], []).append(i)
    return starts


def test_palindromic_factors_match_oracle_exhaustive():
    for w in exhaustive_words():
        assert palindromic_factors(w) == oracle.palindromic_factors(w), w


def test_rich_by_returns_matches_definition_exhaustive():
    for w in exhaustive_words():
        assert is_rich_by_returns(w) == rich_by_definition(w), w


def test_scan_yields_occurrences_in_order_exhaustive():
    for w in exhaustive_words():
        starts = scan_starts(w)
        assert set(starts) == oracle.palindromic_factors(w) - {""}, w
        for u, found in starts.items():
            assert found == occurrences(w, u), (w, u)


@settings(deadline=None)
@given(words_with_long_returns())
def test_scan_matches_definitions_on_random_words(w):
    assert palindromic_factors(w) == oracle.palindromic_factors(w)
    assert is_rich_by_returns(w) == rich_by_definition(w)
    for u, found in scan_starts(w).items():
        assert found == occurrences(w, u)


def test_scan_matches_definitions_on_structured_words():
    verdicts = set()
    for w in structured_words():
        assert palindromic_factors(w) == oracle.palindromic_factors(w), w
        verdict = is_rich_by_returns(w)
        assert verdict == rich_by_definition(w), w
        verdicts.add(verdict)
        for u, found in scan_starts(w).items():
            assert found == occurrences(w, u), (w, u)
    assert verdicts == {True, False}


def test_routes_do_not_use_the_palindromic_tree(monkeypatch):
    words = [*words_up_to("abc", 5), *structured_words()]
    expected = [(is_rich_by_returns(w), palindromic_factors(w)) for w in words]
    counts = {}

    def record(w, index, count):
        counts[w] = count

    pal_bound = dataclasses.replace(theorems.CLAIMS["PAL_BOUND"], checker=record)
    monkeypatch.setitem(theorems.CLAIMS, "PAL_BOUND", pal_bound)

    class Refused:
        def __init__(self, *args, **kwargs):
            raise AssertionError("PalindromeIndex used")

    for name in ("wordlab.palindromes", "wordlab.classify", "wordlab.theorems"):
        monkeypatch.setattr(sys.modules[name], "PalindromeIndex", Refused)
    # the patch bites: the counting route and the witness need the tree
    with pytest.raises(AssertionError):
        is_rich_by_count("ab")
    with pytest.raises(AssertionError):
        unbalance_witness("ab")
    assert [(is_rich_by_returns(w), palindromic_factors(w)) for w in words] == expected
    # PAL_BOUND's carried count, through the sequential walk
    assert verify_claim("PAL_BOUND", "abc", 7).verified
    assert counts == {w: len(palindromic_factors(w)) for w in words_up_to("abc", 7)}
