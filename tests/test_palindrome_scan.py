"""The string search over palindromic suffixes against the definitions.

core._palindromic_suffixes is the one scan behind the steps that
PAL_BOUND and PROP1 carry along the verify walk: its new suffixes and
classify._end_returns_are_palindromes, which tests the return that ends
at its old suffix.  core.palindromic_factors and
classify.is_rich_by_returns fold those steps over the prefixes of a
word.  The scan, the steps and the folds are checked against the naive
oracle and against every complete return to every palindromic factor.
Neither route, nor PAL_BOUND's carried count, may touch the palindromic
tree."""

import dataclasses
import string
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordlab import theorems
from wordlab.classify import (
    _end_returns_are_palindromes,
    is_rich_by_count,
    is_rich_by_returns,
    unbalance_witness,
)
from wordlab.core import _palindromic_suffixes, is_palindrome, palindromic_factors
from wordlab.theorems import verify_claim

import oracle
from oracle import rich_by_definition, structured_words, words_up_to


def palindromic_closure(u: str) -> str:
    """Shortest palindrome with prefix u."""
    k = next(k for k in range(len(u) + 1) if is_palindrome(u[k:]))
    return u + u[:k][::-1]


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


def exhaustive_words() -> list[str]:
    return [*words_up_to("ab", 12), *words_up_to("abc", 8)]


def scan_by_definition(w: str) -> tuple[list[str], int]:
    """(the palindromic factors of w that w[:-1] lacks, longest first, and the
    last start in w[:-1] of the longest palindromic suffix of w it has, or -1)."""
    before = oracle.palindromic_factors(w[:-1])
    new = sorted(oracle.palindromic_factors(w) - before, key=len, reverse=True)
    old = [w[i:] for i in range(len(w)) if w[i:] in before and is_palindrome(w[i:])]
    if not old:
        return new, -1
    u = old[0]
    return new, max(j for j in range(len(w) - len(u)) if w[j : j + len(u)] == u)


def end_returns_by_definition(w: str) -> bool:
    """Every complete return to a palindromic suffix of w that ends at w's end
    is a palindrome; the return starts at the suffix's previous occurrence."""
    suffixes = (w[i:] for i in range(len(w)) if is_palindrome(w[i:]))
    starts = ([j for j in range(len(w)) if w.startswith(u, j)] for u in suffixes)
    return all(is_palindrome(w[occ[-2] :]) for occ in starts if len(occ) > 1)


def test_scan_matches_definition():
    for w in [*exhaustive_words(), *structured_words()]:
        if w:
            assert _palindromic_suffixes(w) == scan_by_definition(w), w


def test_end_returns_step_matches_definition_under_a_rich_parent():
    # the step's contract: w[:-1] rich by returns, as the walk and the fold guarantee
    # the structured words stand as parents too, extended by each letter
    extended = [w + x for w in structured_words() for x in "ab"]
    words = [w for w in [*exhaustive_words(), *structured_words(), *extended] if w]
    rich = {v: rich_by_definition(v) for v in {*words, *(w[:-1] for w in words)}}
    verdicts = set()
    for w in words:
        if rich[w[:-1]]:
            verdict = _end_returns_are_palindromes(w)
            assert verdict == end_returns_by_definition(w) == rich[w], w
            verdicts.add((len(w) > 12, verdict))
    assert verdicts == {(False, False), (False, True), (True, False), (True, True)}


def test_palindromic_factors_match_oracle_exhaustive():
    for w in exhaustive_words():
        assert palindromic_factors(w) == oracle.palindromic_factors(w), w


def test_rich_by_returns_matches_definition_exhaustive():
    for w in exhaustive_words():
        assert is_rich_by_returns(w) == rich_by_definition(w), w


@settings(deadline=None)
@given(words_with_long_returns())
def test_scan_matches_definitions_on_random_words(w):
    assert palindromic_factors(w) == oracle.palindromic_factors(w)
    assert is_rich_by_returns(w) == rich_by_definition(w)


def test_scan_matches_definitions_on_structured_words():
    verdicts = set()
    for w in structured_words():
        assert palindromic_factors(w) == oracle.palindromic_factors(w), w
        verdict = is_rich_by_returns(w)
        assert verdict == rich_by_definition(w), w
        verdicts.add(verdict)
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
    # PAL_BOUND's carried count, through the sequential walk of the canonical words
    assert verify_claim("PAL_BOUND", "abc", 7).verified
    canonical = [w for w in words_up_to("abc", 7) if "abc".startswith("".join(dict.fromkeys(w)))]
    assert counts == {w: len(palindromic_factors(w)) for w in canonical}
