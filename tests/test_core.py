import pytest
from hypothesis import given
from hypothesis import strategies as st

from wordlab.complexity import minimal_period
from wordlab.core import (
    UsageError,
    check_alphabet,
    complete_returns,
    is_palindrome,
    palindromic_factors,
)
from wordlab.theorems import find_class_members

from oracle import longest_border, occurrences, words_up_to

binary_words = st.text(alphabet="ab", max_size=30)


class TestAlphabet:
    def test_order_is_preserved(self):
        # the string's own order is the enumeration order, so b comes first
        assert find_class_members("palindrome", "ba", 2) == ["bb", "aa"]

    def test_rejects_duplicates(self):
        with pytest.raises(UsageError, match="duplicate symbol: 'a'"):
            check_alphabet("aba")

    def test_rejects_empty_and_oversized(self):
        with pytest.raises(UsageError, match="got 0"):
            check_alphabet("")
        with pytest.raises(UsageError, match="got 27"):
            check_alphabet("abcdefghijklmnopqrstuvwxyz0")

    def test_rejects_non_printable(self):
        with pytest.raises(UsageError, match="not a printable ASCII symbol"):
            check_alphabet("a\n")


@pytest.mark.parametrize(
    "w,expected",
    [("", True), ("aba", True), ("aaabab", False), ("aabbaa", True), ("ab", False)],
)
def test_is_palindrome(w, expected):
    assert is_palindrome(w) is expected


@pytest.mark.parametrize(
    "w,u,expected",
    [
        ("aaa", "aa", [0, 1]),
        ("abaab", "a", [0, 2, 3]),
        ("abc", "d", []),
        ("abab", "ab", [0, 2]),
    ],
)
def test_occurrences(w, u, expected):
    assert occurrences(w, u) == expected


def test_occurrences_rejects_empty_pattern():
    with pytest.raises(ValueError, match="empty pattern"):
        occurrences("abc", "")


@pytest.mark.parametrize(
    "w,u,expected",
    [
        ("abaab", "a", {"aba", "aa"}),
        ("aaa", "aa", {"aaa"}),
        ("ab", "b", set()),
        ("abcab", "ab", {"abcab"}),
    ],
)
def test_complete_returns(w, u, expected):
    assert complete_returns(w, u) == expected


def test_complete_returns_rejects_empty_pattern():
    with pytest.raises(ValueError, match="empty pattern"):
        complete_returns("abc", "")


@given(binary_words, st.data())
def test_complete_returns_contain_exactly_two_occurrences(w, data):
    """Re-scan every return: u is its prefix and suffix and occurs twice."""
    if not w:
        return
    i = data.draw(st.integers(0, len(w) - 1))
    j = data.draw(st.integers(i + 1, len(w)))
    u = w[i:j]
    for ret in complete_returns(w, u):
        assert ret.startswith(u) and ret.endswith(u)
        assert len(occurrences(ret, u)) == 2


def test_binary_returns_to_letters_are_palindromes():
    # exhaustive over binary words of length <= 12
    for w in words_up_to("ab", 12):
        for letter in ("a", "b"):
            if letter in w:
                for ret in complete_returns(w, letter):
                    assert is_palindrome(ret), (w, letter, ret)


@pytest.mark.parametrize(
    "w,expected",
    [
        ("aabbaa", {"", "a", "b", "aa", "bb", "abba", "aabbaa"}),
        ("", {""}),
        ("ab", {"", "a", "b"}),
    ],
)
def test_palindromic_factors(w, expected):
    assert palindromic_factors(w) == expected


def test_palindromic_factor_bound_small_exhaustive():
    for w in words_up_to("ab", 10):
        assert len(palindromic_factors(w)) <= len(w) + 1


@pytest.mark.parametrize(
    "w,expected",
    [("aabbaa", "aa"), ("aaabab", ""), ("aaa", "aa"), ("", ""), ("a", ""), ("abab", "ab")],
)
def test_longest_border(w, expected):
    assert longest_border(w) == expected


def test_border_period_identity_exhaustive():
    # |w| = |longest_border(w)| + minimal_period(w), classical identity
    for w in words_up_to("ab", 12):
        if w:
            assert len(w) == len(longest_border(w)) + minimal_period(w)


@given(binary_words)
def test_palindromic_factors_closed_under_reversal(w):
    pf = palindromic_factors(w)
    assert {f[::-1] for f in pf} == pf
