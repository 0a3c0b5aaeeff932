import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from wordlab import (
    central_word,
    condition_B_prime,
    is_sturmian_palindrome,
    is_trapezoidal,
    lower_christoffel,
    sturmian_corpus,
)
from wordlab.classify import is_finite_sturmian, is_rich_by_count
from wordlab.core import is_palindrome
from wordlab.generate import all_words, random_words, words_up_to


def test_all_words_examples():
    assert list(all_words("ab", 2)) == ["aa", "ab", "ba", "bb"]
    assert len(list(all_words("ab", 5))) == 32
    assert list(all_words("a", 3)) == ["aaa"]
    assert list(all_words("ab", 0)) == [""]


def test_all_words_respects_alphabet_order():
    assert list(all_words("ba", 2)) == ["bb", "ba", "ab", "aa"]


def test_words_up_to():
    got = list(words_up_to("ab", 2))
    assert got == ["", "a", "b", "aa", "ab", "ba", "bb"]


@pytest.mark.parametrize(
    "p,q,expected",
    [(1, 1, "ab"), (1, 2, "aab"), (2, 1, "abb"), (2, 3, "aabab"), (3, 2, "ababb")],
)
def test_lower_christoffel(p, q, expected):
    assert lower_christoffel(p, q) == expected


def test_lower_christoffel_rejects_bad_params():
    with pytest.raises(ValueError, match="coprime"):
        lower_christoffel(2, 4)
    with pytest.raises(ValueError, match="positive"):
        lower_christoffel(0, 3)


@pytest.mark.parametrize("p,q,expected", [(1, 2, "a"), (1, 1, ""), (2, 3, "aba")])
def test_central_word(p, q, expected):
    assert central_word(p, q) == expected


@given(st.integers(1, 60), st.integers(1, 60))
def test_christoffel_letter_counts(p, q):
    assume(math.gcd(p, q) == 1)
    w = lower_christoffel(p, q)
    assert len(w) == p + q
    assert w.count("a") == q
    assert w.count("b") == p
    assert w[0] == "a" and w[-1] == "b"


def test_central_words_are_sturmian_palindromes():
    for total in range(2, 16):
        for p in range(1, total):
            q = total - p
            if math.gcd(p, q) != 1:
                continue
            c = central_word(p, q)
            assert is_palindrome(c), (p, q, c)
            assert is_sturmian_palindrome(c), (p, q, c)
            assert condition_B_prime(c), (p, q, c)
            assert is_trapezoidal(c), (p, q, c)


def test_corpus_small_examples():
    assert sturmian_corpus(3, 2) == {"", "a", "b", "aa", "ab", "bb"}
    assert sturmian_corpus(2, 5) == {"", "a", "b", "ab"}


def test_corpus_members_are_sturmian_rich_trapezoidal():
    for w in sturmian_corpus(8, 6):
        assert is_finite_sturmian(w), w
        assert is_rich_by_count(w), w
        assert is_trapezoidal(w), w


def test_corpus_respects_factor_length_cap():
    corpus = sturmian_corpus(9, 4)
    assert max(len(w) for w in corpus) <= 4


def test_corpus_rejects_non_positive_bounds():
    with pytest.raises(ValueError):
        sturmian_corpus(0, 3)
    with pytest.raises(ValueError):
        sturmian_corpus(3, 0)


def test_corpus_covers_all_short_sturmian_binary_words():
    # with a deep enough denominator sweep, every balanced binary word of
    # length <= 4 shows up as a Christoffel factor
    corpus = sturmian_corpus(12, 4)
    expected = {w for w in words_up_to("ab", 4) if is_finite_sturmian(w)}
    assert corpus == expected


def test_random_words_deterministic_and_shaped():
    assert random_words("ab", 10, 5, seed=42) == random_words("ab", 10, 5, seed=42)
    assert random_words("ab", 10, 0, seed=1) == []
    ws = random_words("abc", 7, 20, seed=5)
    assert len(ws) == 20
    assert all(len(w) == 7 and set(w) <= set("abc") for w in ws)
    assert random_words("ab", 10, 3, seed=1) != random_words("ab", 10, 3, seed=2)
