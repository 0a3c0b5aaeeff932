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
from wordlab import generate
from wordlab.classify import is_finite_sturmian, is_rich_by_count
from wordlab.core import BudgetExceededError, is_palindrome
from wordlab.generate import random_words

from oracle import words_up_to


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


def _loop_slices(max_denominator, max_factor_len):
    """The factor slices sturmian_corpus's build loop takes, counted by running it."""
    slices = 0
    for total in range(2, max_denominator + 1):
        for p in range(1, total):
            if math.gcd(p, total - p) == 1:
                w = lower_christoffel(p, total - p)
                slices += sum(min(max_factor_len, len(w) - i) for i in range(len(w)))
    return slices


@pytest.mark.parametrize(
    "max_denominator,max_factor_len", [(2, 1), (3, 2), (9, 4), (12, 30), (17, 5)]
)
def test_corpus_budget_counts_the_loop_slices(monkeypatch, max_denominator, max_factor_len):
    slices = _loop_slices(max_denominator, max_factor_len)
    monkeypatch.setattr(generate, "DEFAULT_BUDGET", slices)
    assert sturmian_corpus(max_denominator, max_factor_len)
    monkeypatch.setattr(generate, "DEFAULT_BUDGET", slices - 1)
    with pytest.raises(BudgetExceededError, match="factor slices"):
        sturmian_corpus(max_denominator, max_factor_len)


def test_corpus_budget_refuses_before_building(monkeypatch):
    def unreachable(p, q):
        raise AssertionError("built a word before refusing")

    monkeypatch.setattr(generate, "lower_christoffel", unreachable)
    with pytest.raises(BudgetExceededError, match="length 172 exceeds the budget of 67108864"):
        sturmian_corpus(200, 200)
    with pytest.raises(BudgetExceededError):
        sturmian_corpus(10**9, 1)


def test_corpus_under_the_budget_still_runs():
    corpus = sturmian_corpus(40, 40)
    assert max(len(w) for w in corpus) == 40


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


@pytest.mark.parametrize("length,count", [(-1, 3), (3, -1), (-1, -1)])
def test_random_words_rejects_a_negative_length_or_count(length, count):
    with pytest.raises(ValueError, match="^length and count must be non-negative$"):
        random_words("ab", length, count, seed=0)
