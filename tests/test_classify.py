import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wordlab import classify, condition_B_prime, is_sturmian_palindrome, is_trapezoidal
from wordlab.classify import (
    _end_returns_are_palindromes,
    condition_B,
    condition_B_mismatches,
    has_trapezoidal_profile,
    is_balanced,
    is_finite_sturmian,
    is_rich_by_count,
    is_rich_by_returns,
    unbalance_witness,
)
from wordlab.core import is_palindrome
from wordlab.generate import lower_christoffel

import oracle
from oracle import (
    palindromic_complexity,
    palindromic_factors,
    theta_palindrome_check,
    words_up_to,
)

binary_words = st.text(alphabet="ab", max_size=18)


def christoffel_windows(n: int, count: int, seed: int) -> list[str]:
    """Seeded length-n factors of Christoffel words, which are balanced, each
    followed by copies with the first, the last and one seeded letter
    flipped; flipping an end letter often leaves a long unbalance witness."""
    rng = random.Random(seed)
    words: list[str] = []
    while len(words) < 4 * count:
        p, q = rng.randrange(1, 2 * n), rng.randrange(n, 3 * n)
        if math.gcd(p, q) != 1:
            continue
        start = rng.randrange(p + q - n + 1)
        w = lower_christoffel(p, q)[start : start + n]
        words.append(w)
        for j in (0, n - 1, rng.randrange(n)):
            words.append(w[:j] + ("b" if w[j] == "a" else "a") + w[j + 1 :])
    return words


@pytest.mark.parametrize(
    "w,expected", [("aabbaa", True), ("aaabab", True), ("abca", False), ("", True)]
)
def test_is_rich_by_count(w, expected):
    assert is_rich_by_count(w) is expected


@pytest.mark.parametrize(
    "w,expected", [("", True), ("abca", False), ("aabbaa", True), ("aaabab", True)]
)
def test_is_rich_by_returns(w, expected):
    assert is_rich_by_returns(w) is expected


@pytest.mark.parametrize(
    "w,expected",
    [
        ("", True),
        ("aaa", True),  # the returns to a and aa overlap their occurrences
        ("abca", False),  # the return abca to a
        ("aabaa", True),  # the return to aa is the whole word; the one to a lies inside it
        ("acbcab", False),  # the return bcab to b
        ("aababbaa", False),  # the return aa to a is fine; the return to aa is the whole word
        ("abaccaba", True),
    ],
)
def test_end_returns_are_palindromes(w, expected):
    assert _end_returns_are_palindromes(w) is expected


@pytest.mark.parametrize(
    "w,expected", [("aaabab", True), ("aabbaa", False), ("aaaaa", True), ("", True)]
)
def test_is_trapezoidal(w, expected):
    assert is_trapezoidal(w) is expected


@pytest.mark.parametrize(
    "w,expected", [("aaabab", (3, 0)), ("aabbaa", None), ("ab", (1, 0))]
)
def test_has_trapezoidal_profile(w, expected):
    assert has_trapezoidal_profile(w) == expected


def test_has_trapezoidal_profile_rejects_empty_word():
    with pytest.raises(ValueError):
        has_trapezoidal_profile("")


@pytest.mark.parametrize(
    "w,expected", [("abaab", True), ("aabbaa", False), ("aaaa", True), ("", True)]
)
def test_is_balanced(w, expected):
    assert is_balanced(w) is expected


def test_balance_rejects_three_symbols():
    with pytest.raises(ValueError, match="binary"):
        is_balanced("abc")
    with pytest.raises(ValueError, match="binary"):
        unbalance_witness("abc")


@pytest.mark.parametrize(
    "w,expected", [("aabbaa", ""), ("aaabab", "a"), ("abaab", None), ("aaaa", None)]
)
def test_unbalance_witness(w, expected):
    assert unbalance_witness(w) == expected


def test_witness_presence_agrees_with_balance():
    for w in words_up_to("ab", 14):
        assert (unbalance_witness(w) is None) == is_balanced(w), w


# seeds whose samples include a witness of length 100 or more
@pytest.mark.parametrize("n,count,seed", [(300, 3, 11), (1000, 2, 28), (2000, 1, 22)])
def test_witness_presence_agrees_with_balance_on_long_words(n, count, seed):
    witnesses = []
    for w in christoffel_windows(n, count, seed):
        u = unbalance_witness(w)
        assert (u is None) == is_balanced(w), w
        if u is not None:
            witnesses.append(u)
    assert max(map(len, witnesses)) >= 100


def test_unbalance_witness_is_shortest_and_checks_out():
    for w in [*words_up_to("ab", 11), *christoffel_windows(300, 2, 11)]:
        u = unbalance_witness(w)
        if u is not None:
            assert u == u[::-1]
            factors = {w[i:j] for i in range(len(w)) for j in range(i + 1, len(w) + 1)}
            # any witness core is itself a palindromic factor of w
            hits = [
                v
                for v in palindromic_factors(w)
                if f"a{v}a" in factors and f"b{v}b" in factors
            ]
            assert u in hits
            best = min(len(v) for v in hits)
            assert len(u) == best
            assert u == min(v for v in hits if len(v) == best)  # lexicographic tie-break


@pytest.mark.parametrize(
    "w,expected",
    [("abaab", True), ("aaabab", False), ("abc", False), ("aaaa", True), ("", True)],
)
def test_is_finite_sturmian(w, expected):
    assert is_finite_sturmian(w) is expected


@pytest.mark.parametrize(
    "w,expected", [("aba", True), ("aabbaa", False), ("aaabab", False), ("", True)]
)
def test_is_sturmian_palindrome(w, expected):
    assert is_sturmian_palindrome(w) is expected


@pytest.mark.parametrize("w,expected", [("aba", True), ("aabbaa", True), ("aaabab", False), ("", True)])
def test_condition_B(w, expected):
    assert condition_B(w) is expected


def test_condition_B_reports_first_failing_index():
    mism = condition_B_mismatches("aaabab")
    assert mism[0] == (2, 4, 3)  # P(2)+P(3) = 1+3, C(3)-C(2)+2 = 4-3+2


@pytest.mark.parametrize(
    "w,expected", [("aba", True), ("a", True), ("aabbaa", False), ("", True)]
)
def test_condition_B_prime(w, expected):
    assert condition_B_prime(w) is expected


def test_conditions_B_match_their_definitions_on_oracle_profiles():
    # the palindrome early-out must not change either verdict
    for w in words_up_to("abc", 7):
        c, p, n = oracle.subword_complexity(w), oracle.palindromic_complexity(w), len(w)
        coupled = all(p[i] + p[i + 1] == c[i + 1] - c[i] + 2 for i in range(n + 1))
        symmetric = all(p[i] + p[n - i] == 2 for i in range(n + 1))
        assert condition_B(w) is coupled, w
        assert condition_B_prime(w) is symmetric, w
        assert (not condition_B_mismatches(w)) is coupled, w


@pytest.mark.parametrize(
    "values,expected",
    [([1, 2, 0, 1], True), ([1, 1], True), ([1, 2, 2, 0, 1, 0, 1], False), ([], True)],
)
def test_theta_palindrome_check(values, expected):
    assert theta_palindrome_check(values) is expected


def test_theta_palindrome_check_rejects_out_of_range():
    with pytest.raises(ValueError, match="profile not over"):
        theta_palindrome_check([1, 3, 1])


# ---------------------------------------------------------------------------
# Redundant-route equivalences, small exhaustive sweeps (the acceptance
# suite reruns these at the full published bounds).
# ---------------------------------------------------------------------------


def test_rich_routes_agree_binary():
    for w in words_up_to("ab", 11):
        assert is_rich_by_count(w) == is_rich_by_returns(w), w


def test_rich_routes_agree_ternary():
    for w in words_up_to("abc", 7):
        assert is_rich_by_count(w) == is_rich_by_returns(w), w


def test_trapezoidal_words_are_rich():
    for w in words_up_to("ab", 12):
        if is_trapezoidal(w):
            assert is_rich_by_count(w), w


def test_trapezoidal_index_matches_profile_shape():
    for w in words_up_to("ab", 11):
        if w:
            assert is_trapezoidal(w) == (has_trapezoidal_profile(w) is not None), w


def test_theta_check_matches_condition_B_prime():
    for w in words_up_to("ab", 11):
        p = palindromic_complexity(w)[: len(w) + 1]
        symmetric = all(v <= 2 for v in p) and theta_palindrome_check(p)
        assert symmetric == condition_B_prime(w), w


def test_no_ternary_word_is_trapezoidal():
    for w in words_up_to("abc", 7):
        if len(set(w)) >= 3:
            assert not is_trapezoidal(w), w


def test_theorem_equivalences_small():
    for w in words_up_to("ab", 11):
        rich_pal = is_palindrome(w) and is_rich_by_count(w)
        assert rich_pal == condition_B(w), w
        sturm_pal = is_sturmian_palindrome(w)
        trap_pal = is_palindrome(w) and is_trapezoidal(w)
        assert sturm_pal == condition_B_prime(w) == trap_pal, w


@given(binary_words)
def test_classification_report_is_consistent(w):
    rep = classify(w)
    assert rep.is_rich == (rep.palindrome_count == len(w) + 1)
    assert rep.is_sturmian_palindrome == (rep.is_palindrome and rep.is_finite_sturmian)
    assert rep.is_balanced == (rep.unbalance_witness is None)
    assert rep.is_balanced == is_balanced(w)
    assert rep.is_trapezoidal == (len(w) == rep.indices.r_index + rep.indices.k_index)
    assert rep.palindrome_count == len(palindromic_factors(w))


def test_classification_report_three_symbol_word():
    rep = classify("abcab")
    assert rep.is_balanced is None
    assert rep.unbalance_witness is None
    assert not rep.is_finite_sturmian
    assert not rep.is_trapezoidal
