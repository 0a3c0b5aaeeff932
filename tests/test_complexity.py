import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wordlab import difference_profile, palindromic_complexity, subword_complexity
from wordlab.complexity import (
    SuffixAutomaton,
    _k_index_step,
    _r_index_step,
    k_index,
    minimal_period,
    r_index,
    structural_indices,
)
from wordlab.generate import lower_christoffel, random_words

from oracle import (
    all_words,
    longest_border,
    palindromic_factors,
    right_special_factors,
    structured_words,
    words_up_to,
)

binary_words = st.text(alphabet="ab", max_size=40)


@pytest.mark.parametrize(
    "w,expected",
    [
        ("aba", [1, 2, 2, 1, 0]),
        ("aaabab", [1, 2, 3, 4, 3, 2, 1, 0]),
        ("", [1, 0]),
        ("aabbaa", [1, 2, 4, 4, 3, 2, 1, 0]),
    ],
)
def test_subword_complexity(w, expected):
    assert subword_complexity(w) == expected


@pytest.mark.parametrize(
    "w,expected",
    [
        ("aba", [1, 2, 0, 1, 0]),
        ("aabbaa", [1, 2, 2, 0, 1, 0, 1, 0]),
        ("a", [1, 1, 0]),
        ("aaabab", [1, 2, 1, 3, 0, 0, 0, 0]),
    ],
)
def test_palindromic_complexity(w, expected):
    assert palindromic_complexity(w) == expected


@pytest.mark.parametrize(
    "w,values,runs",
    [
        ("aaabab", (1, 1, 1, -1, -1, -1), (3, 0)),
        ("aabbaa", (1, 2, 0, -1, -1, -1), None),
        ("a", (0,), (0, 1)),
        ("ab", (1, -1), (1, 0)),
    ],
)
def test_difference_profile(w, values, runs):
    d = difference_profile(w)
    assert d.values == values
    assert d.trapezoid_runs == runs


def test_difference_profile_rejects_empty_word():
    with pytest.raises(ValueError, match="empty word"):
        difference_profile("")


@pytest.mark.parametrize(
    "w,n,expected",
    [
        ("aaabab", 1, {"a"}),
        ("aaabab", 2, {"aa"}),
        ("aabbaa", 2, set()),
        ("ab", 0, {""}),
        ("aa", 0, set()),
    ],
)
def test_right_special_factors(w, n, expected):
    assert right_special_factors(w, n) == expected


def test_right_special_factors_rejects_overlong():
    with pytest.raises(ValueError, match="length exceeds word"):
        right_special_factors("ab", 3)


@pytest.mark.parametrize(
    "w,expected", [("aaabab", 3), ("aabbaa", 2), ("aaaaa", 0), ("", 0), ("ab", 1)]
)
def test_r_index(w, expected):
    assert r_index(w) == expected


@pytest.mark.parametrize(
    "w,expected", [("aaabab", 3), ("aabbaa", 3), ("a", 1), ("", 0), ("aaaa", 4)]
)
def test_k_index(w, expected):
    assert k_index(w) == expected


@pytest.mark.parametrize("w,expected", [("aaabab", 6), ("aabbaa", 4), ("aaaa", 1), ("abab", 2)])
def test_minimal_period(w, expected):
    assert minimal_period(w) == expected


def test_minimal_period_rejects_empty_word():
    with pytest.raises(ValueError, match="empty word"):
        minimal_period("")


def test_structural_indices_for_empty_word():
    idx = structural_indices("")
    assert (idx.r_index, idx.k_index, idx.min_period) == (0, 0, None)


def test_r_index_matches_public_right_special_scan():
    # the binary search must land where the set-based scan first finds none
    for alphabet, max_len in (("ab", 12), ("abc", 7)):
        for w in words_up_to(alphabet, max_len):
            r = r_index(w)
            assert not right_special_factors(w, r), w
            assert all(right_special_factors(w, p) for p in range(r)), w


@pytest.mark.parametrize("alphabet,max_len", [("ab", 14), ("abc", 9), ("abcd", 7)])
def test_step_kernels_match_the_direct_scans(alphabet, max_len):
    # each word's R and K stepped from its parent's, as a walk of the word tree does
    direct = {"": (0, 0)}
    for w in words_up_to(alphabet, max_len):
        if w:
            r, k = direct[w[:-1]]
            direct[w] = (r_index(w), k_index(w))
            assert (_r_index_step(w, r), _k_index_step(w, k)) == direct[w], w


def test_r_index_of_a_long_right_special_run():
    # a^4999 b: every a^p with p < 4999 is right special
    assert r_index(lower_christoffel(1, 4999)) == 4999


def test_profile_conventions_exhaustive():
    # C[0] = 1, C[N] = 1 for nonempty words, C[N+1] = 0; P dominated by C;
    # P entries sum to the palindromic factor count.
    for w in words_up_to("ab", 12):
        n = len(w)
        c = subword_complexity(w)
        p = palindromic_complexity(w)
        assert c[0] == 1 and c[n + 1] == 0 and p[n + 1] == 0
        if w:
            assert c[n] == 1
        assert all(p[m] <= c[m] for m in range(n + 2))
        assert sum(p) == len(palindromic_factors(w))
        assert all(c[m] <= min(2**m, n - m + 1) for m in range(n + 1))


def _automaton(a):
    return a.length, a.link, a.trans, a.difference


def test_suffix_automaton_pop_on_empty_raises():
    automaton = SuffixAutomaton("ab")
    assert automaton.pop() == "b" and automaton.pop() == "a"
    assert _automaton(automaton) == _automaton(SuffixAutomaton())
    with pytest.raises(IndexError):
        automaton.pop()


def test_suffix_automaton_deep_one_symbol_walk():
    # a^3000 up and back down: every append and pop is O(1) here, about 5 ms in all
    automaton, elapsed = SuffixAutomaton(), 0.0
    for n in [*range(1, 3001), *range(2999, -1, -1)]:
        started = time.perf_counter()
        if n > len(automaton.difference):
            assert automaton.append("a") == n - 1  # a^(n-1) is the longest repeated suffix
        else:
            assert automaton.pop() == "a"
        elapsed += time.perf_counter() - started
        if n % 500 == 0:
            assert _automaton(automaton) == _automaton(SuffixAutomaton("a" * n)), n
    assert elapsed < 0.5
    assert _automaton(automaton) == _automaton(SuffixAutomaton())


def test_suffix_automaton_append_is_one_less_than_k_index():
    # append returns the longest suffix seen before, the longest repeated one, and every suffix
    # of a repeated suffix is repeated: so it is K - 1, from a kernel that shares no code with
    # k_index.  Every word is a prefix of a longest one, so appending those reaches them all
    words = [
        w for alphabet, n in (("ab", 12), ("abc", 8), ("abcd", 6)) for w in all_words(alphabet, n)
    ]
    words += [*structured_words(), *random_words("ab", 400, 20, seed=29)]
    for w in words:
        automaton = SuffixAutomaton()
        for n, s in enumerate(w, 1):
            assert automaton.append(s) == k_index(w[:n]) - 1, w[:n]


def test_difference_values_sum_to_zero_exhaustive():
    for w in words_up_to("ab", 14):
        if w:
            assert sum(difference_profile(w).values) == 0


@given(binary_words)
def test_period_properties(w):
    if not w:
        return
    p = minimal_period(w)
    n = len(w)
    assert 1 <= p <= n
    assert w[p:] == w[: n - p]
    assert p == n - len(longest_border(w))
    assert p >= r_index(w) + 1


@given(binary_words)
def test_index_ranges(w):
    idx = structural_indices(w)
    assert 0 <= idx.r_index <= len(w)
    if w:
        assert 1 <= idx.k_index <= len(w)
        assert idx.min_period is not None and idx.min_period >= idx.r_index + 1
