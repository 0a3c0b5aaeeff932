import pytest
from hypothesis import given
from hypothesis import strategies as st

from wordlab import PalindromeIndex
from wordlab.classify import is_finite_sturmian
from wordlab.generate import random_words
from wordlab.palindromes import index_count_palindromes

from oracle import palindromic_factors, words_up_to

words = st.text(alphabet="abc", max_size=60)


def test_examples():
    assert index_count_palindromes("aabbaa") == 6
    assert index_count_palindromes("") == 0
    assert index_count_palindromes("aaabab") == 6


def test_counts_match_naive_exhaustive_binary():
    for w in words_up_to("ab", 11):
        assert index_count_palindromes(w) + 1 == len(palindromic_factors(w)), w


def test_counts_match_naive_exhaustive_ternary():
    for w in words_up_to("abc", 7):
        assert index_count_palindromes(w) + 1 == len(palindromic_factors(w)), w


@given(words)
def test_counts_match_naive_random(w):
    assert index_count_palindromes(w) + 1 == len(palindromic_factors(w))


@given(words)
def test_node_set_is_the_palindromic_factor_set(w):
    assert PalindromeIndex(w).distinct_palindromes() == palindromic_factors(w)


@given(words)
def test_prefix_counts_track_prefixes(w):
    idx = PalindromeIndex(w)
    counts = idx.prefix_counts
    assert counts[0] == 0
    assert len(counts) == len(w) + 1
    for prev, cur in zip(counts, counts[1:]):
        assert cur - prev in (0, 1)  # at most one new palindrome per symbol
    for i in (0, len(w) // 2, len(w)):
        assert counts[i] == len(palindromic_factors(w[:i])) - 1


def test_incremental_append_matches_batch():
    idx = PalindromeIndex()
    for ch in "abbaabba":
        idx.append(ch)
    assert idx.distinct_palindromes() == PalindromeIndex("abbaabba").distinct_palindromes()
    assert idx.palindrome_count == PalindromeIndex("abbaabba").palindrome_count


def test_node_count_includes_empty_word():
    idx = PalindromeIndex("aabbaa")
    assert len(idx.lengths()) == len(palindromic_factors("aabbaa"))


def test_lengths_lists_one_node_per_palindrome():
    idx = PalindromeIndex("aabbaa")
    assert sorted(idx.lengths()) == sorted(len(f) for f in palindromic_factors("aabbaa"))


def test_longest_suffix_palindrome_matches_naive():
    for w in [*words_up_to("ab", 10), *words_up_to("abc", 6)]:
        longest = max(len(f) for f in palindromic_factors(w) if w.endswith(f))
        assert PalindromeIndex(w).longest_suffix_palindrome == longest, w


def test_distinct_palindromes_of_a_long_unary_word():
    # nested palindromes are rebuilt without recursion
    assert PalindromeIndex("a" * 3000).distinct_palindromes() == {"a" * i for i in range(3001)}


def test_seeded_random_words_agree_with_naive():
    # 100-word smoke version of the acceptance fuzz check
    for i, w in enumerate(random_words("ab", 120, 50, seed=7)):
        assert index_count_palindromes(w) + 1 == len(palindromic_factors(w)), (i, w)
    for i, w in enumerate(random_words("abc", 90, 50, seed=11)):
        assert index_count_palindromes(w) + 1 == len(palindromic_factors(w)), (i, w)


def _state(idx):
    return (
        "".join(idx._chars),
        idx.prefix_counts,
        idx.lengths(),
        idx.distinct_palindromes(),
        idx.palindrome_count,
        idx.longest_suffix_palindrome,
        idx.new_palindrome_unbalances,
    )


# None stands for a pop, a symbol for an append
steps = st.lists(st.one_of(st.none(), st.sampled_from("abcd")), max_size=60)


@given(steps, st.sampled_from("abcd"))
def test_pop_undoes_append(ops, probe):
    idx = PalindromeIndex()
    word = ""
    for op in ops:
        if op is None and not word:
            with pytest.raises(IndexError):
                idx.pop()
        elif op is None:
            assert idx.pop() == word[-1]
            word = word[:-1]
        else:
            idx.append(op)
            word += op
        fresh = PalindromeIndex(word)
        assert _state(idx) == _state(fresh)
        # the next append sees the same tree
        assert idx.append(probe) == fresh.append(probe)
        assert _state(idx) == _state(fresh)
        idx.pop()
        assert _state(idx) == _state(PalindromeIndex(word))


def test_pop_on_empty_index_raises_and_leaves_it_usable():
    idx = PalindromeIndex()
    with pytest.raises(IndexError):
        idx.pop()
    assert [idx.append(ch) for ch in "abca"] == [True, True, True, False]
    assert _state(idx) == _state(PalindromeIndex("abca"))
    assert [idx.pop() for _ in range(4)] == ["a", "c", "b", "a"]
    with pytest.raises(IndexError):
        idx.pop()
    assert _state(idx) == _state(PalindromeIndex())


def _unbalances_naively(w):
    # w's last symbol is a third distinct letter, or it created a palindrome xUx with yUy,
    # y != x, also a factor of w
    if w and w[-1] not in w[:-1] and len(set(w)) > 2:
        return True
    factors = palindromic_factors(w)
    new = factors - palindromic_factors(w[:-1]) if w else set()
    return any(
        len(p) > 1 and any(y + p[1:-1] + y in factors for y in set(w) - {p[0]}) for p in new
    )


WORD_SETS = [("ab", 12), ("abc", 8), ("abcd", 6)]


@pytest.mark.parametrize("symbols,max_len", WORD_SETS)
def test_new_palindrome_unbalances_matches_naive(symbols, max_len):
    for w in words_up_to(symbols, max_len):
        assert PalindromeIndex(w).new_palindrome_unbalances == _unbalances_naively(w), w


@pytest.mark.parametrize("symbols,max_len", WORD_SETS)
def test_new_palindrome_unbalances_is_the_counting_route_below_a_balanced_word(symbols, max_len):
    # is_finite_sturmian counts letters and reads no tree; a word over 3+ letters is unbalanced
    seen = set()
    for w in words_up_to(symbols, max_len):
        if w and is_finite_sturmian(w[:-1]):
            unbalances = PalindromeIndex(w).new_palindrome_unbalances
            assert unbalances == (not is_finite_sturmian(w)), w
            seen.add(unbalances)
    assert seen == {False, True}


@pytest.mark.parametrize(
    "w,unbalances",
    [
        ("", False),
        ("a", False),
        ("ab", False),  # b is a second child of the length -1 root, which is no centre
        ("aab", False),
        ("aabb", True),  # bb and aa share the empty centre
        ("aabba", False),  # no new palindrome
        ("aaaabaa", False),
        ("aaaabaab", True),  # baab against aaaa: the centre aa
        ("aaaaabaaab", True),  # baaab against aaaaa: the centre aaa
        ("abab", False),
        ("abc", True),  # a third letter: a third child of the length -1 root
        ("abcd", True),  # and a fourth
        ("cbcaba", True),  # aba against cbc: the centre b
    ],
)
def test_new_palindrome_unbalances_examples(w, unbalances):
    assert PalindromeIndex(w).new_palindrome_unbalances is unbalances
