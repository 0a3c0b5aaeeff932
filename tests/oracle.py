"""Naive references for the test suite, so obviously correct: product-loop
word enumeration, set-based profiles and palindromic factors, occurrences,
right special factors, borders, the theta test, richness by its definition,
and a fixed list of structured words.

The word-tree walk, the suffix-automaton C(n) and the palindromic-tree
P(n) in wordlab.complexity, the palindromic tree itself, the
palindromic-suffix scan core._palindromic_suffixes and its folds
core.palindromic_factors and classify.is_rich_by_returns, and the R, K
and period scans are checked against it.  It sits beside the tests, not
in the package: pytest puts this directory on sys.path, so a test module
reads it with `import oracle`.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Sequence

from wordlab.core import check_alphabet, complete_returns, is_palindrome
from wordlab.generate import lower_christoffel


def all_words(alphabet: str, n: int) -> Iterator[str]:
    """Yield every length-n word once, in lexicographic order; n < 0 raises ValueError."""
    check_alphabet(alphabet)
    for tail in itertools.product(alphabet, repeat=n):
        yield "".join(tail)


def words_up_to(alphabet: str, max_len: int) -> Iterator[str]:
    """Yield every word of length 0..max_len, shortest first, lexicographic."""
    for n in range(max_len + 1):
        yield from all_words(alphabet, n)


def subword_complexity(w: str) -> list[int]:
    """C[n] = number of distinct factors of w of length n, for n = 0..N+1."""
    n = len(w)
    values = [0] * (n + 2)
    values[0] = 1
    for m in range(1, n + 1):
        values[m] = len({w[i : i + m] for i in range(n - m + 1)})
    return values


def palindromic_complexity(w: str) -> list[int]:
    """P[n] = number of distinct palindromic factors of length n, n = 0..N+1."""
    n = len(w)
    values = [0] * (n + 2)
    values[0] = 1
    for m in range(1, n + 1):
        seen: set[str] = set()
        for i in range(n - m + 1):
            f = w[i : i + m]
            if f == f[::-1]:
                seen.add(f)
        values[m] = len(seen)
    return values


def palindromic_factors(w: str) -> set[str]:
    """The distinct palindromic factors of w, the empty word included.

    Naive enumerate-and-filter over all factors, independent of
    PalindromeIndex.  A word of length N never has more than N + 1
    distinct palindromic factors.
    """
    out = {""}
    n = len(w)
    for i in range(n):
        for j in range(i + 1, n + 1):
            f = w[i:j]
            if f == f[::-1]:
                out.add(f)
    return out


def occurrences(w: str, u: str) -> list[int]:
    """All start positions of u inside w, ascending, overlaps included."""
    if not u:
        raise ValueError("empty pattern")
    return [i for i in range(len(w)) if w.startswith(u, i)]


def right_special_factors(w: str, n: int) -> set[str]:
    """Length-n factors of w that extend to the right by two or more symbols."""
    if n > len(w):
        raise ValueError("length exceeds word")
    ext: dict[str, set[str]] = {}
    for i in range(len(w) - n):
        ext.setdefault(w[i : i + n], set()).add(w[i + n])
    return {f for f, succ in ext.items() if len(succ) >= 2}


def longest_border(w: str) -> str:
    """Longest word that is both a proper prefix and a proper suffix of w.

    Returns the empty word when |w| <= 1 or no nonempty border exists.
    """
    n = len(w)
    for k in range(n - 1, 0, -1):
        if w[:k] == w[n - k :]:
            return w[:k]
    return ""


# Involution used to compare a palindromic-complexity profile with its
# own reversal: 0 and 2 swap, 1 is fixed.
THETA = {0: 2, 1: 1, 2: 0}


def theta_palindrome_check(values: Sequence[int]) -> bool:
    """True iff the integer sequence equals the image of its reversal under
    the 0<->2, 1->1 involution.

    Intended for palindromic-complexity profiles truncated to P(0)..P(N);
    raises ValueError if any entry falls outside {0, 1, 2}.
    """
    if any(v not in (0, 1, 2) for v in values):
        raise ValueError("profile not over {0,1,2}")
    return list(values) == [THETA[v] for v in reversed(values)]


def rich_by_definition(w: str) -> bool:
    """Every complete return to every non-empty palindromic factor is a palindrome."""
    return all(
        is_palindrome(ret) for u in palindromic_factors(w) if u for ret in complete_returns(w, u)
    )


def flip(w: str, j: int) -> str:
    """w with its binary letter at j swapped."""
    return w[:j] + ("b" if w[j] == "a" else "a") + w[j + 1 :]


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
