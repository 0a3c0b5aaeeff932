"""Basic operations on finite words, and the package's error boundary.

A word is a plain Python string over a small alphabet of printable ASCII
symbols; the empty string is the empty word.  An alphabet is a str of
distinct symbols, checked once by check_alphabet where it enters, whose
order is the order words are enumerated in.  The palindromic occurrences
of a word are found by expanding around each of its 2N - 1 centres
(_palindrome_spans).  palindromic_factors and is_rich_by_returns read
that scan, so neither depends on the palindromic tree.  The PAL_BOUND
claim counts palindromic factors by string search along the verify walk
(_new_palindromic_suffixes), so it does not check the tree against
itself either.  Only a check of caller input raises UsageError, and
check_budget and check_length raise BudgetExceededError; any other
exception is a fault.  The CLI exits 2, 3 and 4 on these.
"""

from __future__ import annotations

from collections.abc import Iterator

SCHEMA_VERSION = 1  # of every JSON object the CLI prints
MAX_ALPHABET_SIZE = 26
DEFAULT_BUDGET = 1 << 26  # refuse enumerations beyond ~67M words
# Longest word any command builds: a walk's work per word grows with its length, and
# analyze prints a palindromic factor list quadratic in N (12.6 MB of JSON for a^N).
MAX_WORD_LENGTH = 5000


class UsageError(ValueError):
    """Invalid caller input: the only error the CLI reports as a usage error."""


class BudgetExceededError(RuntimeError):
    """Raised past the word budget, or for a word longer than MAX_WORD_LENGTH."""


def check_budget(words: int, budget: int, what: str) -> None:
    """Refuse a negative budget, and an enumeration of more words than it."""
    if budget < 0:
        raise UsageError(f"budget must be non-negative, got {budget}")
    if words > budget:
        raise BudgetExceededError(f"{words} {what} exceeds the budget of {budget}")


def word_count(alphabet_size: int, max_len: int) -> int:
    """Number of words of length 0..max_len over an alphabet of that size."""
    return sum(alphabet_size**n for n in range(max_len + 1))


def check_alphabet(symbols: str) -> None:
    """Refuse an alphabet that is not 1..MAX_ALPHABET_SIZE distinct printable
    ASCII symbols (UsageError).  Its own order is the lexicographic order
    wherever words are enumerated or reported, so "ba" puts b before a."""
    if not 1 <= len(symbols) <= MAX_ALPHABET_SIZE:
        raise UsageError(
            f"alphabet must have 1..{MAX_ALPHABET_SIZE} symbols, got {len(symbols)}"
        )
    for i, s in enumerate(symbols):
        if not (s.isascii() and s.isprintable()):
            raise UsageError(f"not a printable ASCII symbol: {s!r}")
        if symbols.index(s) != i:
            raise UsageError(f"duplicate symbol: {s!r}")


def check_length(name: str, length: int) -> None:
    """Refuse a word longer than MAX_WORD_LENGTH (BudgetExceededError)."""
    if length > MAX_WORD_LENGTH:
        raise BudgetExceededError(
            f"{name} {length} exceeds the word-length limit of {MAX_WORD_LENGTH}"
        )


def check_walk(name: str, length: int, symbols: int, budget: int, exact: bool = False) -> None:
    """Before any word is built, refuse a negative length (UsageError), a length
    over MAX_WORD_LENGTH, or more words than budget: those of length 0..length
    over that many symbols, or of that length only (BudgetExceededError)."""
    if length < 0:
        raise UsageError(f"{name} must be non-negative")
    check_length(name, length)
    words = symbols**length if exact else word_count(symbols, length)
    check_budget(words, budget, f"words of length {'' if exact else '<= '}{length}")


def is_palindrome(w: str) -> bool:
    """True iff w reads the same backwards; the empty word qualifies."""
    return w == w[::-1]


def occurrences(w: str, u: str) -> list[int]:
    """All start positions of u inside w, ascending, overlaps included."""
    if not u:
        raise ValueError("empty pattern")
    out: list[int] = []
    i = w.find(u)
    while i != -1:
        out.append(i)
        i = w.find(u, i + 1)
    return out


def complete_returns(w: str, u: str) -> set[str]:
    """Factors of w that start and end with u and contain u exactly twice.

    One return per pair of consecutive occurrences of u; occurrences may
    overlap, so the two copies of u inside a return may share positions
    (complete_returns("aaa", "aa") == {"aaa"}).
    """
    occ = occurrences(w, u)
    return {w[i : j + len(u)] for i, j in zip(occ, occ[1:])}


def _palindrome_spans(w: str) -> Iterator[tuple[int, int]]:
    """(start, end) of every non-empty palindromic occurrence w[start:end].

    Centres are visited in ascending order (letter k, then the gap after
    it) and each is expanded while its two ends match.  An occurrence of
    a palindrome u at start s has centre 2s + |u| - 1, so the occurrences
    of any one u come out in ascending start order, as consecutive
    occurrences.  The a^N word has N(N+1)/2 of them.

    Read by palindromic_factors and by is_rich_by_returns, the single-word
    richness-by-returns test and the tests' reference.  The verify walk
    does not rescan: PROP1 carries richness by returns from each word to
    its children, checking only the returns that end at the new symbol
    (classify._end_returns_are_palindromes).
    """
    n = len(w)
    for k in range(n):
        lo, hi = k, k + 1
        yield lo, hi
        while lo and hi < n and w[lo - 1] == w[hi]:
            lo -= 1
            hi += 1
            yield lo, hi
        lo = hi = k + 1
        while lo and hi < n and w[lo - 1] == w[hi]:
            lo -= 1
            hi += 1
            yield lo, hi


def palindromic_factors(w: str) -> set[str]:
    """The distinct palindromic factors of w, the empty word included.

    Read off the centre-expansion scan, independent of PalindromeIndex.
    A word of length N never has more than N + 1 distinct palindromic
    factors.
    """
    return {w[i:j] for i, j in _palindrome_spans(w)} | {""}


def _new_palindromic_suffixes(w: str) -> int:
    """Number of palindromic suffixes of w that do not occur in w[:-1].

    These are the palindromic factors of w that w[:-1] lacks, so a walk
    of the word tree carries the count of distinct palindromic factors
    from parent to child.  Every palindromic suffix is tested, not only
    the longest: the count must not assume the at-most-one-new bound
    (Droubay, Justin & Pirillo 2001) that the PAL_BOUND claim checks.
    Plain string search, no palindromic tree.
    """
    rev = w[::-1]  # w[i:] is a palindrome iff rev starts with it
    new = 0
    i = len(w) - 1  # a non-empty palindromic suffix starts with the last symbol
    while i > -1:
        u = w[i:]
        new += rev.startswith(u) and w.find(u) == i
        i = w.rfind(w[-1], 0, i)
    return new
