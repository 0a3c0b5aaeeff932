"""Basic operations on finite words, and the package's error boundary.

A word is a plain Python string over a small alphabet of printable ASCII
symbols; the empty string is the empty word.  An alphabet is a str of
distinct symbols, checked once by check_alphabet where it enters, whose
order is the order words are enumerated in.  One plain string search
over a word's palindromic suffixes (_palindromic_suffixes) is the step
that the PAL_BOUND and PROP1 claims take along the verify walk, and
palindromic_factors is its fold over the prefixes of a word.  It does
not use the palindromic tree, so neither claim checks the tree against
itself.  Only a check of caller input raises UsageError, and
check_budget and check_length raise BudgetExceededError; any other
exception is a fault.  The CLI exits 2, 3 and 4 on these.  The walk
commands (verify, enumerate, census) share one such check, check_walk,
of their three inputs: the alphabet, the length and the word budget.
"""

from __future__ import annotations

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
    """Refuse an enumeration of more words than budget."""
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


def check_walk(name: str, length: int, alphabet: str, budget: int, exact: bool = False) -> None:
    """The one boundary of the walk commands (verify, enumerate, census): before
    any word is built, refuse, in this order, a bad alphabet (check_alphabet), a
    negative length or a negative budget (UsageError), then a length over
    MAX_WORD_LENGTH or more words than budget: those of length 0..length over the
    alphabet, or of that length only (BudgetExceededError).  So every usage error
    is reported before any refusal."""
    check_alphabet(alphabet)
    if length < 0:
        raise UsageError(f"{name} must be non-negative")
    if budget < 0:
        raise UsageError(f"budget must be non-negative, got {budget}")
    check_length(name, length)
    words = len(alphabet) ** length if exact else word_count(len(alphabet), length)
    check_budget(words, budget, f"words of length {'' if exact else '<= '}{length}")


def is_palindrome(w: str) -> bool:
    """True iff w reads the same backwards; the empty word qualifies."""
    return w == w[::-1]


def complete_returns(w: str, u: str) -> set[str]:
    """Factors of w that start and end with u and contain u exactly twice.

    One return per pair of consecutive occurrences of u; occurrences may
    overlap, so the two copies of u inside a return may share positions
    (complete_returns("aaa", "aa") == {"aaa"}).  An empty u raises ValueError.
    """
    if not u:
        raise ValueError("empty pattern")
    out: set[str] = set()
    i = w.find(u)
    while i != -1 and (j := w.find(u, i + 1)) != -1:
        out.add(w[i : j + len(u)])
        i = j
    return out


def palindromic_factors(w: str) -> set[str]:
    """The distinct palindromic factors of w, the empty word included.

    The union of the new palindromic suffixes of each prefix of w, so
    independent of PalindromeIndex.  It takes order |w|^2 Python steps:
    a test reference, where classify and PalindromeIndex serve library
    callers.  A word of length N never has more than N + 1 distinct
    palindromic factors.
    """
    return {""}.union(*(_palindromic_suffixes(w[:n])[0] for n in range(1, len(w) + 1)))


def _palindromic_suffixes(w: str) -> tuple[list[str], int]:
    """(new, prev): the palindromic suffixes of w that w[:-1] lacks, longest
    first, and the last start in w[:-1] of the longest one it has (-1 if none).

    new are the palindromic factors that w adds to w[:-1], so a walk of the
    word tree carries the count of distinct palindromic factors from parent
    to child; prev starts the complete return that PROP1's step tests.  The
    suffixes are read longest first, left to right over the occurrences of
    the last symbol, up to the first one that w[:-1] has: each shorter one
    is a suffix of it, so w[:-1] has that too.  This is factor closure only;
    the scan does not assume the at-most-one-new bound (Droubay, Justin &
    Pirillo 2001) that the PAL_BOUND claim checks.  No palindromic tree.
    """
    new: list[str] = []
    rev = w[::-1]  # w[i:] is a palindrome iff rev starts with it
    i = w.find(w[-1]) if w else -1  # a non-empty palindromic suffix starts with the last symbol
    while i != -1:
        u = w[i:]
        if rev.startswith(u):
            prev = w.rfind(u, 0, len(w) - 1)
            if prev != -1:
                return new, prev
            new.append(u)
        i = w.find(w[-1], i + 1)
    return new, -1
