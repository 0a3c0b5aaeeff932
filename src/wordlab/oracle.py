"""Naive set-based profiles and palindromic factors, the reference for
the test suite.

Each routine slices every factor of w, so it is cubic in |w| and
obviously correct.  The suffix-automaton C(n) and the palindromic-tree
P(n) in wordlab.complexity, the palindromic tree itself and the
centre-expansion scan in wordlab.core are checked against it.  Nothing
in the package imports this module.
"""

from __future__ import annotations


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
