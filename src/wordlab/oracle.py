"""Naive set-based complexity profiles, the reference for the test suite.

Each routine collects the set of length-n slices for every n, so it is
cubic in |w| and obviously correct.  The suffix-automaton C(n) and the
palindromic-tree P(n) in wordlab.complexity are checked against it.
Nothing in the package imports this module.
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
