"""Complexity profiles and structural indices of finite words.

Profiles are plain integer lists indexed by factor length n = 0..N+1 for
a word of length N.  The trailing entry at N+1 is always 0; the coupling
identities between subword and palindromic complexity rely on that
convention, so callers should not truncate it away.

Each profile has one kernel, linear in N up to the alphabet factor: the
suffix automaton (Blumer et al. 1985) gives C(n) and the palindromic
tree PalindromeIndex gives P(n).  word_profile computes C, P, D, the
structural indices and the palindromic factor list of a word once.  The
indices R, K and the minimal period keep their own direct scans, so the
claims that compare them with the profiles compare independent
algorithms.  _r_index_from and _minimal_period_from run the R and period
scans from a lower bound, the parent's value in a walk of the word tree.
The naive set-based C and P live in wordlab.oracle.

The records here are NamedTuples, not frozen dataclasses: each class is
built when the module is imported, and a frozen dataclass costs about
six times as much to build.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple

from .palindromes import PalindromeIndex


def subword_complexity(w: str) -> list[int]:
    """C[n] = number of distinct factors of w of length n, for n = 0..N+1.

    Each non-root state of the suffix automaton of w stands for exactly
    one factor of each length len(link)+1 .. len, so C is the prefix sum
    of a difference array over those intervals.
    """
    length = [0]
    link = [-1]
    trans: list[dict[str, int]] = [{}]
    last = 0
    for ch in w:
        cur = len(length)
        length.append(length[last] + 1)
        link.append(0)
        trans.append({})
        p = last
        while p != -1 and ch not in trans[p]:
            trans[p][ch] = cur
            p = link[p]
        if p != -1:
            q = trans[p][ch]
            if length[p] + 1 == length[q]:
                link[cur] = q
            else:
                clone = len(length)
                length.append(length[p] + 1)
                link.append(link[q])
                trans.append(trans[q].copy())
                while p != -1 and trans[p].get(ch) == q:
                    trans[p][ch] = clone
                    p = link[p]
                link[q] = link[cur] = clone
        last = cur
    delta = [0] * (len(w) + 2)
    delta[0] = 1  # the root: the empty word
    delta[1] = -1
    for v in range(1, len(length)):
        delta[length[link[v]] + 1] += 1
        delta[length[v] + 1] -= 1
    return list(accumulate(delta))


def _palindromic_profile(index: PalindromeIndex, n: int) -> list[int]:
    values = [0] * (n + 2)
    for m in index.lengths():
        values[m] += 1
    return values


def palindromic_complexity(w: str) -> list[int]:
    """P[n] = number of distinct palindromic factors of length n, n = 0..N+1.

    P[0] = 1 (the empty word); the entries sum to the total number of
    distinct palindromic factors.  Counts the palindromic tree's nodes
    per length.
    """
    return _palindromic_profile(PalindromeIndex(w), len(w))


class DifferenceProfile(NamedTuple):
    """First difference of the subword complexity, values[n] = C(n+1) - C(n).

    trapezoid_runs holds (r, s) when the difference vector is exactly
    r ones, then s zeros, then r minus-ones; None otherwise.
    """

    values: tuple[int, ...]
    trapezoid_runs: tuple[int, int] | None


def _run_decomposition(values: tuple[int, ...]) -> tuple[int, int] | None:
    n = len(values)
    r = 0
    while r < n and values[r] == 1:
        r += 1
    s = 0
    while r + s < n and values[r + s] == 0:
        s += 1
    tail = values[r + s :]
    if len(tail) == r and all(v == -1 for v in tail):
        return (r, s)
    return None


def _difference_of(c: list[int]) -> DifferenceProfile:
    values = tuple(c[n + 1] - c[n] for n in range(len(c) - 2))
    return DifferenceProfile(values, _run_decomposition(values))


def difference_profile(w: str) -> DifferenceProfile:
    """Difference vector of the subword complexity, indexed 0..N-1."""
    if not w:
        raise ValueError("difference profile undefined for the empty word")
    return _difference_of(subword_complexity(w))


def _has_right_special(w: str, p: int) -> bool:
    first: dict[str, str] = {}
    for i in range(len(w) - p):
        f = w[i : i + p]
        c = w[i + p]
        if first.setdefault(f, c) != c:
            return True
    return False


def r_index(w: str) -> int:
    """Smallest length p at which w has no right special factor.

    0 for the empty word and for constant words (the empty factor is
    right special exactly when w uses two or more distinct symbols).
    A suffix of a right special factor is right special, so the lengths
    that have one are 0..R-1 and R is found by binary search.  The search
    gallops up first, probing 0, 1, 3, 7, ...: a probe that finds no right
    special factor scans every window, and galloping keeps the probes
    below 2R + 2, where bisecting [0, N] would start at N / 2.
    """
    lo, hi = 0, len(w)  # the full word is never right special
    probe = 0
    while probe < hi:
        if not _has_right_special(w, probe):
            hi = probe
            break
        lo = probe + 1
        probe = 2 * probe + 1
    while lo < hi:  # lengths below lo have a right special factor, hi has none
        mid = (lo + hi) // 2
        if _has_right_special(w, mid):
            lo = mid + 1
        else:
            hi = mid
    return lo


def _r_index_from(w: str, start: int) -> int:
    """r_index(w) for any start <= r_index(w): the first p >= start at
    which w has no right special factor.

    A right special factor of w[:-1] stays right special in w, so R never
    decreases along a word's prefixes and R(w[:-1]) is such a start; a
    walk of the word tree then probes one or two lengths per word.
    """
    while _has_right_special(w, start):
        start += 1
    return start


def k_index(w: str) -> int:
    """Length of the shortest suffix occurring exactly once in w; 0 for the empty word.

    Occurrences are counted with overlaps, so the length-k suffix is
    unrepeated iff its first occurrence starts at |w| - k.
    """
    n = len(w)
    for k in range(1, n + 1):
        if w.find(w[n - k :]) == n - k:
            return k
    return 0


def minimal_period(w: str) -> int:
    """Smallest p >= 1 with w[i] == w[i+p] wherever both sides are defined.

    Direct shift-and-compare scan; equals |w| - |oracle.longest_border(w)|.
    """
    if not w:
        raise ValueError("period undefined for the empty word")
    return _minimal_period_from(w, 1)


def _minimal_period_from(w: str, start: int) -> int:
    """minimal_period(w) for any 1 <= start <= minimal_period(w), w non-empty.

    Every period of w is a period of w[:-1], so the minimal period never
    decreases along a word's prefixes and minimal_period(w[:-1]) is such
    a start.
    """
    n = len(w)
    for p in range(start, n):
        if w[p:] == w[: n - p]:
            return p
    return n


class StructuralIndices(NamedTuple):
    """The three indices driving the trapezoid classification.

    min_period is None only for the empty word, where it is undefined.
    """

    r_index: int
    k_index: int
    min_period: int | None


def structural_indices(w: str) -> StructuralIndices:
    return StructuralIndices(
        r_index=r_index(w),
        k_index=k_index(w),
        min_period=minimal_period(w) if w else None,
    )


class WordProfile(NamedTuple):
    """C, P, D, the structural indices and the palindromic factors of one word.

    subword and palindromic are C and P indexed 0..N+1; difference is None
    for the empty word.  palindromic_factors includes the empty word and
    is sorted by length, then lexicographically.
    """

    subword: tuple[int, ...]
    palindromic: tuple[int, ...]
    difference: DifferenceProfile | None
    indices: StructuralIndices
    palindromic_factors: tuple[str, ...]


def word_profile(w: str) -> WordProfile:
    """Compute every profile of w once; P and the factors share one tree."""
    index = PalindromeIndex(w)
    c = subword_complexity(w)
    return WordProfile(
        subword=tuple(c),
        palindromic=tuple(_palindromic_profile(index, len(w))),
        difference=_difference_of(c) if w else None,
        indices=structural_indices(w),
        palindromic_factors=tuple(
            sorted(index.distinct_palindromes(), key=lambda f: (len(f), f))
        ),
    )
