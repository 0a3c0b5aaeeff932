"""Complexity profiles and structural indices of finite words.

Profiles are plain integer lists indexed by factor length n = 0..N+1 for
a word of length N.  The trailing entry at N+1 is always 0; the coupling
identities between subword and palindromic complexity rely on that
convention, so callers should not truncate it away.

Each profile has one kernel, linear in N up to the alphabet factor: the
suffix automaton SuffixAutomaton (Blumer et al. 1985) gives D, and C(n)
as its running sums; the palindromic tree PalindromeIndex gives P(n); and
a walk of the word tree carries either, undoing appends.  classify.classify
builds C, P, D, the structural indices and the palindromic factor list of
a word once, from these kernels.  The indices R, K and the minimal period
keep their own direct scans, so the claims that compare them with the
profiles compare independent algorithms.  A walk of the word tree steps
them from the parent's values (_r_index_step, _k_index_step and
_minimal_period_from).
The naive set-based C and P are test references, in tests/oracle.py.

The records here are NamedTuples, not frozen dataclasses: each class is
built when the module is imported, and a frozen dataclass costs about
six times as much to build.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple

from .palindromes import PalindromeIndex


class SuffixAutomaton:
    """Suffix automaton (Blumer et al. 1985), built one symbol at a time; pop undoes an append.

    State v stands for the factors of lengths length[link[v]]+1 .. length[v]
    with one set of end positions.  difference is D: the new factors of wa
    are its suffixes longer than L = length[link[last]], so D(wa) is D(w)
    with -1 appended, then +1 at index L.  pop re-walks the suffix links from
    the previous last state, so an append records only the state it cloned.
    """

    __slots__ = ("length", "link", "trans", "difference", "_last", "_cloned")

    def __init__(self, word: str = "") -> None:
        self.length, self.link, self.trans = [0], [-1], [{}]
        self.difference: list[int] = []
        # _last[i] is the state of word[:i]; _cloned, per append, the state it cloned or -1
        self._last, self._cloned = [0], []
        for ch in word:
            self.append(ch)

    def append(self, ch: str) -> int:
        """Append one symbol; return L, the length of the longest suffix seen before."""
        length, link, trans = self.length, self.link, self.trans
        p = self._last[-1]
        cur = len(length)
        length.append(length[p] + 1)
        link.append(0)
        trans.append({})
        while p != -1 and ch not in trans[p]:
            trans[p][ch] = cur
            p = link[p]
        cloned = -1
        if p != -1:
            q = trans[p][ch]
            if length[p] + 1 == length[q]:
                link[cur] = q
            else:
                cloned, clone = q, len(length)
                length.append(length[p] + 1)
                link.append(link[q])
                trans.append(trans[q].copy())
                while p != -1 and trans[p].get(ch) == q:
                    trans[p][ch] = clone
                    p = link[p]
                link[q] = link[cur] = clone
        self._last.append(cur)
        self._cloned.append(cloned)
        self.difference.append(-1)
        self.difference[length[link[cur]]] += 1
        return length[link[cur]]

    def pop(self) -> str:
        """Undo the last append and return its symbol; IndexError when empty."""
        length, link, trans = self.length, self.link, self.trans
        q, cur = self._cloned.pop(), self._last.pop()
        self.difference[length[link[cur]]] -= 1
        self.difference.pop()
        p = self._last[-1]
        (ch,) = trans[p]  # the last state has no edges before an append adds one
        if q != -1:
            link[q] = link[cur + 1]  # q may lie on the chain below
        while p != -1 and trans[p].get(ch) == cur:
            del trans[p][ch]
            p = link[p]
        while q != -1 and p != -1 and trans[p].get(ch) == cur + 1:
            trans[p][ch] = q
            p = link[p]
        del length[cur:], link[cur:], trans[cur:]
        return ch


def _subword_of(d: list[int]) -> list[int]:
    return list(accumulate([1, *d, -1]))  # C(0) = 1, C(n+1) = C(n) + D(n), C(N+1) = 0


def subword_complexity(w: str) -> list[int]:
    """C[n] = number of distinct factors of w of length n, n = 0..N+1: running sums of 1, D, -1."""
    return _subword_of(SuffixAutomaton(w).difference)


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


def _run_decomposition(values: tuple[int, ...] | list[int]) -> tuple[int, int] | None:
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


def _difference_of(d: list[int]) -> DifferenceProfile:
    return DifferenceProfile(tuple(d), _run_decomposition(d))


def difference_profile(w: str) -> DifferenceProfile:
    """Difference vector of the subword complexity, indexed 0..N-1."""
    if not w:
        raise ValueError("difference profile undefined for the empty word")
    return _difference_of(SuffixAutomaton(w).difference)


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


def _r_index_step(w: str, r: int) -> int:
    """r_index(w) from r = r_index(w[:-1]), w non-empty: for p >= r, w has a right special
    factor of length p iff the length-p suffix u of w[:-1] occurs earlier followed by a symbol
    other than w[-1]; all earlier u share one follower, so the first decides, in one find."""
    n, a = len(w) - 1, w[-1]
    while r < n and (i := w.find(w[n - r : n], 0, n - 1)) != -1 and w[i + r] != a:
        r += 1
    return r


def _shortest_unrepeated_suffix(w: str, lo: int, hi: int) -> int:
    # bisects for k_index(w) given lo <= k_index(w) <= hi, one find per probe
    n = len(w)
    while lo < hi:
        mid = (lo + hi) // 2
        if w.find(w[n - mid :]) == n - mid:
            hi = mid
        else:
            lo = mid + 1
    return lo


def k_index(w: str) -> int:
    """Length of the shortest suffix occurring exactly once in w; 0 for the empty word.

    Occurrences are counted with overlaps, so the length-k suffix is
    unrepeated iff its first occurrence starts at |w| - k.  A suffix of a
    repeated suffix is repeated, so the search gallops up through the
    lengths 1, 2, 4, ... to the first unrepeated one, then bisects below it.
    """
    n, lo, probe = len(w), min(len(w), 1), 1
    while probe < n and w.find(w[n - probe :]) != n - probe:
        lo, probe = probe + 1, 2 * probe
    return _shortest_unrepeated_suffix(w, lo, min(probe, n))


def _k_index_step(w: str, k: int) -> int:
    # k = k_index(w[:-1]): w's length-(k+1) suffix extends that unrepeated suffix
    return _shortest_unrepeated_suffix(w, 1, k + 1)


def minimal_period(w: str) -> int:
    """Smallest p >= 1 with w[i] == w[i+p] wherever both sides are defined.

    Direct shift-and-compare scan; equals |w| minus the length of the
    longest border of w (a word that is both a proper prefix and a proper
    suffix).
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
