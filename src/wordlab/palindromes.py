"""Incremental index of distinct palindromic factors (a palindromic tree).

The index keeps one node per distinct non-empty palindromic factor of
the processed word, plus two roots (the empty word and an imaginary
length minus-one root).  Appending a symbol creates at most one node, so
construction is linear in the word length up to the alphabet factor.

The index is the production kernel for everything palindromic about a
word: the count behind richness, the palindromic complexity P(n), the
factor list that analyze reports and the unbalance witness read off it.  The test suite checks it against
the naive set-based palindromic_factors and wordlab.oracle.
"""

from __future__ import annotations

_IMAGINARY = 0  # root of length -1
_EMPTY = 1  # root holding the empty word


class PalindromeIndex:
    """Palindromic tree over a word, built one symbol at a time.

    Attributes:
        prefix_counts: prefix_counts[i] is the number of distinct
            non-empty palindromic factors of word[:i]; the sequence is
            non-decreasing and grows by at most 1 per symbol.
    """

    __slots__ = ("_chars", "_len", "_link", "_next", "_via", "_last", "prefix_counts")

    def __init__(self, word: str = "") -> None:
        self._chars: list[str] = []
        self._len = [-1, 0]
        self._link = [_IMAGINARY, _IMAGINARY]
        self._next: list[dict[str, int]] = [{}, {}]
        # (source node, symbol) a node was created from; None for the roots
        self._via: list[tuple[int, str] | None] = [None, None]
        self._last = _EMPTY
        self.prefix_counts = [0]
        for ch in word:
            self.append(ch)

    def _suffix_palindrome_for(self, v: int, pos: int, ch: str) -> int:
        """Walk suffix links from v until ch extends the candidate to a palindrome."""
        chars = self._chars
        while True:
            i = pos - self._len[v] - 1
            if i >= 0 and chars[i] == ch:
                return v
            v = self._link[v]

    def append(self, ch: str) -> bool:
        """Append one symbol; True iff a new distinct palindrome appeared."""
        pos = len(self._chars)
        self._chars.append(ch)
        v = self._suffix_palindrome_for(self._last, pos, ch)
        if ch in self._next[v]:
            self._last = self._next[v][ch]
            self.prefix_counts.append(self.prefix_counts[-1])
            return False
        cur = len(self._len)
        self._len.append(self._len[v] + 2)
        self._next.append({})
        self._via.append((v, ch))
        if self._len[cur] == 1:
            self._link.append(_EMPTY)
        else:
            u = self._suffix_palindrome_for(self._link[v], pos, ch)
            self._link.append(self._next[u][ch])
        self._next[v][ch] = cur
        self._last = cur
        self.prefix_counts.append(self.prefix_counts[-1] + 1)
        return True

    @property
    def word(self) -> str:
        return "".join(self._chars)

    @property
    def palindrome_count(self) -> int:
        """Number of distinct non-empty palindromic factors seen so far."""
        return len(self._len) - 2

    @property
    def node_count(self) -> int:
        """Nodes representing actual palindromes (empty word included)."""
        return len(self._len) - 1

    def lengths(self) -> list[int]:
        """Length of the palindrome each node stands for, empty word included."""
        return self._len[_EMPTY:]

    def distinct_palindromes(self) -> set[str]:
        """Rebuild the palindrome each node stands for (empty word included)."""
        # a node is always created after the node it extends
        built = ["", ""]
        for (src, ch), length in zip(self._via[2:], self._len[2:]):  # type: ignore[misc]
            built.append(ch if length == 1 else ch + built[src] + ch)
        return set(built[_EMPTY:])


def index_count_palindromes(w: str) -> int:
    """Count the distinct non-empty palindromic factors of w in one pass.

    Equals len(palindromic_factors(w)) - 1.
    """
    return PalindromeIndex(w).palindrome_count
