"""Incremental index of distinct palindromic factors (a palindromic tree).

The index keeps one node per distinct non-empty palindromic factor of
the processed word, plus two roots (the empty word and an imaginary
length minus-one root).  Appending a symbol creates at most one node, so
construction is linear in the word length up to the alphabet factor, and
pop undoes the last append in constant time (Rubinchik & Shur 2018), so
one index can follow a depth-first walk of the word tree.

The index is the production kernel for everything palindromic about a
word: the count behind richness, the palindromic complexity P(n), the
factor list that analyze reports, the unbalance witness read off it and
census's balance flag (new_palindrome_unbalances, which names no
letter).  The test suite checks it against the naive set-based
references in tests/oracle.py, and the PAL_BOUND and PROP1 claims
against the one string search over palindromic suffixes,
core._palindromic_suffixes.
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

    __slots__ = ("_chars", "_len", "_link", "_next", "_via", "_suffix", "prefix_counts")

    def __init__(self, word: str = "") -> None:
        self._chars: list[str] = []
        self._len = [-1, 0]
        self._link = [_IMAGINARY, _IMAGINARY]
        self._next: list[dict[str, int]] = [{}, {}]
        # (source node, symbol) a node was created from; None for the roots
        self._via: list[tuple[int, str] | None] = [None, None]
        # _suffix[i] is the node of the longest palindromic suffix of word[:i]
        self._suffix = [_EMPTY]
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
        chars, lens, link = self._chars, self._len, self._link
        pos = len(chars)
        chars.append(ch)
        # _suffix_palindrome_for from the longest palindromic suffix, inlined
        # because every append takes this walk
        v = self._suffix[-1]
        while True:
            i = pos - lens[v] - 1
            if i >= 0 and chars[i] == ch:
                break
            v = link[v]
        edges = self._next[v]
        counts = self.prefix_counts
        if ch in edges:
            self._suffix.append(edges[ch])
            counts.append(counts[-1])
            return False
        cur = len(lens)
        lens.append(lens[v] + 2)
        self._next.append({})
        self._via.append((v, ch))
        if lens[cur] == 1:
            link.append(_EMPTY)
        else:
            u = self._suffix_palindrome_for(link[v], pos, ch)
            link.append(self._next[u][ch])
        edges[ch] = cur
        self._suffix.append(cur)
        counts.append(counts[-1] + 1)
        return True

    def pop(self) -> str:
        """Undo the last append and return its symbol.

        Raises IndexError on an empty index.  An append that created a
        node created the newest one, so undoing it drops the last node
        and the edge that led to it.
        """
        if not self._chars:
            raise IndexError("pop from an empty PalindromeIndex")
        counts = self.prefix_counts
        if counts.pop() != counts[-1]:
            src, ch = self._via.pop()  # type: ignore[misc]
            del self._next[src][ch]
            self._len.pop()
            self._link.pop()
            self._next.pop()
        self._suffix.pop()
        return self._chars.pop()

    @property
    def palindrome_count(self) -> int:
        """Number of distinct non-empty palindromic factors seen so far."""
        return len(self._len) - 2

    @property
    def new_palindrome_unbalances(self) -> bool:
        """True iff the last append created a palindrome xUx whose centre U,
        possibly empty, already extends to yUy, y != x, so that both are
        factors, or gave the word a third (or later) distinct letter: a
        third child of the length -1 root.  That root is no centre
        otherwise, since a single symbol has no twin.

        On a balanced word, this is exactly when the append makes the word
        unbalanced: a balanced word has at most two letters, and a binary
        word is unbalanced iff some palindrome U has both aUa and bUb as
        factors (the unbalance witness U of classify); any pair xUx, yUy
        that the append completes has the new palindrome in it.  No letter
        is named, so a word and its renamings agree.  O(1), read off the
        node just created.
        """
        counts = self.prefix_counts
        if len(counts) < 2 or counts[-1] == counts[-2]:
            return False
        centre = self._via[-1][0]  # type: ignore[index]
        return len(self._next[centre]) > (2 if centre == _IMAGINARY else 1)

    @property
    def longest_suffix_palindrome(self) -> int:
        """Length of the longest palindromic suffix of the word (0 when empty)."""
        return self._len[self._suffix[-1]]

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

    Equals len(core.palindromic_factors(w)) - 1.
    """
    return PalindromeIndex(w).palindrome_count
