"""Word-class predicates: rich, trapezoidal, balanced, finite Sturmian.

Richness comes with two independently implemented routes (palindrome
count on the palindromic tree vs complete returns, found by core's
string search over palindromic suffixes), and the trapezoid property
with two as well (index identity |w| = R + K vs the shape of the
complexity difference profile).  The redundancy is the point: the
exhaustive verifier pits the routes against each other.

"Finite Sturmian" is implemented as "binary and balanced", the classical
operational equivalent of being a factor of a Sturmian word.  Balance
also has two routes: is_balanced counts symbols in equal-length
factors, while the unbalance witness is read off the palindromic
factors (a binary word is unbalanced iff some palindrome U has both
aUa and bUb as factors).  classify derives its verdict from the
witness, and census walks the same route one symbol at a time on its
palindromic tree (PalindromeIndex.new_palindrome_unbalances).

classify is the one place that builds a word's profiles: C and D on one
suffix automaton, P and the palindromic factors on one palindromic tree,
and the structural indices.  Its ClassificationReport holds them next
to every verdict read off them, the one record that analyze prints.
"""

from __future__ import annotations

from collections.abc import Collection, Iterator, Sequence
from dataclasses import dataclass

from .complexity import (
    DifferenceProfile,
    StructuralIndices,
    SuffixAutomaton,
    _difference_of,
    _palindromic_profile,
    _subword_of,
    difference_profile,
    k_index,
    palindromic_complexity,
    r_index,
    structural_indices,
)
from .core import _palindromic_suffixes, is_palindrome
from .palindromes import PalindromeIndex, index_count_palindromes


def is_rich_by_count(w: str) -> bool:
    """True iff w has the maximum |w| + 1 distinct palindromic factors."""
    return index_count_palindromes(w) == len(w)


def is_rich_by_returns(w: str) -> bool:
    """Richness via returns: every complete return to a palindromic factor
    of w must itself be a palindrome.  Independent of the counting route.

    The fold over the prefixes of w of the step that PROP1 carries along
    the verify walk (_end_returns_are_palindromes), stopping at the first
    prefix with a return that is not a palindrome.  It takes order |w|^2
    Python steps: a test reference, where classify serves library callers.
    """
    return all(_end_returns_are_palindromes(w[:n]) for n in range(1, len(w) + 1))


def _end_returns_are_palindromes(w: str) -> bool:
    """True iff every complete return to a palindromic factor of w that
    ends at w's last symbol is a palindrome, for w[:-1] rich by returns.

    Every other complete return of w is one of w[:-1], so a walk of the
    word tree carries richness by returns from a rich parent to its child.
    Such a return ends with a palindromic suffix of w that w[:-1] has, and
    only the one to the longest, u, is tested: a shorter one, v, is a
    prefix and a suffix of u, so its return lies inside the final u, and
    reversed it is a complete return to v inside u's earlier occurrence,
    a palindrome since w[:-1] is rich.  core._palindromic_suffixes finds u
    by plain string search, no palindromic tree.
    """
    prev = _palindromic_suffixes(w)[1]
    return prev == -1 or is_palindrome(w[prev:])


def is_trapezoidal(w: str) -> bool:
    """True iff |w| = R + K (no-right-special length plus shortest
    unrepeated suffix length); the empty word qualifies (0 = 0 + 0)."""
    return len(w) == r_index(w) + k_index(w)


def has_trapezoidal_profile(w: str) -> tuple[int, int] | None:
    """The (r, s) run lengths when the complexity difference vector is
    exactly 1^r 0^s (-1)^r; None when it is not of that shape."""
    return difference_profile(w).trapezoid_runs


def _require_at_most_binary(w: str) -> list[str]:
    letters = sorted(set(w))
    if len(letters) > 2:
        raise ValueError("balance defined for binary words")
    return letters


def is_balanced(w: str) -> bool:
    """Balance over at most two symbols: equal-length factors never differ
    by more than 1 in their count of either symbol.

    Raises ValueError when w uses three or more distinct symbols.
    """
    letters = _require_at_most_binary(w)
    if len(letters) < 2:
        return True
    a = letters[0]
    n = len(w)
    for m in range(1, n):
        cnt = w[:m].count(a)
        lo = hi = cnt
        for i in range(n - m):
            cnt += (w[i + m] == a) - (w[i] == a)
            if cnt < lo:
                lo = cnt
            elif cnt > hi:
                hi = cnt
            if hi - lo > 1:
                return False
    return True


def _witness_in(letters: Sequence[str], palindromes: Collection[str]) -> str | None:
    if len(letters) < 2:
        return None
    a, b = letters
    present = set(palindromes)
    hits = (u for u in present if a + u + a in present and b + u + b in present)
    return min(hits, key=lambda u: (len(u), u), default=None)


def unbalance_witness(w: str) -> str | None:
    """Shortest palindrome U such that xUx and yUy are both factors of w
    for the two distinct symbols x, y; ties broken lexicographically.

    None when w is balanced; such a witness exists exactly when it is not.
    Raises ValueError when w uses three or more distinct symbols.
    """
    letters = _require_at_most_binary(w)
    return _witness_in(letters, PalindromeIndex(w).distinct_palindromes())


def is_finite_sturmian(w: str) -> bool:
    """True iff w uses at most two distinct symbols and is balanced.

    Constant words (and the empty word) count as finite Sturmian.
    """
    return len(set(w)) <= 2 and is_balanced(w)


def is_sturmian_palindrome(w: str) -> bool:
    return is_palindrome(w) and is_finite_sturmian(w)


def _B_mismatches(d: Sequence[int], p: Sequence[int]) -> Iterator[tuple[int, int, int]]:
    # lazily, in ascending n; d = D, d[n] = C(n+1) - C(n) for n < |w|, and at n = |w|
    # C(|w|+1) - C(|w|) = 0 - 1
    for n in range(len(p) - 1):
        lhs = p[n] + p[n + 1]
        rhs = (d[n] if n < len(d) else -1) + 2
        if lhs != rhs:
            yield n, lhs, rhs


def condition_B_mismatches(w: str) -> list[tuple[int, int, int]]:
    """Indices where P(n) + P(n+1) differs from C(n+1) - C(n) + 2.

    Evaluates every 0 <= n <= |w| (using C(|w|+1) = P(|w|+1) = 0) and
    returns (n, lhs, rhs) triples in ascending n, so diagnostics can
    point at the first failure.
    """
    return list(_B_mismatches(SuffixAutomaton(w).difference, palindromic_complexity(w)))


def condition_B(w: str) -> bool:
    """Pointwise coupling of palindromic and subword complexity:
    P(n) + P(n+1) = C(n+1) - C(n) + 2 for every 0 <= n <= |w|.

    Holds exactly for the words that are rich palindromes.  Only a
    palindrome can satisfy it: the n = N term reads P(N) + 0 = 0 - 1 + 2,
    which forces P(N) = 1, and w is its only factor of length N.  Other
    words are rejected before any profile is built.
    """
    return is_palindrome(w) and not condition_B_mismatches(w)


def _symmetric_profile(p: Sequence[int]) -> bool:
    # P(n) + P(N-n) = 2 for every 0 <= n <= N, for p in palindromic_complexity's form
    n = len(p) - 2
    return all(p[i] + p[n - i] == 2 for i in range(n + 1))


def condition_B_prime(w: str) -> bool:
    """Symmetry of the palindromic complexity: P(n) + P(N-n) = 2 for all n.

    Holds exactly for the Sturmian palindromes.  Only a palindrome can
    satisfy it: the n = 0 term reads 1 + P(N) = 2, which forces P(N) = 1,
    and w is its only factor of length N.  Other words are rejected
    before any profile is built.
    """
    return is_palindrome(w) and _symmetric_profile(palindromic_complexity(w))


@dataclass(frozen=True)
class ClassificationReport:
    """Every per-word verdict, profile and index in one immutable record.

    is_balanced and unbalance_witness are None for words using three or
    more distinct symbols, where balance is undefined.  subword and
    palindromic are C and P indexed 0..N+1, and difference is None for
    the empty word.  palindromic_factors includes the empty word and is
    sorted by length, then lexicographically, so palindrome_count counts
    it too and is_rich means palindrome_count == |w|+1.
    """

    word: str
    is_palindrome: bool
    is_rich: bool
    is_trapezoidal: bool
    is_balanced: bool | None
    is_finite_sturmian: bool
    is_sturmian_palindrome: bool
    condition_B: bool
    condition_B_prime: bool
    subword: tuple[int, ...]
    palindromic: tuple[int, ...]
    difference: DifferenceProfile | None
    indices: StructuralIndices
    palindromic_factors: tuple[str, ...]
    unbalance_witness: str | None

    @property
    def palindrome_count(self) -> int:
        return len(self.palindromic_factors)


def classify(w: str) -> ClassificationReport:
    """Compute every profile of w once and read the full classification off them.

    P and the factor list share one palindromic tree, C and D one suffix automaton.
    """
    index = PalindromeIndex(w)
    d = SuffixAutomaton(w).difference
    palindromic = tuple(_palindromic_profile(index, len(w)))
    factors = tuple(sorted(index.distinct_palindromes(), key=lambda f: (len(f), f)))
    idx = structural_indices(w)
    pal = is_palindrome(w)
    letters = sorted(set(w))
    balanced = witness = None
    if len(letters) <= 2:
        witness = _witness_in(letters, factors)
        balanced = witness is None
    return ClassificationReport(
        word=w,
        is_palindrome=pal,
        is_rich=len(factors) == len(w) + 1,
        is_trapezoidal=len(w) == idx.r_index + idx.k_index,
        is_balanced=balanced,
        is_finite_sturmian=bool(balanced),
        is_sturmian_palindrome=pal and bool(balanced),
        condition_B=next(_B_mismatches(d, palindromic), None) is None,
        condition_B_prime=_symmetric_profile(palindromic),
        subword=tuple(_subword_of(d)),
        palindromic=palindromic,
        difference=_difference_of(d) if w else None,
        indices=idx,
        palindromic_factors=factors,
        unbalance_witness=witness,
    )
