"""Exhaustive verification of word-class identities at desk scale.

Each claim is a per-word predicate evaluated over every word up to a
length bound; violations are collected with a pointwise diagnostic.  One
prefix-order walk of the word tree (_walk) serves verify, enumerate and
census; census, PROP1 and THM_FGC read the PalindromeIndex it carries.
A verify walk also carries a per-claim flag of a prefix-closed property
from each word to its children (ClaimSpec.step): richness by complete
returns for PROP1, and for PROP2 and BINARY_TRAP the trapezoidal flag,
outside which their checkers never run (TRAP_CLOSED guards that
pruning).  Fixed subtree blocks and sorted counterexamples make
parallel and sequential verify reports identical.  Bad arguments raise
core.UsageError before any walk; nothing raised inside a walk is caught.
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable
from dataclasses import dataclass
from multiprocessing import Pool

from .classify import (
    _B_mismatches,
    _end_returns_are_palindromes,
    condition_B,
    condition_B_prime,
    has_trapezoidal_profile,
    is_finite_sturmian,
    is_palindrome,
    is_rich_by_count,
    is_sturmian_palindrome,
    is_trapezoidal,
)
from .complexity import _palindromic_profile, minimal_period, r_index, subword_complexity
from .core import DEFAULT_BUDGET, Alphabet, UsageError, as_alphabet, check_budget
from .core import BudgetExceededError, palindromic_factors  # the error stays importable here
from .palindromes import PalindromeIndex

_BLOCK_CAP = 2048  # max words enumerated per work block


def word_count(alphabet_size: int, max_len: int) -> int:
    """Number of words of length 0..max_len over an alphabet of that size."""
    return sum(alphabet_size**n for n in range(max_len + 1))


# ---------------------------------------------------------------------------
# Claim checkers: return None when the word conforms, a diagnostic otherwise.
# ---------------------------------------------------------------------------


def _check_prop1(w: str, index: PalindromeIndex, by_returns: bool) -> str | None:
    by_count = index.palindrome_count == len(w)
    if by_count != by_returns:
        return f"rich by count={by_count}, rich by returns={by_returns}"
    return None


def _check_prop2(w: str, index: None, trapezoidal: bool) -> str | None:
    if not is_rich_by_count(w):
        return "trapezoidal but not rich"
    return None


def _check_thm_fgc(w: str, index: PalindromeIndex, flag: None) -> str | None:
    rich_palindrome = is_palindrome(w) and index.palindrome_count == len(w)
    mismatches = _B_mismatches(subword_complexity(w), _palindromic_profile(index, len(w)))
    if rich_palindrome and mismatches:
        n, lhs, rhs = mismatches[0]
        return f"rich palindrome but P(n)+P(n+1) != C(n+1)-C(n)+2 at n={n}: {lhs} != {rhs}"
    if not rich_palindrome and not mismatches:
        return "complexity coupling holds but not a rich palindrome"
    return None


def _check_thm_main(w: str, index: None, flag: None) -> str | None:
    sturmian_pal = is_sturmian_palindrome(w)
    symmetric = condition_B_prime(w)
    trapezoidal_pal = is_palindrome(w) and is_trapezoidal(w)
    if not (sturmian_pal == symmetric == trapezoidal_pal):
        return (
            f"sturmian palindrome={sturmian_pal}, symmetric P-profile={symmetric}, "
            f"trapezoidal palindrome={trapezoidal_pal}"
        )
    return None


def _check_pal_bound(w: str, index: None, flag: None) -> str | None:
    count = len(palindromic_factors(w))
    if count > len(w) + 1:
        return f"{count} distinct palindromic factors, bound is {len(w) + 1}"
    return None


def _check_period_ineq(w: str, index: None, flag: None) -> str | None:
    if not w:
        return None
    period = minimal_period(w)
    bound = r_index(w) + 1
    if period < bound:
        return f"minimal period {period} < R+1 = {bound}"
    return None


def _check_binary_trap(w: str, index: None, trapezoidal: bool) -> str | None:
    symbols = len(set(w))
    if symbols >= 3:
        return f"trapezoidal word over {symbols} distinct symbols"
    return None


def _check_profile_equiv(w: str, index: None, flag: None) -> str | None:
    if not w:
        return None  # difference profile undefined for the empty word
    by_indices = is_trapezoidal(w)
    runs = has_trapezoidal_profile(w)
    if by_indices != (runs is not None):
        return f"index trapezoidal={by_indices}, difference-profile runs={runs}"
    return None


def _check_trap_closed(w: str, index: None, flag: None) -> str | None:
    if not is_trapezoidal(w):
        return None
    for part, v in (("w[:-1]", w[:-1]), ("w[1:]", w[1:]), ("the reversal", w[::-1])):
        if not is_trapezoidal(v):
            return f"trapezoidal, but {part} = {v!r} is not"
    return None


def _trapezoidal_step(w: str) -> bool:
    # is_trapezoidal looked up per call, so a traced or patched one reaches the walk
    return is_trapezoidal(w)


@dataclass(frozen=True)
class ClaimSpec:
    """checker(w, index, flag) returns a diagnostic or None.

    Only indexed claims get the walk's PalindromeIndex of w, else None:
    PAL_BOUND's scan and PROP1's returns route are what it is checked
    against, and the rest would pay its upkeep for little or no use.

    A claim with a step gets the carried flag of w, else None: the walk
    carries flag(w) = flag(w[:-1]) and step(w), taking the empty word's
    parent flag as True, and runs step only where the parent's flag
    holds.  The flag equals a property of w alone only if that property
    is closed under prefixes.  With inside set, the checker runs only on
    words whose flag holds; every word is still walked and counted.
    These are fixed properties of each claim, not options.
    """
    description: str
    checker: Callable[[str, PalindromeIndex | None, bool | None], str | None]
    indexed: bool = False
    step: Callable[[str], bool] | None = None
    inside: bool = False


CLAIMS: dict[str, ClaimSpec] = {
    "PROP1": ClaimSpec(
        "richness by palindrome count agrees with richness by complete returns",
        _check_prop1,
        indexed=True,
        step=_end_returns_are_palindromes,  # a complete return in w[:-1] is one in w
    ),
    "PROP2": ClaimSpec(
        "every trapezoidal word is rich",
        _check_prop2,
        step=_trapezoidal_step,  # closed under factors (de Luca 1999); see TRAP_CLOSED
        inside=True,
    ),
    "THM_FGC": ClaimSpec(
        "rich palindromes are exactly the words with P(n)+P(n+1) = C(n+1)-C(n)+2 for all n",
        _check_thm_fgc,
        indexed=True,
    ),
    "THM_MAIN": ClaimSpec(
        "Sturmian palindrome == symmetric palindromic complexity == trapezoidal palindrome",
        _check_thm_main,
    ),
    "PAL_BOUND": ClaimSpec(
        "no word has more than |w|+1 distinct palindromic factors", _check_pal_bound
    ),
    "PERIOD_INEQ": ClaimSpec(
        "the minimal period is at least R+1 for every nonempty word", _check_period_ineq
    ),
    "BINARY_TRAP": ClaimSpec(
        "no trapezoidal word uses three or more distinct symbols",
        _check_binary_trap,
        step=_trapezoidal_step,
        inside=True,
    ),
    "PROFILE_EQUIV": ClaimSpec(
        "|w| = R+K agrees with the 1^r 0^s (-1)^r difference-profile shape",
        _check_profile_equiv,
    ),
    "TRAP_CLOSED": ClaimSpec(
        "if w is trapezoidal, so are w[:-1], w[1:] and the reversal of w",
        _check_trap_closed,
    ),
}


@dataclass
class VerificationReport:
    """Outcome of one exhaustive claim check.

    counterexamples come in canonical (length, lexicographic) order.
    elapsed_seconds is excluded from the JSON form so that reruns (and
    parallel vs sequential runs) serialize byte-identically.
    """

    claim: str
    alphabet: str
    max_len: int
    words_checked: int
    counterexamples: list[tuple[str, str]]
    elapsed_seconds: float

    @property
    def verified(self) -> bool:
        return not self.counterexamples

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "claim": self.claim,
            "description": CLAIMS[self.claim].description,
            "alphabet": self.alphabet,
            "max_len": self.max_len,
            "words_checked": self.words_checked,
            "verified": self.verified,
            "counterexamples": [
                {"word": w, "diagnostic": d} for w, d in self.counterexamples
            ],
        }


def _walk(symbols: str, prefix: str, depth: int, index: PalindromeIndex | None = None):
    """Yield prefix, then each extension of it by 1..depth symbols, in prefix order.

    Children come in alphabet order, so the words of one length come out
    in lexicographic order.  The walk keeps its own stack, so depth is not
    bounded by Python's recursion limit.  A given index must start empty; it
    is then the palindromic tree of each word yielded (pop to parent, append).
    """
    children = symbols[::-1]  # pushed in reverse, so popped in alphabet order
    limit = len(prefix) + depth
    if index is not None:
        for s in prefix[:-1]:
            index.append(s)
    stack = [prefix]
    while stack:
        w = stack.pop()
        if index is not None and w:
            while len(index.prefix_counts) > len(w):  # back to the parent w[:-1]
                index.pop()
            index.append(w[-1])
        yield w
        if len(w) < limit:
            for s in children:
                stack.append(w + s)


def _blocks(symbols: str, max_len: int) -> list[tuple[str, int]]:
    """Fixed partition of the words of length <= max_len into (prefix, depth) subtrees.

    Each head-length prefix heads one subtree of at most _BLOCK_CAP words;
    one head block holds the shorter words.  The partition depends only on
    the alphabet and bound, never on the worker count.
    """
    depth, size = 0, 1  # the deepest subtree under the cap, and its word count
    while depth < max_len and size + len(symbols) ** (depth + 1) <= _BLOCK_CAP:
        depth += 1
        size += len(symbols) ** depth
    head = max_len - depth
    subtrees = [(p, depth) for p in _walk(symbols, "", head) if len(p) == head]
    return [("", head - 1), *subtrees] if head else subtrees


def _run_block(task: tuple[str, str, str, int]) -> tuple[int, list[tuple[str, str]]]:
    claim, symbols, prefix, depth = task
    spec = CLAIMS[claim]
    checker, step, inside = spec.checker, spec.step, spec.inside
    index = PalindromeIndex() if spec.indexed else None
    # flag_at[n + 1] is the carried flag of the path's word of length n
    flag_at, flag = [True] * (len(prefix) + depth + 2), None
    checked, bad = 0, []
    if step is not None:
        for n in range(len(prefix)):  # the prefix's proper ancestors, which the walk skips
            flag_at[n + 1] = flag_at[n] and step(prefix[:n])
    for checked, w in enumerate(_walk(symbols, prefix, depth, index), 1):
        if step is not None:
            n = len(w)
            flag = flag_at[n + 1] = flag_at[n] and step(w)
            if inside and not flag:
                continue
        if (diag := checker(w, index, flag)) is not None:
            bad.append((w, diag))
    return checked, bad


def verify_claim(
    claim: str,
    alphabet: Alphabet | str,
    max_len: int,
    workers: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> VerificationReport:
    """Evaluate a named claim on every word of length 0..max_len.

    workers=None or 1 runs sequentially; higher values fan blocks out to
    a process pool of at most min(workers, CPU count, number of blocks)
    processes.  Either way the report is identical.  Raises
    BudgetExceededError before enumerating more than `budget` words.
    """
    if claim not in CLAIMS:
        raise UsageError(f"unknown claim {claim!r}; known: {', '.join(CLAIMS)}")
    if workers is not None and workers < 1:
        raise UsageError(f"workers must be at least 1, got {workers}")
    alpha = as_alphabet(alphabet)
    if max_len < 0:
        raise UsageError("max_len must be non-negative")
    check_budget(
        word_count(len(alpha), max_len),
        budget,
        f"words of length <= {max_len} over {len(alpha)} symbols",
    )
    started = time.perf_counter()
    symbols = alpha.as_string
    tasks = [(claim, symbols, prefix, depth) for prefix, depth in _blocks(symbols, max_len)]
    processes = min(workers or 1, os.cpu_count() or 1, len(tasks))
    if processes > 1:
        with Pool(processes=processes) as pool:
            results = pool.map(_run_block, tasks)
    else:
        results = [_run_block(t) for t in tasks]
    rank = {s: i for i, s in enumerate(symbols)}
    return VerificationReport(
        claim=claim,
        alphabet=symbols,
        max_len=max_len,
        words_checked=sum(c for c, _ in results),
        counterexamples=sorted(
            (hit for _, bad in results for hit in bad),
            key=lambda hit: (len(hit[0]), [rank[s] for s in hit[0]]),
        ),
        elapsed_seconds=time.perf_counter() - started,
    )


# ---------------------------------------------------------------------------
# Class-membership predicates for enumeration and censuses.
# ---------------------------------------------------------------------------


def _rich_not_trapezoidal(w: str) -> bool:
    return is_rich_by_count(w) and not is_trapezoidal(w)


def _trapezoidal_not_sturmian(w: str) -> bool:
    return is_trapezoidal(w) and not is_finite_sturmian(w)


PREDICATES: dict[str, Callable[[str], bool]] = {
    "palindrome": is_palindrome,
    "rich": is_rich_by_count,
    "trapezoidal": is_trapezoidal,
    "balanced": is_finite_sturmian,  # words over 3+ symbols count as unbalanced
    "finite_sturmian": is_finite_sturmian,
    "sturmian_palindrome": is_sturmian_palindrome,
    "condition_B": condition_B,
    "condition_B_prime": condition_B_prime,
    "rich_not_trapezoidal": _rich_not_trapezoidal,
    "trapezoidal_not_sturmian": _trapezoidal_not_sturmian,
}


def find_class_members(
    predicate: str,
    alphabet: Alphabet | str,
    length: int,
    budget: int = DEFAULT_BUDGET,
) -> list[str]:
    """All words of exactly the given length satisfying a named predicate,
    in lexicographic order."""
    if predicate not in PREDICATES:
        raise UsageError(f"unknown predicate {predicate!r}; known: {', '.join(PREDICATES)}")
    alpha = as_alphabet(alphabet)
    if length < 0:
        raise UsageError("length must be non-negative")
    check_budget(len(alpha) ** length, budget, f"words of length {length}")
    check = PREDICATES[predicate]
    return [w for w in _walk(alpha.as_string, "", length) if len(w) == length and check(w)]


CENSUS_CLASSES = (
    "rich",
    "trapezoidal",
    "balanced",
    "sturmian_palindrome",
    "condition_B",
    "condition_B_prime",
)


@dataclass
class CensusTable:
    """Per-length counts of the main word classes, lengths 1..max_len."""

    alphabet: str
    max_len: int
    lengths: list[int]
    total: list[int]
    counts: dict[str, list[int]]

    def to_json_dict(self) -> dict:
        out: dict = {
            "schema_version": 1,
            "alphabet": self.alphabet,
            "max_len": self.max_len,
            "lengths": self.lengths,
            "total": self.total,
        }
        for name in CENSUS_CLASSES:
            out[name] = self.counts[name]
        return out

    def rows(self) -> list[list[int]]:
        """One row per length: [length, total, then one column per class]."""
        return [
            [self.lengths[i], self.total[i]]
            + [self.counts[name][i] for name in CENSUS_CLASSES]
            for i in range(len(self.lengths))
        ]


def census(
    alphabet: Alphabet | str, max_len: int, budget: int = DEFAULT_BUDGET
) -> CensusTable:
    """Count class members per length in one walk of the word tree.

    _walk carries one PalindromeIndex along the tree.  The columns:

    - rich: the word has n distinct non-empty palindromic factors, read
      off the index.
    - trapezoidal and balanced: both classes are closed under factors
      (balance by definition, trapezoidal words by de Luca 1999), so a
      word outside one has no descendant inside it; the predicate is
      evaluated only on children of members.
    - sturmian_palindrome, condition_B and condition_B_prime: each holds
      only on palindromes, so they are evaluated only on palindromes.
    """
    alpha = as_alphabet(alphabet)
    if max_len < 0:
        raise UsageError("max_len must be non-negative")
    check_budget(word_count(len(alpha), max_len), budget, f"words of length <= {max_len}")
    total = [0] * (max_len + 1)
    counts = {name: [0] * (max_len + 1) for name in CENSUS_CLASSES}
    rich, trapezoidal, balanced = counts["rich"], counts["trapezoidal"], counts["balanced"]
    sturmian_pal, cond_b = counts["sturmian_palindrome"], counts["condition_B"]
    cond_b_prime = counts["condition_B_prime"]
    index = PalindromeIndex()
    # trapezoidal and balanced flags of the path's words by length; the empty word is both
    trap_at, bal_at = [True] * (max_len + 1), [True] * (max_len + 1)
    walk = _walk(alpha.as_string, "", max_len, index)
    next(walk)  # skip the empty word
    for w in walk:
        n = len(w)
        total[n] += 1
        rich[n] += index.palindrome_count == n
        trap = trap_at[n] = trap_at[n - 1] and is_trapezoidal(w)
        bal = bal_at[n] = bal_at[n - 1] and is_finite_sturmian(w)
        trapezoidal[n] += trap
        balanced[n] += bal
        if is_palindrome(w):
            sturmian_pal[n] += bal
            cond_b[n] += condition_B(w)
            cond_b_prime[n] += condition_B_prime(w)
    return CensusTable(
        alphabet=alpha.as_string,
        max_len=max_len,
        lengths=list(range(1, max_len + 1)),
        total=total[1:],
        counts={name: column[1:] for name, column in counts.items()},
    )
