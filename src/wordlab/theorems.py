"""Exhaustive verification of word-class identities at desk scale.

Each claim is a per-word predicate evaluated over every word up to a
length bound; violations are collected with a pointwise diagnostic.  One
prefix-order walk (_walk) serves verify, enumerate and census.  Claims and
classes are defined by symbol equality, so a word and its letter renamings
agree: the walk visits one canonical word per renaming class, weighted by
its renamings, and verify checks each other renaming of a failing one alone.
Census, PROP1, PROP2 and THM_FGC read the PalindromeIndex the walk carries
(THM_FGC builds P and D only on palindromes), PROFILE_EQUIV a
SuffixAutomaton.  The walk also steps a state from each word to its
children (ClaimSpec.step, and census's trapezoidal and balanced flags):
a state that is falsy outside a prefix-closed property, or a per-word
value stepped from the parent's, such as (R, K) for PROFILE_EQUIV.
PROP2 and BINARY_TRAP walk only the trapezoidal words and their
children, and count each subtree below a falsy state in closed form
(TRAP_CLOSED guards that pruning).  Fixed subtree blocks and sorted
counterexamples make parallel and sequential verify reports identical.
Bad arguments, and words longer than core.MAX_WORD_LENGTH, are refused
before any walk; nothing raised inside a walk is caught.
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable
from dataclasses import dataclass
from itertools import permutations
from math import perm
from multiprocessing import Pool

from .classify import (
    _B_mismatches,
    _B_prime_mismatches,
    _end_returns_are_palindromes,
    condition_B,
    condition_B_prime,
    is_finite_sturmian,
    is_palindrome,
    is_rich_by_count,
    is_sturmian_palindrome,
    is_trapezoidal,
)
from .complexity import (
    SuffixAutomaton,
    _k_index_step,
    _minimal_period_from,
    _palindromic_profile,
    _r_index_step,
    _run_decomposition,
)
from .complexity import r_index  # bound here for perfbench, whose smoke test reads it
from .core import DEFAULT_BUDGET, SCHEMA_VERSION, UsageError, check_alphabet, check_walk
from .core import _new_palindromic_suffixes
from .palindromes import PalindromeIndex

_BLOCK_CAP = 2048  # max words enumerated per work block
Undoable = PalindromeIndex | SuffixAutomaton  # what a walk can carry: append, and pop to undo it


# ---------------------------------------------------------------------------
# Claim checkers: return None when the word conforms, a diagnostic otherwise.
# ---------------------------------------------------------------------------


def _check_prop1(w: str, index: PalindromeIndex, by_returns: bool) -> str | None:
    by_count = index.palindrome_count == len(w)
    if by_count != by_returns:
        return f"rich by count={by_count}, rich by returns={by_returns}"
    return None


def _check_prop2(w: str, index: PalindromeIndex, rk: tuple[int, int]) -> str | None:
    if index.palindrome_count != len(w):
        return "trapezoidal but not rich"
    return None


def _check_thm_fgc(w: str, index: PalindromeIndex, state: None) -> str | None:
    rich_palindrome = is_palindrome(w) and index.palindrome_count == len(w)
    # C(|w|) = 1 and C(|w|+1) = P(|w|+1) = 0, so the n = |w| term holds iff P(|w|) = 1
    if not rich_palindrome and index.longest_suffix_palindrome < len(w):
        return None
    d = SuffixAutomaton(w).difference
    mismatch = next(_B_mismatches(d, _palindromic_profile(index, len(w))), None)
    if rich_palindrome and mismatch:
        n, lhs, rhs = mismatch
        return f"rich palindrome but P(n)+P(n+1) != C(n+1)-C(n)+2 at n={n}: {lhs} != {rhs}"
    if not rich_palindrome and not mismatch:
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


def _check_pal_bound(w: str, index: None, count: int) -> str | None:
    if count > len(w) + 1:
        return f"{count} distinct palindromic factors, bound is {len(w) + 1}"
    return None


def _check_period_ineq(w: str, index: None, r_and_period: tuple[int, int | None]) -> str | None:
    if not w:
        return None
    r, period = r_and_period
    bound = r + 1
    if period < bound:
        return f"minimal period {period} < R+1 = {bound}"
    return None


def _check_binary_trap(w: str, index: None, rk: tuple[int, int]) -> str | None:
    symbols = len(set(w))
    if symbols >= 3:
        return f"trapezoidal word over {symbols} distinct symbols"
    return None


def _check_profile_equiv(w: str, automaton: SuffixAutomaton, rk: tuple[int, int]) -> str | None:
    if not w:
        return None  # difference profile undefined for the empty word
    by_indices = len(w) == sum(rk)
    runs = _run_decomposition(automaton.difference)
    if by_indices != (runs is not None):
        return f"index trapezoidal={by_indices}, difference-profile runs={runs}"
    return None


def _check_trap_closed(w: str, index: None, state: tuple[int, int, bool]) -> str | None:
    r, k, parent_trapezoidal = state
    if len(w) != r + k:
        return None
    if not parent_trapezoidal:
        return f"trapezoidal, but w[:-1] = {w[:-1]!r} is not"
    for part, v in (("w[1:]", w[1:]), ("the reversal", w[::-1])):
        if not is_trapezoidal(v):
            return f"trapezoidal, but {part} = {v!r} is not"
    return None


# Steps: step(w, state of w[:-1]) is the state of w, and of "" the empty word's.


def _returns_step(w: str, rich: bool) -> bool:
    return _end_returns_are_palindromes(w)  # a complete return in w[:-1] is one in w


def _palindrome_count_step(w: str, count: int) -> int:
    return count + _new_palindromic_suffixes(w) if w else 1


def _r_and_period_step(w: str, parent: tuple[int, int | None]) -> tuple[int, int | None]:
    # R and the minimal period never decrease along prefixes, so each scan starts at the parent's
    if not w:
        return (0, None)
    return (_r_index_step(w, parent[0]), _minimal_period_from(w, parent[1] or 1))


def _r_and_k_step(w: str, parent: tuple[int, ...]) -> tuple[int, int]:
    return (_r_index_step(w, parent[0]), _k_index_step(w, parent[1])) if w else (0, 0)


def _trapezoidal_step(w: str, parent: tuple[int, int]) -> tuple[int, int] | bool:
    # (R, K) while w is trapezoidal, |w| = R + K, else False; only a trapezoidal parent steps
    rk = _r_and_k_step(w, parent)
    return len(w) == rk[0] + rk[1] and rk


def _census_step(w: str, parent: tuple) -> tuple[tuple[int, int] | bool, bool]:
    # (the trapezoidal state, whether w is balanced); both classes are closed under prefixes
    trap, bal = parent if w else ((0, 0), True)  # the empty word steps to its own state
    return trap and _trapezoidal_step(w, trap), bal and is_finite_sturmian(w)


def _trap_closed_step(w: str, parent: tuple[int, int, bool]) -> tuple[int, int, bool]:
    # the parent's R and K give its own verdict, which answers w[:-1]
    return (*_r_and_k_step(w, parent), len(w) - 1 == parent[0] + parent[1]) if w else (0, 0, True)


@dataclass(frozen=True)
class ClaimSpec:
    """checker(w, index, state) returns a diagnostic or None.

    A claim with an index class gets the one the walk carries, holding w,
    else None: a PalindromeIndex for PROP1, PROP2 and THM_FGC, a
    SuffixAutomaton for PROFILE_EQUIV.  PAL_BOUND's count and PROP1's
    returns route are what the tree is checked against.  THM_FGC settles
    a word that is not a palindrome by the tree's longest palindromic
    suffix alone, and builds P and D only for the rest.

    A claim with a step gets the state of w that _walk steps, else None:
    step runs only under a truthy parent state, a falsy one passes to
    every descendant, and step("", True) is the empty word's state.  Two
    kinds of state:

    - Falsy exactly outside a property closed under prefixes, so it
      follows the property of w alone: the flag of richness by complete
      returns (PROP1), and (R, K) while w is trapezoidal, False otherwise
      (PROP2, BINARY_TRAP).  With inside set, the walk is pruned: the
      checker runs only on words whose state is truthy, and the subtree
      below a falsy one is counted, not walked.
    - A value, never falsy, each from a fact about appending a symbol:
      the number of distinct palindromic factors, the empty word
      included, for PAL_BOUND (the new ones are palindromic suffixes);
      (R, minimal period) for PERIOD_INEQ; (R, K) for PROFILE_EQUIV; and
      (R, K) with the parent's verdict for TRAP_CLOSED, which guards the
      pruning and so carries no falsy state.

    These are fixed properties of each claim, not options.  Checker and
    step may compare symbols only with each other, never with a named
    letter: the walk visits one word per renaming of the letters.
    """
    description: str
    checker: Callable[[str, Undoable | None, object], str | None]
    index: type[Undoable] | None = None
    step: Callable[[str, object], object] | None = None
    inside: bool = False


CLAIMS: dict[str, ClaimSpec] = {
    "PROP1": ClaimSpec(
        "richness by palindrome count agrees with richness by complete returns",
        _check_prop1,
        index=PalindromeIndex,
        step=_returns_step,
    ),
    "PROP2": ClaimSpec(
        "every trapezoidal word is rich",
        _check_prop2,
        index=PalindromeIndex,
        step=_trapezoidal_step,  # closed under factors (de Luca 1999); see TRAP_CLOSED
        inside=True,
    ),
    "THM_FGC": ClaimSpec(
        "rich palindromes are exactly the words with P(n)+P(n+1) = C(n+1)-C(n)+2 for all n",
        _check_thm_fgc,
        index=PalindromeIndex,
    ),
    "THM_MAIN": ClaimSpec(
        "Sturmian palindrome == symmetric palindromic complexity == trapezoidal palindrome",
        _check_thm_main,
    ),
    "PAL_BOUND": ClaimSpec(
        "no word has more than |w|+1 distinct palindromic factors",
        _check_pal_bound,
        step=_palindrome_count_step,
    ),
    "PERIOD_INEQ": ClaimSpec(
        "the minimal period is at least R+1 for every nonempty word",
        _check_period_ineq,
        step=_r_and_period_step,
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
        index=SuffixAutomaton,
        step=_r_and_k_step,
    ),
    "TRAP_CLOSED": ClaimSpec(
        "if w is trapezoidal, so are w[:-1], w[1:] and the reversal of w",
        _check_trap_closed,
        step=_trap_closed_step,
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
            "schema_version": SCHEMA_VERSION,
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


def _walk(
    symbols: str,
    prefix: str,
    depth: int,
    index: Undoable | None = None,
    step: Callable[[str, object], object] | None = None,
    prune: bool = False,
):
    """Yield (w, weight, state) for prefix, then each canonical extension by 1..depth symbols.

    A word is canonical when its letters first appear in alphabet order, so
    its children are the letters it uses and the next unused one.  Every
    word is the image of exactly one canonical word under an injective
    renaming of the letters; weight is the number of images of w,
    k(k-1)...(k-j+1) for j distinct letters out of k.  Words come in prefix
    order, children in alphabet order, so the words of one length come out
    in lexicographic order.  The walk keeps its own stack, so depth is not
    bounded by Python's recursion limit.  A given index must start empty; it
    then holds each word yielded (pop to the parent, append).  A given step
    sets state(w) = state(w[:-1]) and step(w, state(w[:-1])), the empty
    word's parent state being True; with none, every state is None.  The
    prefix's proper ancestors are replayed into the index and stepped first.
    With prune, the children of a word with a falsy state are not walked.
    """
    k = len(symbols)
    weights = [perm(k, j) for j in range(k + 1)]
    # a word with j letters: its children and their letter counts, reversed to pop in order
    children = [
        [(s, max(j, i + 1)) for i, s in enumerate(symbols[: j + 1])][::-1] for j in range(k + 1)
    ]
    limit = len(prefix) + depth
    held = max(len(prefix) - 1, 0)  # length of the word the index holds
    state = True if step else None  # the parent state of the next word down the prefix
    for n in range(len(prefix)):  # the proper ancestors prefix[:n]
        if index is not None and n:
            index.append(prefix[n - 1])
        state = state and step(prefix[:n], state)
    stack = [(prefix, len(set(prefix)), state)]
    while stack:
        w, used, parent = stack.pop()
        if index is not None and w:
            while held >= len(w):  # back to the parent w[:-1]
                index.pop()
                held -= 1
            index.append(w[-1])
            held += 1
        state = parent and step(w, parent)
        yield w, weights[used], state
        if len(w) < limit and (state or not prune):
            for s, j in children[used]:
                stack.append((w + s, j, state))


def _renamings(w: str, symbols: str) -> list[str]:
    """The images of a canonical word under the injective renamings of its letters, w first."""
    used = symbols[: len(set(w))]
    return [w.translate(str.maketrans(used, "".join(p))) for p in permutations(symbols, len(used))]


def _alphabet_order(symbols: str) -> Callable[[str], tuple[int, list[int]]]:
    """Sort key: by length, then lexicographically in the alphabet's order."""
    rank = {s: i for i, s in enumerate(symbols)}
    return lambda w: (len(w), [rank[s] for s in w])


def _blocks(symbols: str, max_len: int) -> list[tuple[str, int]]:
    """Fixed partition of the canonical words of length <= max_len into (prefix, depth) subtrees.

    Each canonical head-length prefix heads one subtree of at most _BLOCK_CAP
    words; one head block holds the shorter words.  The partition depends
    only on the alphabet and bound, never on the worker count.
    """
    depth, size = 0, 1  # the deepest subtree under the cap, and its word count
    while depth < max_len and size + len(symbols) ** (depth + 1) <= _BLOCK_CAP:
        depth += 1
        size += len(symbols) ** depth
    head = max_len - depth
    subtrees = [(p, depth) for p, _, _ in _walk(symbols, "", head) if len(p) == head]
    return [("", head - 1), *subtrees] if head else subtrees


def _run_block(task: tuple[str, str, str, int]) -> tuple[int, list[tuple[str, str]]]:
    """(words the walked words stand for, (word, diagnostic) of each failing one) of a block."""
    claim, symbols, prefix, depth = task
    spec = CLAIMS[claim]
    checker, inside = spec.checker, spec.inside
    index = spec.index() if spec.index else None
    limit = len(prefix) + depth
    # an inside claim's walk stops at a falsy state, whose subtree is counted, not checked
    below = [0]  # below[j]: words under one that has j levels of the block beneath it
    for _ in range(depth):
        below.append(len(symbols) * (below[-1] + 1))
    checked, bad = 0, []
    for w, weight, state in _walk(symbols, prefix, depth, index, spec.step, inside):
        checked += weight
        if inside and not state:
            checked += weight * below[limit - len(w)]
        elif (diag := checker(w, index, state)) is not None:
            bad.append((w, diag))
    return checked, bad


def verify_claim(
    claim: str,
    alphabet: str,
    max_len: int,
    workers: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> VerificationReport:
    """Evaluate a named claim on every word of length 0..max_len.

    workers=None or 1 runs sequentially; higher values fan blocks out to
    a process pool of at most min(workers, CPU count, number of blocks)
    processes.  Either way the report is identical.  Raises
    BudgetExceededError before enumerating more than `budget` words, or
    words longer than core.MAX_WORD_LENGTH.
    """
    if claim not in CLAIMS:
        raise UsageError(f"unknown claim {claim!r}; known: {', '.join(CLAIMS)}")
    if workers is not None and workers < 1:
        raise UsageError(f"workers must be at least 1, got {workers}")
    check_alphabet(alphabet)
    check_walk("max_len", max_len, len(alphabet), budget)
    started = time.perf_counter()
    tasks = [(claim, alphabet, prefix, depth) for prefix, depth in _blocks(alphabet, max_len)]
    processes = min(workers or 1, os.cpu_count() or 1, len(tasks))
    if processes > 1:
        with Pool(processes=processes) as pool:
            results = pool.map(_run_block, tasks)
    else:
        results = [_run_block(t) for t in tasks]
    bad = [hit for _, hits in results for hit in hits]
    # a failing canonical word stands for its other renamings too: each is a block of one
    # word, its ancestors stepped from the empty word, so its diagnostic is its own
    images = [v for w, _ in bad for v in _renamings(w, alphabet)[1:]]
    bad += [hit for v in images for hit in _run_block((claim, alphabet, v, 0))[1]]
    order = _alphabet_order(alphabet)
    return VerificationReport(
        claim=claim,
        alphabet=alphabet,
        max_len=max_len,
        words_checked=sum(c for c, _ in results),
        counterexamples=sorted(bad, key=lambda hit: order(hit[0])),
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
    alphabet: str,
    length: int,
    budget: int = DEFAULT_BUDGET,
) -> list[str]:
    """All words of exactly the given length satisfying a named predicate,
    in lexicographic order: the renamings of each canonical member."""
    if predicate not in PREDICATES:
        raise UsageError(f"unknown predicate {predicate!r}; known: {', '.join(PREDICATES)}")
    check_alphabet(alphabet)
    check_walk("length", length, len(alphabet), budget, exact=True)
    check = PREDICATES[predicate]
    members = [w for w, _, _ in _walk(alphabet, "", length) if len(w) == length and check(w)]
    images = (v for w in members for v in _renamings(w, alphabet))
    return sorted(images, key=_alphabet_order(alphabet))


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
            "schema_version": SCHEMA_VERSION,
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


def census(alphabet: str, max_len: int, budget: int = DEFAULT_BUDGET) -> CensusTable:
    """Count class members per length in one walk of the canonical words.

    _walk carries one PalindromeIndex and the _census_step state along the
    tree, and each canonical word adds its weight, the number of its
    renamings, to every count it is in; total is k^n.  The columns:

    - rich: the word has n distinct non-empty palindromic factors, read
      off the index.
    - trapezoidal and balanced: both classes are closed under factors
      (balance by definition, trapezoidal words by de Luca 1999), so a
      word outside one has no descendant inside it; the walk tests only
      children of members, trapezoidal ones by stepping the parent's (R, K).
    - sturmian_palindrome, condition_B and condition_B_prime: each holds
      only on palindromes, so they are evaluated only on palindromes,
      from one P read off the index and, for condition_B, the
      differences of C from a SuffixAutomaton of w.
    """
    check_alphabet(alphabet)
    check_walk("max_len", max_len, len(alphabet), budget)
    total = [0] * (max_len + 1)
    counts = {name: [0] * (max_len + 1) for name in CENSUS_CLASSES}
    rich, trapezoidal, balanced = counts["rich"], counts["trapezoidal"], counts["balanced"]
    sturmian_pal, cond_b = counts["sturmian_palindrome"], counts["condition_B"]
    cond_b_prime = counts["condition_B_prime"]
    index = PalindromeIndex()
    walk = _walk(alphabet, "", max_len, index, _census_step)
    next(walk)  # skip the empty word
    for w, weight, (trap, bal) in walk:
        n = len(w)
        total[n] += weight
        rich[n] += weight * (index.palindrome_count == n)
        trapezoidal[n] += weight * bool(trap)
        balanced[n] += weight * bal
        if is_palindrome(w):
            p = _palindromic_profile(index, n)
            d = SuffixAutomaton(w).difference
            sturmian_pal[n] += weight * bal
            cond_b[n] += weight * (next(_B_mismatches(d, p), None) is None)
            cond_b_prime[n] += weight * (not _B_prime_mismatches(p))
    return CensusTable(
        alphabet=alphabet,
        max_len=max_len,
        lengths=list(range(1, max_len + 1)),
        total=total[1:],
        counts={name: column[1:] for name, column in counts.items()},
    )
