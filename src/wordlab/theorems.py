"""Exhaustive verification of word-class identities at desk scale.

Each claim is a per-word predicate evaluated over every word up to a
length bound; violations are collected with a pointwise diagnostic.  One
prefix-order walk (_walk) serves verify, enumerate and census.  Claims and
classes are defined by symbol equality, so a word and its letter renamings
agree: the walk visits one canonical word per renaming class, weighted by
its renamings, and the share that walks a failing one checks each of its
other renamings alone, with the state the walk carried.
Census, PROP1 and PROP2 read the PalindromeIndex the walk carries,
PROFILE_EQUIV a SuffixAutomaton.  The walk also steps a state from each
word to its children, by one form of step, step(w, index, parent), given
the index holding w (ClaimSpec.step, and census's _census_step, whose
balanced flag is read off the tree): a state that is falsy outside a
prefix-closed property, or a per-word value stepped from the parent's,
such as (R, K) and the parent's verdict for TRAP_CLOSED.  No checker or
step names a letter.  One rule prunes every walk: a stepped walk stops
below a falsy state, and verify counts that subtree in closed form.  So
PROP1 walks only the words rich by count or by returns and their
children (the pruning rests on the tree creating at most one palindrome
per append, which tests/test_palindromes.py checks; PAL_BOUND checks
only the total, with the independent string scan), PROP2 and BINARY_TRAP
only the trapezoidal words and their children (TRAP_CLOSED guards it),
and census only the rich, trapezoidal and balanced words and their
children.
PROFILE_EQUIV walks every word, for its profile route, but wraps PROP2's
state in a tuple that is never falsy, so R and K are stepped only below
trapezoidal words and its R + K route settles to False below the rest.
Only TRAP_CLOSED steps R and K on every word, and PERIOD_INEQ R alone;
TRAP_CLOSED guards every other claim that reads them.
THM_MAIN and THM_FGC hold on a non-palindrome by their checkers' first
test, so they walk only the palindromes, each built from its right half
by the same walk (_palindromes) and standing for every word of its length
whose right half is a renaming of its own.  So every share counts every
word it stands for, and verify's count is the sum of the shares'.
Verify runs the claim's walk from the empty word, with a fresh index, in each
of n processes: the calling one and n - 1 children it forks before walking
(_fork), each child sending back its results, or its fault, through a
one-way pipe.  Every walk reaches the same words of one head length with a
truthy state, in the same order, and deals them, the i-th to process
i mod n: process j walks and checks only the subtrees dealt to it, and
process 0 also the words above the head length and the falsy heads, whose
subtrees it counts in closed form.  That deal and sorted counterexamples
make parallel and sequential verify reports identical.
Bad arguments, and words longer than core.MAX_WORD_LENGTH, are refused
before any walk, the alphabet, length and budget of verify, enumerate and
census by one core.check_walk call; nothing raised inside a walk is caught.
"""

from __future__ import annotations

import os
import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass
from itertools import accumulate, cycle, permutations
from math import perm
from multiprocessing import Pool  # bound here for perfbench, whose tracer and smoke test read it
from multiprocessing import Pipe, get_all_start_methods, get_context

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
from .core import DEFAULT_BUDGET, SCHEMA_VERSION, UsageError, check_walk
from .core import _palindromic_suffixes
from .palindromes import PalindromeIndex

_BLOCK_CAP = 2048  # max words in a dealt subtree
Undoable = PalindromeIndex | SuffixAutomaton  # what a walk can carry: append, and pop to undo it


# ---------------------------------------------------------------------------
# Claim checkers: return None when the word conforms, a diagnostic otherwise.
# ---------------------------------------------------------------------------


def _check_prop1(w: str, index: PalindromeIndex, rich: tuple[bool, bool]) -> str | None:
    by_returns, by_count = rich
    if by_count != by_returns:
        return f"rich by count={by_count}, rich by returns={by_returns}"
    return None


def _check_prop2(w: str, index: PalindromeIndex, rk: tuple[int, int]) -> str | None:
    if index.palindrome_count != len(w):
        return "trapezoidal but not rich"
    return None


def _check_thm_fgc(w: str, index: None, state: None) -> str | None:
    # C(|w|) = 1 and C(|w|+1) = P(|w|+1) = 0, so the n = |w| term holds iff w is a palindrome
    if not is_palindrome(w):
        return None
    index = PalindromeIndex(w)
    rich = index.palindrome_count == len(w)
    d = SuffixAutomaton(w).difference
    mismatch = next(_B_mismatches(d, _palindromic_profile(index, len(w))), None)
    if rich and mismatch:
        n, lhs, rhs = mismatch
        return f"rich palindrome but P(n)+P(n+1) != C(n+1)-C(n)+2 at n={n}: {lhs} != {rhs}"
    if not rich and not mismatch:
        return "complexity coupling holds but not a rich palindrome"
    return None


def _check_thm_main(w: str, index: None, flag: None) -> str | None:
    # every condition asks for a palindrome, so a non-palindrome fails all three
    if not is_palindrome(w):
        return None
    sturmian_pal = is_finite_sturmian(w)
    symmetric = condition_B_prime(w)
    trapezoidal_pal = is_trapezoidal(w)
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


def _check_profile_equiv(w: str, automaton: SuffixAutomaton, state: tuple) -> str | None:
    if not w:
        return None  # difference profile undefined for the empty word
    by_indices = bool(state[0])
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


# Steps: step(w, index, state of w[:-1]) is the state of w, and of "" the empty word's;
# index is the one the walk carries, holding w, or None.  Only PROP1's and census's steps read it.


def _returns_step(w: str, index: PalindromeIndex, parent: tuple) -> tuple[bool, bool] | bool:
    """(rich by complete returns, rich by count), or False when w is neither, and so no
    word below it is: the count grows by at most one per symbol, as the tree creates at
    most one node per append (PAL_BOUND checks only the total, |w| + 1)."""
    if not w:
        return True, True
    # _end_returns_are_palindromes tests only the returns ending at w's last symbol; the
    # parent's flag covers the others
    by_returns = parent[0] and _end_returns_are_palindromes(w)
    by_count = index.palindrome_count == len(w)
    return (by_returns or by_count) and (by_returns, by_count)


def _palindrome_count_step(w: str, index: None, count: int) -> int:
    return count + len(_palindromic_suffixes(w)[0]) if w else 1


def _r_and_period_step(w: str, index: None, parent: tuple) -> tuple[int, int | None]:
    # R and the minimal period never decrease along prefixes, so each scan starts at the parent's
    if not w:
        return (0, None)
    return (_r_index_step(w, parent[0]), _minimal_period_from(w, parent[1] or 1))


def _r_and_k_step(w: str, index: Undoable | None, parent: tuple[int, ...]) -> tuple[int, int]:
    return (_r_index_step(w, parent[0]), _k_index_step(w, parent[1])) if w else (0, 0)


def _trapezoidal_step(w: str, index: Undoable | None, parent: tuple) -> tuple[int, int] | bool:
    # (R, K) while w is trapezoidal, |w| = R + K, else False; only a trapezoidal parent steps
    rk = _r_and_k_step(w, index, parent)
    return len(w) == rk[0] + rk[1] and rk


def _profile_step(w: str, index: Undoable | None, parent: tuple) -> tuple:
    # (the trapezoidal state,), never falsy, so every word is walked; R and K are stepped
    # only under a trapezoidal parent, as no word below a non-trapezoidal one is (TRAP_CLOSED)
    return (parent[0] and _trapezoidal_step(w, index, parent[0]),) if w else ((0, 0),)


def _census_step(w: str, index: PalindromeIndex, parent: tuple) -> tuple | bool:
    """(the trapezoidal state, whether w is balanced), or False when w is neither of
    those nor rich, and so no word below it is."""
    if not w:
        return (0, 0), True
    trap, bal = parent  # all three classes are closed under prefixes
    trap = trap and _trapezoidal_step(w, index, trap)
    bal = bal and not index.new_palindrome_unbalances
    return (trap, bal) if trap or bal or index.palindrome_count == len(w) else False


def _trap_closed_step(w: str, index: None, parent: tuple[int, int, bool]) -> tuple[int, int, bool]:
    # the parent's R and K give its own verdict, which answers w[:-1]
    return (*_r_and_k_step(w, index, parent), len(w) - 1 == sum(parent[:2])) if w else (0, 0, True)


@dataclass(frozen=True)
class ClaimSpec:
    """checker(w, index, state) returns a diagnostic or None.

    A claim with an index class gets the one the walk carries, holding w,
    else None: a PalindromeIndex for PROP1 and PROP2, a SuffixAutomaton
    for PROFILE_EQUIV.  PAL_BOUND's count and PROP1's returns route are
    what the tree is checked against.

    A claim with palindromes set (THM_FGC, THM_MAIN) is checked on the
    palindromes alone: its checker passes every other word before reading
    it, so each palindrome stands for, and counts, every word of its
    length whose right half is a renaming of its own.  The walk's words
    are then right halves, not the words checked, so such a claim carries
    neither index nor step; THM_FGC builds its tree and D per palindrome.

    A claim with a step gets the state of w that _walk steps, else None:
    step(w, index, parent) reads the index holding w (None without an
    index class), runs only under a truthy parent state, and
    step("", index, True) is the empty word's state.  The walk stops
    below a falsy state: the checker skips that word, and the subtree
    below it is counted, not walked.  Every process of a verify steps the
    words down to the head length, and one of them each word below, so a
    state must follow from w, the index and the parent's state alone.
    Two kinds of state:

    - Falsy exactly outside a property closed under prefixes, on which
      the claim holds, so it follows the property of w alone: (rich by
      complete returns, rich by count) while w is rich by either, False
      otherwise (PROP1, whose pruning rests on the tree's at most one
      new palindrome per append, not on PAL_BOUND, which checks only the
      total); and (R, K) while w is trapezoidal, False otherwise (PROP2,
      BINARY_TRAP).
    - A value, never falsy, each from a fact about appending a symbol:
      the number of distinct palindromic factors, the empty word
      included, for PAL_BOUND (the new ones are palindromic suffixes);
      (R, minimal period) for PERIOD_INEQ; and (R, K) with the parent's
      verdict for TRAP_CLOSED, which guards the pruning and so carries
      no falsy state.  These two are the only steps of R or K on every
      word.

    PROFILE_EQUIV wraps PROP2's state in a 1-tuple, never falsy, so it
    walks and checks every word, as its profile route needs, yet steps
    R and K only under a trapezoidal parent: below any other word its
    R + K route is settled to False, which TRAP_CLOSED guards too.

    These are fixed properties of each claim, not options.  Checker and
    step, census's too, may compare symbols only with each other, never
    with a named letter: the walk visits one word per renaming of the
    letters.
    """
    description: str
    checker: Callable[[str, Undoable | None, object], str | None]
    index: type[Undoable] | None = None
    step: Callable[[str, Undoable | None, object], object] | None = None
    palindromes: bool = False


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
    ),
    "THM_FGC": ClaimSpec(
        "rich palindromes are exactly the words with P(n)+P(n+1) = C(n+1)-C(n)+2 for all n",
        _check_thm_fgc,
        palindromes=True,
    ),
    "THM_MAIN": ClaimSpec(
        "Sturmian palindrome == symmetric palindromic complexity == trapezoidal palindrome",
        _check_thm_main,
        palindromes=True,
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
    ),
    "PROFILE_EQUIV": ClaimSpec(
        "|w| = R+K agrees with the 1^r 0^s (-1)^r difference-profile shape",
        _check_profile_equiv,
        index=SuffixAutomaton,
        step=_profile_step,
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
    depth: int,
    index: Undoable | None = None,
    step: Callable[[str, Undoable | None, object], object] | None = None,
    head: int = 0,
    share: tuple[int, int] = (0, 1),
):
    """Yield (w, weight, state) for the canonical words of length 0..depth, or a share of them.

    A word is canonical when its letters first appear in alphabet order, so
    its children are the letters it uses and the next unused one.  Every
    word is the image of exactly one canonical word under an injective
    renaming of the letters; weight is the number of images of w,
    k(k-1)...(k-j+1) for j distinct letters out of k.  Words come in prefix
    order, children in alphabet order, so the words of one length come out
    in lexicographic order.  The walk keeps its own stack, so depth is not
    bounded by Python's recursion limit.  A given index must be empty; it
    then holds each word yielded (pop to the parent, append).  A given step
    sets state(w) = state(w[:-1]) and step(w, index, state(w[:-1])), with
    the index holding w (None when none is given) and True as the empty
    word's parent state; with no step, every state is None.  With a step,
    the children of a word whose state is falsy are not walked.
    The words of length head that the walk reaches with a truthy state
    (every one, with no step) are dealt in walk order, the i-th to share
    i mod n, for share = (j, n).  Share j yields the words dealt to it and
    their subtrees, and share 0 also every other word no longer than head:
    the shorter ones and the falsy ones.  So the n shares yield each word
    once, share (0, 1) the whole walk, and each share steps the words no
    longer than head that the walk reaches, and those below its own heads.
    """
    k = len(symbols)
    weights = [perm(k, j) for j in range(k + 1)]
    # a word with j letters: its children and their letter counts, reversed to pop in order
    children = [
        [(s, max(j, i + 1)) for i, s in enumerate(symbols[: j + 1])][::-1] for j in range(k + 1)
    ]
    j, n = share
    turns = cycle(range(n))  # the share each dealt head goes to, in turn
    held = 0  # length of the word the index holds
    stack = [("", 0, True if step else None)]
    while stack:
        w, used, parent = stack.pop()
        if index is not None and w:
            while held >= len(w):  # back to the parent w[:-1]
                index.pop()
                held -= 1
            index.append(w[-1])
            held += 1
        state = parent and step(w, index, parent)
        live = state or not step
        if (size := len(w)) == head and live and next(turns) != j:
            continue  # another share's subtree
        if size < depth and live:
            for s, u in children[used]:
                stack.append((w + s, u, state))
        if not j or size > head or live and size == head:
            yield w, weights[used], state


def _renamings(w: str, symbols: str) -> list[str]:
    """The images of a canonical word under the injective renamings of its letters, w first."""
    used = symbols[: len(set(w))]
    return [w.translate(str.maketrans(used, "".join(p))) for p in permutations(symbols, len(used))]


def _alphabet_order(symbols: str) -> Callable[[str], tuple[int, list[int]]]:
    """Sort key: by length, then lexicographically in the alphabet's order."""
    rank = {s: i for i, s in enumerate(symbols)}
    return lambda w: (len(w), [rank[s] for s in w])


def _palindromes(symbols: str, halves, max_len: int):
    """Yield (p, weight, None) for the palindromes p of each half h that the walk halves
    yields, those no longer than max_len, each renamed to its canonical form.

    h is p's right half read from the centre: p is h[:0:-1] + h (odd, h nonempty) or
    h[::-1] + h (even), and xpx has the half hx.  So the canonical halves up to
    ceil(max_len / 2) give each canonical palindrome once.  p stands for every word of
    its length whose last ceil(|p| / 2) symbols are a renaming of h, the one palindrome
    among them, which the checker reads for all: weight is h's, its renamings, times
    k^floor(|p| / 2), so the palindromes of each length n stand for all k^n words.
    """
    for h, weight, _ in halves:
        for p in (h[:0:-1] + h, h[::-1] + h) if h else ("",):
            if len(p) <= max_len:
                used = "".join(dict.fromkeys(p))
                renamed = p.translate(str.maketrans(used, symbols[: len(used)]))
                yield renamed, weight * len(symbols) ** (len(p) // 2), None


def _run_block(claim: str, symbols: str, max_len: int, head: int, share: tuple) -> tuple:
    """(words the walked words stand for, (word, diagnostic) of each failing one) of a share.

    The share is the one _walk deals at the head length of the claim's walk to max_len,
    from the empty word with a fresh index of the claim's class; share (0, 1) is all of it.
    A falsy state's subtree is counted in closed form down to max_len.  With palindromes,
    the walk's words are right halves, and the share checks and counts the palindromes up
    to max_len that they give, each for the words that _palindromes weighs it by.  A
    failing word stands for its other renamings too: each is checked on its own, with the
    state the walk carried (no step tells a word from its renamings) and an index built for
    it, so its diagnostic is its own.
    """
    spec = CLAIMS[claim]
    checker, step = spec.checker, spec.step
    index = spec.index() if spec.index else None
    # below[j]: words under one that has j levels of the walk beneath it, k + ... + k^j
    below = list(accumulate((len(symbols) ** i for i in range(1, max_len + 1)), initial=0))
    checked, bad = 0, []
    depth = (max_len + 1) // 2 if spec.palindromes else max_len  # halves are ceil(N / 2) long
    words = _walk(symbols, depth, index, step, head, share)
    if spec.palindromes:
        words = _palindromes(symbols, words, max_len)
    for w, weight, state in words:
        checked += weight
        if step and not state:
            checked += weight * below[max_len - len(w)]
        elif (diag := checker(w, index, state)) is not None:
            bad.append((w, diag))
            for v in _renamings(w, symbols)[1:]:
                if (diag := checker(v, spec.index and spec.index(v), state)) is not None:
                    bad.append((v, diag))
    return checked, bad


def _run_share(sender, *block) -> None:
    """A forked child's body: send (None, _run_block(*block)), or (the exception that
    stopped it, its traceback as text), through sender."""
    try:
        sent = None, _run_block(*block)
    except Exception as fault:
        sent = fault, traceback.format_exc()
    sender.send(sent)


def _fork(*block) -> tuple:
    """(child, reader): a forked child running _run_share on block, which it reads from its
    copy of this process's memory, and the receiving end of its one-way pipe."""
    reader, sender = Pipe(duplex=False)
    child = get_context("fork").Process(target=_run_share, args=(sender, *block), daemon=True)
    child.start()
    sender.close()  # the child then holds the only sending end, so its exit ends the pipe
    return child, reader


def verify_claim(
    claim: str,
    alphabet: str,
    max_len: int,
    workers: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> VerificationReport:
    """Evaluate a named claim on every word of length 0..max_len.

    The head length leaves at most _BLOCK_CAP words below each head, and
    n = min(workers, CPU count, canonical words of the head length)
    processes, this one included, each run the claim's whole walk down to
    it and check the share that _walk deals them: this one forks n - 1
    children, runs share 0 meanwhile, then merges theirs and re-raises a
    child's fault; no child outlives the call.  Each share checks and
    counts every word it stands for, so words_checked and the
    counterexamples are the shares' merged.  workers=None or 1 forks
    nothing, nor does a platform without the fork start method.  Either
    way the report is identical.  Before any walk, raises UsageError for an
    unknown claim, workers < 1, a bad alphabet, or a negative max_len or
    budget (core.check_walk), and BudgetExceededError for words longer than
    core.MAX_WORD_LENGTH or more than `budget` words.
    """
    if claim not in CLAIMS:
        raise UsageError(f"unknown claim {claim!r}; known: {', '.join(CLAIMS)}")
    if workers is not None and workers < 1:
        raise UsageError(f"workers must be at least 1, got {workers}")
    check_walk("max_len", max_len, alphabet, budget)
    started = time.perf_counter()
    k = len(alphabet)
    # a palindrome claim walks the right halves, ceil(max_len / 2) long
    walked = (max_len + 1) // 2 if CLAIMS[claim].palindromes else max_len
    head, size = walked, 1  # the shortest head length, and the words of a subtree under it
    while head and size + k ** (walked - head + 1) <= _BLOCK_CAP:
        size += k ** (walked - head + 1)
        head -= 1
    heads = [1] + [0] * k  # heads[j]: canonical words of the head length with j letters
    for _ in range(head):  # a child reuses one of its parent's j letters or adds the next
        heads = [0] + [j * heads[j] + heads[j - 1] for j in range(1, k + 1)]
    cpus = os.cpu_count() if "fork" in get_all_start_methods() else 1  # children need fork
    processes = min(workers or 1, cpus or 1, sum(heads))
    children = []  # (child, reader) of each forked share (j, processes), j >= 1
    try:
        for j in range(1, processes):
            children.append(_fork(claim, alphabet, max_len, head, (j, processes)))
        results = [_run_block(claim, alphabet, max_len, head, (0, processes))]
        for child, reader in children:
            try:
                fault, share = reader.recv()
            except EOFError:
                child.join()
                raise RuntimeError(
                    f"a forked child exited with code {child.exitcode} before sending its results"
                ) from None
            if fault is not None:
                raise fault from RuntimeError(f"raised in a forked child:\n{share}")
            results.append(share)
    finally:
        for child, reader in children:
            child.terminate()
            child.join()
            reader.close()
    bad = [hit for _, hits in results for hit in hits]
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
    check_walk("length", length, alphabet, budget, exact=True)
    check = PREDICATES[predicate]
    members = [w for w, _, _ in _walk(alphabet, length) if len(w) == length and check(w)]
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

    _walk carries one PalindromeIndex and steps _census_step, which reads
    it, along the tree, and each canonical word adds its weight, the number
    of its renamings, to every count it is in; total is k^n in closed form.
    The columns:

    - rich: the word has n distinct non-empty palindromic factors, read
      off the index.
    - trapezoidal and balanced: both classes are closed under factors
      (balance by definition, trapezoidal words by de Luca 1999), so a
      word outside one has no descendant inside it; the walk tests only
      children of members, trapezoidal ones by stepping the parent's
      (R, K).  A balanced word's child is unbalanced exactly when it adds
      a third letter, or when the palindrome its last symbol created
      completes a pair xUx, yUy.  The tree shows both without naming a
      letter (PalindromeIndex.new_palindrome_unbalances).
    - sturmian_palindrome, condition_B and condition_B_prime: each holds
      only on palindromes, so they are evaluated only on palindromes,
      from one P read off the index and, for condition_B, the
      differences of C from a SuffixAutomaton of rich w.

    Every column lies in rich, trapezoidal or balanced, so the walk stops
    below a word in none of the three, all closed under prefixes (a
    non-rich word has no rich child: the count grows by at most one per
    symbol).  Sturmian palindromes are balanced.  Summing condition_B's
    terms over 0 <= n <= N telescopes C to 2 sum P - 1 = 2N + 1, and
    summing condition_B_prime's gives 2 sum P = 2(N + 1); either way
    sum P = N + 1, which is richness.
    """
    check_walk("max_len", max_len, alphabet, budget)
    counts = {name: [0] * (max_len + 1) for name in CENSUS_CLASSES}
    rich, trapezoidal, balanced = counts["rich"], counts["trapezoidal"], counts["balanced"]
    sturmian_pal, cond_b = counts["sturmian_palindrome"], counts["condition_B"]
    cond_b_prime = counts["condition_B_prime"]
    index = PalindromeIndex()
    walk = _walk(alphabet, max_len, index, _census_step)
    next(walk)  # skip the empty word
    for w, weight, state in walk:
        if not state:
            continue  # in no column, and the walk stops here
        trap, bal = state
        n = len(w)
        is_rich = index.palindrome_count == n
        rich[n] += weight * is_rich
        trapezoidal[n] += weight * bool(trap)
        balanced[n] += weight * bal
        if index.longest_suffix_palindrome == n:
            p = _palindromic_profile(index, n)
            sturmian_pal[n] += weight * bal
            if is_rich:
                d = SuffixAutomaton(w).difference
                cond_b[n] += weight * (next(_B_mismatches(d, p), None) is None)
            cond_b_prime[n] += weight * (not _B_prime_mismatches(p))
    return CensusTable(
        alphabet=alphabet,
        max_len=max_len,
        lengths=list(range(1, max_len + 1)),
        total=[len(alphabet) ** n for n in range(1, max_len + 1)],
        counts={name: column[1:] for name, column in counts.items()},
    )
