"""Exhaustive verification of word-class identities at desk scale.

Each claim is a per-word predicate evaluated over every word up to a
length bound; violations are collected with a pointwise diagnostic.  One
prefix-order walk (_walk) serves verify, enumerate and census.  Claims and
classes are defined by symbol equality, so a word and its letter renamings
agree: the walk visits one canonical word per renaming class, weighted by
its renamings, and verify checks each other renaming of a failing one alone.
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
by the same walk (_palindromes), and count the other words in closed form.
Verify runs the claim's own walk in-process down to a head length,
checking and counting the words above it, and each head that walk
reaches with a truthy state becomes one task, started from its parent's
state with no replay of the head's ancestors; a falsy head is counted
with its subtree in closed form by that head run.  Over n processes the
calling one runs every n-th task and forks n - 1 children for the rest
(_fork), each reading its share from its copy of the caller's memory and
sending back its results, or its fault, through a one-way pipe.  That
fixed plan and sorted counterexamples make parallel and sequential verify
reports identical.
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
from itertools import permutations
from math import perm
from multiprocessing import Pool  # bound here for perfbench, whose tracer and smoke test read it
from multiprocessing import Pipe, get_context

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

_BLOCK_CAP = 2048  # max words enumerated per task
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
    it, so verify counts those instead of walking them.  The walk's words
    are then right halves, not the words checked, so such a claim carries
    neither index nor step; THM_FGC builds its tree and D per palindrome.

    A claim with a step gets the state of w that _walk steps, else None:
    step(w, index, parent) reads the index holding w (None without an
    index class), runs only under a truthy parent state, and
    step("", index, True) is the empty word's state.  The walk stops
    below a falsy state: the checker skips that word, and the subtree
    below it is counted, not walked.  Two kinds of state:

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
    prefix: str,
    depth: int,
    index: Undoable | None = None,
    step: Callable[[str, Undoable | None, object], object] | None = None,
    parent: object = True,
    heads: list[tuple[str, object]] | None = None,
):
    """Yield (w, weight, state) for prefix, then each canonical extension by 1..depth symbols.

    A word is canonical when its letters first appear in alphabet order, so
    its children are the letters it uses and the next unused one.  Every
    word is the image of exactly one canonical word under an injective
    renaming of the letters; weight is the number of images of w,
    k(k-1)...(k-j+1) for j distinct letters out of k.  Words come in prefix
    order, children in alphabet order, so the words of one length come out
    in lexicographic order.  The walk keeps its own stack, so depth is not
    bounded by Python's recursion limit.  A given index must hold
    prefix[:-1]; it then holds each word yielded (pop to the parent,
    append).  A given step sets state(w) = state(w[:-1]) and
    step(w, index, state(w[:-1])), with the index holding w (None when none
    is given), and parent is the state of prefix[:-1], True for the empty
    word's; with no step, every state is None.  With a step, the children
    of a word whose state is falsy are not walked.  Given a heads list, a
    word at the walk's limit whose state is truthy (every one, with no
    step) is not yielded but recorded there as (w, state of w[:-1]), the
    head of a subtree left to another walk; a falsy one is still yielded.
    """
    k = len(symbols)
    weights = [perm(k, j) for j in range(k + 1)]
    # a word with j letters: its children and their letter counts, reversed to pop in order
    children = [
        [(s, max(j, i + 1)) for i, s in enumerate(symbols[: j + 1])][::-1] for j in range(k + 1)
    ]
    limit = len(prefix) + depth
    held = max(len(prefix) - 1, 0)  # length of the word the index holds
    stack = [(prefix, len(set(prefix)), parent if step else None)]
    while stack:
        w, used, parent = stack.pop()
        if index is not None and w:
            while held >= len(w):  # back to the parent w[:-1]
                index.pop()
                held -= 1
            index.append(w[-1])
            held += 1
        state = parent and step(w, index, parent)
        if len(w) < limit and (state or not step):
            for s, j in children[used]:
                stack.append((w + s, j, state))
        elif heads is not None and (state or not step):
            heads.append((w, parent))
            continue
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
    ceil(max_len / 2) give each canonical palindrome once, and p, with h's letters,
    carries h's weight.
    """
    for h, weight, _ in halves:
        for p in (h[:0:-1] + h, h[::-1] + h) if h else ("",):
            if len(p) <= max_len:
                used = "".join(dict.fromkeys(p))
                yield p.translate(str.maketrans(used, symbols[: len(used)])), weight, None


def _run_block(task: tuple, heads: list | None = None) -> tuple[int, list[tuple[str, str]]]:
    """(words the walked words stand for, (word, diagnostic) of each failing one) of a block.

    task is (claim, alphabet, max_len, prefix, parent, depth), a block and verify's bound.
    The block builds the claim's index from prefix[:-1] and walks on from the parent state,
    handing heads to _walk: verify's head run passes a list and leaves the heads recorded
    there to one task each.  A falsy state's subtree is counted in closed form down to
    max_len, so a falsy word at the head run's limit stands for its subtree too.  With
    palindromes, the block's words are right halves, and it checks the palindromes up to
    max_len that they give.
    """
    claim, symbols, max_len, prefix, parent, depth = task
    spec = CLAIMS[claim]
    checker, step = spec.checker, spec.step
    index = spec.index(prefix[:-1]) if spec.index else None
    below = [0]  # below[j]: words under one that has j levels of the walk beneath it
    for _ in range(max_len):
        below.append(len(symbols) * (below[-1] + 1))
    checked, bad = 0, []
    words = _walk(symbols, prefix, depth, index, step, parent, heads)
    if spec.palindromes:
        words = _palindromes(symbols, words, max_len)
    for w, weight, state in words:
        checked += weight
        if step and not state:
            checked += weight * below[max_len - len(w)]
        elif (diag := checker(w, index, state)) is not None:
            bad.append((w, diag))
    return checked, bad


def _run_share(tasks: list, sender) -> None:
    """A forked child's body: send (None, the _run_block result of each task), or (the
    exception that stopped them, its traceback as text), through sender."""
    try:
        sent = None, [_run_block(t) for t in tasks]
    except Exception as fault:
        sent = fault, traceback.format_exc()
    sender.send(sent)


def _fork(tasks: list) -> tuple:
    """(child, reader): a forked child running _run_share on its share of the tasks, which it
    reads from its copy of this process's memory, and the receiving end of its one-way pipe."""
    reader, sender = Pipe(duplex=False)
    child = get_context("fork").Process(target=_run_share, args=(tasks, sender), daemon=True)
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

    The claim's own walk runs in this process down to a head length, and
    each head it reaches with a truthy state becomes a task, the subtree
    of at most _BLOCK_CAP words below it, started from its parent's state.
    The tasks run on n = min(workers, CPU count, number of tasks)
    processes, this one included: it forks n - 1 children, runs its own
    share meanwhile, then merges theirs and re-raises a child's fault; no
    child outlives the call.  workers=None or 1 forks nothing.  Either way
    the report is identical.  Before any walk, raises UsageError for an
    unknown claim, workers < 1, a bad alphabet, or a negative max_len or
    budget (core.check_walk), and BudgetExceededError for words longer
    than core.MAX_WORD_LENGTH or more than `budget` words.
    """
    if claim not in CLAIMS:
        raise UsageError(f"unknown claim {claim!r}; known: {', '.join(CLAIMS)}")
    if workers is not None and workers < 1:
        raise UsageError(f"workers must be at least 1, got {workers}")
    check_walk("max_len", max_len, alphabet, budget)
    started = time.perf_counter()
    k, spec = len(alphabet), CLAIMS[claim]
    # a palindrome claim walks the right halves, ceil(max_len / 2) long, and passes the
    # k^n - k^ceil(n/2) other words of each length unread
    walked = (max_len + 1) // 2 if spec.palindromes else max_len
    rest = sum(k**n - k ** ((n + 1) // 2) for n in range(max_len + 1)) if spec.palindromes else 0
    depth, size = 0, 1  # the deepest subtree under the cap, and its word count
    while depth < walked and size + k ** (depth + 1) <= _BLOCK_CAP:
        depth += 1
        size += k**depth
    heads = []  # (head, state of head[:-1]) of each task the head run leaves
    results = [_run_block((claim, alphabet, max_len, "", True, walked - depth), heads)]
    tasks = [(claim, alphabet, max_len, head, parent, depth) for head, parent in heads]
    processes = min(workers or 1, os.cpu_count() or 1, len(tasks))
    children = []  # (child, reader) of each forked share, tasks[j::processes] for j >= 1
    try:
        for j in range(1, processes):
            children.append(_fork(tasks[j::processes]))
        results += [_run_block(t) for t in tasks[::processes]]
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
            results += share
    finally:
        for child, reader in children:
            child.terminate()
            child.join()
            reader.close()
    bad = [hit for _, hits in results for hit in hits]
    # a failing canonical word stands for its other renamings too: each is checked alone, as a
    # word, not a half, its state and index folded from the empty word's, so its diagnostic
    # is its own; this is the only step of a state outside _walk
    for v in [v for w, _ in bad for v in _renamings(w, alphabet)[1:]]:
        state = True  # the empty word's parent state
        for n in range(len(v) + 1):
            index = spec.index and spec.index(v[:n])
            state = spec.step and state and spec.step(v[:n], index, state)
        if (state or not spec.step) and (diag := spec.checker(v, index, state)) is not None:
            bad.append((v, diag))
    order = _alphabet_order(alphabet)
    return VerificationReport(
        claim=claim,
        alphabet=alphabet,
        max_len=max_len,
        words_checked=rest + sum(c for c, _ in results),
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
    walk = _walk(alphabet, "", max_len, index, _census_step)
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
