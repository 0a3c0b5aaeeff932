import bisect
import collections
import dataclasses
import functools
import itertools
import json
import math
import multiprocessing
import sys
import types

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wordlab import theorems
from wordlab import CLAIMS, PalindromeIndex, census, find_class_members, verify_claim
from wordlab.classify import is_finite_sturmian, is_trapezoidal
from wordlab.complexity import (
    SuffixAutomaton,
    _k_index_step,
    _r_index_step,
    k_index,
    r_index,
    structural_indices,
)
from wordlab.core import DEFAULT_BUDGET, MAX_WORD_LENGTH, BudgetExceededError, UsageError
from wordlab.core import word_count
from wordlab.generate import lower_christoffel, random_words
from wordlab.theorems import CENSUS_CLASSES, PREDICATES

import oracle
from oracle import rich_by_definition, words_up_to


def _is_canonical(w, symbols):
    # its letters, in order of first appearance, are the first letters of the alphabet
    return "".join(dict.fromkeys(w)) == symbols[: len(set(w))]


def _canonical_form(w, symbols):
    return w.translate(str.maketrans("".join(dict.fromkeys(w)), symbols[: len(set(w))]))


def _weight(w, symbols):
    # the number of injective renamings of w's letters into the alphabet
    return math.perm(len(symbols), len(set(w)))


def test_claim_registry_is_complete():
    assert list(CLAIMS) == [
        "PROP1",
        "PROP2",
        "THM_FGC",
        "THM_MAIN",
        "PAL_BOUND",
        "PERIOD_INEQ",
        "BINARY_TRAP",
        "PROFILE_EQUIV",
        "TRAP_CLOSED",
    ]


def test_verify_counts_all_words():
    report = verify_claim("THM_FGC", "ab", 6)
    assert report.words_checked == 127  # 1 + 2 + 4 + ... + 64
    assert report.counterexamples == []
    assert report.verified


def test_verify_prop2_small():
    report = verify_claim("PROP2", "ab", 6)
    assert report.counterexamples == []


def test_verify_unary_alphabet():
    report = verify_claim("PAL_BOUND", "a", 3)
    assert report.words_checked == 4
    assert report.verified


def test_verify_length_zero():
    report = verify_claim("THM_FGC", "ab", 0)
    assert report.words_checked == 1
    assert report.verified


def test_all_claims_hold_at_small_scale():
    for claim in CLAIMS:
        alphabet = "abc" if claim == "BINARY_TRAP" else "ab"
        report = verify_claim(claim, alphabet, 7)
        assert report.verified, (claim, report.counterexamples[:3])


def test_rich_palindrome_identity_holds_on_ternary_words():
    report = verify_claim("THM_FGC", "abc", 9)
    assert report.words_checked == 29524
    assert report.verified


def test_unknown_claim_rejected():
    with pytest.raises(ValueError, match="unknown claim"):
        verify_claim("NOPE", "ab", 3)


def test_budget_guard():
    with pytest.raises(BudgetExceededError):
        verify_claim("PROP1", "ab", 5, budget=10)
    # exactly at the budget is fine
    assert verify_claim("PROP1", "ab", 3, budget=word_count(2, 3)).verified


def _unwalked(*args, **kwargs):
    raise AssertionError("walked before refusing")


@pytest.mark.parametrize(
    "run",
    [
        pytest.param(lambda n, budget: verify_claim("PROP1", "a", n, budget=budget), id="verify"),
        pytest.param(lambda n, budget: census("a", n, budget=budget), id="census"),
        pytest.param(
            lambda n, budget: find_class_members("rich", "a", n, budget=budget), id="enumerate"
        ),
    ],
)
def test_word_length_is_refused_before_the_budget(monkeypatch, run):
    # a unary alphabet passes any budget long before the words get too long to walk
    monkeypatch.setattr(theorems, "_walk", _unwalked)
    for length in (MAX_WORD_LENGTH + 1, 10**9):
        with pytest.raises(BudgetExceededError, match=f"{length} exceeds the word-length limit"):
            run(length, DEFAULT_BUDGET)
    # the bound itself passes the length check, so the budget refuses it instead
    with pytest.raises(BudgetExceededError, match="exceeds the budget of 0"):
        run(MAX_WORD_LENGTH, 0)


# analyze reads its alphabet off the word; test_cli's usage-error rows cover it
@pytest.mark.parametrize(
    "alphabet,message",
    [
        pytest.param("", "got 0", id="empty"),
        pytest.param("abcdefghijklmnopqrstuvwxyz0", "got 27", id="27-symbols"),
        pytest.param("aba", "duplicate symbol", id="duplicate"),
        pytest.param("a\tb", "not a printable ASCII symbol", id="tab"),
    ],
)
@pytest.mark.parametrize(
    "run",
    [
        pytest.param(lambda a: verify_claim("PROP1", a, 2), id="verify"),
        pytest.param(lambda a: find_class_members("rich", a, 2), id="enumerate"),
        pytest.param(lambda a: census(a, 2), id="census"),
        pytest.param(lambda a: random_words(a, 3, 2, seed=1), id="random_words"),
        pytest.param(lambda a: list(oracle.all_words(a, 2)), id="all_words"),
        pytest.param(lambda a: list(oracle.words_up_to(a, 2)), id="words_up_to"),
    ],
)
def test_bad_alphabet_is_refused_before_any_walk(monkeypatch, run, alphabet, message):
    monkeypatch.setattr(theorems, "_walk", _unwalked)
    with pytest.raises(UsageError, match=message):
        run(alphabet)


def test_negative_budget_rejected():
    for run in (
        lambda: verify_claim("PROP1", "ab", 3, budget=-1),
        lambda: find_class_members("rich", "ab", 3, budget=-1),
        lambda: census("ab", 3, budget=-1),
    ):
        with pytest.raises(ValueError, match="budget must be non-negative"):
            run()


def test_parallel_equals_sequential():
    seq = verify_claim("THM_MAIN", "ab", 9, workers=1)
    par = verify_claim("THM_MAIN", "ab", 9, workers=4)
    assert seq.to_json_dict() == par.to_json_dict()
    rerun = verify_claim("THM_MAIN", "ab", 9, workers=1)
    assert rerun.to_json_dict() == seq.to_json_dict()


@pytest.mark.parametrize("workers", [0, -1])
def test_verify_rejects_fewer_than_one_worker(workers):
    with pytest.raises(ValueError, match="workers must be at least 1"):
        verify_claim("PROP1", "ab", 3, workers=workers)


def _fork_in_process(monkeypatch):
    """Stand in for theorems._fork: run each child's share in this process, as _run_share,
    and hand back what the child would send.  Returns the list of the blocks forked."""
    shares = []

    def fork(*block):
        shares.append(block)
        sent = []
        theorems._run_share(types.SimpleNamespace(send=sent.append), *block)
        child = types.SimpleNamespace(terminate=lambda: None, join=lambda: None)
        return child, types.SimpleNamespace(recv=sent.pop, close=lambda: None)

    monkeypatch.setattr(theorems, "_fork", fork)
    return shares


@pytest.mark.parametrize(
    "workers,cpus,symbols,max_len,expected",
    [
        (64, 3, "ab", 12, 3),  # capped by the CPU count alone
        (2, 64, "ab", 12, 2),  # the requested count fits, and caps alone
        (64, 64, "ab", 12, 4),  # capped by the canonical words of the head length alone
        (64, 64, "ab", 13, 8),  # aaaa to abbb
        (64, 64, "abc", 8, 5),  # aaa, aab, aba, abb and abc
        (64, 64, "abcd", 8, 15),  # 1 + 7 + 6 + 1 of length 4 with 1, 2, 3 and 4 letters
        (64, 64, "a", 12, 1),  # one letter: one word of each length
        (64, 64, "ab", 9, 1),  # head length 0: the empty word
        (8, None, "ab", 12, 1),  # unknown CPU count: sequential, nothing forked
        (1, 64, "ab", 12, 1),
    ],
)
def test_verify_caps_the_process_count(monkeypatch, workers, cpus, symbols, max_len, expected):
    # at this cap the heads of ab/12 and abc/8 are 3 letters long, those of ab/13 and abcd/8
    # 4, and ab/9 fits under one head; of n processes, this one walks share 0 and child j
    # share j
    monkeypatch.setattr(theorems, "_BLOCK_CAP", 1024)
    shares = _fork_in_process(monkeypatch)
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: cpus)
    report = verify_claim("PROP1", symbols, max_len, workers=workers)
    assert [share for *_, share in shares] == [(j, expected) for j in range(1, expected)]
    assert report.to_json_dict() == verify_claim("PROP1", symbols, max_len).to_json_dict()


def test_verify_runs_on_one_process_without_the_fork_start_method(monkeypatch):
    # as on Windows, where asking for the fork context raises
    def no_fork(method):
        raise ValueError(f"cannot find context for {method!r}")

    shares = _fork_in_process(monkeypatch)
    monkeypatch.setattr(theorems, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(theorems, "get_context", no_fork)
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: 4)
    report = verify_claim("PROP1", "ab", 13, workers=4)
    assert shares == []
    assert report.to_json_dict() == verify_claim("PROP1", "ab", 13, workers=1).to_json_dict()


@pytest.mark.parametrize("claim", list(CLAIMS))
def test_two_forked_children_report_as_one_process(monkeypatch, claim):
    # with three CPUs, ab/13 forks two children beside this process, as its heads are 3
    # letters long, and abc/8 and ba/12 one, as theirs are 2 letters long; the palindrome
    # claims' halves fit under one head, the empty word
    forked, fork = [], theorems._fork
    monkeypatch.setattr(theorems, "_fork", lambda *block: forked.append(block) or fork(*block))
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: 3)
    for symbols, max_len in (("ab", 13), ("abc", 8), ("ba", 12)):
        sequential, parallel = (verify_claim(claim, symbols, max_len, workers=n) for n in (1, 3))
        assert json.dumps(parallel.to_json_dict()) == json.dumps(sequential.to_json_dict())
    assert len(forked) == (0 if CLAIMS[claim].palindromes else 4)
    assert multiprocessing.active_children() == []


def _head(monkeypatch, spec, symbols, max_len):
    """The head length a sequential verify_claim with spec deals its walk at."""
    heads, run_block = [], theorems._run_block

    def recording(claim, symbols, max_len, head, share):
        heads.append(head)
        return run_block(claim, symbols, max_len, head, share)

    with monkeypatch.context() as patch:
        patch.setitem(theorems.CLAIMS, "PLANNED", spec)
        patch.setattr(theorems, "_run_block", recording)
        verify_claim("PLANNED", symbols, max_len)
    [head] = heads
    return head


def _share(spec, symbols, max_len, head=0, share=(0, 1)):
    """The (w, weight, state) one share of the claim's walk yields, from a fresh index."""
    index = spec.index() if spec.index else None
    depth = (max_len + 1) // 2 if spec.palindromes else max_len
    return list(theorems._walk(symbols, depth, index, spec.step, head, share))


def _shares(monkeypatch, spec, symbols, max_len, n):
    """(head, share) of each of n processes of verify_claim, j = 0..n - 1."""
    head = _head(monkeypatch, spec, symbols, max_len)
    return [(head, (j, n)) for j in range(n)]


def _covered(spec, symbols, max_len, walked):
    """(word, weight) of each canonical word a walked share stands for: each word walked
    under a truthy state (every one, with no step), and each falsy one with its whole
    subtree down to max_len, which the share counts in closed form."""
    canonical = sorted(w for w in words_up_to(symbols, max_len) if _is_canonical(w, symbols))

    def subtree(w):  # the canonical words that start with w, one run of them in sorted order
        run = itertools.islice(canonical, bisect.bisect_left(canonical, w), None)
        below = itertools.takewhile(lambda v: v.startswith(w), run)
        return [(v, _weight(v, symbols)) for v in below]

    return [
        item
        for w, weight, state in walked
        for item in ([(w, weight)] if state or not spec.step else subtree(w))
    ]


# a claim with no step walks every word; each stepped one stops below its falsy states; the
# palindrome claims' step is over right halves, so it is planned here over every word, as a
# walk of halves to max_len
PLANS = {
    "stepless": theorems.ClaimSpec("walks every word", lambda w, index, state: None),
    **{claim: spec for claim, spec in CLAIMS.items() if spec.step and not spec.palindromes},
    "halves": theorems.ClaimSpec(
        "steps every half", lambda w, index, state: None, step=theorems._halves_step
    ),
}


# at the 32-word cap the heads are 9 letters long at ab/13, 5 at abc/8 and 8 at ba/12, so
# every process walks deep into the tree before its first dealt subtree, and the pruned walks
# deal only some of the words of the head length
@pytest.mark.parametrize(
    "symbols,max_len,cap",
    [
        ("ab", 0, 2048), ("ab", 9, 2048), ("ab", 10, 2048), ("ab", 11, 2048), ("ab", 13, 2048),
        ("abc", 8, 2048), ("abcd", 6, 2048), ("ba", 12, 2048), ("cab", 8, 2048), ("a", 9, 2048),
        ("ab", 13, 32), ("abc", 8, 32), ("abcd", 6, 32), ("ba", 12, 32), ("a", 9, 32),
    ],
)
@pytest.mark.parametrize("name", list(PLANS))
def test_shares_partition_the_sequential_walk(monkeypatch, name, symbols, max_len, cap):
    monkeypatch.setattr(theorems, "_BLOCK_CAP", cap)
    spec = PLANS[name]
    head = _head(monkeypatch, spec, symbols, max_len)
    sequential = _share(spec, symbols, max_len)
    # the sequential walk stands for each canonical word once: walked, or counted under one
    # falsy word; their renamings are every word, each once, and each weight counts them
    covered = _covered(spec, symbols, max_len, sequential)
    words = sorted(words_up_to(symbols, max_len))
    assert sorted(w for w, _ in covered) == [w for w in words if _is_canonical(w, symbols)]
    assert sorted(v for w, _ in covered for v in theorems._renamings(w, symbols)) == words
    assert all(weight == _weight(w, symbols) for w, weight in covered)
    live = [w for w, _, state in sequential if len(w) == head and (state or not spec.step)]
    assert live
    if cap == 32 and (symbols, max_len) == ("ab", 13):  # the pruned walks reach falsy heads
        reached = [w for w, *_ in sequential if len(w) == head]
        assert len(live) < len(reached) if name in PRUNED_TO else live == reached
    # every dealt subtree, down to the bound, walks at most the cap
    subtrees = collections.Counter(w[:head] for w, *_ in sequential if len(w) >= head)
    assert max(subtrees.values()) <= cap
    for n in range(1, 5):
        shares = [_share(spec, symbols, max_len, head, (j, n)) for j in range(n)]
        # disjoint, each in walk order, and together the sequential walk, weights and states
        # included
        merged = sorted((item for share in shares for item in share), key=lambda item: item[0])
        assert merged == sorted(sequential, key=lambda item: item[0])
        for j, share in enumerate(shares):
            own = {w for w, *_ in share}
            assert share == [item for item in sequential if item[0] in own]
            # the i-th live head is share i mod n's, with its subtree; share 0 also walks the
            # words above the head length, and the falsy heads
            dealt = [w for w, _, state in share if len(w) == head and (state or not spec.step)]
            assert dealt == live[j::n]
            assert all(w[:head] in dealt for w, *_ in share if len(w) > head)
            assert j == 0 or all(w in dealt or len(w) > head for w, *_ in share)


@pytest.mark.parametrize(
    "symbols,max_len", [("ab", 13), ("abc", 8), ("abcd", 6), ("ba", 12), ("a", 9)]
)
@pytest.mark.parametrize("name", [claim for claim, spec in CLAIMS.items() if spec.step])
def test_each_share_walks_every_nth_head_the_claim_reaches(monkeypatch, name, symbols, max_len):
    monkeypatch.setattr(theorems, "_BLOCK_CAP", 32)
    own = _own_states_and_verdicts(name, symbols, max_len)
    head = _head(monkeypatch, CLAIMS[name], symbols, max_len)
    # the heads the claim's walk reaches with a truthy state: those whose prefixes all have
    # truthy states, each stepped on its own from the empty word, in lexicographic order,
    # the walk's; at a/9 the head is the empty word, and share 0 walks every word
    heads = [p for p in words_up_to(symbols, head) if len(p) == head and _is_canonical(p, symbols)]
    live = [p for p in heads if all(own[p[:n]][0] for n in range(head + 1))]
    for _, (j, n) in _shares(monkeypatch, CLAIMS[name], symbols, max_len, 3):
        walked = _share(CLAIMS[name], symbols, max_len, head, (j, n))
        assert [w for w, _, state in walked if len(w) == head and state] == live[j::n]
        assert all(state == own[w][0] for w, _, state in walked)
    if (symbols, max_len) == ("ab", 13):
        assert len(live) < len(heads) if name in PRUNED_TO else live == heads


def _scattered(w):
    # passes on a scattered set of words, with failures at every length from 1 up
    return (7 * w.count(w[:1]) + len(w)) % 5 != 1


@pytest.mark.parametrize("symbols,max_len", [("ab", 12), ("abc", 7)])
@pytest.mark.parametrize("keep", [_scattered, is_trapezoidal], ids=["scattered", "trapezoidal"])
def test_walk_yields_the_words_whose_proper_prefixes_pass_keep(
    monkeypatch, symbols, max_len, keep
):
    keep = functools.cache(keep)
    # the state of w: keep passes w and each of its prefixes
    spec = theorems.ClaimSpec("keep", lambda w, index, state: None, step=lambda w, index, parent: keep(w))
    canonical = [w for w in words_up_to(symbols, max_len) if _is_canonical(w, symbols)]
    expected = [w for w in canonical if all(keep(w[:i]) for i in range(len(w)))]
    pruned = theorems._walk(symbols, max_len, step=spec.step)
    assert sorted(w for w, _, _ in pruned) == sorted(expected)
    assert len(expected) < len(canonical)
    monkeypatch.setattr(theorems, "_BLOCK_CAP", 32)
    passed = functools.cache(lambda w: all(keep(w[:i]) for i in range(len(w) + 1)))
    for head, share in _shares(monkeypatch, spec, symbols, max_len, 3):
        # in prefix order, each with its state: whether keep passes it too
        walked = _share(spec, symbols, max_len, head, share)
        kept = _kept_walk(symbols, max_len, passed, head, share)
        assert walked == [(w, _weight(w, symbols), passed(w)) for w in kept], share


# at the 32-word cap the heads are 8 letters long at ab/12, 5 at abc/7 and 7 at ba/11, so every
# share but share 0 pops its index back over the heads dealt to the others
@pytest.mark.parametrize("cap", [2048, 32])
@pytest.mark.parametrize("symbols,max_len", [("ab", 12), ("abc", 7), ("ba", 11)])
def test_walk_index_is_the_tree_of_each_word(monkeypatch, symbols, max_len, cap):
    monkeypatch.setattr(theorems, "_BLOCK_CAP", cap)
    for head, share in _shares(monkeypatch, PLANS["stepless"], symbols, max_len, 3):
        index = PalindromeIndex()
        for w, _, _ in theorems._walk(symbols, max_len, index, head=head, share=share):
            fresh = PalindromeIndex(w)
            assert index.palindrome_count == fresh.palindrome_count, w
            assert index.prefix_counts == fresh.prefix_counts, w
            assert index.lengths() == fresh.lengths(), w


def _automaton(a):
    return a.length, a.link, a.trans, a.difference


def _differences(w):
    # D: C(n+1) - C(n) for n = 0..|w|-1
    c = oracle.subword_complexity(w)
    return [c[n + 1] - c[n] for n in range(len(w))]


# the automaton PROFILE_EQUIV carries, popped back to each parent; its D, as every automaton's,
# sums to C(|w|) - C(0) = 0 (each append adds -1 at the end and +1 at L, and pop undoes both),
# which THM_FGC's skip of the palindromes that are not rich rests on
@pytest.mark.parametrize("cap", [2048, 32])
@pytest.mark.parametrize("symbols,max_len", [("ab", 12), ("abc", 7), ("abcd", 6)])
def test_walk_automaton_is_the_automaton_of_each_word(monkeypatch, symbols, max_len, cap):
    monkeypatch.setattr(theorems, "_BLOCK_CAP", cap)
    spec = CLAIMS["PROFILE_EQUIV"]
    for head, share in _shares(monkeypatch, spec, symbols, max_len, 3):
        automaton = SuffixAutomaton()
        for w, _, _ in theorems._walk(symbols, max_len, automaton, spec.step, head, share):
            assert _automaton(automaton) == _automaton(SuffixAutomaton(w)), w
            assert automaton.difference == _differences(w), w
            assert sum(automaton.difference) == 0, w


_rich_by_returns = functools.cache(rich_by_definition)


@functools.cache
def _rich_by_count(w):
    return len(oracle.palindromic_factors(w)) == len(w) + 1


def _rich_by_either(w):
    return _rich_by_returns(w) or _rich_by_count(w)


# the claims whose walks stop below a falsy state, each with the class that state is truthy on
PRUNED_TO = {"PROP1": _rich_by_either, "PROP2": is_trapezoidal, "BINARY_TRAP": is_trapezoidal}


def _states_seen(monkeypatch, claim, symbols, max_len, head=0, share=(0, 1)):
    """(word, carried state) for every canonical word that one share of the claim's walk
    down to max_len walks, run by _run_block.

    The checker sees exactly the walked words whose state is truthy, and the share counts
    every canonical word it stands for, the unwalked ones in closed form.
    """
    walked, checked = [], []

    def recording_walk(*args):
        for item in walk(*args):
            walked.append(item)
            yield item

    walk, original = theorems._walk, theorems.CLAIMS[claim]
    spec = dataclasses.replace(original, checker=lambda w, index, state: checked.append((w, state)))
    with monkeypatch.context() as patch:
        patch.setitem(theorems.CLAIMS, claim, spec)
        patch.setattr(theorems, "_walk", recording_walk)
        count, _ = theorems._run_block(claim, symbols, max_len, head, share)
    assert checked == [(w, state) for w, _, state in walked if state]
    assert count == sum(weight for _, weight in _covered(original, symbols, max_len, walked))
    return [(w, state) for w, _, state in walked]


def _kept_walk(symbols, max_len, keep, head=0, share=(0, 1)):
    """The words that one share of a walk stopping below each word keep refuses yields,
    keep closed under prefixes: those whose parent keep passes, in prefix order, of which
    the i-th of length head that keep passes, with its subtree, is share i mod n's, and the
    others no longer than head share 0's."""
    walked = [w for w, _, _ in theorems._walk(symbols, max_len) if not w or keep(w[:-1])]
    j, n = share
    dealt = set([w for w in walked if len(w) == head and keep(w)][j::n])
    return [
        w
        for w in walked
        if w[:head] in dealt or not j and (len(w) < head or len(w) == head and not keep(w))
    ]


# at this cap the heads are 8 letters long at ab/12, 5 at abc/7 and 7 at ba/11
@pytest.mark.parametrize("cap", [2048, 32])
@pytest.mark.parametrize("symbols,max_len", [("ab", 12), ("abc", 7), ("ba", 11)])
def test_walk_flags_are_the_properties_of_each_word(monkeypatch, symbols, max_len, cap):
    monkeypatch.setattr(theorems, "_BLOCK_CAP", cap)
    for head, share in _shares(monkeypatch, CLAIMS["PROP1"], symbols, max_len, 3):
        walked = _states_seen(monkeypatch, "PROP1", symbols, max_len, head, share)
        kept = _kept_walk(symbols, max_len, _rich_by_either, head, share)
        assert [w for w, _ in walked] == kept
        for w, state in walked:
            flags = (_rich_by_returns(w), _rich_by_count(w))
            assert state == (any(flags) and flags), w
            assert state is False or all(type(flag) is bool for flag in state), w
    for head, share in _shares(monkeypatch, CLAIMS["PROP2"], symbols, max_len, 3):
        walked = _states_seen(monkeypatch, "PROP2", symbols, max_len, head, share)
        kept = _kept_walk(symbols, max_len, is_trapezoidal, head, share)
        assert [w for w, _ in walked] == kept
        for w, state in walked:
            if is_trapezoidal(w):
                assert state == (r_index(w), k_index(w)), w
            else:
                assert state is False, w


def _indices(w, *names):
    indices = structural_indices(w)
    return tuple(getattr(indices, name) for name in names)


_trapezoidal = functools.cache(is_trapezoidal)


def _settled_trapezoidal_state(w):
    # (R, K) while w and all its ancestors are trapezoidal, else False, settled for good
    if all(_trapezoidal(w[:n]) for n in range(len(w) + 1)):
        return _indices(w, "r_index", "k_index")
    return False


# the carried values against direct computations of each word
INVARIANTS = {
    "PAL_BOUND": lambda w: len(oracle.palindromic_factors(w)),
    "PERIOD_INEQ": lambda w: _indices(w, "r_index", "min_period"),
    "PROFILE_EQUIV": lambda w: (_settled_trapezoidal_state(w),),
    "TRAP_CLOSED": lambda w: (*_indices(w, "r_index", "k_index"), is_trapezoidal(w[:-1])),
}


@pytest.mark.parametrize("cap", [2048, 32])
@pytest.mark.parametrize("symbols,max_len", [("ab", 12), ("abc", 7), ("ba", 11)])
def test_walk_states_are_the_invariants_of_each_word(monkeypatch, symbols, max_len, cap):
    monkeypatch.setattr(theorems, "_BLOCK_CAP", cap)
    for claim, direct in INVARIANTS.items():
        for head, share in _shares(monkeypatch, CLAIMS[claim], symbols, max_len, 3):
            for w, state in _states_seen(monkeypatch, claim, symbols, max_len, head, share):
                assert state == direct(w), (claim, w)


# every step a walk carries, each with the index class it reads: each claim's, and census's
STEPS = {c: (spec.index, spec.step) for c, spec in CLAIMS.items() if spec.step}
STEPS["census"] = (PalindromeIndex, theorems._census_step)


def _carried_profile(w, states):
    """P of the palindrome w as the palindrome claims carry it: its right half w[|w| // 2:]
    holds (P of its odd palindrome, P of its even one), the empty half (P of the empty word,)."""
    return states[w[len(w) // 2 :]][bool(w) and len(w) % 2 == 0]


def _own_states_and_verdicts(name, symbols, max_len):
    """word -> (carried state, whether the checker passes it), each word on its own.

    Each state steps from the parent's, so from the empty word down, with no walk, over
    an index built for the word alone, which the verdict reads too; the verdict is None
    where a falsy state stops the walk, and for census, which has no checker.  The
    palindrome claims step each word as a right half, and their checker reads the P that
    a palindrome's half carries, and nothing on any other word.
    """
    spec = CLAIMS.get(name)
    index_class, step = STEPS[name] if name in STEPS else (spec.index, None)
    states, seen = {}, {}
    for w in words_up_to(symbols, max_len):  # shortest first, so each parent comes first
        parent = states[w[:-1]] if w else True
        index = index_class(w) if index_class else None
        state = states[w] = step and (parent and step(w, index, parent))
        verdict = None
        if spec and spec.palindromes:
            profile = _carried_profile(w, states) if w == w[::-1] else None
            verdict = spec.checker(w, index, profile) is None
        elif spec and (state or not step):
            verdict = spec.checker(w, index, state) is None
        seen[w] = (state, verdict)
    return seen


# the reduction to canonical words: no claim, and no step, may tell a word from a renaming of it
@pytest.mark.parametrize("symbols,max_len", [("ab", 11), ("abc", 7), ("abcd", 5), ("ba", 10)])
@pytest.mark.parametrize("name", [*CLAIMS, "census"])
def test_every_word_carries_the_state_and_verdict_of_its_canonical_form(name, symbols, max_len):
    seen = _own_states_and_verdicts(name, symbols, max_len)
    assert any(state for state, _ in seen.values()) or name not in STEPS
    for w, state_and_verdict in seen.items():
        assert state_and_verdict == seen[_canonical_form(w, symbols)], (name, w)


# the odd bounds drop the even palindrome of each longest half, so the palindrome claims'
# weights are tested at the edge
@pytest.mark.parametrize("claim", list(CLAIMS))
def test_words_checked_is_the_full_count(claim):
    bounds = (("ab", 12), ("abc", 8), ("abcd", 6), ("ba", 12), ("a", 30), ("ab", 13), ("abc", 7))
    for symbols, max_len in bounds:
        report = verify_claim(claim, symbols, max_len)
        assert report.words_checked == word_count(len(symbols), max_len), (symbols, max_len)


def _long_prefixes():
    rng_word = random_words("ab", 300, 1, seed=0x5EED)[0]
    quaternary = random_words("abcd", 300, 1, seed=0xC0DE)[0]
    window = lower_christoffel(89, 233)[5:305]  # balanced, R and the period in the hundreds
    return [("ab", rng_word), ("abcd", quaternary), ("ab", window), ("ab", "a" * 299 + "b")]


@pytest.mark.parametrize(
    "symbols,prefix", _long_prefixes(), ids=["binary", "quaternary", "christoffel", "a299b"]
)
def test_step_kernels_along_a_long_prefix(symbols, prefix):
    r = k = 0
    for n in range(1, len(prefix) + 1):
        w = prefix[:n]
        r, k = _r_index_step(w, r), _k_index_step(w, k)
        assert (r, k) == (r_index(w), k_index(w)), w


def test_carried_flag_starts_from_the_parent_state(monkeypatch):
    # abca is rich by neither route; abcaa ends in no bad return, so only its parent's flag
    # says so: the walk stops at abca and counts the words below it, and a step of abcaa from
    # a parent rich by both routes would call it rich by returns
    assert theorems._end_returns_are_palindromes("abcaa")
    seen = dict(_states_seen(monkeypatch, "PROP1", "abc", 7))
    assert seen["abca"] is False and "abcaa" not in seen
    assert theorems._returns_step("abcaa", PalindromeIndex("abcaa"), (True, True)) == (True, False)


def test_palindrome_claims_carry_no_index_and_step_their_halves():
    # their walk's words are right halves, not the words the checker sees, so they carry no
    # tree, which only appends; the step carries the P of each half's two palindromes
    palindromes = [claim for claim, spec in CLAIMS.items() if spec.palindromes]
    assert palindromes == ["THM_FGC", "THM_MAIN"]
    for claim in palindromes:
        spec = CLAIMS[claim]
        assert (spec.index, spec.step) == (None, theorems._halves_step), claim


def _palindrome_walk(monkeypatch, symbols, max_len, processes=3):
    # every share of the right halves, ceil(max_len / 2) long, as that many processes of
    # verify deal them, each stepping its halves from the empty half, and each half turned
    # into its palindromes
    spec = theorems.ClaimSpec(
        "halves", lambda w, index, state: None, step=theorems._halves_step, palindromes=True
    )
    return [
        item
        for head, share in _shares(monkeypatch, spec, symbols, max_len, processes)
        for item in theorems._palindromes(
            symbols, _share(spec, symbols, max_len, head, share), max_len
        )
    ]


_oracle_profile = functools.cache(oracle.palindromic_complexity)


# at this cap ab/16 and ab/15 deal 8 heads of 4 letters, abc/10 5 of 3, abcd/8 and ba/12 2 of 2,
# and a/300 its one head of 119 letters, so the other processes step the halves above it only
@pytest.mark.parametrize(
    "symbols,max_len",
    [("ab", 16), ("ab", 15), ("abc", 10), ("abcd", 8), ("ba", 12), ("a", 300), ("ab", 1),
     ("ab", 0)],
)
def test_stepped_profile_is_the_palindromic_complexity(monkeypatch, symbols, max_len):
    monkeypatch.setattr(theorems, "_BLOCK_CAP", 32)
    for processes in (1, 2, 3):
        walked = _palindrome_walk(monkeypatch, symbols, max_len, processes)
        assert len(walked) == len({p for p, _, _ in walked}) > max_len // 2
        for p, _, profile in walked:
            assert profile == _oracle_profile(p), (processes, p)
            # P(0) = 1 and P(|p|+1) = 0, which THM_FGC's skip of the palindromes that are
            # not rich rests on (test_the_coupling_at_every_n_forces_richness)
            assert profile[0] == 1 and profile[-1] == 0, (processes, p)


def test_halves_step_from_the_empty_half():
    # the empty half has only the empty palindrome, a its odd one a and its even one aa
    assert theorems._halves_step("", None, True) == ([1, 0],)
    assert theorems._halves_step("a", None, ([1, 0],)) == ([1, 1, 0], [1, 1, 1, 0])
    # ab: bab adds b and itself to a, and baab adds b, baab and nothing else to aa
    assert theorems._halves_step("ab", None, ([1, 1, 0], [1, 1, 1, 0])) == (
        [1, 2, 0, 1, 0],
        [1, 2, 1, 0, 1, 0],
    )


@pytest.mark.parametrize(
    "symbols,max_len",
    [("ab", 14), ("ab", 13), ("abc", 8), ("abc", 7), ("ba", 12), ("cab", 8), ("a", 9), ("ab", 0)],
)
def test_palindrome_walk_yields_each_palindrome_once(monkeypatch, symbols, max_len):
    walked = _palindrome_walk(monkeypatch, symbols, max_len)
    # each palindrome as built from its canonical half, not renamed, so bab for ab; one of
    # each renaming class, whose canonical forms are the oracle's canonical palindromes
    canonical = [_canonical_form(p, symbols) for p, _, _ in walked]
    assert len(canonical) == len(set(canonical))
    palindromes = [w for w in words_up_to(symbols, max_len) if w == w[::-1]]
    assert sorted(canonical) == sorted(w for w in palindromes if _is_canonical(w, symbols))
    built = [p for p, _, _ in walked]
    assert max_len < 3 or len(symbols) == 1 or not all(_is_canonical(p, symbols) for p in built)
    # p stands for the words of its length that end in a renaming of its right half
    k = len(symbols)
    assert all(weight == _weight(p, symbols) * k ** (len(p) // 2) for p, weight, _ in walked)
    renamings = [v for p, _, _ in walked for v in theorems._renamings(p, symbols)]
    assert sorted(renamings) == sorted(palindromes)


@pytest.mark.parametrize("symbols,max_len", [("ab", 8), ("abc", 6), ("cab", 5), ("abcd", 5)])
def test_renamings_are_every_injective_renaming_of_any_word(symbols, max_len):
    # canonical or not, as the palindrome walk's words need not be: a word's letters are taken
    # in order of first appearance, so its images are the words of its length with its
    # canonical form, each once, itself among them, and first when it is canonical
    classes = collections.defaultdict(list)
    for w in words_up_to(symbols, max_len):
        classes[_canonical_form(w, symbols)].append(w)
    for w in words_up_to(symbols, max_len):
        images = theorems._renamings(w, symbols)
        assert sorted(images) == sorted(classes[_canonical_form(w, symbols)]), w
        assert len(images) == _weight(w, symbols) and images.count(w) == 1, w
        assert images[0] == w or not _is_canonical(w, symbols), w


# ab/24 and abc/15 deal their halves at 2 heads, ab/25 at 4
@pytest.mark.parametrize(
    "symbols,max_len", [("ab", 24), ("ab", 25), ("abc", 15), ("abcd", 10), ("a", 40)]
)
def test_palindrome_walk_weights_count_every_word(monkeypatch, symbols, max_len):
    # a word of length n has one right half, its last ceil(n/2) symbols, and so one
    # palindrome of its length with that half: the palindromes partition the words
    per_length = [0] * (max_len + 1)
    for p, weight, _ in _palindrome_walk(monkeypatch, symbols, max_len):
        per_length[len(p)] += weight
    assert per_length == [len(symbols) ** n for n in range(max_len + 1)]


@pytest.mark.parametrize("claim", [c for c, spec in CLAIMS.items() if spec.palindromes])
def test_palindrome_claims_are_refused_at_the_full_count(claim):
    # the budget counts every word, as for the claims that walk every word
    for symbols, max_len in (("ab", 9), ("abc", 6)):
        total = word_count(len(symbols), max_len)
        with pytest.raises(BudgetExceededError):
            verify_claim(claim, symbols, max_len, budget=total - 1)
        assert verify_claim(claim, symbols, max_len, budget=total).words_checked == total


def test_the_pruned_claims_are_those_with_a_falsy_state():
    # PRUNED_TO names the claims whose walks stop early: every claim whose state can be falsy
    falsy = {
        claim
        for claim in CLAIMS
        if claim in STEPS
        and not all(state for state, _ in _own_states_and_verdicts(claim, "abc", 7).values())
    }
    assert falsy == set(PRUNED_TO)


@pytest.mark.parametrize("claim", [c for c, spec in CLAIMS.items() if spec.step])
def test_steps_never_run_under_a_false_parent(monkeypatch, claim):
    spec = theorems.CLAIMS[claim]
    stepped, states = [], []

    def step(w, index, parent):
        assert parent, (w, parent)
        stepped.append(w)
        states.append(spec.step(w, index, parent))
        return states[-1]

    monkeypatch.setitem(theorems.CLAIMS, claim, dataclasses.replace(spec, step=step))
    assert verify_claim(claim, "abc", 7).verified
    # abc, and so abcaa, is not trapezoidal, and abca, and so abcaa, is not rich; a sequential
    # verify steps each word its walk reaches once, in walk order, and the palindrome claims
    # each right half, 4 letters long at most
    walked = [w for w, _, _ in theorems._walk("abc", 4 if spec.palindromes else 7)]
    if claim in PRUNED_TO:  # the empty word, and the children of the class's words, are stepped
        assert stepped == [w for w in walked if not w or PRUNED_TO[claim](w[:-1])]
        assert "abcaa" not in stepped and False in states
    else:  # values are never falsy, so every word is stepped
        assert all(states) and stepped == walked


def _stepped_from_the_empty_word(name, w):
    index_class, step = STEPS[name]
    index = index_class() if index_class else None
    state = True  # the empty word's parent state
    for n in range(len(w) + 1):
        if index is not None and n:
            index.append(w[n - 1])
        state = state and step(w[:n], index, state)
    return state


@pytest.mark.parametrize("name", list(STEPS))
def test_walk_yields_the_state_stepped_along_each_prefix(monkeypatch, name):
    # and stops below each falsy one, in every share of three processes
    index_class, step = STEPS[name]
    spec = theorems.ClaimSpec(name, lambda w, index, state: None, index_class, step)
    monkeypatch.setattr(theorems, "_BLOCK_CAP", 32)
    kept = functools.cache(lambda w: _stepped_from_the_empty_word(name, w))
    for head, share in _shares(monkeypatch, spec, "abc", 7, 3):
        walked = _share(spec, "abc", 7, head, share)
        assert [w for w, _, _ in walked] == _kept_walk("abc", 7, kept, head, share), share
        for w, _, state in walked:
            assert state == kept(w), w


def test_pal_bound_reports_a_count_above_the_bound():
    assert theorems._check_pal_bound("abab", None, 5) is None
    assert theorems._check_pal_bound("abab", None, 6) == (
        "6 distinct palindromic factors, bound is 5"
    )


def _trapezoidal_only(claim):
    original = theorems.CLAIMS[claim].checker

    def checker(w, index, state):
        assert state == (r_index(w), k_index(w)) and is_trapezoidal(w), w
        return original(w, index, state)

    return checker


@pytest.mark.parametrize("claim", ["PROP2", "BINARY_TRAP"])
@pytest.mark.parametrize("symbols,max_len", [("ab", 10), ("abc", 7)])
def test_restricted_checkers_see_only_trapezoidal_words(monkeypatch, claim, symbols, max_len):
    spec = theorems.CLAIMS[claim]
    monkeypatch.setitem(
        theorems.CLAIMS, claim, dataclasses.replace(spec, checker=_trapezoidal_only(claim))
    )
    report = verify_claim(claim, symbols, max_len)
    assert report.verified and report.words_checked == word_count(len(symbols), max_len)


def _planted_everywhere(w, index=None, flag=None):
    return "planted"


@functools.cache
def _trapezoidal_words(symbols, max_len):
    return [w for w in words_up_to(symbols, max_len) if is_trapezoidal(w)]


# ba/12 and cab/8 deal 2 heads each; at abc/10 PROP2's walk reaches 11 heads of length 4, deals
# the 8 that are trapezoidal, and counts the subtrees of the other 3 in share 0
@pytest.mark.parametrize(
    "symbols,max_len",
    [("ba", 12), ("cab", 8), ("abc", 10), ("ab", 14), ("abc", 8), ("abcd", 6), ("a", 30)],
)
@pytest.mark.parametrize("workers", [1, 2])
def test_restricted_claim_reports_every_trapezoidal_word_in_order(
    monkeypatch, symbols, max_len, workers
):
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: 2)
    expected = [(w, "planted") for w in _trapezoidal_words(symbols, max_len)]
    for claim in ("PROP2", "BINARY_TRAP"):
        spec = theorems.CLAIMS[claim]
        monkeypatch.setitem(
            theorems.CLAIMS, claim, dataclasses.replace(spec, checker=_planted_everywhere)
        )
        report = verify_claim(claim, symbols, max_len, workers=workers)
        assert report.counterexamples == expected, claim
        assert report.words_checked == word_count(len(symbols), max_len), claim


def _checked_words(claim, symbols, max_len):
    # the words a claim's checker sees: those of the class its walk keeps, the palindromes, or all
    words = words_up_to(symbols, max_len)
    if claim in PRUNED_TO:
        return [w for w in words if PRUNED_TO[claim](w)]
    return [w for w in words if w == w[::-1]] if CLAIMS[claim].palindromes else list(words)


# at this cap every bound but a/31 deals several heads, and the palindrome walk's halves too;
# the odd bounds drop the even palindromes of the longest halves
@pytest.mark.parametrize("claim", [c for c in CLAIMS if c not in PRUNED_TO])
@pytest.mark.parametrize("workers", [1, 2])
def test_claims_outside_the_restriction_check_every_word(monkeypatch, claim, workers):
    spec = dataclasses.replace(theorems.CLAIMS[claim], checker=_planted_everywhere)
    monkeypatch.setitem(theorems.CLAIMS, claim, spec)
    monkeypatch.setattr(theorems, "_BLOCK_CAP", 32)
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: 2)
    for symbols, max_len in (("abc", 7), ("ba", 11), ("cab", 8), ("ba", 12), ("a", 31)):
        report = verify_claim(claim, symbols, max_len, workers=workers)
        expected = [(w, "planted") for w in _checked_words(claim, symbols, max_len)]
        assert report.counterexamples == expected, symbols
        assert report.words_checked == word_count(len(symbols), max_len), symbols


def _tree_whose_count_says(rich):
    class PlantedTree(PalindromeIndex):
        """A tree whose count calls every nonempty word rich, or none."""

        @property
        def palindrome_count(self):
            return len(self._chars) if rich else -1

    return PlantedTree


def _never(w):
    return False


def _always(w):
    return True


# PROP1's two flags against the oracle: both routes as they are, or one of them with the
# other planted false, so that the walk prunes by one route alone, or with the count planted
# true, so that nothing is pruned and the returns flag is stepped under parents that are not
# rich by returns
PROP1_ROUTES = {
    "both": (_rich_by_returns, _rich_by_count),
    "count": (_never, _rich_by_count),
    "returns": (_rich_by_returns, _never),
    "returns-under-a-true-count": (_rich_by_returns, _always),
}


def _plant_prop1_routes(monkeypatch, routes):
    """Plant the routes PROP1_ROUTES names; return the state PROP1 must carry for a word."""
    by_returns, by_count = PROP1_ROUTES[routes]
    if by_returns is _never:
        monkeypatch.setattr(theorems, "_end_returns_are_palindromes", _never)
    if by_count is not _rich_by_count:
        tree = _tree_whose_count_says(by_count is _always)
        monkeypatch.setitem(
            theorems.CLAIMS, "PROP1", dataclasses.replace(theorems.CLAIMS["PROP1"], index=tree)
        )

    def state(w):
        flags = (by_returns(w), by_count(w)) if w else (True, True)
        return any(flags) and flags

    return state


PROP1_BOUNDS = [("ab", 12), ("abc", 7), ("abcd", 6), ("ba", 11)]


def _quoting_the_state(w, index, state):
    return repr(state)


# at this cap the walks deal 14 to 126 heads, and with both routes they reach 7 heads rich by
# neither, whose subtrees share 0 counts
@pytest.mark.parametrize("routes", list(PROP1_ROUTES))
@pytest.mark.parametrize("workers", [1, 2])
def test_prop1_checks_exactly_the_words_rich_by_either_route(monkeypatch, routes, workers):
    state = _plant_prop1_routes(monkeypatch, routes)
    spec = dataclasses.replace(theorems.CLAIMS["PROP1"], checker=_quoting_the_state)
    monkeypatch.setitem(theorems.CLAIMS, "PROP1", spec)
    monkeypatch.setattr(theorems, "_BLOCK_CAP", 32)
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: 2)
    for symbols, max_len in PROP1_BOUNDS:
        report = verify_claim("PROP1", symbols, max_len, workers=workers)
        words = words_up_to(symbols, max_len)
        assert report.counterexamples == [(w, repr(state(w))) for w in words if state(w)], symbols
        assert report.words_checked == word_count(len(symbols), max_len), symbols


@pytest.mark.parametrize("routes", list(PROP1_ROUTES))
@pytest.mark.parametrize("workers", [1, 2])
def test_prop1_steps_the_empty_word_and_the_children_of_rich_words(monkeypatch, routes, workers):
    # with two workers the fork stand-in runs the child's share in this process, so the steps
    # are recorded here
    state = _plant_prop1_routes(monkeypatch, routes)
    spec, stepped = theorems.CLAIMS["PROP1"], []

    def step(w, index, parent):
        assert parent, (w, parent)
        stepped.append(w)
        return spec.step(w, index, parent)

    monkeypatch.setitem(
        theorems.CLAIMS,
        "PROP1",
        dataclasses.replace(spec, checker=lambda w, index, state: None, step=step),
    )
    monkeypatch.setattr(theorems, "_BLOCK_CAP", 32)
    _fork_in_process(monkeypatch)
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: 2)
    for symbols, max_len in PROP1_BOUNDS:
        stepped.clear()
        report = verify_claim("PROP1", symbols, max_len, workers=workers)
        assert report.words_checked == word_count(len(symbols), max_len), symbols
        expected = [
            w
            for w in words_up_to(symbols, max_len)
            if _is_canonical(w, symbols) and (not w or state(w[:-1]))
        ]
        # each process steps the words down to the head length, so compare the words, not
        # the calls
        assert sorted(set(stepped)) == sorted(expected), symbols


def test_prop1_catches_a_pop_that_keeps_the_node(monkeypatch):
    def leaky_pop(self):
        # undoes the append but leaves any node it created in the tree
        self.prefix_counts.pop()
        self._suffix.pop()
        return self._chars.pop()

    assert verify_claim("PROP1", "ab", 8).verified
    monkeypatch.setattr(PalindromeIndex, "pop", leaky_pop)
    assert not verify_claim("PROP1", "ab", 8).verified


def test_profile_equiv_reads_the_carried_automaton(monkeypatch):
    append, pop = SuffixAutomaton.append, SuffixAutomaton.pop

    def shift(d, repeated, by):  # move the +1 of an append at index L to L + 1, or back
        if repeated + 1 < len(d):
            d[repeated] -= by
            d[repeated + 1] += by

    def shifted_append(self, ch):
        repeated = append(self, ch)
        shift(self.difference, repeated, 1)
        return repeated

    def shifted_pop(self):
        shift(self.difference, self.length[self.link[self._last[-1]]], -1)
        return pop(self)

    assert verify_claim("PROFILE_EQUIV", "ab", 8).verified
    monkeypatch.setattr(SuffixAutomaton, "append", shifted_append)
    monkeypatch.setattr(SuffixAutomaton, "pop", shifted_pop)
    report = verify_claim("PROFILE_EQUIV", "ab", 8)
    assert ("aab", "index trapezoidal=True, difference-profile runs=None") in report.counterexamples


def _index_step_calls(monkeypatch, claim, symbols, max_len):
    """The words R's and K's steps run on in one sequential verify of the claim."""
    calls = {"_r_index_step": [], "_k_index_step": []}
    with monkeypatch.context() as patch:
        for name, words in calls.items():
            kernel = getattr(theorems, name)

            def recorded(w, value, kernel=kernel, words=words):
                words.append(w)
                return kernel(w, value)

            patch.setattr(theorems, name, recorded)
        assert verify_claim(claim, symbols, max_len).verified
    return calls["_r_index_step"], calls["_k_index_step"]


@pytest.mark.parametrize("symbols,max_len", [("ab", 12), ("abc", 7), ("ba", 11)])
def test_profile_equiv_steps_r_and_k_only_where_prop2_walks(monkeypatch, symbols, max_len):
    # below a non-trapezoidal word the index route is settled, not stepped: R and K run only
    # on the children of trapezoidal words, as PROP2 steps them, call for call
    r_calls, k_calls = _index_step_calls(monkeypatch, "PROFILE_EQUIV", symbols, max_len)
    assert r_calls == k_calls == _index_step_calls(monkeypatch, "PROP2", symbols, max_len)[0]
    canonical = [w for w in words_up_to(symbols, max_len) if w and _is_canonical(w, symbols)]
    assert sorted(r_calls) == sorted(w for w in canonical if is_trapezoidal(w[:-1]))
    assert len(set(r_calls)) < len(canonical) // 2


@pytest.mark.parametrize("claim", ["BINARY_TRAP", "PROFILE_EQUIV"])
def test_sequential_verify_steps_r_once_per_word(monkeypatch, claim):
    # the 6 467 canonical words at ab/20 whose parents are trapezoidal, each once, where a walk
    # that started each subtree from its head's parent stepped each head twice (6 562 calls
    # for BINARY_TRAP, 6 607 for PROFILE_EQUIV)
    r_calls, _ = _index_step_calls(monkeypatch, claim, "ab", 20)
    assert len(r_calls) == len(set(r_calls)) == 6467


@pytest.mark.parametrize("claim", [c for c, spec in CLAIMS.items() if spec.step])
def test_a_failing_word_and_its_renamings_are_stepped_only_by_the_walk(monkeypatch, claim):
    # every checked word fails, so every renaming of each is reported; each renaming is checked
    # with the state the walk carried to its canonical form, not stepped again, so the steps
    # are the walk's: each canonical word once
    spec, stepped = CLAIMS[claim], []

    def step(w, index, parent):
        stepped.append(w)
        return spec.step(w, index, parent)

    failing = dataclasses.replace(spec, checker=lambda w, index, state: f"at {w!r}", step=step)
    monkeypatch.setitem(theorems.CLAIMS, claim, failing)
    report = verify_claim(claim, "abc", 6)
    assert report.counterexamples == [(w, f"at {w!r}") for w in _checked_words(claim, "abc", 6)]
    assert all(_is_canonical(w, "abc") for w in stepped)
    assert len(stepped) == len(set(stepped))


def _stub_automaton(difference):
    class StubAutomaton:
        def __init__(self, w):
            self.difference = list(difference)

    return StubAutomaton


def test_thm_fgc_checks_the_coupling_of_the_rich_palindromes_alone(monkeypatch):
    # the checker reads the P the walk carries and builds its own automaton of w
    check = theorems._check_thm_fgc
    assert check("aba", None, [1, 2, 0, 1, 0]) is None
    assert check("ab", None, None) is None
    # a planted D, summing to 0 as every automaton's does, breaks the coupling of the rich
    # palindrome aba at n = 1
    monkeypatch.setattr(theorems, "SuffixAutomaton", _stub_automaton([1, 1, -2]))
    assert check("aba", None, [1, 2, 0, 1, 0]) == (
        "rich palindrome but P(n)+P(n+1) != C(n+1)-C(n)+2 at n=1: 2 != 3"
    )
    # a P that misses the b of aba says it is not rich, which settles it before any D is built:
    # no D that sums to 0 meets the coupling with a P that sums to 3
    # (test_the_coupling_at_every_n_forces_richness)
    monkeypatch.setattr(theorems, "SuffixAutomaton", _refused("SuffixAutomaton"))
    assert check("aba", None, [1, 1, 0, 1, 0]) is None
    # a non-palindrome is settled before any P is read, whatever P would say
    assert check("ab", None, [1, 1, 1, 2]) is None


# every stepped P has P(0) = 1 and P(N+1) = 0, and every automaton's D sums to 0
# (test_stepped_profile_is_the_palindromic_complexity,
# test_walk_automaton_is_the_automaton_of_each_word, test_difference_values_sum_to_zero_exhaustive);
# with those, the coupling at every 0 <= n <= N telescopes to 2 sum P - 1 = 2N + 1, so
# _check_thm_fgc passes a palindrome whose P sums to anything but N + 1 without building D
@given(st.lists(st.integers(-4, 4), max_size=24))
def test_the_coupling_at_every_n_forces_richness(head):
    # every such P and D for N >= 2: D(0..N-3) is head, P follows from P(0) = 1 by the
    # coupling, and D's last two terms are fixed by sum D = 0 and by the n = N term, which
    # reads P(N) + 0 = -1 + 2; P(m) = 1 + sum head (mod 2), so they are integers
    p, total = [1], sum(head)
    for x in head:
        p.append(x + 2 - p[-1])
    last = (1 - p[-1] - total) // 2
    d = [*head, -total - last, last]
    for x in d[-2:]:
        p.append(x + 2 - p[-1])
    p.append(0)
    assert sum(d) == 0 and next(theorems._B_mismatches(d, p), None) is None
    assert sum(p) == len(p) - 1
    # and the one pair each for N = 0 and N = 1
    for p, d in (([1, 0], []), ([1, 1, 0], [0])):
        assert next(theorems._B_mismatches(d, p), None) is None and sum(p) == len(p) - 1


def _one_palindrome_short(monkeypatch):
    class OneShort(PalindromeIndex):
        """A tree whose count misses one palindrome of every nonempty word."""

        @property
        def palindrome_count(self):
            return super().palindrome_count - bool(self._chars)

    spec = dataclasses.replace(theorems.CLAIMS["PROP2"], index=OneShort)
    monkeypatch.setitem(theorems.CLAIMS, "PROP2", spec)
    return lambda w: "trapezoidal but not rich" if w and is_trapezoidal(w) else None


def _trapezoidal_verdict_flipped(monkeypatch):
    # on a palindrome the other two routes agree with the true verdict (THM_MAIN), so each
    # palindrome is reported, with that verdict twice and its negation once
    monkeypatch.setattr(theorems, "is_trapezoidal", lambda w: not is_trapezoidal(w))

    def diagnostic(w):
        if w != w[::-1]:
            return None
        t = is_trapezoidal(w)
        return f"sturmian palindrome={t}, symmetric P-profile={t}, trapezoidal palindrome={not t}"

    return diagnostic


def _periods_one_short(monkeypatch):
    # still a valid start for each child's scan, as the period never decreases along prefixes
    original = theorems._minimal_period_from
    monkeypatch.setattr(theorems, "_minimal_period_from", lambda w, start: original(w, start) - 1)

    def diagnostic(w):
        period, bound = len(w) - len(oracle.longest_border(w)) - 1, r_index(w) + 1
        return f"minimal period {period} < R+1 = {bound}" if w and period < bound else None

    return diagnostic


def _every_word_trapezoidal(monkeypatch):
    # R + K = |w| on every word, so nothing is pruned and every word of 3+ letters is reported
    monkeypatch.setattr(
        theorems, "_r_and_k_step", lambda w, index, parent: (r_index(w), len(w) - r_index(w))
    )

    def diagnostic(w):
        symbols = len(set(w))
        return f"trapezoidal word over {symbols} distinct symbols" if symbols >= 3 else None

    return diagnostic


def _every_return_a_palindrome(monkeypatch):
    # every word is then rich by returns, so nothing is pruned, and each word that is not
    # rich by count is reported
    monkeypatch.setattr(theorems, "_end_returns_are_palindromes", lambda w: True)

    def diagnostic(w):
        return None if rich_by_definition(w) else "rich by count=False, rich by returns=True"

    return diagnostic


def _new_palindromes_counted_twice(monkeypatch):
    # the count of P distinct palindromic factors, the empty word included, reads 2P - 1
    original = theorems._palindromic_suffixes

    def twice(w):
        new, prev = original(w)
        return new + new, prev

    monkeypatch.setattr(theorems, "_palindromic_suffixes", twice)

    def diagnostic(w):
        count = 2 * len(oracle.palindromic_factors(w)) - 1
        bound = len(w) + 1
        return f"{count} distinct palindromic factors, bound is {bound}" if count > bound else None

    return diagnostic


def _first_difference_one_high(monkeypatch):
    # for L letters the coupling at n = 0 reads 1 + L = (L - 1) + 2 on every word, so it now
    # fails on every nonempty palindrome: each rich one is reported there, and no other
    class OneHigh(SuffixAutomaton):
        def __init__(self, w=""):
            super().__init__(w)
            if w:
                self.difference[0] += 1

    monkeypatch.setattr(theorems, "SuffixAutomaton", OneHigh)

    def diagnostic(w):
        if not w or w != w[::-1] or not rich_by_definition(w):
            return None
        lhs = 1 + len(set(w))
        return f"rich palindrome but P(n)+P(n+1) != C(n+1)-C(n)+2 at n=0: {lhs} != {lhs + 1}"

    return diagnostic


def _no_run_decomposition(monkeypatch):
    # the profile route calls every word non-trapezoidal, so each nonempty trapezoidal word
    # is reported
    monkeypatch.setattr(theorems, "_run_decomposition", lambda d: None)

    def diagnostic(w):
        runs = "index trapezoidal=True, difference-profile runs=None"
        return runs if w and is_trapezoidal(w) else None

    return diagnostic


def _k_one_high_at_length_six(monkeypatch):
    # some words below a non-trapezoidal one are lifted to |w| = R + K (see
    # test_trap_closed_guards_the_settled_route_of_profile_equiv)
    k_step = theorems._k_index_step
    monkeypatch.setattr(theorems, "_k_index_step", lambda w, k: k_step(w, k) + (len(w) == 6))

    def diagnostic(w):
        # each word on its own, its state stepped along its prefixes by the planted kernel
        state = _stepped_from_the_empty_word("TRAP_CLOSED", w)
        return theorems._check_trap_closed(w, None, state)

    return diagnostic


def _plant_in_halves_step(monkeypatch, plant):
    # both palindrome claims step with plant applied to each P the halves step gives past its
    # base cases (the empty word, each letter x and each xx), that of a palindrome xpx
    step = theorems._halves_step

    def planted(h, index, parent):
        profiles = step(h, index, parent)
        return profiles if len(h) < 2 else tuple(plant(p) for p in profiles)

    for claim in ("THM_FGC", "THM_MAIN"):
        spec = dataclasses.replace(theorems.CLAIMS[claim], step=planted)
        monkeypatch.setitem(theorems.CLAIMS, claim, spec)


def _xpx_counted_one_length_short(monkeypatch):
    """Plant a halves step that counts each palindrome xpx it adds at |xpx| - 1.

    Returns the P each palindrome w then carries: the oracle's, with each of its central
    palindromes w[i:|w| - i] of 3 letters or more, which the step adds, moved one length
    down."""
    _plant_in_halves_step(monkeypatch, lambda p: p[:-3] + [p[-3] + 1, p[-2] - 1, 0])

    def profile(w):
        p = list(oracle.palindromic_complexity(w))
        for n in range(len(w), 2, -2):
            p[n] -= 1
            p[n - 1] += 1
        return p

    return profile


def _coupling_broken_by_xpx_one_short(monkeypatch):
    # the sum of P holds, so a rich palindrome stays rich, but P(|w|) = 0 breaks its coupling:
    # each rich one the step builds is reported at its first mismatch
    profile = _xpx_counted_one_length_short(monkeypatch)

    def diagnostic(w):
        if len(w) < 3 or w != w[::-1] or not rich_by_definition(w):
            return None
        p, c = profile(w), oracle.subword_complexity(w)
        n, lhs, rhs = next(
            (n, p[n] + p[n + 1], c[n + 1] - c[n] + 2)
            for n in range(len(w) + 1)
            if p[n] + p[n + 1] != c[n + 1] - c[n] + 2
        )
        return f"rich palindrome but P(n)+P(n+1) != C(n+1)-C(n)+2 at n={n}: {lhs} != {rhs}"

    return diagnostic


def _symmetry_broken(w):
    # the diagnostic of each Sturmian palindrome, trapezoidal too, that the halves step builds,
    # when none of those has a symmetric profile
    if len(w) < 3 or w != w[::-1] or not is_finite_sturmian(w):
        return None
    return "sturmian palindrome=True, symmetric P-profile=False, trapezoidal palindrome=True"


def _symmetry_broken_by_xpx_one_short(monkeypatch):
    # P(0) + P(|w|) = 1, so no palindrome the step builds has a symmetric profile
    _xpx_counted_one_length_short(monkeypatch)
    return _symmetry_broken


def _symmetry_broken_by_xpx_dropped(monkeypatch):
    # a halves step that forgets the one at |xpx| for xpx itself: P(|w|) = 0 again, so
    # THM_MAIN reports each Sturmian palindrome it builds.  THM_FGC reports none: P sums to
    # less than |w| + 1, and both its routes read that sum, richness directly and the
    # coupling as it telescopes, so both say "not rich" (ROADMAP item 3)
    _plant_in_halves_step(monkeypatch, lambda p: p[:-2] + [p[-2] - 1, 0])
    return _symmetry_broken


# claim, or claim/fault -> a plant in the kernel or step its checker reads, returning the
# diagnostic each word must then get (None for none), and the exact text of some of them
PLANTED_FAULTS = {
    "PROP1": (_every_return_a_palindrome, {"acba": "rich by count=False, rich by returns=True"}),
    "PROP2": (_one_palindrome_short, {"ab": "trapezoidal but not rich"}),
    "THM_FGC": (
        _first_difference_one_high,
        {"bab": "rich palindrome but P(n)+P(n+1) != C(n+1)-C(n)+2 at n=0: 3 != 4"},
    ),
    "THM_MAIN": (
        _trapezoidal_verdict_flipped,
        {
            "aba": "sturmian palindrome=True, symmetric P-profile=True, "
            "trapezoidal palindrome=False",
            "aabbaa": "sturmian palindrome=False, symmetric P-profile=False, "
            "trapezoidal palindrome=True",
        },
    ),
    "PAL_BOUND": (
        _new_palindromes_counted_twice,
        {"ba": "5 distinct palindromic factors, bound is 3"},
    ),
    "PERIOD_INEQ": (
        _periods_one_short,
        {"a": "minimal period 0 < R+1 = 1", "aab": "minimal period 2 < R+1 = 3"},
    ),
    "BINARY_TRAP": (
        _every_word_trapezoidal,
        {
            "abc": "trapezoidal word over 3 distinct symbols",
            "abcd": "trapezoidal word over 4 distinct symbols",
        },
    ),
    "PROFILE_EQUIV": (
        _no_run_decomposition,
        {"ba": "index trapezoidal=True, difference-profile runs=None"},
    ),
    "TRAP_CLOSED": (
        _k_one_high_at_length_six,
        {  # a renaming quotes its own w[1:], not its canonical form's
            "abaabb": "trapezoidal, but w[1:] = 'baabb' is not",
            "babbaa": "trapezoidal, but w[1:] = 'abbaa' is not",
        },
    ),
    "THM_FGC/xpx": (
        _coupling_broken_by_xpx_one_short,
        {
            "aba": "rich palindrome but P(n)+P(n+1) != C(n+1)-C(n)+2 at n=1: 3 != 2",
            "abba": "rich palindrome but P(n)+P(n+1) != C(n+1)-C(n)+2 at n=2: 2 != 1",
        },
    ),
    "THM_MAIN/xpx": (
        _symmetry_broken_by_xpx_one_short,
        {
            "aba": "sturmian palindrome=True, symmetric P-profile=False, "
            "trapezoidal palindrome=True",
            "aa": None,  # a base case of the step
        },
    ),
    "THM_MAIN/drop": (
        _symmetry_broken_by_xpx_dropped,
        {
            "bab": "sturmian palindrome=True, symmetric P-profile=False, "
            "trapezoidal palindrome=True",
            "abcba": None,  # not Sturmian, so all three routes say False
        },
    ),
}


@pytest.mark.parametrize("fault", list(PLANTED_FAULTS))
def test_planted_faults_are_reported_with_their_diagnostics(monkeypatch, fault):
    claim = fault.partition("/")[0]
    plant, pinned = PLANTED_FAULTS[fault]
    diagnostic = plant(monkeypatch)
    monkeypatch.setattr(theorems, "_BLOCK_CAP", 32)
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: 2)
    reported = {}
    for symbols, max_len in (("ab", 10), ("abc", 7), ("abcd", 5), ("ba", 8)):
        sequential, parallel = (verify_claim(claim, symbols, max_len, workers=n) for n in (1, 2))
        assert sequential.to_json_dict() == parallel.to_json_dict(), symbols
        words = words_up_to(symbols, max_len)
        assert sequential.counterexamples == [(w, d) for w in words if (d := diagnostic(w))]
        reported.update(sequential.counterexamples)
    assert {w: reported.get(w) for w in pinned} == pinned


def _palindromes_up_to(k, max_len):
    # a palindrome of length n is fixed by its first ceil(n/2) symbols; the empty word is one
    return 1 + sum(k ** ((n + 1) // 2) for n in range(1, max_len + 1))


def _refused(name):
    def refuse(*args):
        raise AssertionError(f"{name} called on {args[-1:]}")

    return refuse


def _settle_non_palindromes(check, symbols, max_len):
    # the palindrome of each one's length and right half stands for it, unwalked, because
    # the checker passes each
    settled = 0
    for w in words_up_to(symbols, max_len):
        if w != w[::-1]:
            assert check(w, None, None) is None, w
            settled += 1
    assert settled == word_count(len(symbols), max_len) - _palindromes_up_to(len(symbols), max_len)


@pytest.mark.parametrize("symbols,max_len", [("ab", 10), ("abc", 7)])
def test_thm_fgc_settles_a_non_palindrome_without_d(monkeypatch, symbols, max_len):
    for cls in (SuffixAutomaton, PalindromeIndex):
        monkeypatch.setattr(cls, "__init__", _refused(cls.__name__))
    _settle_non_palindromes(theorems._check_thm_fgc, symbols, max_len)


@pytest.mark.parametrize("symbols,max_len", [("ab", 12), ("abc", 8)])
def test_thm_main_settles_a_non_palindrome_without_its_conditions(monkeypatch, symbols, max_len):
    for name in ("is_finite_sturmian", "_symmetric_profile", "is_trapezoidal"):
        monkeypatch.setattr(theorems, name, _refused(name))
    _settle_non_palindromes(theorems._check_thm_main, symbols, max_len)


def _record_builds(monkeypatch, cls):
    init, words = cls.__init__, []

    def counted(self, word=""):
        words.append(word)
        init(self, word)

    monkeypatch.setattr(cls, "__init__", counted)
    return words


# ab/16 has 511 canonical palindromes, 14 of them not rich, and abc/10 127, 16 not rich (ab/12
# has none, abc/7 one)
@pytest.mark.parametrize("symbols,max_len,not_rich", [("ab", 16, 14), ("abc", 10, 16)])
def test_thm_fgc_builds_one_automaton_per_rich_palindrome(monkeypatch, symbols, max_len, not_rich):
    palindromes = [w for w in words_up_to(symbols, max_len) if w == w[::-1]]
    assert len(palindromes) == _palindromes_up_to(len(symbols), max_len)
    rich = {w for w in palindromes if len(oracle.palindromic_factors(w)) == len(w) + 1}
    canonical = [w for w in palindromes if _is_canonical(w, symbols)]
    assert sum(w not in rich for w in canonical) == not_rich
    automata = _record_builds(monkeypatch, SuffixAutomaton)
    trees = _record_builds(monkeypatch, PalindromeIndex)
    assert verify_claim("THM_FGC", symbols, max_len).verified
    # no tree, as P is stepped along the halves, and one automaton per rich palindrome of
    # each renaming class: their renamings are every rich palindrome, each once, and no other
    assert trees == []
    built = [v for w in automata for v in theorems._renamings(w, symbols)]
    assert sorted(built) == sorted(rich)
    assert len(automata) == len(canonical) - not_rich


def _trapezoidal_by_extension(symbols, max_len):
    # trapezoidal words are closed under prefixes, so each length extends the one before
    level, found = [""], [""]
    for _ in range(max_len):
        level = [w + s for w in level for s in symbols if is_trapezoidal(w + s)]
        found += level
    return found


# ab/18 deals subtrees of depth 10 under length-8 heads; with two processes the child's share,
# run here by the fork stand-in, pops its tree back over the heads dealt to this one
@pytest.mark.parametrize("symbols,max_len", [("ab", 14), ("abc", 8), ("ab", 18)])
@pytest.mark.parametrize("workers", [1, 2])
def test_prop2_reads_the_tree_of_each_trapezoidal_word(monkeypatch, symbols, max_len, workers):
    spec, seen = theorems.CLAIMS["PROP2"], []

    def checker(w, index, rk):
        assert index._chars == list(w), w
        assert index.palindrome_count == len(oracle.palindromic_factors(w)) - 1, w
        seen.append(w)
        return spec.checker(w, index, rk)

    monkeypatch.setitem(theorems.CLAIMS, "PROP2", dataclasses.replace(spec, checker=checker))
    _fork_in_process(monkeypatch)
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: 2)
    assert verify_claim("PROP2", symbols, max_len, workers=workers).verified
    renamings = [v for w in seen for v in theorems._renamings(w, symbols)]
    assert sorted(renamings) == sorted(_trapezoidal_by_extension(symbols, max_len))


def test_trap_closed_reports_each_non_trapezoidal_part():
    check = theorems._check_trap_closed
    assert check("ab", None, (1, 1, True)) is None
    assert check("abc", None, (1, 1, False)) is None  # not trapezoidal: nothing to check
    assert check("ab", None, (1, 1, False)) == "trapezoidal, but w[:-1] = 'a' is not"
    # planted states: the checker trusts the carried verdicts and rechecks the other two parts
    assert check("abca", None, (2, 2, True)) == "trapezoidal, but w[1:] = 'bca' is not"
    assert check("cab", None, (1, 2, True)) == "trapezoidal, but the reversal = 'bac' is not"


def test_trap_closed_guards_the_settled_route_of_profile_equiv(monkeypatch):
    """PROFILE_EQUIV settles its index route to False below a word with |w| != R + K and
    steps R and K no further there.  That rests on the closure TRAP_CLOSED checks, so this
    claim now guards PROFILE_EQUIV's settled route as it guards PROP2's and BINARY_TRAP's
    pruning: steps that lift a word below a non-trapezoidal one back to |w| = R + K, which
    the settled route would never see, must show in TRAP_CLOSED's report."""
    # one too many at length 6 passes the words with R + K = 5 for trapezoidal, such as
    # aabbaa, below aabba, which is not
    _k_one_high_at_length_six(monkeypatch)
    rk = {"": (0, 0)}
    for w in list(words_up_to("ab", 8))[1:]:  # shortest first, so each parent comes first
        rk[w] = theorems._r_and_k_step(w, None, rk[w[:-1]])
    lifted = [w for w in rk if w and len(w) == sum(rk[w]) and len(w) - 1 != sum(rk[w[:-1]])]
    assert "aabbaa" in lifted and len(lifted) == 78
    settled = _own_states_and_verdicts("PROFILE_EQUIV", "ab", 8)
    assert all(settled[w][0] == (False,) for w in lifted)  # the index route never sees them
    report = verify_claim("TRAP_CLOSED", "ab", 8)
    assert len(report.counterexamples) == 88  # and 10 whose w[1:] or reversal is not
    assert [hit for hit in report.counterexamples if "w[:-1]" in hit[1]] == [
        (w, f"trapezoidal, but w[:-1] = {w[:-1]!r} is not") for w in lifted
    ]


def _planted(w, index=None, flag=None):
    # fails on a scattered set of words, in every block
    return None if _scattered(w) else "planted"


# ba/10 and cab/6 fit under one head, the empty word; ba/12 and cab/8 deal 2 heads each
@pytest.mark.parametrize("symbols,max_len", [("ba", 10), ("cab", 6), ("ba", 12), ("cab", 8)])
@pytest.mark.parametrize("workers", [1, 2])
def test_counterexamples_in_length_then_alphabet_order(monkeypatch, symbols, max_len, workers):
    # PAL_BOUND's checker sees every word
    spec = theorems.CLAIMS["PAL_BOUND"]
    monkeypatch.setitem(theorems.CLAIMS, "PAL_BOUND", dataclasses.replace(spec, checker=_planted))
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: 2)
    report = verify_claim("PAL_BOUND", symbols, max_len, workers=workers)
    expected = [(w, "planted") for w in words_up_to(symbols, max_len) if _planted(w)]
    assert len(expected) > 100
    assert report.counterexamples == expected


def _planted_naming(w, index=None, state=None):
    # fails on the words _planted fails on, and names each one
    return None if _scattered(w) else f"planted at {w!r}"


@pytest.mark.parametrize("claim", list(CLAIMS))
@pytest.mark.parametrize("workers", [1, 2])
def test_each_renaming_of_a_counterexample_is_checked_on_its_own(monkeypatch, claim, workers):
    spec = dataclasses.replace(theorems.CLAIMS[claim], checker=_planted_naming)
    monkeypatch.setitem(theorems.CLAIMS, claim, spec)
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: 2)
    for symbols, max_len in (("cab", 8), ("abcd", 5)):
        checked = _checked_words(claim, symbols, max_len)
        expected = [(w, f"planted at {w!r}") for w in checked if not _scattered(w)]
        report = verify_claim(claim, symbols, max_len, workers=workers)
        assert report.counterexamples == expected, symbols


def test_trap_closed_quotes_the_parts_of_each_renaming(monkeypatch):
    # a planted trapezoidal test refuses every word whose first letter occurs exactly twice
    monkeypatch.setattr(theorems, "is_trapezoidal", lambda v: v.count(v[:1]) != 2)
    check = theorems._check_trap_closed
    expected = [
        (w, diag)
        for w in words_up_to("cab", 7)
        if (diag := check(w, None, (r_index(w), k_index(w), is_trapezoidal(w[:-1]))))
    ]
    assert len({diag for _, diag in expected}) > 100  # the diagnostics quote the words
    assert verify_claim("TRAP_CLOSED", "cab", 7).counterexamples == expected


def test_report_json_shape():
    d = verify_claim("PROP1", "ab", 4).to_json_dict()
    assert d["schema_version"] == 1
    assert d["claim"] == "PROP1"
    assert d["alphabet"] == "ab"
    assert d["max_len"] == 4
    assert d["words_checked"] == 31
    assert d["verified"] is True
    assert d["counterexamples"] == []
    assert "elapsed" not in str(d.keys())


def test_find_class_members_examples():
    assert "aabbaa" in find_class_members("rich_not_trapezoidal", "ab", 6)
    assert "aaabab" in find_class_members("trapezoidal_not_sturmian", "ab", 6)
    assert find_class_members("trapezoidal_not_sturmian", "ab", 3) == []
    assert find_class_members("sturmian_palindrome", "ab", 1) == ["a", "b"]


def test_find_class_members_is_sorted_and_filtered():
    members = find_class_members("palindrome", "ab", 4)
    assert members == sorted(members)
    assert all(len(w) == 4 and w == w[::-1] for w in members)
    assert members == ["aaaa", "abba", "baab", "bbbb"]


def test_find_class_members_unknown_predicate():
    with pytest.raises(ValueError, match="unknown predicate"):
        find_class_members("sparkly", "ab", 3)


def test_census_balanced_row():
    table = census("ab", 4)
    assert table.lengths == [1, 2, 3, 4]
    assert table.total == [2, 4, 8, 16]
    assert table.counts["balanced"] == [2, 4, 8, 14]


def test_census_rich_and_unary_rows():
    assert census("ab", 2).counts["rich"] == [2, 4]
    assert census("a", 3).counts["trapezoidal"] == [1, 1, 1]


def test_census_internal_consistency():
    table = census("ab", 7)
    for i, n in enumerate(table.lengths):
        assert table.total[i] == 2**n
        # trapezoidal words are rich
        assert table.counts["trapezoidal"][i] <= table.counts["rich"][i]
        # the three faces of the Sturmian-palindrome equivalence agree
        b_prime_words = find_class_members("condition_B_prime", "ab", n)
        assert all(w == w[::-1] for w in b_prime_words)
        trap_palindromes = [
            w for w in find_class_members("trapezoidal", "ab", n) if w == w[::-1]
        ]
        assert (
            table.counts["sturmian_palindrome"][i]
            == len(b_prime_words)
            == len(trap_palindromes)
        )


def _brute_force_census(alphabet: str, max_len: int) -> dict:
    """Every predicate on every word, one length at a time: no walk, no pruning.

    PREDICATES counts letters for balance, where census reads the palindromic tree."""
    out: dict = {"lengths": list(range(1, max_len + 1)), "total": []}
    out.update({name: [] for name in CENSUS_CLASSES})
    for n in out["lengths"]:
        words = ["".join(t) for t in itertools.product(alphabet, repeat=n)]
        out["total"].append(len(words))
        for name in CENSUS_CLASSES:
            out[name].append(sum(1 for w in words if PREDICATES[name](w)))
    return out


@pytest.mark.parametrize(
    "alphabet,max_len",
    [("ab", 12), ("abc", 7), ("abcd", 5), ("ba", 8), ("a", 6), ("ab", 0), ("cab", 6)],
)
def test_census_walk_matches_brute_force(alphabet, max_len):
    table = census(alphabet, max_len).to_json_dict()
    expected = _brute_force_census(alphabet, max_len)
    assert {key: table[key] for key in expected} == expected


@pytest.mark.parametrize("symbols,max_len", [("ab", 12), ("abc", 7), ("abcd", 5), ("ba", 10)])
def test_census_balance_flag_is_the_counting_route(symbols, max_len):
    # the walk pops the tree back to each parent; a word whose state is False has no flag,
    # and is in none of census's classes, so it is not balanced, nor is any word below it
    index = PalindromeIndex()
    walked = set()
    for w, _, state in theorems._walk(symbols, max_len, index, theorems._census_step):
        assert bool(state and state[1]) == is_finite_sturmian(w), w
        walked.add(w)
    canonical = [w for w in words_up_to(symbols, max_len) if _is_canonical(w, symbols)]
    assert {w for w in canonical if is_finite_sturmian(w)} < walked


@pytest.mark.parametrize(
    "w,balanced",
    [
        ("aabb", False),  # aa and bb: the witness is the empty word
        ("ab", True),  # a and b extend the length -1 root, which witnesses nothing
        ("aaaabaa", True),
        ("aaaabaab", False),  # aaaa and baab: the witness aa
        ("abc", False),  # a third letter
        ("aabc", False),
    ],
)
def test_census_balance_flag_examples(w, balanced):
    state = _stepped_from_the_empty_word("census", w)
    assert bool(state and state[1]) is balanced
    assert is_finite_sturmian(w) is balanced


@pytest.mark.parametrize("symbols,max_len", [("ab", 14), ("abc", 9)])
def test_census_walks_only_its_classes_and_their_children(monkeypatch, symbols, max_len):
    visited = []

    def recording_walk(*args, **kwargs):
        for item in walk(*args, **kwargs):
            visited.append(item[0])
            yield item

    walk = theorems._walk
    monkeypatch.setattr(theorems, "_walk", recording_walk)
    census(symbols, max_len)
    in_a_class = {
        w
        for w in words_up_to(symbols, max_len - 1)
        if _is_canonical(w, symbols)
        and any(PREDICATES[name](w) for name in ("rich", "trapezoidal", "balanced"))
    }
    expected = [
        w
        for w in words_up_to(symbols, max_len)
        if _is_canonical(w, symbols) and (not w or w[:-1] in in_a_class)
    ]
    assert sorted(visited, key=theorems._alphabet_order(symbols)) == expected


def test_census_walk_is_not_bounded_by_the_recursion_limit():
    max_len = sys.getrecursionlimit() + 10
    table = census("a", max_len)
    assert table.total == [1] * max_len
    for name in CENSUS_CLASSES:
        assert table.counts[name] == [1] * max_len, name


def test_census_budget_guard():
    with pytest.raises(BudgetExceededError):
        census("ab", 10, budget=100)


def test_predicate_registry_names():
    for name in (
        "palindrome",
        "rich",
        "trapezoidal",
        "balanced",
        "finite_sturmian",
        "sturmian_palindrome",
        "condition_B",
        "condition_B_prime",
        "rich_not_trapezoidal",
        "trapezoidal_not_sturmian",
    ):
        assert name in PREDICATES


@pytest.mark.parametrize("predicate", list(PREDICATES))
def test_find_class_members_is_a_filter_of_all_words(predicate):
    check = PREDICATES[predicate]
    for symbols, max_len in (("ab", 10), ("abc", 6), ("abcd", 4), ("ba", 8)):
        for n in range(max_len + 1):
            expected = [w for w in oracle.all_words(symbols, n) if check(w)]
            assert find_class_members(predicate, symbols, n) == expected, (symbols, n)


def test_predicates_tolerate_wide_alphabets():
    # enumeration across 3+ symbols must not raise from the balance checks
    members = find_class_members("balanced", "abc", 2)
    assert "ab" in members
    trapezoidal = find_class_members("trapezoidal", "abc", 3)
    assert trapezoidal
    assert all(len(set(w)) <= 2 for w in trapezoidal)
