import collections
import dataclasses
import functools
import itertools
import json
import math
import multiprocessing
import sys
import time
import types

import pytest

from wordlab import oracle, theorems
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
from wordlab.oracle import words_up_to
from wordlab.theorems import CENSUS_CLASSES, PREDICATES

from test_palindrome_scan import rich_by_definition


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
    and hand back what the child would send.  Returns the list of the shares forked."""
    shares = []

    def fork(tasks):
        shares.append(tasks)
        sent = []
        theorems._run_share(tasks, types.SimpleNamespace(send=sent.append))
        child = types.SimpleNamespace(terminate=lambda: None, join=lambda: None)
        return child, types.SimpleNamespace(recv=sent.pop, close=lambda: None)

    monkeypatch.setattr(theorems, "_fork", fork)
    return shares


@pytest.mark.parametrize(
    "workers,cpus,max_len,expected",
    [
        (64, 3, 12, 3),  # capped by the CPU count alone
        (2, 64, 12, 2),  # the requested count fits, and caps alone
        (64, 64, 12, 4),  # capped by the number of tasks alone
        (8, None, 12, 1),  # unknown CPU count: sequential, nothing forked
        (1, 64, 12, 1),
    ],
)
def test_verify_caps_the_process_count(monkeypatch, workers, cpus, max_len, expected):
    # at this cap ab/12 runs its head run in this process and 4 tasks, the canonical subtrees
    # under aaa..abb; of n processes, this one runs tasks[::n] and child j tasks[j::n]
    monkeypatch.setattr(theorems, "_BLOCK_CAP", 1024)
    shares = _fork_in_process(monkeypatch)
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: cpus)
    report = verify_claim("PROP1", "ab", max_len, workers=workers)
    assert 1 + len(shares) == expected
    assert [len(s) for s in shares] == [len(range(j, 4, expected)) for j in range(1, expected)]
    assert report.to_json_dict() == verify_claim("PROP1", "ab", max_len).to_json_dict()


@pytest.mark.parametrize("claim", list(CLAIMS))
def test_two_forked_children_report_as_one_process(monkeypatch, claim):
    # with three CPUs, ab/13 forks two children beside this process, as it leaves 4 tasks, and
    # abc/8 and ba/12 one, as they leave 2; the palindrome claims' halves fit one task
    forked, fork = [], theorems._fork
    monkeypatch.setattr(theorems, "_fork", lambda tasks: forked.append(tasks) or fork(tasks))
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: 3)
    for symbols, max_len in (("ab", 13), ("abc", 8), ("ba", 12)):
        sequential, parallel = (verify_claim(claim, symbols, max_len, workers=n) for n in (1, 3))
        assert json.dumps(parallel.to_json_dict()) == json.dumps(sequential.to_json_dict())
    assert len(forked) == (0 if CLAIMS[claim].palindromes else 4)
    assert multiprocessing.active_children() == []


def _index(spec, w):
    # the index a block headed by a child of w starts from: the claim's class, holding w
    return spec.index(w) if spec.index else None


def _plan(monkeypatch, spec, symbols, max_len):
    """(block, heads) of each _run_block call a sequential verify_claim with spec makes: the
    head run's block ("", True, head) with a fresh list for the heads it records, then the
    (head, parent, depth) block of each task, with None."""
    blocks, run_block = [], theorems._run_block

    def recording(task, heads=None):
        blocks.append((task[3:], heads))
        return run_block(task, heads)

    with monkeypatch.context() as patch:
        patch.setitem(theorems.CLAIMS, "PLANNED", spec)
        patch.setattr(theorems, "_run_block", recording)
        verify_claim("PLANNED", symbols, max_len)
    assert [heads is None for _, heads in blocks] == [False] + [True] * (len(blocks) - 1)
    return [(block, None if heads is None else []) for block, heads in blocks]


def _walk_block(spec, symbols, block, heads=None):
    """The (w, weight, state) a block's walk yields, recording its heads in heads if given."""
    prefix, parent, depth = block
    index = _index(spec, prefix[:-1])
    return list(theorems._walk(symbols, prefix, depth, index, spec.step, parent, heads))


def _covered(spec, symbols, max_len, walked):
    """(word, weight) of each canonical word a walked block stands for: each word walked
    under a truthy state (every one, with no step), and each falsy one with its whole
    subtree down to max_len, which the block counts in closed form."""
    return [
        item
        for w, weight, state in walked
        for item in (
            [(w, weight)]
            if state or not spec.step
            else [(v, u) for v, u, _ in theorems._walk(symbols, w, max_len - len(w))]
        )
    ]


# a claim with no step walks every word; each stepped one stops below its falsy states
PLANS = {
    "stepless": theorems.ClaimSpec("walks every word", lambda w, index, state: None),
    **{claim: spec for claim, spec in CLAIMS.items() if spec.step},
}


# at the 32-word cap the heads are 9 letters long at ab/13, 5 at abc/8 and 8 at ba/12, so the
# head runs reach deep into each walk and the pruned ones leave only some heads to tasks
@pytest.mark.parametrize(
    "symbols,max_len,cap",
    [
        ("ab", 0, 2048), ("ab", 9, 2048), ("ab", 10, 2048), ("ab", 11, 2048), ("ab", 13, 2048),
        ("abc", 8, 2048), ("abcd", 6, 2048), ("ba", 12, 2048), ("cab", 8, 2048), ("a", 9, 2048),
        ("ab", 13, 32), ("abc", 8, 32), ("abcd", 6, 32), ("ba", 12, 32), ("a", 9, 32),
    ],
)
@pytest.mark.parametrize("name", list(PLANS))
def test_head_run_and_tasks_cover_every_word_once(monkeypatch, name, symbols, max_len, cap):
    monkeypatch.setattr(theorems, "_BLOCK_CAP", cap)
    spec = PLANS[name]
    (head_run, heads), *tasks = _plan(monkeypatch, spec, symbols, max_len)
    walks = [_walk_block(spec, symbols, head_run, heads)]
    # the head run leaves each head it records to one task, which starts from the head's parent
    assert [(prefix, parent) for (prefix, parent, _), _ in tasks] == heads
    assert tasks and all(len(prefix) + depth == max_len for (prefix, _, depth), _ in tasks)
    walks += [_walk_block(spec, symbols, task) for task, _ in tasks]
    covered = [item for walked in walks for item in _covered(spec, symbols, max_len, walked)]
    words = sorted(words_up_to(symbols, max_len))
    # each canonical word once: walked by the head run or one task, or counted under one
    # falsy word
    assert sorted(w for w, _ in covered) == [w for w in words if _is_canonical(w, symbols)]
    # their renamings are every word, each once, and each weight counts its word's renamings
    assert sorted(v for w, _ in covered for v in theorems._renamings(w, symbols)) == words
    assert all(weight == _weight(w, symbols) for w, weight in covered)
    # every task, down to the bound, walks at most the cap
    assert max(map(len, walks[1:])) <= cap


@pytest.mark.parametrize(
    "symbols,max_len", [("ab", 13), ("abc", 8), ("abcd", 6), ("ba", 12), ("a", 9)]
)
@pytest.mark.parametrize("name", [claim for claim in PLANS if claim in CLAIMS])
def test_each_task_carries_its_heads_parent_state(monkeypatch, name, symbols, max_len):
    monkeypatch.setattr(theorems, "_BLOCK_CAP", 32)
    own = _own_states_and_verdicts(name, symbols, max_len)
    ((_, _, head), _), *tasks = _plan(monkeypatch, CLAIMS[name], symbols, max_len)
    # the heads the claim's walk reaches with a truthy state: those whose prefixes all have
    # truthy states, each with the state folded from the empty word to its parent (the empty
    # word's parent state is True); at a/9 the head is the empty word, and one task walks
    # every word
    heads = [p for p in words_up_to(symbols, head) if len(p) == head and _is_canonical(p, symbols)]
    listed = [p for p in heads if all(own[p[:n]][0] for n in range(head + 1))]
    expected = [(p, own[p[:-1]][0] if p else True, max_len - head) for p in listed]
    assert [task for task, _ in tasks] == expected
    if (symbols, max_len) == ("ab", 13):
        assert len(listed) < len(heads) if name in PRUNED_TO else listed == heads


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
    pruned = theorems._walk(symbols, "", max_len, step=spec.step)
    assert sorted(w for w, _, _ in pruned) == sorted(expected)
    assert len(expected) < len(canonical)
    monkeypatch.setattr(theorems, "_BLOCK_CAP", 32)
    for block, heads in _plan(monkeypatch, spec, symbols, max_len):
        prefix, _, depth = block
        # the head run reached it with a truthy state, and so recorded it
        assert all(keep(prefix[:i]) for i in range(len(prefix) + 1))
        # the prefix is always yielded; below it, the prefix's ancestors count too
        in_block = [
            (w, weight, all(keep(w[:i]) for i in range(len(w) + 1)))
            for w, weight, _ in theorems._walk(symbols, prefix, depth)
            if w == prefix or all(keep(w[:i]) for i in range(len(w)))
        ]
        walked = _walk_block(spec, symbols, block, heads)
        if heads is not None:  # the head run records, not yields, each head with a truthy state
            assert heads == [(w, True) for w, _, kept in in_block if len(w) == depth and kept]
            in_block = [item for item in in_block if len(item[0]) < depth or not item[2]]
        assert walked == in_block, prefix  # in prefix order


# at the 32-word cap each block's index starts from a tree of up to 7 letters
@pytest.mark.parametrize("cap", [2048, 32])
@pytest.mark.parametrize("symbols,max_len", [("ab", 12), ("abc", 7), ("ba", 11)])
def test_walk_index_is_the_tree_of_each_word(monkeypatch, symbols, max_len, cap):
    monkeypatch.setattr(theorems, "_BLOCK_CAP", cap)
    blocks = _plan(monkeypatch, PLANS["stepless"], symbols, max_len)
    assert blocks[0][0][0] == "" and all(prefix for (prefix, _, _), _ in blocks[1:])
    for (prefix, _, depth), heads in blocks:
        index = PalindromeIndex(prefix[:-1])
        for w, _, _ in theorems._walk(symbols, prefix, depth, index, heads=heads):
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


@pytest.mark.parametrize("cap", [2048, 32])
@pytest.mark.parametrize("symbols,max_len", [("ab", 12), ("abc", 7), ("abcd", 6)])
def test_walk_automaton_is_the_automaton_of_each_word(monkeypatch, symbols, max_len, cap):
    monkeypatch.setattr(theorems, "_BLOCK_CAP", cap)
    for (prefix, _, depth), heads in _plan(monkeypatch, PLANS["stepless"], symbols, max_len):
        automaton = SuffixAutomaton(prefix[:-1])
        for w, _, _ in theorems._walk(symbols, prefix, depth, automaton, heads=heads):
            assert _automaton(automaton) == _automaton(SuffixAutomaton(w)), w
            assert automaton.difference == _differences(w), w


_rich_by_returns = functools.cache(rich_by_definition)


@functools.cache
def _rich_by_count(w):
    return len(oracle.palindromic_factors(w)) == len(w) + 1


def _rich_by_either(w):
    return _rich_by_returns(w) or _rich_by_count(w)


# the claims whose walks stop below a falsy state, each with the class that state is truthy on
PRUNED_TO = {"PROP1": _rich_by_either, "PROP2": is_trapezoidal, "BINARY_TRAP": is_trapezoidal}


@pytest.mark.parametrize("name", list(PRUNED_TO))
def test_no_task_is_headed_by_a_falsy_state(monkeypatch, name):
    # the head run counts each falsy head's subtree itself, so the pool never gets a task
    # that only counts one subtree in closed form; ab/13 has such heads for each claim
    monkeypatch.setattr(theorems, "_BLOCK_CAP", 32)
    own = _own_states_and_verdicts(name, "ab", 13)
    ((_, _, head), _), *tasks = _plan(monkeypatch, CLAIMS[name], "ab", 13)
    assert any(len(w) == head and own[w[:-1]][0] and not own[w][0] for w in own)
    assert tasks and all(own[prefix][0] for (prefix, _, _), _ in tasks)


def _states_seen(monkeypatch, claim, symbols, max_len, block, heads=None):
    """(word, carried state) for every canonical word one (prefix, parent, depth) block of
    a walk down to max_len walks, handing heads to _run_block.

    The checker sees exactly the walked words whose state is truthy, and the block
    counts every canonical word it stands for, the unwalked ones in closed form.
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
        count, _ = theorems._run_block((claim, symbols, max_len, *block), heads)
    assert checked == [(w, state) for w, _, state in walked if state]
    assert count == sum(weight for _, weight in _covered(original, symbols, max_len, walked))
    return [(w, state) for w, _, state in walked]


def _kept_walk(symbols, prefix, depth, keep, heads=None):
    # a block that stops below each word keep refuses, keep closed under prefixes, yields its
    # prefix, then each word whose parent keep passes; a head run (heads given) records, not
    # yields, each word at its limit that keep passes
    return [
        w
        for w, _, _ in theorems._walk(symbols, prefix, depth)
        if (w == prefix or keep(w[:-1]))
        and (heads is None or len(w) < len(prefix) + depth or not keep(w))
    ]


# at this cap ab/12 plans heads of length 8, abc/7 of length 5 and ba/11 of length 7
@pytest.mark.parametrize("cap", [2048, 32])
@pytest.mark.parametrize("symbols,max_len", [("ab", 12), ("abc", 7), ("ba", 11)])
def test_walk_flags_are_the_properties_of_each_word(monkeypatch, symbols, max_len, cap):
    monkeypatch.setattr(theorems, "_BLOCK_CAP", cap)
    for block, heads in _plan(monkeypatch, CLAIMS["PROP1"], symbols, max_len):
        prefix, _, depth = block
        walked = _states_seen(monkeypatch, "PROP1", symbols, max_len, block, heads)
        kept = _kept_walk(symbols, prefix, depth, _rich_by_either, heads)
        assert [w for w, _ in walked] == kept
        for w, state in walked:
            flags = (_rich_by_returns(w), _rich_by_count(w))
            assert state == (any(flags) and flags), w
            assert state is False or all(type(flag) is bool for flag in state), w
    for block, heads in _plan(monkeypatch, CLAIMS["PROP2"], symbols, max_len):
        prefix, _, depth = block
        walked = _states_seen(monkeypatch, "PROP2", symbols, max_len, block, heads)
        assert [w for w, _ in walked] == _kept_walk(symbols, prefix, depth, is_trapezoidal, heads)
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
        for block, heads in _plan(monkeypatch, CLAIMS[claim], symbols, max_len):
            for w, state in _states_seen(monkeypatch, claim, symbols, max_len, block, heads):
                assert state == direct(w), (claim, w)


# every step a walk carries, each with the index class it reads: each claim's, and census's
STEPS = {c: (spec.index, spec.step) for c, spec in CLAIMS.items() if spec.step}
STEPS["census"] = (PalindromeIndex, theorems._census_step)


def _own_states_and_verdicts(name, symbols, max_len):
    """word -> (carried state, whether the checker passes it), each word on its own.

    Each state steps from the parent's, so from the empty word down, with no walk, over
    an index built for the word alone, which the verdict reads too; the verdict is None
    where a falsy state stops the walk, and for census, which has no checker.
    """
    spec = CLAIMS.get(name)
    index_class, step = STEPS[name] if name in STEPS else (spec.index, None)
    states, seen = {}, {}
    for w in words_up_to(symbols, max_len):  # shortest first, so each parent comes first
        parent = states[w[:-1]] if w else True
        index = index_class(w) if index_class else None
        state = states[w] = step and (parent and step(w, index, parent))
        verdict = None
        if spec and (state or not step):
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


@pytest.mark.parametrize("claim", list(CLAIMS))
def test_words_checked_is_the_full_count(claim):
    for symbols, max_len in (("ab", 12), ("abc", 8), ("abcd", 6), ("ba", 12), ("a", 30)):
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
def test_walk_states_from_a_long_prefix(monkeypatch, symbols, prefix):
    # the block starts from the state folded along the 299 ancestors and an index of
    # prefix[:-1], as the head run hands it over, so the seeded scans run at N = 300; the
    # christoffel and a299b prefixes are balanced, so trapezoidal, and PROFILE_EQUIV steps R
    # and K at N = 300 under them too, while under the random ones it has settled to False
    assert len(prefix) == 300
    assert bool(_settled_trapezoidal_state(prefix)) == is_finite_sturmian(prefix)
    for claim, direct in INVARIANTS.items():
        block = (prefix, _stepped_from_the_empty_word(claim, prefix[:-1]), 2)
        seen = _states_seen(monkeypatch, claim, symbols, 302, block)
        assert len(seen) == 1 + len(symbols) + len(symbols) ** 2
        for w, state in seen:
            assert state == direct(w), (claim, w)


@pytest.mark.parametrize(
    "symbols,prefix", _long_prefixes(), ids=["binary", "quaternary", "christoffel", "a299b"]
)
def test_step_kernels_along_a_long_prefix(symbols, prefix):
    r = k = 0
    for n in range(1, len(prefix) + 1):
        w = prefix[:n]
        r, k = _r_index_step(w, r), _k_index_step(w, k)
        assert (r, k) == (r_index(w), k_index(w)), w


@pytest.mark.parametrize(
    "symbols,prefix", _long_prefixes(), ids=["binary", "quaternary", "christoffel", "a299b"]
)
def test_walk_automaton_under_a_long_prefix(symbols, prefix):
    # pop re-walks a suffix-link chain instead of replaying a journal; it must stay cheap at
    # N = 300, under a block's automaton built from prefix[:-1]
    started = time.perf_counter()
    for _ in theorems._walk(symbols, prefix, 6, SuffixAutomaton(prefix[:-1])):
        pass
    assert time.perf_counter() - started < 0.5  # about 10 ms; a rebuild per pop takes seconds
    automaton = SuffixAutomaton(prefix[:-1])
    for w, _, _ in theorems._walk(symbols, prefix, 6, automaton):
        if w.endswith(symbols[0]):  # each first child, reached by popping back from a sibling
            assert _automaton(automaton) == _automaton(SuffixAutomaton(w)), w
    assert _automaton(automaton) == _automaton(SuffixAutomaton(w))


def test_carried_flag_starts_from_the_parent_state(monkeypatch):
    # abca is rich by neither route; abcaa ends in no bad return, so only its parent's flag,
    # folded from the empty word, says so, and the block stops at its prefix and counts the
    # 12 words below it; from a parent rich by both routes the block walks on
    assert theorems._end_returns_are_palindromes("abcaa")
    parent = _stepped_from_the_empty_word("PROP1", "abca")
    assert parent is False
    assert _states_seen(monkeypatch, "PROP1", "abc", 7, ("abcaa", parent, 2)) == [("abcaa", False)]
    seen = _states_seen(monkeypatch, "PROP1", "abc", 7, ("abcaa", (True, True), 2))
    assert seen[0] == ("abcaa", (True, False)) and len(seen) > 1


def test_palindrome_claims_carry_no_index_and_no_step():
    # their walk's words are right halves, not the words the checker sees
    palindromes = [claim for claim, spec in CLAIMS.items() if spec.palindromes]
    assert palindromes == ["THM_FGC", "THM_MAIN"]
    for claim in palindromes:
        spec = CLAIMS[claim]
        assert (spec.index, spec.step) == (None, None), claim


def _palindrome_walk(monkeypatch, symbols, max_len):
    # the head run and every task of the right halves, ceil(max_len / 2) long, as verify
    # splits them, each half turned into its palindromes after the head run records its heads
    spec = theorems.ClaimSpec("halves", lambda w, index, state: None, palindromes=True)
    return [
        item
        for (prefix, _, depth), heads in _plan(monkeypatch, spec, symbols, max_len)
        for item in theorems._palindromes(
            symbols, theorems._walk(symbols, prefix, depth, heads=heads), max_len
        )
    ]


@pytest.mark.parametrize(
    "symbols,max_len",
    [("ab", 14), ("ab", 13), ("abc", 8), ("abc", 7), ("ba", 12), ("cab", 8), ("a", 9), ("ab", 0)],
)
def test_palindrome_walk_yields_each_palindrome_once(monkeypatch, symbols, max_len):
    walked = _palindrome_walk(monkeypatch, symbols, max_len)
    assert all(_is_canonical(p, symbols) for p, _, _ in walked)
    assert all(weight == _weight(p, symbols) for p, weight, _ in walked)
    renamings = [v for p, _, _ in walked for v in theorems._renamings(p, symbols)]
    assert sorted(renamings) == sorted(w for w in words_up_to(symbols, max_len) if w == w[::-1])


# ab/24 and abc/15 leave 2 tasks of halves after the head run, ab/25 4
@pytest.mark.parametrize(
    "symbols,max_len", [("ab", 24), ("ab", 25), ("abc", 15), ("abcd", 10), ("a", 40)]
)
def test_palindrome_walk_weights_count_the_palindromes(monkeypatch, symbols, max_len):
    # a palindrome of length n is fixed by its last ceil(n/2) symbols
    per_length = [0] * (max_len + 1)
    for p, weight, _ in _palindrome_walk(monkeypatch, symbols, max_len):
        per_length[len(p)] += weight
    assert per_length == [len(symbols) ** ((n + 1) // 2) for n in range(max_len + 1)]


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

    monkeypatch.setattr(theorems, "_BLOCK_CAP", 32)
    blocks = [block for block, _ in _plan(monkeypatch, spec, "abc", 7)]
    monkeypatch.setitem(theorems.CLAIMS, claim, dataclasses.replace(spec, step=step))
    assert verify_claim(claim, "abc", 7).verified
    # abc, and so abcaa, is not trapezoidal, and abca, and so abcaa, is not rich; a block
    # from the state folded along abca runs under the same rule
    parent = _stepped_from_the_empty_word(claim, "abca")
    theorems._run_block((claim, "abc", 7, "abcaa", parent, 2))
    # the head run steps every word it reaches down to the head length, its heads included,
    # then each task its subtree, from its head down
    walked = []
    for prefix, _, depth in [*blocks, ("abcaa", parent, 2)]:
        walked += [w for w, _, _ in theorems._walk("abc", prefix, depth)]
    if claim in PRUNED_TO:  # the empty word, and the children of the class's words, are stepped
        assert stepped == [w for w in walked if not w or PRUNED_TO[claim](w[:-1])]
        assert False in states
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
    # and stops below each falsy one, each task from the parent state the head run hands it
    index_class, step = STEPS[name]
    spec = theorems.ClaimSpec(name, lambda w, index, state: None, index_class, step)
    monkeypatch.setattr(theorems, "_BLOCK_CAP", 32)
    below_abca = ("abcaa", _stepped_from_the_empty_word(name, "abca"), 2)
    for block, heads in [*_plan(monkeypatch, spec, "abc", 7), (below_abca, None)]:
        prefix, _, depth = block
        walked = _walk_block(spec, "abc", block, heads)
        kept = lambda w: _stepped_from_the_empty_word(name, w)
        assert [w for w, _, _ in walked] == _kept_walk("abc", prefix, depth, kept, heads), prefix
        for w, _, state in walked:
            assert state == _stepped_from_the_empty_word(name, w), w


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


# ba/12 and cab/8 leave 2 tasks each after the head run; at abc/10 PROP2's head run reaches 11
# heads of length 4, counts the subtrees of the 3 that are not trapezoidal itself, and leaves 8
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


# at this cap every bound but a/31 leaves several tasks after the head run, and the palindrome
# walk's halves too; the odd bounds drop the even palindromes of the longest halves
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


# at this cap the head runs leave 14 to 126 tasks, and with both routes they reach 7 heads
# rich by neither, whose subtrees they count themselves
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
        # the head run and a task both step each task's head, so compare the words, not the
        # calls
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
    # on the children of trapezoidal words, as PROP2 steps them, call for call (the head run
    # and a task both step each task's head)
    r_calls, k_calls = _index_step_calls(monkeypatch, "PROFILE_EQUIV", symbols, max_len)
    assert r_calls == k_calls == _index_step_calls(monkeypatch, "PROP2", symbols, max_len)[0]
    canonical = [w for w in words_up_to(symbols, max_len) if w and _is_canonical(w, symbols)]
    assert sorted(set(r_calls)) == sorted(w for w in canonical if is_trapezoidal(w[:-1]))
    assert len(set(r_calls)) < len(canonical) // 2


@pytest.mark.parametrize("claim", ["BINARY_TRAP", "PROFILE_EQUIV"])
def test_verify_steps_r_once_per_word_and_again_at_most_once_per_task(monkeypatch, claim):
    # the 6 467 canonical words at ab/20 whose parents are trapezoidal, each once, but for a
    # task's head, which the head run steps for its state and the task again (6 562 calls
    # for BINARY_TRAP's 95 tasks, 6 607 for PROFILE_EQUIV's); a second walk over the words
    # down to the head length would make 6 884, and tasks that stepped their heads'
    # ancestors again 10 327
    heads, run_block = [], theorems._run_block

    def recording(task, recorded=None):
        if recorded is None:  # a task, not the head run
            heads.append(task[3])
        return run_block(task, recorded)

    monkeypatch.setattr(theorems, "_run_block", recording)
    r_calls, _ = _index_step_calls(monkeypatch, claim, "ab", 20)
    steps = collections.Counter(r_calls)
    assert len(steps) == 6467
    assert all(n == 1 or (n == 2 and w in heads) for w, n in steps.items())
    assert len(r_calls) <= 6467 + len(heads)


def _stub_tree(lengths):
    class StubTree:
        """A palindromic tree that reports the given node lengths, empty word included."""

        def __init__(self, w):
            self.palindrome_count = len(lengths) - 1

        def lengths(self):
            return lengths

    return StubTree


def _stub_automaton(difference):
    class StubAutomaton:
        def __init__(self, w):
            self.difference = list(difference)

    return StubAutomaton


def test_thm_fgc_reports_each_side_of_the_equivalence(monkeypatch):
    # the checker builds its own tree and automaton of w; the walk carries neither
    check = theorems._check_thm_fgc
    assert check("aba", None, None) is None
    assert check("ab", None, None) is None
    # a planted D breaks the coupling of the rich palindrome aba at n = 1
    monkeypatch.setattr(theorems, "SuffixAutomaton", _stub_automaton([1, 1, -1]))
    assert check("aba", None, None) == (
        "rich palindrome but P(n)+P(n+1) != C(n+1)-C(n)+2 at n=1: 2 != 3"
    )
    # a tree that misses the b of aba makes it a palindrome that is not rich, and a D that
    # fits the P read off that tree is reported
    monkeypatch.setattr(theorems, "SuffixAutomaton", _stub_automaton([0, -1, -1]))
    monkeypatch.setattr(theorems, "PalindromeIndex", _stub_tree([0, 1, 3]))
    assert check("aba", None, None) == "complexity coupling holds but not a rich palindrome"
    # a non-palindrome is settled before its tree is built, whatever the tree would claim
    monkeypatch.setattr(theorems, "PalindromeIndex", _stub_tree([0, 1, 1, 2]))
    assert check("ab", None, None) is None


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


# claim -> a plant in the kernel its checker or step reads, returning the diagnostic each word
# must then get (None for none), and the exact text of some of them
PLANTED_FAULTS = {
    "PROP2": (_one_palindrome_short, {"ab": "trapezoidal but not rich"}),
    "THM_MAIN": (
        _trapezoidal_verdict_flipped,
        {
            "aba": "sturmian palindrome=True, symmetric P-profile=True, "
            "trapezoidal palindrome=False",
            "aabbaa": "sturmian palindrome=False, symmetric P-profile=False, "
            "trapezoidal palindrome=True",
        },
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
}


@pytest.mark.parametrize("claim", list(PLANTED_FAULTS))
def test_planted_faults_are_reported_with_their_diagnostics(monkeypatch, claim):
    plant, pinned = PLANTED_FAULTS[claim]
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
    # verify counts these words instead of walking them, because the checker passes each
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
    for name in ("is_finite_sturmian", "condition_B_prime", "is_trapezoidal"):
        monkeypatch.setattr(theorems, name, _refused(name))
    _settle_non_palindromes(theorems._check_thm_main, symbols, max_len)


def _record_builds(monkeypatch, cls):
    init, words = cls.__init__, []

    def counted(self, word=""):
        words.append(word)
        init(self, word)

    monkeypatch.setattr(cls, "__init__", counted)
    return words


@pytest.mark.parametrize("symbols,max_len,built", [("ab", 12, 253), ("abc", 7, 160)])
def test_thm_fgc_builds_one_automaton_per_palindrome(monkeypatch, symbols, max_len, built):
    assert built == _palindromes_up_to(len(symbols), max_len)
    automata = _record_builds(monkeypatch, SuffixAutomaton)
    trees = _record_builds(monkeypatch, PalindromeIndex)
    assert verify_claim("THM_FGC", symbols, max_len).verified
    # one tree and one automaton per canonical palindrome, and their renamings are every one
    assert trees == automata
    assert all(w == w[::-1] and _is_canonical(w, symbols) for w in automata)
    assert sum(_weight(w, symbols) for w in automata) == built


def _trapezoidal_by_extension(symbols, max_len):
    # trapezoidal words are closed under prefixes, so each length extends the one before
    level, found = [""], [""]
    for _ in range(max_len):
        level = [w + s for w in level for s in symbols if is_trapezoidal(w + s)]
        found += level
    return found


# ab/18 leaves tasks of depth 10 under length-8 heads, so each task's tree starts deep
@pytest.mark.parametrize("symbols,max_len", [("ab", 14), ("abc", 8), ("ab", 18)])
def test_prop2_reads_the_tree_of_each_trapezoidal_word(monkeypatch, symbols, max_len):
    spec, seen = theorems.CLAIMS["PROP2"], []

    def checker(w, index, rk):
        assert index._chars == list(w), w
        assert index.palindrome_count == len(oracle.palindromic_factors(w)) - 1, w
        seen.append(w)
        return spec.checker(w, index, rk)

    monkeypatch.setitem(theorems.CLAIMS, "PROP2", dataclasses.replace(spec, checker=checker))
    assert verify_claim("PROP2", symbols, max_len).verified
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
    k_step = theorems._k_index_step
    # one too many at length 6 passes the words with R + K = 5 for trapezoidal, such as
    # aabbaa, below aabba, which is not
    monkeypatch.setattr(theorems, "_k_index_step", lambda w, k: k_step(w, k) + (len(w) == 6))
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


# ba/10 and cab/6 are one task each; ba/12 and cab/8 merge a head run and 2 tasks each
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
    for w, _, state in theorems._walk(symbols, "", max_len, index, theorems._census_step):
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
