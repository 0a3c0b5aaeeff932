import dataclasses
import itertools
import sys

import pytest

from wordlab import oracle, theorems
from wordlab import CLAIMS, PalindromeIndex, census, find_class_members, verify_claim
from wordlab.classify import is_rich_by_returns, is_trapezoidal
from wordlab.complexity import structural_indices
from wordlab.generate import lower_christoffel, random_words
from wordlab.oracle import words_up_to
from wordlab.theorems import CENSUS_CLASSES, PREDICATES, BudgetExceededError, word_count


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


class _RecordingPool:
    """Stand-in for multiprocessing.Pool that maps in-process."""

    sizes: list = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return [fn(t) for t in tasks]


@pytest.mark.parametrize(
    "workers,cpus,max_len,expected",
    [
        (64, 4, 12, [4]),  # capped by the CPU count; ab/12 has 5 blocks
        (3, 64, 12, [3]),  # the requested count fits
        (64, 64, 12, [5]),  # capped by the number of blocks: 1 head block + 4 subtrees
        (8, None, 12, []),  # unknown CPU count: sequential, no pool
        (1, 64, 12, []),
    ],
)
def test_verify_caps_pool_size(monkeypatch, workers, cpus, max_len, expected):
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(theorems, "Pool", _RecordingPool)
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: cpus)
    report = verify_claim("PROP1", "ab", max_len, workers=workers)
    assert _RecordingPool.sizes == expected
    assert report.to_json_dict() == verify_claim("PROP1", "ab", max_len).to_json_dict()


@pytest.mark.parametrize(
    "symbols,max_len", [("ab", 0), ("ab", 9), ("ab", 10), ("ab", 11), ("ab", 13), ("abc", 8)]
)
def test_blocks_cover_every_word_once(symbols, max_len):
    walks = [
        list(theorems._walk(symbols, prefix, depth))
        for prefix, depth in theorems._blocks(symbols, max_len)
    ]
    assert sorted(w for walk in walks for w in walk) == sorted(words_up_to(symbols, max_len))
    assert max(map(len, walks)) <= theorems._BLOCK_CAP


@pytest.mark.parametrize("symbols,max_len", [("ab", 12), ("abc", 7), ("ba", 11)])
def test_walk_index_is_the_tree_of_each_word(symbols, max_len):
    blocks = theorems._blocks(symbols, max_len)
    assert blocks[0][0] == "" and all(prefix for prefix, _ in blocks[1:])  # head and subtrees
    for prefix, depth in blocks:
        index = PalindromeIndex()
        for w in theorems._walk(symbols, prefix, depth, index):
            fresh = PalindromeIndex(w)
            assert index.palindrome_count == fresh.palindrome_count, w
            assert index.prefix_counts == fresh.prefix_counts, w
            assert index.lengths() == fresh.lengths(), w


def _states_seen(monkeypatch, claim, symbols, prefix, depth):
    """(word, carried state) for every word of one block, checker restriction lifted."""
    seen = []
    spec = dataclasses.replace(
        theorems.CLAIMS[claim], checker=lambda w, index, state: seen.append((w, state)), inside=False
    )
    monkeypatch.setitem(theorems.CLAIMS, claim, spec)
    checked, _ = theorems._run_block((claim, symbols, prefix, depth))
    assert checked == len(seen)
    return seen


@pytest.mark.parametrize("symbols,max_len", [("ab", 12), ("abc", 7), ("ba", 11)])
def test_walk_flags_are_the_properties_of_each_word(monkeypatch, symbols, max_len):
    for prefix, depth in theorems._blocks(symbols, max_len):
        for w, flag in _states_seen(monkeypatch, "PROP1", symbols, prefix, depth):
            assert flag is is_rich_by_returns(w), w
        for w, flag in _states_seen(monkeypatch, "PROP2", symbols, prefix, depth):
            assert flag is is_trapezoidal(w), w


# the carried values against direct computations of each word
INVARIANTS = {
    "THM_FGC": oracle.subword_complexity,
    "PAL_BOUND": lambda w: len(oracle.palindromic_factors(w)),
    "PERIOD_INEQ": structural_indices,
    "PROFILE_EQUIV": structural_indices,
}


@pytest.mark.parametrize("symbols,max_len", [("ab", 12), ("abc", 7), ("ba", 11)])
def test_walk_states_are_the_invariants_of_each_word(monkeypatch, symbols, max_len):
    for prefix, depth in theorems._blocks(symbols, max_len):
        for claim, direct in INVARIANTS.items():
            for w, state in _states_seen(monkeypatch, claim, symbols, prefix, depth):
                assert state == direct(w), (claim, w)


def _long_prefixes():
    rng_word = random_words("ab", 300, 1, seed=0x5EED)[0]
    quaternary = random_words("abcd", 300, 1, seed=0xC0DE)[0]
    window = lower_christoffel(89, 233)[5:305]  # balanced, R and the period in the hundreds
    return [("ab", rng_word), ("abcd", quaternary), ("ab", window), ("ab", "a" * 299 + "b")]


@pytest.mark.parametrize(
    "symbols,prefix", _long_prefixes(), ids=["binary", "quaternary", "christoffel", "a299b"]
)
def test_walk_states_from_a_long_prefix(monkeypatch, symbols, prefix):
    # the 300 ancestors are stepped before the block, so the seeded scans run at N = 300
    assert len(prefix) == 300
    for claim, direct in INVARIANTS.items():
        seen = _states_seen(monkeypatch, claim, symbols, prefix, 2)
        assert len(seen) == 1 + len(symbols) + len(symbols) ** 2
        for w, state in seen:
            assert state == direct(w), (claim, w)


def test_carried_flag_starts_from_the_prefix_ancestors(monkeypatch):
    # abca is not rich; abcaa ends in no bad return, so only its parent's flag says so
    seen = _states_seen(monkeypatch, "PROP1", "abc", "abcaa", 2)
    assert seen[0] == ("abcaa", False)
    assert [flag for _, flag in seen] == [False] * 13


@pytest.mark.parametrize("claim", [c for c, spec in CLAIMS.items() if spec.step])
def test_steps_never_run_under_a_false_parent(monkeypatch, claim):
    spec = theorems.CLAIMS[claim]
    states = []

    def step(w, parent):
        assert parent, (w, parent)
        states.append(spec.step(w, parent))
        return states[-1]

    monkeypatch.setitem(theorems.CLAIMS, claim, dataclasses.replace(spec, step=step))
    assert verify_claim(claim, "abc", 7).verified
    theorems._run_block((claim, "abc", "abcaa", 2))  # ancestors of a prefix under the same rule
    ancestors = sum(len(prefix) for prefix, _ in theorems._blocks("abc", 7)) + 5
    walked = word_count(3, 7) + 13 + ancestors
    if claim in ("PROP1", "PROP2", "BINARY_TRAP"):  # false flags prune the steps below them
        assert False in states and len(states) < walked
    else:  # values are never falsy, so every word is stepped
        assert all(states) and len(states) == walked


def test_pal_bound_reports_a_count_above_the_bound():
    assert theorems._check_pal_bound("abab", None, 5) is None
    assert theorems._check_pal_bound("abab", None, 6) == (
        "6 distinct palindromic factors, bound is 5"
    )


def _trapezoidal_only(claim):
    original = theorems.CLAIMS[claim].checker

    def checker(w, index, flag):
        assert flag is True and is_trapezoidal(w), w
        return original(w, index, flag)

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


# ba/12 and cab/8 merge 5 and 10 blocks; abc/10 seeds each block's flag from a length-4 prefix
@pytest.mark.parametrize("symbols,max_len", [("ba", 12), ("cab", 8), ("abc", 10)])
@pytest.mark.parametrize("workers", [1, 2])
def test_restricted_claim_reports_every_trapezoidal_word_in_order(
    monkeypatch, symbols, max_len, workers
):
    spec = theorems.CLAIMS["BINARY_TRAP"]
    planted = dataclasses.replace(spec, checker=_planted_everywhere)
    monkeypatch.setitem(theorems.CLAIMS, "BINARY_TRAP", planted)
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: 2)
    report = verify_claim("BINARY_TRAP", symbols, max_len, workers=workers)
    expected = [(w, "planted") for w in words_up_to(symbols, max_len) if is_trapezoidal(w)]
    assert report.counterexamples == expected
    assert report.words_checked == word_count(len(symbols), max_len)


def test_prop1_catches_a_pop_that_keeps_the_node(monkeypatch):
    def leaky_pop(self):
        # undoes the append but leaves any node it created in the tree
        self.prefix_counts.pop()
        self._suffix.pop()
        return self._chars.pop()

    assert verify_claim("PROP1", "ab", 8).verified
    monkeypatch.setattr(PalindromeIndex, "pop", leaky_pop)
    assert not verify_claim("PROP1", "ab", 8).verified


def _planted(w, index=None, flag=None):
    # fails on a scattered set of words, in every block
    return "planted" if (7 * w.count(w[:1]) + len(w)) % 5 == 1 else None


# ba/10 and cab/6 are one block each; ba/12 and cab/8 merge 5 and 10 blocks
@pytest.mark.parametrize("symbols,max_len", [("ba", 10), ("cab", 6), ("ba", 12), ("cab", 8)])
@pytest.mark.parametrize("workers", [1, 2])
def test_counterexamples_in_length_then_alphabet_order(monkeypatch, symbols, max_len, workers):
    spec = theorems.CLAIMS["PROP1"]
    monkeypatch.setitem(theorems.CLAIMS, "PROP1", dataclasses.replace(spec, checker=_planted))
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: 2)
    report = verify_claim("PROP1", symbols, max_len, workers=workers)
    expected = [(w, "planted") for w in words_up_to(symbols, max_len) if _planted(w)]
    assert len(expected) > 100
    assert report.counterexamples == expected


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
    """Every predicate on every word, one length at a time: no walk, no pruning."""
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
    [("ab", 12), ("abc", 7), ("abcd", 5), ("ba", 8), ("a", 6), ("ab", 0)],
)
def test_census_walk_matches_brute_force(alphabet, max_len):
    table = census(alphabet, max_len).to_json_dict()
    expected = _brute_force_census(alphabet, max_len)
    assert {key: table[key] for key in expected} == expected


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


def test_predicates_tolerate_wide_alphabets():
    # enumeration across 3+ symbols must not raise from the balance checks
    members = find_class_members("balanced", "abc", 2)
    assert "ab" in members
    trapezoidal = find_class_members("trapezoidal", "abc", 3)
    assert trapezoidal
    assert all(len(set(w)) <= 2 for w in trapezoidal)
