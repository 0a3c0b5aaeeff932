"""The deliberate second routes run without the kernel of the route they are
compared with.

THM_MAIN's balanced condition, and the reference census is tested against,
count symbols and never read the palindromic tree; the structural indices
R, K and the minimal period, and the steps the walk carries, scan the word
and never read the suffix automaton.  R and K are stepped on every word only
by TRAP_CLOSED, and R alone by PERIOD_INEQ; PROP2, BINARY_TRAP and
PROFILE_EQUIV step them only below trapezoidal words, which TRAP_CLOSED
guards.  THM_FGC and THM_MAIN read P stepped along the right halves of
their palindromes, by string scans, so neither builds a palindromic tree:
PROP1, PROP2, census and tests/test_palindromes.py are what check the tree.
Each test refuses the other kernel in every module that could reach it,
shows that the refusal bites, and then runs the route.
(test_palindrome_scan.py guards the richness routes the same way.)
"""

import sys

import pytest

from wordlab import census, subword_complexity, verify_claim
from wordlab.classify import (
    condition_B_mismatches,
    is_balanced,
    is_finite_sturmian,
    is_rich_by_count,
    is_sturmian_palindrome,
    unbalance_witness,
)
from wordlab.complexity import _k_index_step, _r_index_step, k_index, minimal_period, r_index
from wordlab.theorems import _profile_step, _r_and_k_step, _trapezoidal_step

from oracle import structured_words, words_up_to


def refuse(monkeypatch, name: str, modules: tuple[str, ...]) -> None:
    """Make constructing the class `name` raise in each of the wordlab modules."""

    class Refused:
        def __init__(self, *args, **kwargs):
            raise AssertionError(f"{name} used")

    for module in modules:
        monkeypatch.setattr(sys.modules[f"wordlab.{module}"], name, Refused)


def test_balance_routes_do_not_use_the_palindromic_tree(monkeypatch):
    words = [*words_up_to("ab", 10), *words_up_to("abc", 6), *structured_words()]
    binary = [w for w in words if len(set(w)) <= 2]
    # the witness route reads the tree; the balance route must agree with it without one
    balanced = [unbalance_witness(w) is None for w in binary]
    expected = [(is_finite_sturmian(w), is_sturmian_palindrome(w)) for w in words]
    refuse(monkeypatch, "PalindromeIndex", ("palindromes", "classify", "theorems"))
    # the patch bites: the witness, the counting route and census build a tree
    for refused in (lambda: unbalance_witness("ab"), lambda: is_rich_by_count("ab"),
                    lambda: census("ab", 2)):
        with pytest.raises(AssertionError, match="PalindromeIndex used"):
            refused()
    assert [is_balanced(w) for w in binary] == balanced
    assert [(is_finite_sturmian(w), is_sturmian_palindrome(w)) for w in words] == expected


def test_palindrome_claims_do_not_use_the_palindromic_tree(monkeypatch):
    runs = [
        (claim, symbols, max_len)
        for claim in ("THM_FGC", "THM_MAIN")
        for symbols, max_len in (("ab", 12), ("abc", 7), ("ba", 9), ("a", 40))
    ]
    expected = [verify_claim(*run).to_json_dict() for run in runs]
    refuse(monkeypatch, "PalindromeIndex", ("palindromes", "classify", "theorems"))
    # the patch bites: census carries a tree along its walk, and the counting route builds one
    for refused in (lambda: census("ab", 2), lambda: is_rich_by_count("ab")):
        with pytest.raises(AssertionError, match="PalindromeIndex used"):
            refused()
    assert [verify_claim(*run).to_json_dict() for run in runs] == expected
    assert all(report["verified"] for report in expected)


def fold(step, w: str):
    """The state a walk that carries no index steps to w from the empty word, as _walk does."""
    state = True
    for n in range(len(w) + 1):
        state = state and step(w[:n], None, state)
    return state


def test_index_routes_do_not_use_the_suffix_automaton(monkeypatch):
    words = [*words_up_to("ab", 10), *words_up_to("abc", 6), *structured_words()]
    expected = [(r_index(w), k_index(w), minimal_period(w) if w else None) for w in words]
    trapezoidal = [
        all(n == r_index(w[:n]) + k_index(w[:n]) for n in range(len(w) + 1)) for w in words
    ]
    refuse(monkeypatch, "SuffixAutomaton", ("complexity", "classify", "theorems"))
    # the patch bites: C, condition B and census's condition_B column build an automaton
    for refused in (lambda: subword_complexity("ab"), lambda: condition_B_mismatches("aba"),
                    lambda: census("ab", 1)):
        with pytest.raises(AssertionError, match="SuffixAutomaton used"):
            refused()
    assert [(r_index(w), k_index(w), minimal_period(w) if w else None) for w in words] == expected
    # the steps of the walk: R and K alone, together on every word (TRAP_CLOSED), and
    # within the trapezoidal words (PROP2, and PROFILE_EQUIV, which settles below them),
    # each stepped over the prefixes of w
    for w, (r, k, _), trap in zip(words, expected, trapezoidal):
        stepped = (0, 0)
        for n in range(1, len(w) + 1):
            stepped = (_r_index_step(w[:n], stepped[0]), _k_index_step(w[:n], stepped[1]))
        assert stepped == fold(_r_and_k_step, w) == (r, k), w
        assert fold(_trapezoidal_step, w) == ((r, k) if trap else False), w
        assert fold(_profile_step, w) == (fold(_trapezoidal_step, w),), w
