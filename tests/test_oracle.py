"""Differential tests: the linear profile kernels against the test-side oracle,
the oracle's own word enumeration, and the package's module set."""

import os
import random
import string
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

import wordlab
from wordlab import palindromic_complexity, subword_complexity
from wordlab.classify import classify
from wordlab.complexity import StructuralIndices, k_index, r_index

import oracle
from oracle import all_words, longest_border, palindromic_factors, words_up_to


@st.composite
def words_over_up_to_26_letters(draw, max_len):
    k = draw(st.integers(1, 26))
    n = draw(st.integers(0, max_len))
    return draw(st.text(alphabet=string.ascii_lowercase[:k], min_size=n, max_size=n))


def test_all_words_examples():
    assert list(all_words("ab", 2)) == ["aa", "ab", "ba", "bb"]
    assert len(list(all_words("ab", 5))) == 32
    assert list(all_words("a", 3)) == ["aaa"]
    assert list(all_words("ab", 0)) == [""]


def test_all_words_respects_alphabet_order():
    assert list(all_words("ba", 2)) == ["bb", "ba", "ab", "aa"]


def test_words_up_to():
    got = list(words_up_to("ab", 2))
    assert got == ["", "a", "b", "aa", "ab", "ba", "bb"]


def test_kernels_match_oracle_on_all_ternary_words_up_to_8():
    for w in words_up_to("abc", 8):
        assert subword_complexity(w) == oracle.subword_complexity(w), w
        assert palindromic_complexity(w) == oracle.palindromic_complexity(w), w


@settings(deadline=None)
@given(words_over_up_to_26_letters(300))
def test_kernels_match_oracle_on_random_words(w):
    assert subword_complexity(w) == oracle.subword_complexity(w)
    assert palindromic_complexity(w) == oracle.palindromic_complexity(w)


def test_kernels_match_oracle_on_long_seeded_words():
    rng = random.Random(2000)
    for alphabet in ("ab", string.ascii_lowercase):
        w = "".join(rng.choice(alphabet) for _ in range(2000))
        assert subword_complexity(w) == oracle.subword_complexity(w), alphabet
        assert palindromic_complexity(w) == oracle.palindromic_complexity(w), alphabet


def _trapezoid_runs(values):
    """(r, s) with values == 1^r 0^s (-1)^r, by trying every r."""
    n = len(values)
    for r in range(n // 2 + 1):
        if values == (1,) * r + (0,) * (n - 2 * r) + (-1,) * r:
            return (r, n - 2 * r)
    return None


def _assert_profile_matches_oracle(w):
    report = classify(w)
    c = oracle.subword_complexity(w)
    assert report.subword == tuple(c)
    assert report.palindromic == tuple(oracle.palindromic_complexity(w))
    if w:
        values = tuple(c[n + 1] - c[n] for n in range(len(w)))
        assert report.difference.values == values
        assert report.difference.trapezoid_runs == _trapezoid_runs(values)
    else:
        assert report.difference is None
    assert report.indices == StructuralIndices(
        r_index(w), k_index(w), len(w) - len(longest_border(w)) if w else None
    )
    assert report.palindromic_factors == tuple(
        sorted(palindromic_factors(w), key=lambda f: (len(f), f))
    )


def test_classify_profiles_match_oracle_on_ternary_words_up_to_6():
    for w in words_up_to("abc", 6):
        _assert_profile_matches_oracle(w)


@settings(deadline=None)
@given(words_over_up_to_26_letters(120))
def test_classify_profiles_match_oracle_on_random_words(w):
    _assert_profile_matches_oracle(w)


def test_the_package_loads_every_module_it_ships():
    # wordlab and wordlab.cli between them load every production module, so a module
    # they leave out (a test reference, say) does not belong in the package;
    # __main__ is the entry point of `python -m wordlab`
    src = os.path.dirname(os.path.dirname(os.path.abspath(wordlab.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = (
        "import pkgutil, sys, wordlab, wordlab.cli\n"
        "shipped = [m.name for m in pkgutil.iter_modules(wordlab.__path__)]\n"
        "print([m for m in shipped if m != '__main__' and 'wordlab.' + m not in sys.modules])"
    )
    child = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert (child.returncode, child.stdout, child.stderr) == (0, "[]\n", "")
