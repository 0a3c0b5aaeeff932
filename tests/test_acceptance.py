"""Acceptance suite: the package's exit checklist, each exhaustive check
at its full range.

Each test prints one PASS/FAIL line (run pytest with -s to see them all;
failures surface the line in the captured output either way).  All
identities here are exact integer checks, so no tolerances apply.
"""

import json
import math
import random

from wordlab import (
    central_word,
    census,
    condition_B_prime,
    find_class_members,
    is_sturmian_palindrome,
    is_trapezoidal,
    sturmian_corpus,
    verify_claim,
)
from wordlab.classify import (
    is_finite_sturmian,
    is_rich_by_count,
    theta_palindrome_check,
)
from wordlab.complexity import minimal_period
from wordlab.core import is_palindrome
from wordlab.generate import random_words
from wordlab.palindromes import index_count_palindromes
from wordlab.cli import main as cli_main
from wordlab.oracle import (
    all_words,
    longest_border,
    palindromic_complexity,
    palindromic_factors,
    words_up_to,
)


def report(num: int, description: str, failures, extra: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    tail = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {num:02d} {status}: {description}{tail}")
    assert not failures, f"criterion {num}: {failures[:5]}"


def test_criterion_01_richness_routes_agree():
    binary = verify_claim("PROP1", "ab", 14)
    ternary = verify_claim("PROP1", "abc", 9)
    failures = binary.counterexamples + ternary.counterexamples
    elapsed = binary.elapsed_seconds + ternary.elapsed_seconds
    if elapsed >= 120.0:
        failures = failures + [("(runtime)", f"{elapsed:.1f}s >= 120s")]
    report(
        1,
        "richness by count == richness by returns, binary <=14 and ternary <=9",
        failures,
        f"{binary.words_checked + ternary.words_checked} words in {elapsed:.1f}s",
    )


def test_criterion_02_rich_palindrome_identity():
    rep = verify_claim("THM_FGC", "ab", 16)
    report(
        2,
        "rich palindrome <=> P(n)+P(n+1) = C(n+1)-C(n)+2 pointwise, binary <=16",
        rep.counterexamples,
        f"{rep.words_checked} words",
    )


def test_criterion_03_sturmian_palindrome_three_way():
    rep = verify_claim("THM_MAIN", "ab", 20)
    report(
        3,
        "Sturmian palindrome == symmetric P-profile == trapezoidal palindrome, binary <=20",
        rep.counterexamples,
        f"{rep.words_checked} words",
    )


def test_criterion_04_trapezoidal_implies_rich_with_witnesses():
    rep = verify_claim("PROP2", "ab", 20)
    failures = list(rep.counterexamples)
    rich_not_trap = find_class_members("rich_not_trapezoidal", "ab", 6)
    if "aabbaa" not in rich_not_trap:
        failures.append(("aabbaa", "missing from rich-but-not-trapezoidal enumeration"))
    trap_not_sturm = find_class_members("trapezoidal_not_sturmian", "ab", 6)
    if "aaabab" not in trap_not_sturm:
        failures.append(("aaabab", "missing from trapezoidal-but-not-Sturmian enumeration"))
    report(
        4,
        "no trapezoidal-but-not-rich word, binary <=20; length-6 witnesses found",
        failures,
        f"{rep.words_checked} words",
    )


def test_criterion_05_palindromic_factor_bound_characterizes_richness():
    failures = []
    checked = 0
    for alphabet, max_len in (("ab", 16), ("abc", 10)):  # the claim's carried count
        rep = verify_claim("PAL_BOUND", alphabet, max_len)
        failures += rep.counterexamples
        checked += rep.words_checked
    for alphabet, max_len in (("ab", 14), ("abc", 9)):
        for w in words_up_to(alphabet, max_len):
            checked += 1
            count = len(palindromic_factors(w))
            if count > len(w) + 1:
                failures.append((w, f"{count} palindromic factors"))
            elif (count == len(w) + 1) != is_rich_by_count(w):
                failures.append((w, "bound equality disagrees with is_rich"))
    report(
        5,
        "palindromic factor count <= |w|+1 (binary <=16, ternary <=10), equality exactly "
        "on rich words (binary <=14, ternary <=9)",
        failures,
        f"{checked} words",
    )


def test_criterion_06_period_inequality_and_border_identity():
    rep = verify_claim("PERIOD_INEQ", "ab", 16)
    failures = list(rep.counterexamples)
    for w in words_up_to("ab", 14):
        if not w:
            continue
        direct = minimal_period(w)  # direct shift-compare scan
        if direct != len(w) - len(longest_border(w)):
            failures.append((w, "border identity violated"))
    report(
        6,
        "minimal period >= R+1 (binary <=16) and equals |w| - |longest border| (binary <=14)",
        failures,
        f"{rep.words_checked} words",
    )


def test_criterion_07_theta_involution_matches_symmetry_condition():
    failures = []
    for w in words_up_to("ab", 14):
        profile = palindromic_complexity(w)[: len(w) + 1]
        in_range = all(v <= 2 for v in profile)
        symmetric = in_range and theta_palindrome_check(profile)
        if symmetric != condition_B_prime(w):
            failures.append((w, f"theta check {symmetric}"))
    report(7, "theta-palindrome test on P-profile == symmetry condition, binary <=14", failures)


def test_criterion_08_index_matches_naive_oracle():
    failures = []
    rng = random.Random(0x5EED)
    checked = 0
    for _ in range(1000):
        length = rng.randint(0, 300)
        (w,) = random_words("ab", length, 1, seed=rng.getrandbits(32))
        checked += 1
        if index_count_palindromes(w) + 1 != len(palindromic_factors(w)):
            failures.append((w, "index disagrees with naive set"))
    for w in words_up_to("ab", 12):
        checked += 1
        if index_count_palindromes(w) + 1 != len(palindromic_factors(w)):
            failures.append((w, "index disagrees with naive set"))
    report(
        8,
        "palindrome index == naive set on 1000 seeded words <=300 and binary <=12",
        failures,
        f"{checked} words",
    )


def test_criterion_09_no_wide_alphabet_trapezoids():
    rep = verify_claim("BINARY_TRAP", "abc", 10)
    report(
        9,
        "no trapezoidal word uses 3 distinct symbols, ternary <=10",
        rep.counterexamples,
        f"{rep.words_checked} words",
    )


def test_criterion_10_christoffel_pipeline():
    failures = []
    for total in range(2, 21):
        for p in range(1, total):
            q = total - p
            if math.gcd(p, q) != 1:
                continue
            c = central_word(p, q)
            if not is_sturmian_palindrome(c):
                failures.append((c, f"central({p},{q}) not a Sturmian palindrome"))
            if not condition_B_prime(c):
                failures.append((c, f"central({p},{q}) fails the symmetry condition"))
            if not (is_palindrome(c) and is_trapezoidal(c)):
                failures.append((c, f"central({p},{q}) not a trapezoidal palindrome"))
    corpus = sturmian_corpus(12, 8)
    for w in corpus:
        if not is_finite_sturmian(w):
            failures.append((w, "corpus member not finite Sturmian"))
        if not is_rich_by_count(w):
            failures.append((w, "corpus member not rich"))
        if not is_trapezoidal(w):
            failures.append((w, "corpus member not trapezoidal"))
    report(
        10,
        "central words pass all three Sturmian-palindrome conditions; corpus members "
        "are Sturmian, rich, trapezoidal",
        failures,
        f"corpus size {len(corpus)}",
    )


def test_criterion_11_trapezoid_routes_agree():
    rep = verify_claim("PROFILE_EQUIV", "ab", 14)
    report(
        11,
        "|w| = R+K classification matches 1^r 0^s (-1)^r profile shape, binary <=14",
        rep.counterexamples,
        f"{rep.words_checked} words, discrepancies reported as findings",
    )


def test_criterion_12_census_sanity():
    failures = []
    table = census("ab", 4)
    if table.counts["balanced"] != [2, 4, 8, 14]:
        failures.append(("census", f"balanced row {table.counts['balanced']}"))
    balanced4 = set(find_class_members("balanced", "ab", 4))
    unbalanced = sorted(w for w in all_words("ab", 4) if w not in balanced4)
    if unbalanced != ["aabb", "bbaa"]:
        failures.append(("unbalanced", f"length-4 unbalanced words {unbalanced}"))
    report(12, "balanced binary counts at lengths 1..4 are [2, 4, 8, 14]", failures)


def test_criterion_13_verify_json_is_deterministic(capsys):
    failures = []
    runs = [
        ("THM_MAIN", "ab", "10"),
        ("PROP1", "abc", "6"),
        ("PAL_BOUND", "a", "5"),
    ]
    for claim, alphabet, max_len in runs:
        base = ["verify", claim, "--alphabet", alphabet, "--max-len", max_len, "--format", "json"]
        code_seq = cli_main(base + ["--sequential"])
        out_seq = capsys.readouterr().out
        code_par = cli_main(base + ["--parallel", "8"])
        out_par = capsys.readouterr().out
        if code_seq != code_par or out_seq != out_par:
            failures.append((claim, "sequential and parallel outputs differ"))
        if json.loads(out_seq)["verified"] is not True:
            failures.append((claim, "expected verified run"))
    report(13, "verify emits byte-identical JSON under --sequential and --parallel 8", failures)


# Binary rich words of length 1..13 (OEIS A216264).
BINARY_RICH = [2, 4, 8, 16, 32, 64, 128, 252, 488, 932, 1756, 3246, 5916]


def test_criterion_14_census_closed_forms():
    failures = []
    table = census("ab", 16)
    for n, got in zip(table.lengths, table.counts["balanced"]):
        phi = [sum(1 for j in range(1, k + 1) if math.gcd(j, k) == 1) for k in range(n + 1)]
        expected = 1 + sum((n - k + 1) * phi[k] for k in range(1, n + 1))
        if got != expected:
            failures.append(("balanced", n, got, expected))
    rich = table.counts["rich"][: len(BINARY_RICH)]
    if rich != BINARY_RICH:
        failures.append(("rich", rich))
    report(
        14,
        "binary census: balanced = 1 + sum (n-k+1) phi(k) to n=16, rich = A216264 to n=13",
        failures,
    )


def test_criterion_15_trapezoidal_words_are_closed_under_factors():
    # PROP2 and BINARY_TRAP check only the trapezoidal subtree, which this justifies
    binary = verify_claim("TRAP_CLOSED", "ab", 16)
    ternary = verify_claim("TRAP_CLOSED", "abc", 10)
    report(
        15,
        "w[:-1], w[1:] and the reversal of a trapezoidal word are trapezoidal, "
        "binary <=16 and ternary <=10",
        binary.counterexamples + ternary.counterexamples,
        f"{binary.words_checked + ternary.words_checked} words",
    )
