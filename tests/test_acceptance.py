"""Acceptance suite: the package's exit checklist, each exhaustive check
at its full range.

Each test prints one PASS/FAIL line (run pytest with -s to see them all;
failures surface the line in the captured output either way).  All
identities here are exact integer checks, so no tolerances apply.
"""

import itertools
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
from wordlab.classify import is_finite_sturmian, is_rich_by_count
from wordlab.complexity import minimal_period
from wordlab.core import is_palindrome
from wordlab.generate import random_words
from wordlab.palindromes import index_count_palindromes
from wordlab.cli import main as cli_main

from oracle import (
    all_words,
    longest_border,
    palindromic_complexity,
    palindromic_factors,
    theta_palindrome_check,
    words_up_to,
)


def report(num: int, description: str, failures, extra: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    tail = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {num:02d} {status}: {description}{tail}")
    assert not failures, f"criterion {num}: {failures[:5]}"


def test_criterion_01_richness_routes_agree():
    # the walk stops below each word rich by neither route, so the bounds reach further
    reports = [verify_claim("PROP1", a, n) for a, n in (("ab", 18), ("abc", 12), ("abcd", 9))]
    failures = [hit for r in reports for hit in r.counterexamples]
    elapsed = sum(r.elapsed_seconds for r in reports)
    if elapsed >= 120.0:
        failures = failures + [("(runtime)", f"{elapsed:.1f}s >= 120s")]
    report(
        1,
        "richness by count == richness by returns, binary <=18, ternary <=12, quaternary <=9",
        failures,
        f"{sum(r.words_checked for r in reports)} words in {elapsed:.1f}s",
    )


def test_criterion_02_rich_palindrome_identity():
    binary = verify_claim("THM_FGC", "ab", 25)  # the default budget's binary ceiling
    ternary = verify_claim("THM_FGC", "abc", 15)
    report(
        2,
        "rich palindrome <=> P(n)+P(n+1) = C(n+1)-C(n)+2 pointwise, binary <=25, ternary <=15",
        binary.counterexamples + ternary.counterexamples,
        f"{binary.words_checked + ternary.words_checked} words",
    )


def test_criterion_03_sturmian_palindrome_three_way():
    binary = verify_claim("THM_MAIN", "ab", 25)
    ternary = verify_claim("THM_MAIN", "abc", 15)
    report(
        3,
        "Sturmian palindrome == symmetric P-profile == trapezoidal palindrome, "
        "binary <=25, ternary <=15",
        binary.counterexamples + ternary.counterexamples,
        f"{binary.words_checked + ternary.words_checked} words",
    )


def test_criterion_04_trapezoidal_implies_rich_with_witnesses():
    rep = verify_claim("PROP2", "ab", 24)
    failures = list(rep.counterexamples)
    rich_not_trap = find_class_members("rich_not_trapezoidal", "ab", 6)
    if "aabbaa" not in rich_not_trap:
        failures.append(("aabbaa", "missing from rich-but-not-trapezoidal enumeration"))
    trap_not_sturm = find_class_members("trapezoidal_not_sturmian", "ab", 6)
    if "aaabab" not in trap_not_sturm:
        failures.append(("aaabab", "missing from trapezoidal-but-not-Sturmian enumeration"))
    report(
        4,
        "no trapezoidal-but-not-rich word, binary <=24; length-6 witnesses found",
        failures,
        f"{rep.words_checked} words",
    )


def test_criterion_05_palindromic_factor_bound_characterizes_richness():
    failures = []
    checked = 0
    for alphabet, max_len in (("ab", 16), ("abc", 11)):  # the claim's carried count
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
        "palindromic factor count <= |w|+1 (binary <=16, ternary <=11), equality exactly "
        "on rich words (binary <=14, ternary <=9)",
        failures,
        f"{checked} words",
    )


def test_criterion_06_period_inequality_and_border_identity():
    rep = verify_claim("PERIOD_INEQ", "ab", 18)
    failures = list(rep.counterexamples)
    for w in words_up_to("ab", 14):
        if not w:
            continue
        direct = minimal_period(w)  # direct shift-compare scan
        if direct != len(w) - len(longest_border(w)):
            failures.append((w, "border identity violated"))
    report(
        6,
        "minimal period >= R+1 (binary <=18) and equals |w| - |longest border| (binary <=14)",
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
    rep = verify_claim("BINARY_TRAP", "abc", 15)
    report(
        9,
        "no trapezoidal word uses 3 distinct symbols, ternary <=15",
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
    # the R+K route settles to False below a non-trapezoidal word; criterion 15, at the same
    # bounds, checks the closure that rests on
    binary = verify_claim("PROFILE_EQUIV", "ab", 18)
    ternary = verify_claim("PROFILE_EQUIV", "abc", 11)
    report(
        11,
        "|w| = R+K classification matches 1^r 0^s (-1)^r profile shape, "
        "binary <=18 and ternary <=11",
        binary.counterexamples + ternary.counterexamples,
        f"{binary.words_checked + ternary.words_checked} words, "
        "discrepancies reported as findings",
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
    phi = [sum(1 for j in range(1, k + 1) if math.gcd(j, k) == 1) for k in range(17)]
    big_phi = list(itertools.accumulate(phi))  # big_phi[j] = phi(1) + ... + phi(j)

    def balanced(n):
        return 1 + sum((n - k + 1) * phi[k] for k in range(1, n + 1))

    def sturmian_palindromes(n):  # A. de Luca & A. De Luca 2006
        return 1 + sum(phi[n - 2 * j] for j in range((n + 1) // 2))

    def trapezoidal(n):  # observed, not cited: fitted to n <= 20, held to n = 50
        return balanced(n) + 2 * sum(big_phi[m // 2] - 1 for m in range(2, n + 1))

    closed_forms = {
        "balanced": balanced,
        "sturmian_palindrome": sturmian_palindromes,
        "condition_B_prime": sturmian_palindromes,
        "trapezoidal": trapezoidal,
    }
    for column, closed_form in closed_forms.items():
        for n, got in zip(table.lengths, table.counts[column]):
            if got != closed_form(n):
                failures.append((column, n, got, closed_form(n)))
    rich = table.counts["rich"][: len(BINARY_RICH)]
    if rich != BINARY_RICH:
        failures.append(("rich", rich))
    report(
        14,
        "binary census to n=16: balanced = 1 + sum (n-k+1) phi(k); Sturmian palindromes "
        "and B' = 1 + sum_{j<ceil(n/2)} phi(n-2j) (de Luca & De Luca 2006); trapezoidal "
        "= balanced + 2 sum_{m=2..n} (Phi(m//2) - 1) (observed); rich = A216264 to n=13",
        failures,
    )


def test_criterion_15_trapezoidal_words_are_closed_under_factors():
    # PROP2 and BINARY_TRAP check only the trapezoidal subtree, and PROFILE_EQUIV settles its
    # R+K route below it, which this justifies
    binary = verify_claim("TRAP_CLOSED", "ab", 18)
    ternary = verify_claim("TRAP_CLOSED", "abc", 11)
    report(
        15,
        "w[:-1], w[1:] and the reversal of a trapezoidal word are trapezoidal, "
        "binary <=18 and ternary <=11",
        binary.counterexamples + ternary.counterexamples,
        f"{binary.words_checked + ternary.words_checked} words",
    )


def test_criterion_16_semicentral_words_are_trapezoidal():
    # Bucci, De Luca & Fici 2013: u x y u with u central and x != y is an (open) trapezoidal word
    words = [
        u + xy + u
        for total in range(2, 63)
        for p in range(1, total)
        if math.gcd(p, total) == 1
        for u in [central_word(p, total - p)]
        for xy in ("ab", "ba")
    ]
    report(
        16,
        "every semicentral word u x y u, u = central_word(p, q), p + q <= 62, x != y, "
        "is trapezoidal",
        [w for w in words if not is_trapezoidal(w)],
        f"{len(words)} words",
    )
