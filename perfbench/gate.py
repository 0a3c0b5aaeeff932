"""Correctness gate: checks every CLI output of a benchmark run.

The references do not come from the code under test:

- verify: exit code 0, ``verified: true``, no counterexamples, and
  ``words_checked`` equal to the closed form sum_{n<=m} k^n.
- census: totals equal k^n; the ``balanced`` column equals the closed
  form 1 + sum_{j=1..n} (n-j+1) phi(j) for binary words (Lipatov 1982,
  Mignosi 1991), lifted to k letters; binary ``rich`` counts equal the
  published sequence (OEIS A216264); every column equals the counts
  recorded in references.json.
- analyze: the SHA-256 digest of the JSON payload equals the one
  recorded in references.json, and C[N+1] == 0, sum(P) ==
  palindrome_count and pi == N - |longest border|, with the border taken
  from a KMP failure table computed here.

This module never imports wordlab, so a defect in the program cannot
leak into its own reference.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCES_PATH = Path(__file__).resolve().parent / "references.json"

# Binary rich words of length 1..13 (OEIS A216264).
BINARY_RICH = (2, 4, 8, 16, 32, 64, 128, 252, 488, 932, 1756, 3246, 5916)

CENSUS_COLUMNS = (
    "rich",
    "trapezoidal",
    "balanced",
    "sturmian_palindrome",
    "condition_B",
    "condition_B_prime",
)


@dataclass
class References:
    """Reference values: census columns keyed by alphabet size, analyze
    digests keyed by word length, then pool class, then pool index."""

    census: dict[str, dict[str, list[int]]]
    analyze: dict[str, dict[str, list[str]]]
    binary_rich: tuple[int, ...] = BINARY_RICH


def load_references(path: Path = REFERENCES_PATH) -> References:
    data = json.loads(path.read_text())
    return References(census=data["census"], analyze=data["analyze"])


def payload_digest(payload: dict) -> str:
    """Digest of a JSON payload, independent of key order and spacing."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def words_up_to(k: int, max_len: int) -> int:
    return sum(k**n for n in range(max_len + 1))


def _phi(n: int) -> int:
    return sum(1 for j in range(1, n + 1) if math.gcd(j, n) == 1)


def balanced_words(k: int, n: int) -> int:
    """Balanced words of length n >= 1 over k letters that use at most two
    of them: every pair of letters contributes its binary balanced words,
    and each constant word is shared by k - 1 pairs."""
    binary = 1 + sum((n - j + 1) * _phi(j) for j in range(1, n + 1))
    return math.comb(k, 2) * (binary - 2) + k


def border_length(w: str) -> int:
    """Length of the longest proper border of w, from the KMP failure table."""
    fail = [0] * len(w)
    k = 0
    for i in range(1, len(w)):
        while k and w[i] != w[k]:
            k = fail[k - 1]
        if w[i] == w[k]:
            k += 1
        fail[i] = k
    return fail[-1] if w else 0


def _parse(rc, stdout: str) -> tuple[dict | None, list[str]]:
    if rc != 0:
        return None, [f"exit code {rc}, expected 0"]
    try:
        return json.loads(stdout), []
    except ValueError:
        return None, ["output is not JSON"]


def check_verify(call, rc, stdout: str, refs: References) -> list[str]:
    payload, errors = _parse(rc, stdout)
    if payload is None:
        return errors
    expected = words_up_to(len(call.alphabet), call.max_len)
    if payload.get("claim") != call.claim:
        errors.append(f"claim {payload.get('claim')!r}, expected {call.claim!r}")
    if payload.get("verified") is not True or payload.get("counterexamples"):
        errors.append("claim not verified")
    if payload.get("words_checked") != expected:
        errors.append(f"words_checked {payload.get('words_checked')}, expected {expected}")
    return errors


def check_census(call, rc, stdout: str, refs: References) -> list[str]:
    payload, errors = _parse(rc, stdout)
    if payload is None:
        return errors
    k, n = len(call.alphabet), call.max_len
    lengths = range(1, n + 1)
    expected = {
        "lengths": list(lengths),
        "total": [k**m for m in lengths],
        "balanced": [balanced_words(k, m) for m in lengths],
    }
    if k == 2:
        expected["rich"] = list(refs.binary_rich[:n])
    for column, values in expected.items():
        if payload.get(column) != values:
            errors.append(f"{column} column differs from its closed form")
    recorded = refs.census[str(k)]
    for column in CENSUS_COLUMNS:
        if payload.get(column) != recorded[column][:n]:
            errors.append(f"{column} column differs from the recorded counts")
    return errors


def check_analyze(call, rc, stdout: str, refs: References) -> list[str]:
    payload, errors = _parse(rc, stdout)
    if payload is None:
        return errors
    w, n = call.word, len(call.word)
    if payload_digest(payload) != refs.analyze[str(n)][call.pool][call.index]:
        errors.append("payload digest differs from the recorded one")
    c, p = payload.get("C") or [], payload.get("P") or []
    if len(c) != n + 2 or c[n + 1] != 0:
        errors.append("C[N+1] != 0")
    if sum(p) != payload.get("palindrome_count"):
        errors.append("sum(P) != palindrome_count")
    if payload.get("pi") != n - border_length(w):
        errors.append("pi != N - |longest border|")
    return errors


CHECKS = {"verify": check_verify, "census": check_census, "analyze": check_analyze}


def check(call, rc, stdout: str, refs: References) -> list[str]:
    """Problems with one call's exit code and output; empty when correct."""
    return CHECKS[call.kind](call, rc, stdout, refs)
