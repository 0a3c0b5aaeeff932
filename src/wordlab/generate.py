"""Word sources: seeded random sampling and a Sturmian corpus built
from rational-slope Christoffel words.

Christoffel words are computed with exact integer arithmetic (no
floating-point slopes), and every factor of one is a finite Sturmian
word, which is what makes them a safe corpus generator.
"""

from __future__ import annotations

import math
import random

from .core import DEFAULT_BUDGET, UsageError, check_alphabet, check_budget


def lower_christoffel(p: int, q: int) -> str:
    """Lower Christoffel word for the coprime pair (p, q), over {a, b}.

    Discretizes the segment of slope alpha = p/(p+q): position i carries
    'a' when floor((i+1) alpha) == floor(i alpha), else 'b'.  The result
    has length p+q with exactly q letters a and p letters b.
    """
    if p < 1 or q < 1:
        raise ValueError("requires positive parameters")
    if math.gcd(p, q) != 1:
        raise ValueError("requires coprime parameters")
    n = p + q
    return "".join("a" if (i + 1) * p // n == i * p // n else "b" for i in range(n))


def central_word(p: int, q: int) -> str:
    """Interior of the lower Christoffel word: first and last letters removed.

    Central words are the canonical Sturmian palindromes.
    """
    return lower_christoffel(p, q)[1:-1]


def sturmian_corpus(max_denominator: int, max_factor_len: int) -> set[str]:
    """Factors (up to max_factor_len) of every lower Christoffel word with
    p + q <= max_denominator.  Every member is a finite Sturmian word.
    Refuses, before building, a loop of more than DEFAULT_BUDGET slices.
    """
    if max_denominator < 1 or max_factor_len < 1:
        raise UsageError("bounds must be positive")
    slices = 0
    for n in range(2, max_denominator + 1):
        words = sum(math.gcd(p, n) == 1 for p in range(1, n))  # phi(n) words of length n
        slices += words * sum(min(max_factor_len, m) for m in range(1, n + 1))
        check_budget(slices, DEFAULT_BUDGET, f"Christoffel factor slices up to length {n}")
    out: set[str] = set()
    for n in range(2, max_denominator + 1):
        for p in range(1, n):
            if math.gcd(p, n) != 1:
                continue
            w = lower_christoffel(p, n - p)
            out.add("")
            for i in range(len(w)):
                for j in range(i + 1, min(i + max_factor_len, len(w)) + 1):
                    out.add(w[i:j])
    return out


def random_words(alphabet: str, length: int, count: int, seed: int) -> list[str]:
    """Uniform random words of one length, deterministic for a fixed seed.

    Uses the stdlib Mersenne Twister; record the seed next to any output
    derived from these words.
    """
    if length < 0 or count < 0:
        raise ValueError("length and count must be non-negative")
    check_alphabet(alphabet)
    rng = random.Random(seed)
    return ["".join(rng.choices(alphabet, k=length)) for _ in range(count)]
