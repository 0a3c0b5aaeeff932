"""Workload definitions: the CLI calls each workload makes, built from a seed.

The seed picks the letters of every alphabet, the order of the calls and
the analyze inputs; the program sees only the generated argv.  Renaming
letters changes no count and no cost, so every seed measures the same
work and passes the same gate.

analyze-long draws its words from fixed pools of POOL_SIZE words per
class (pool word i comes from its own generator seed), because the gate
compares each payload with a digest recorded for that pool word.
"""

from __future__ import annotations

import math
import random
import string
from collections.abc import Callable
from dataclasses import dataclass

from gate import words_up_to

CLAIM_IDS = (
    "PROP1",
    "PROP2",
    "THM_FGC",
    "THM_MAIN",
    "PAL_BOUND",
    "PERIOD_INEQ",
    "BINARY_TRAP",
    "PROFILE_EQUIV",
)

POOL_SIZE = 200
POOLS = ("binary", "quaternary", "christoffel")

# Sizes per scale; "tiny" keeps every workload's shape for smoke tests.
SCALES = {
    "full": {
        "sweep": ((2, 13), (3, 8)),
        "pool": (("BINARY_TRAP", 20), ("PROP1", 14)),
        "analyze_len": 300,
        "analyze_per_pool": 40,
    },
    "tiny": {
        "sweep": ((2, 6), (3, 4)),
        "pool": (("BINARY_TRAP", 10), ("PROP1", 7)),
        "analyze_len": 24,
        "analyze_per_pool": 3,
    },
}

WORKERS = 2


@dataclass(frozen=True)
class Call:
    """One CLI invocation and what the gate needs to check its output."""

    kind: str  # "verify", "census" or "analyze"
    argv: tuple[str, ...]
    words: int  # words checked or classified
    alphabet: str = ""
    max_len: int = 0
    claim: str = ""
    word: str = ""
    pool: str = ""
    index: int = 0


def _letters(rng: random.Random, k: int) -> str:
    return "".join(rng.sample(string.ascii_lowercase, k))


def verify_call(claim: str, alphabet: str, max_len: int, mode: tuple[str, ...]) -> Call:
    argv = ("verify", claim, "--alphabet", alphabet, "--max-len", str(max_len))
    return Call(
        kind="verify",
        argv=argv + mode + ("--format", "json"),
        words=words_up_to(len(alphabet), max_len),
        alphabet=alphabet,
        max_len=max_len,
        claim=claim,
    )


def sequential(call: Call) -> Call:
    """The same verify call, run without a pool."""
    return verify_call(call.claim, call.alphabet, call.max_len, ("--sequential",))


def pool_word(generate, pool: str, index: int, length: int) -> str:
    """Word `index` of an analyze pool, generated by wordlab.generate."""
    if pool == "binary":
        return generate.random_words("ab", length, 1, seed=index)[0]
    if pool == "quaternary":
        return generate.random_words("abcd", length, 1, seed=POOL_SIZE + index)[0]
    # A window of a lower Christoffel word with p + q >= length.
    rng = random.Random(2 * POOL_SIZE + index)
    while True:
        total = rng.randint(length, 2 * length)
        p = rng.randint(1, total - 1)
        if math.gcd(p, total - p) == 1:
            break
    start = rng.randint(0, total - length)
    return generate.lower_christoffel(p, total - p)[start : start + length]


def _verify_sweep(rng, scale, generate):
    calls = [
        verify_call(claim, _letters(rng, k), m, ("--sequential",))
        for k, m in scale["sweep"]
        for claim in CLAIM_IDS
    ]
    rng.shuffle(calls)
    return calls


def _verify_pool(rng, scale, generate):
    mode = ("--parallel", str(WORKERS))
    return [verify_call(claim, _letters(rng, 2), m, mode) for claim, m in scale["pool"]]


def _census_sweep(rng, scale, generate):
    calls = []
    for k, m in scale["sweep"]:
        alphabet = _letters(rng, k)
        argv = ("census", "--alphabet", alphabet, "--max-len", str(m), "--format", "json")
        calls.append(
            Call("census", argv, words_up_to(k, m) - 1, alphabet=alphabet, max_len=m)
        )
    rng.shuffle(calls)
    return calls


def _analyze_long(rng, scale, generate):
    length, count = scale["analyze_len"], scale["analyze_per_pool"]
    per_pool = []
    for pool in POOLS:
        per_pool.append(
            [
                Call(
                    "analyze",
                    ("analyze", word, "--format", "json"),
                    1,
                    word=word,
                    pool=pool,
                    index=index,
                )
                for index in rng.sample(range(POOL_SIZE), count)
                for word in [pool_word(generate, pool, index, length)]
            ]
        )
    # Interleave the pools so that any prefix of the calls mixes them evenly.
    return [call for group in zip(*per_pool) for call in group]


@dataclass(frozen=True)
class Workload:
    why: str
    build: Callable[[random.Random, dict, object], list[Call]]


WORKLOADS = {
    "verify-sweep": Workload(
        "all 8 claims, sequential, to length 13 over 2 letters and length 8 over 3: "
        "the predicate layers do nearly all the work",
        _verify_sweep,
    ),
    "verify-pool": Workload(
        "BINARY_TRAP to length 20 and PROP1 to length 14 with --parallel 2: "
        "enumeration and pool dispatch, then the same pool with heavy predicates",
        _verify_pool,
    ),
    "census-sweep": Workload(
        "census to length 13 over 2 letters and length 8 over 3: the PREDICATES "
        "registry, where is_balanced and the naive P and C dominate",
        _census_sweep,
    ),
    "analyze-long": Workload(
        "120 analyze calls at N=300 on binary, 4-letter and Christoffel words: "
        "cubic kernels and balance checks, no enumeration or pool",
        _analyze_long,
    ),
}


def build_calls(workload: str, seed: int, generate, scale: str = "full") -> list[Call]:
    """The calls of one pass of a workload; the same seed gives the same calls."""
    return WORKLOADS[workload].build(random.Random(seed), SCALES[scale], generate)
