"""In-memory span tracer patched around wordlab's public functions.

The program is not edited: for the length of a traced pass, module
attributes are replaced by timing wrappers and the originals are put
back afterwards.  ``from .x import y`` copies a function into every
importing module, so each binding is patched, found by identity in every
loaded ``wordlab`` module.  The ``CLAIMS`` checkers, the ``PREDICATES``
entries and ``theorems.Pool`` are wrapped as well.

Spans are aggregated per name: calls, total and self nanoseconds.  A
span's self time is its duration minus the durations of the spans it
directly encloses.  The wrapper of a child span costs its parent about a
microsecond outside the child's own span; discount() takes that cost,
measured by wrapper_cost_ns(), out of the parents' self times.  Spans
inside forked pool workers are recorded in the worker's copy of the
tracer and are lost.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
from collections import Counter
from contextlib import ExitStack, contextmanager
from statistics import median
from time import perf_counter_ns

# Public functions traced per module, reported as <module>.<function>.
LAYER_FUNCTIONS = {
    "complexity": (
        "subword_complexity",
        "palindromic_complexity",
        "difference_profile",
        "r_index",
        "k_index",
        "minimal_period",
        "structural_indices",
    ),
    "classify": (
        "classify",
        "is_rich_by_count",
        "is_rich_by_returns",
        "is_trapezoidal",
        "has_trapezoidal_profile",
        "is_balanced",
        "unbalance_witness",
        "condition_B_mismatches",
        "condition_B_prime",
    ),
    "palindromes": ("index_count_palindromes",),
    "core": ("palindromic_factors", "complete_returns"),
    "cli": ("main",),
}
# Also traced: theorems functions whose self time is the enumeration loop
# around the claim checkers and predicates.
ENUMERATORS = ("verify_claim", "census")
CALIBRATION_CALLS = 10_000
CALIBRATION_REPEATS = 7


class Tracer:
    """Per-name span aggregates and counters of one traced pass."""

    def __init__(self) -> None:
        # name -> [calls, total ns, self ns, spans directly enclosed]
        self.spans: dict[str, list[int]] = {}
        self.counts: Counter[str] = Counter()
        self.root_ns = 0  # summed durations of the top-level spans
        self._open: list[list[int]] = []  # per open span, [ns, count] of its child spans

    def span(self, name: str) -> tuple[int, int, int]:
        """(calls, total ns, self ns) of a span name; zeros if never entered."""
        return tuple(self.spans.get(name, (0, 0, 0, 0))[:3])

    def wrap(self, name: str, fn):
        stats = self.spans.setdefault(name, [0, 0, 0, 0])
        stack = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0, 0]
            stack.append(children)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - children[0]
                stats[3] += children[1]
                if stack:
                    stack[-1][0] += elapsed
                    stack[-1][1] += 1
                else:
                    self.root_ns += elapsed

        return traced

    def discount(self, wrapper_ns: float) -> None:
        """Take the tracer's own cost out of the self times: each child span
        added `wrapper_ns` to the span that encloses it."""
        for stats in self.spans.values():
            stats[2] = max(0, round(stats[2] - stats[3] * wrapper_ns))

    def merge(self, other: Tracer) -> None:
        for name, stats in other.spans.items():
            mine = self.spans.setdefault(name, [0, 0, 0, 0])
            for i, value in enumerate(stats):
                mine[i] += value
        self.counts.update(other.counts)
        self.root_ns += other.root_ns


def wrapper_cost_ns() -> float:
    """Time a traced call adds to the self time of the span enclosing it:
    the median over CALIBRATION_REPEATS of the self time of a traced loop
    over CALIBRATION_CALLS traced no-ops, less the time of the same loop
    untraced, per call."""

    def noop():
        pass

    def loop(fn):
        for _ in range(CALIBRATION_CALLS):
            fn()

    costs = []
    for _ in range(CALIBRATION_REPEATS):
        tracer = Tracer()
        tracer.wrap("loop", loop)(tracer.wrap("noop", noop))
        start = perf_counter_ns()
        loop(noop)
        untraced = perf_counter_ns() - start
        costs.append((tracer.span("loop")[2] - untraced) / CALIBRATION_CALLS)
    return median(costs)


def _set_attr(stack: ExitStack, obj, name: str, value) -> None:
    stack.callback(setattr, obj, name, getattr(obj, name))
    setattr(obj, name, value)


def _set_item(stack: ExitStack, mapping: dict, key, value) -> None:
    stack.callback(mapping.__setitem__, key, mapping[key])
    mapping[key] = value


@contextmanager
def patched(tracer: Tracer):
    """Route wordlab's traced functions through `tracer`; restore on exit."""
    modules = {
        name: mod
        for name, mod in list(sys.modules.items())
        if name == "wordlab" or name.startswith("wordlab.")
    }
    with ExitStack() as stack:
        wrappers: dict[int, tuple[object, object]] = {}  # id(original) -> (original, wrapper)
        for short, names in {**LAYER_FUNCTIONS, "theorems": ENUMERATORS}.items():
            source = modules[f"wordlab.{short}"]
            for name in names:
                original = getattr(source, name)
                wrapper = tracer.wrap(f"{short}.{name}", original)
                if name == "index_count_palindromes":
                    wrapper = _counting_symbols(tracer, wrapper)
                wrappers[id(original)] = (original, wrapper)

        def traced(value):
            hit = wrappers.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else value

        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if traced(value) is not value:
                    _set_attr(stack, mod, attr, traced(value))

        theorems = modules["wordlab.theorems"]
        for claim, spec in list(theorems.CLAIMS.items()):
            checker = tracer.wrap(f"theorems.claim.{claim}", traced(spec.checker))
            _set_item(stack, theorems.CLAIMS, claim, dataclasses.replace(spec, checker=checker))
        for name, predicate in list(theorems.PREDICATES.items()):
            wrapper = tracer.wrap(f"theorems.predicate.{name}", traced(predicate))
            _set_item(stack, theorems.PREDICATES, name, wrapper)
        _set_attr(stack, theorems, "Pool", _traced_pool(tracer, theorems.Pool))
        yield tracer


def _counting_symbols(tracer: Tracer, fn):
    """index_count_palindromes, also counting the symbols it indexes."""

    @functools.wraps(fn)
    def counted(w, *args, **kwargs):
        tracer.counts["palindromes.symbols"] += len(w)
        return fn(w, *args, **kwargs)

    return counted


def _traced_pool(tracer: Tracer, make_pool):
    """Pool factory whose pools time map() and count the tasks sent."""

    @functools.wraps(make_pool)
    def pool_factory(*args, **kwargs):
        pool = make_pool(*args, **kwargs)
        timed_map = tracer.wrap("theorems.pool.map", pool.map)

        def map(func, iterable, chunksize=None):
            tasks = list(iterable)
            tracer.counts["theorems.pool.tasks"] += len(tasks)
            return timed_map(func, tasks, chunksize)

        pool.map = map
        return pool

    return pool_factory
