"""wordlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  A run imports wordlab from
src/, builds its workload's CLI calls from the seed (workloads.py) and
drives ``wordlab.cli.main(argv)`` in-process with ``--format json``,
capturing stdout.  Every output goes through the correctness gate
(gate.py).  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it give the
provenance of the run, the same timings in wall time, the host's speed
and failed_ratio = failed / attempted.

On a shared 2-vCPU virtual machine (Intel Xeon, Python 3.11) the same
code runs up to twice as slowly in phases, and the wall-time medians of
one workload spread by 12-24% (quartile distance over median) from run
to run.  So the CLI timings are reported in norm_s: each call's wall
time divided by the time of a fixed probe loop run right before and
after it (PhaseClock), 1000 probe loops to the norm_s.  On that machine,
idle, the probe loop takes about 1 ms and a norm_s is close to a second.  A change that slows the program's code shows in
norm_s; a change that only makes the host slower does not.  The probes
see the host only around a call, so they track it less closely for calls
that run longer than a phase (over a second, as on census-sweep and
verify-pool) or on two cores (verify-pool).

--trace 0 cycles through the calls until each has run once and
--seconds have passed, and reports the end-to-end metrics.  Each call's
time is the median over its repeats:

  words_per_s      words checked or classified per norm_s of CLI time,
                   over one pass through the calls (unit 1/norm_s)
  latency_p50_ms   time per CLI call, median over the calls (norm_ms)
  latency_p90_ms   time per CLI call, 90th percentile (norm_ms)
  setup_s          wall seconds of a set-up: importing wordlab,
                   generating the inputs and loading the references.
                   The run sets up again every SETUP_INTERVAL seconds
                   between calls, so that the set-ups meet the host's
                   fast phases, and reports the median of those not
                   taken in a slow phase
  peak_rss_mb      peak resident memory of this process plus that of its
                   largest child (the pool workers on verify-pool)

The line starting "wall " gives words_per_s and the latencies from the
medians of the wall times, in 1/s and ms.

--trace 1 runs one untraced and one traced pass (on verify-pool, one of
each with the pool and one of each without) and reports the per-layer
metrics of tracer.py.  The traced pass runs the calls in this process;
spans inside pool workers are lost, so per-word checker costs come from
the pass without the pool.  Metrics of layers a workload does not use
read 0.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import multiprocessing
import os
import platform
import random
import resource
import sys
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

import gate
from tracer import LAYER_FUNCTIONS, Tracer, patched, wrapper_cost_ns
from workloads import CLAIM_IDS, WORKERS, WORKLOADS, build_calls, sequential

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_INTERVAL = 0.5
# The top-level spans of a traced pass must cover its wall time to within
# this share, plus CALL_MARGIN_S per CLI call.
TRACE_TOLERANCE = 0.01
CALL_MARGIN_S = 50e-6


class SetupError(RuntimeError):
    """The checkout holds no wordlab sources to benchmark."""


def import_program():
    """Import wordlab afresh from the checkout's src/ directory."""
    if not (SRC / "wordlab" / "__init__.py").is_file():
        raise SetupError(f"no wordlab package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in _program_modules():
        del sys.modules[name]
    cli = importlib.import_module("wordlab.cli")
    generate = importlib.import_module("wordlab.generate")
    if Path(cli.__file__).resolve().parent != SRC / "wordlab":
        raise SetupError(f"wordlab was imported from {cli.__file__}, not from {SRC}")
    return cli, generate


def _program_modules() -> list[str]:
    return [name for name in sys.modules if name == "wordlab" or name.startswith("wordlab.")]


def set_up(workload: str, seed: int, scale: str):
    cli, generate = import_program()
    calls = build_calls(workload, seed, generate, scale)
    return cli, calls, gate.load_references()


def set_up_again(clock: PhaseClock, workload: str, seed: int, scale: str) -> Sample:
    """Time set_up() once more, then put back the wordlab modules the run
    drives: pool workers look the program's functions up by module name."""
    running = {name: sys.modules[name] for name in _program_modules()}
    _, sample = clock.measure(lambda: set_up(workload, seed, scale))
    for name in _program_modules():
        del sys.modules[name]
    sys.modules.update(running)
    return sample


PROBE_TEXT = "".join(random.Random(0).choices("abc", k=160))
MIN_PROBES = 3
PROBE_SHARE = 0.1
# One norm_s is the time in which the probe loop runs 1000 times.
PROBE_PER_NORM_S = 1e-3
# A set-up whose nearby probes ran this much slower than the run's fastest
# probe was taken in a slow phase of the host.
SLOW_FACTOR = 1.3


def probe() -> float:
    """Wall time of a fixed pure-Python loop, a gauge of the host's speed now."""
    start = perf_counter()
    n = len(PROBE_TEXT)
    for m in range(1, n, 2):
        len({PROBE_TEXT[i : i + m] for i in range(n - m + 1)})
    return perf_counter() - start


@dataclass(frozen=True)
class Sample:
    """Wall time of one measured step and the mean probe time around it."""

    seconds: float
    probe: float

    @property
    def norm_s(self) -> float:
        """The step's time in norm_s: its wall time in units of the probe
        loop's time at that moment, 1000 probe loops to the norm_s."""
        return self.seconds * PROBE_PER_NORM_S / self.probe


class PhaseClock:
    """Wall time of steps, each tagged with the host's speed around it.

    On a shared virtual machine the same code runs up to twice as slowly
    for stretches of a tenth of a second to tens of seconds while other
    tenants load the host.  The probe loop is timed right before and
    right after each measured step, each time for PROBE_SHARE of the
    step's expected and actual time, and at least MIN_PROBES times.  A
    gc pass runs before the probes after the step, and the probe loop
    keeps nothing alive, so the heap a step leaves behind does not slow
    the probes.

    A step's Sample keeps its wall time and the mean probe time around
    it.  Sample.norm_s measures the step in probe loops; steady() instead
    keeps wall time and drops the samples taken in slow phases.
    """

    def __init__(self) -> None:
        self.probes: list[float] = []
        self.kept = 0
        self.dropped = 0

    def _probe_for(self, seconds: float) -> list[float]:
        times: list[float] = []
        end = perf_counter() + seconds
        while len(times) < MIN_PROBES or perf_counter() < end:
            times.append(probe())
        self.probes += times
        return times

    def measure(self, step, expected: float = 0.0):
        """Run step(), expected to take about `expected` seconds; return its
        result and its Sample."""
        before = self._probe_for(PROBE_SHARE * expected)
        start = perf_counter()
        result = step()
        elapsed = perf_counter() - start
        gc.collect()
        nearby = before + self._probe_for(PROBE_SHARE * elapsed)
        return result, Sample(elapsed, sum(nearby) / len(nearby))

    def steady(self, samples: list[Sample]) -> float:
        """Median wall time of the samples whose nearby probes ran at most
        SLOW_FACTOR times slower than the run's fastest probe; if there are
        none, the wall time of the sample with the fastest probes."""
        limit = SLOW_FACTOR * min(self.probes)
        kept = [s.seconds for s in samples if s.probe <= limit]
        if not kept:
            kept = [min(samples, key=lambda s: s.probe).seconds]
        self.kept += len(kept)
        self.dropped += len(samples) - len(kept)
        return median(kept)

    def report(self) -> str:
        line = (
            f"host: probe loop fastest {min(self.probes) * 1e3:.3f} ms, median "
            f"{median(self.probes) * 1e3:.3f} ms over {len(self.probes)} probes"
        )
        if self.kept:
            line += (
                f"; {self.dropped} of {self.kept + self.dropped} set-ups dropped as taken "
                f"in slow phases (nearby probes over {SLOW_FACTOR}x the fastest)"
            )
        return line


class Session:
    """Runs CLI calls in this process, checks them and keeps the tally."""

    def __init__(self, cli, refs: gate.References, clock: PhaseClock) -> None:
        self.cli, self.refs, self.clock = cli, refs, clock
        self.attempted = 0
        self.failed = 0

    def _main(self, argv: list[str]):
        try:
            return self.cli.main(argv)
        except SystemExit as exc:
            return exc.code
        except Exception:
            traceback.print_exc()
            return None

    def call(self, call, expected: float = 0.0) -> Sample:
        """Run and check one call; return its Sample."""
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        with redirect_stdout(out), redirect_stderr(err):
            rc, sample = self.clock.measure(lambda: self._main(list(call.argv)), expected)
        errors = gate.check(call, rc, out.getvalue(), self.refs)
        self.attempted += 1
        if errors:
            self.failed += 1
            shown = " ".join(call.argv)[:100]
            print(f"FAILED {shown}: {'; '.join(errors)}\n{err.getvalue()}", file=sys.stderr)
        return sample

    def run_pass(self, calls) -> list[Sample]:
        return [self.call(call) for call in calls]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024  # ru_maxrss is in KiB on Linux


def timings(calls, times: list[float], rate_unit: str, milli_unit: str) -> dict:
    """words_per_s and the latencies, from per-call times."""
    return {
        "words_per_s": (sum(call.words for call in calls) / sum(times), rate_unit),
        "latency_p50_ms": (median(times) * 1e3, milli_unit),
        "latency_p90_ms": (quantiles(times, n=10, method="inclusive")[8] * 1e3, milli_unit),
    }


def end_to_end(
    session: Session, calls, seconds: float, set_ups: list[Sample], set_up_again
) -> dict:
    """Cycle through the calls until every call has run once and `seconds`
    have passed.  Each call's time is the median of its repeats in norm_s;
    the medians of their wall times are printed alongside.  Between calls,
    set_up_again() adds a Sample to set_ups every SETUP_INTERVAL seconds."""
    deadline = perf_counter() + seconds
    next_set_up = perf_counter() + SETUP_INTERVAL
    repeats: list[list[Sample]] = [[] for _ in calls]
    i = 0
    while not repeats[-1] or perf_counter() < deadline:
        if perf_counter() >= next_set_up:
            set_ups.append(set_up_again())
            next_set_up = perf_counter() + SETUP_INTERVAL
        samples = repeats[i % len(calls)]
        expected = samples[-1].seconds if samples else 0.0
        samples.append(session.call(calls[i % len(calls)], expected))
        i += 1
    wall = timings(calls, [median(s.seconds for s in samples) for samples in repeats], "1/s", "ms")
    print("wall " + json.dumps({name: {"value": v, "unit": u} for name, (v, u) in wall.items()}))
    norm = [median(s.norm_s for s in samples) for samples in repeats]
    metrics = timings(calls, norm, "1/norm_s", "norm_ms")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    metrics["setup_s"] = (session.clock.steady(set_ups), "s")
    return metrics


def _per(amount: float, count: int) -> float:
    return amount / count if count else 0.0


def per_layer(session: Session, calls) -> dict:
    """Untraced and traced passes; per-layer metrics from the traced ones."""
    parallel = [call for call in calls if "--parallel" in call.argv]
    serial = [sequential(call) if call in parallel else call for call in calls]
    passes = [calls, serial] if parallel else [calls]
    plain, traced, tracers = [], [], []  # per pass, summed norm_s and Samples
    for batch in passes:
        plain.append(sum(sample.norm_s for sample in session.run_pass(batch)))
        with patched(Tracer()) as tracer:
            traced += session.run_pass(batch)
        tracers.append(tracer)
    layers = Tracer()
    for tracer in tracers:
        layers.merge(tracer)
    # The top-level spans (cli.main), whose time the self times of all
    # spans add up to, must cover the wall time of the traced calls but for
    # the few microseconds per call spent around cli.main.
    wall, spanned = sum(sample.seconds for sample in traced), layers.root_ns / 1e9
    allowed = TRACE_TOLERANCE * wall + CALL_MARGIN_S * layers.span("cli.main")[0]
    print(f"trace: top-level spans {spanned:.6f} s, traced wall time {wall:.6f} s")
    if abs(wall - spanned) > allowed:
        raise RuntimeError(
            f"the top-level spans cover {spanned:.6f} s of {wall:.6f} s traced wall "
            f"time, off by more than {allowed:.6f} s: spans were lost or counted twice"
        )
    wrapper_ns = wrapper_cost_ns()
    print(f"trace: a traced call adds {wrapper_ns:.0f} ns to its parent span; discounted")
    for tracer in (layers, *tracers):
        tracer.discount(wrapper_ns)
    pool = tracers[0] if parallel else Tracer()
    flat = tracers[-1]  # the pass without a pool

    metrics: dict = {}
    for module, names in LAYER_FUNCTIONS.items():
        for name in names:
            calls, _, self_ns = layers.span(f"{module}.{name}")
            metrics[f"{module}.{name}.calls"] = (calls, "count")
            metrics[f"{module}.{name}.self_s"] = (self_ns / 1e9, "s")
    metrics["palindromes.symbols"] = (layers.counts["palindromes.symbols"], "count")

    claim_words = Counter()
    for call in serial:
        if call.kind == "verify":
            claim_words[call.claim] += call.words
    for claim in CLAIM_IDS:
        ns = flat.span(f"theorems.claim.{claim}")[1]
        metrics[f"theorems.claim.{claim}.us_per_word"] = (_per(ns, claim_words[claim]) / 1e3, "us")
    census_words = sum(call.words for call in serial if call.kind == "census")
    for name in gate.CENSUS_COLUMNS:
        ns = flat.span(f"theorems.predicate.{name}")[1]
        metrics[f"theorems.predicate.{name}.us_per_word"] = (_per(ns, census_words) / 1e3, "us")
    loop_ns = flat.span("theorems.verify_claim")[2] + flat.span("theorems.census")[2]
    metrics["theorems.enumerate.ns_per_word"] = (_per(loop_ns, sum(claim_words.values()) + census_words), "ns")

    metrics["theorems.pool.map_s"] = (pool.span("theorems.pool.map")[1] / 1e9, "s")
    metrics["theorems.pool.tasks"] = (pool.counts["theorems.pool.tasks"], "count")
    efficiency = _per(plain[-1], WORKERS * plain[0]) if parallel else 0.0
    metrics["theorems.pool.efficiency"] = (efficiency, "ratio")
    metrics["trace.overhead_ratio"] = (sum(sample.norm_s for sample in traced) / sum(plain), "ratio")
    return metrics


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(workload: str, seed: int, calls) -> dict:
    sources = hashlib.sha256()
    for path in sorted((SRC / "wordlab").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "src_sha256": sources.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "workload": workload,
        "seed": seed,
        "inputs": [
            f"analyze {call.pool}[{call.index}]" if call.kind == "analyze" else " ".join(call.argv)
            for call in calls
        ],
    }


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: str = "full",
    references: gate.References | None = None,
) -> dict:
    """One benchmark run; prints provenance and failed_ratio, returns the result."""
    clock = PhaseClock()
    (cli, calls, refs), first = clock.measure(lambda: set_up(workload, seed, scale))
    print("provenance " + json.dumps(provenance(workload, seed, calls)))
    session = Session(cli, references or refs, clock)
    if trace:
        metrics = per_layer(session, calls)
    else:
        again = partial(set_up_again, clock, workload, seed, scale)
        metrics = end_to_end(session, calls, seconds, [first], again)
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    print(clock.report())
    failed, attempted = session.failed, session.attempted
    print(f"failed_ratio {failed / attempted} ratio ({failed}/{attempted} calls)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="wordlab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
