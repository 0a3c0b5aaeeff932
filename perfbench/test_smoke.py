"""Smoke tests of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import gate
import run
from tracer import Tracer
from workloads import WORKLOADS, build_calls

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _units(metrics: dict) -> dict:
    return {name: metric["unit"] for name, metric in metrics.items()}


def _declared(kind: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[kind]}


def test_benchmark_json_lists_every_workload_with_its_reason():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: workload.why for name, workload in WORKLOADS.items()
    }


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_passes_its_gate(workload):
    result = run.run_workload(workload, seed=7, seconds=0, trace=False, scale="tiny")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert _units(result["metrics"]) == _declared("end_to_end")
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_reports_every_layer_and_restores_the_program(workload):
    result = run.run_workload(workload, seed=7, seconds=0, trace=True, scale="tiny")
    assert result["correct"]
    assert _units(result["metrics"]) == _declared("per_layer")
    assert result["metrics"]["cli.main.calls"]["value"] > 0
    modules = {name: mod for name, mod in sys.modules.items() if name.startswith("wordlab")}
    assert modules["wordlab.theorems"].r_index is modules["wordlab.complexity"].r_index
    theorems = modules["wordlab.theorems"]
    restored = [value for mod in modules.values() for value in vars(mod).values()]
    restored += [spec.checker for spec in theorems.CLAIMS.values()]
    restored += list(theorems.PREDICATES.values()) + [theorems.Pool]
    assert not [value for value in restored if hasattr(value, "__wrapped__")]


def test_spans_that_miss_the_traced_wall_time_are_refused(monkeypatch):
    class Lossy(Tracer):
        def merge(self, other):
            super().merge(other)
            self.root_ns //= 2

    monkeypatch.setattr(run, "Tracer", Lossy)
    with pytest.raises(RuntimeError, match="spans were lost"):
        run.run_workload("census-sweep", 7, 0, True, scale="tiny")


def test_discount_takes_the_wrapper_cost_out_of_the_enclosing_span():
    tracer = Tracer()
    child = tracer.wrap("child", lambda: None)
    tracer.wrap("parent", lambda: [child() for _ in range(1000)])()
    parent_self, child_self = tracer.span("parent")[2], tracer.span("child")[2]
    tracer.discount(100.0)
    assert tracer.span("parent")[2] == max(0, parent_self - 100_000)
    assert tracer.span("child")[2] == child_self


def _corrupt_census(refs: gate.References) -> None:
    refs.census["2"]["rich"][3] += 1


def _corrupt_analyze(refs: gate.References) -> None:
    digests = refs.analyze["24"]["binary"]
    digests[:] = ["0" * 16] * len(digests)


@pytest.mark.parametrize(
    "workload, corrupt",
    [("census-sweep", _corrupt_census), ("analyze-long", _corrupt_analyze)],
)
def test_a_planted_wrong_reference_is_caught(workload, corrupt):
    refs = gate.load_references()
    corrupt(refs)
    result = run.run_workload(workload, 7, 0, False, scale="tiny", references=refs)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_the_seed_fixes_the_inputs():
    _, generate = run.import_program()
    for workload in WORKLOADS:
        first = build_calls(workload, 11, generate, "tiny")
        assert build_calls(workload, 11, generate, "tiny") == first
        assert build_calls(workload, 12, generate, "tiny") != first


def test_gate_closed_forms():
    assert [gate.balanced_words(2, n) for n in range(1, 6)] == [2, 4, 8, 14, 24]
    assert gate.balanced_words(3, 1) == 3
    assert gate.words_up_to(2, 3) == 15
    assert [gate.border_length(w) for w in ("", "a", "abaab", "aaaa")] == [0, 0, 2, 3]


def test_refuses_a_checkout_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", Path(tmp_path))
    argv = ["--workload", "census-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"]
    assert run.main(argv) != 0
    assert capsys.readouterr().out == ""
