import argparse
import csv
import dataclasses
import io
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import types

import pytest

from wordlab import census, difference_profile, find_class_members, lower_christoffel
from wordlab import cli, sturmian_corpus, theorems, verify_claim
from wordlab.classify import is_balanced
from wordlab.cli import analyze_payload, main
from wordlab.core import DEFAULT_BUDGET, MAX_WORD_LENGTH, UsageError, check_alphabet

from oracle import words_up_to


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse's exit, as on --help or a bad option
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_json_witness_words(capsys):
    code, out, _ = run_cli(capsys, "analyze", "aaabab", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["trapezoidal"] is True
    assert payload["finite_sturmian"] is False
    assert payload["rich"] is True
    assert payload["C"] == [1, 2, 3, 4, 3, 2, 1, 0]
    assert payload["D"] == [1, 1, 1, -1, -1, -1]
    assert payload["trapezoid_runs"] == [3, 0]
    assert (payload["R"], payload["K"], payload["pi"]) == (3, 3, 6)

    code, out, _ = run_cli(capsys, "analyze", "aabbaa", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rich"] is True
    assert payload["trapezoidal"] is False
    assert payload["unbalance_witness"] == ""


def test_analyze_empty_word(capsys):
    code, out, _ = run_cli(capsys, "analyze", "", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["word"] == ""
    assert payload["rich"] is True
    assert payload["trapezoidal"] is True
    assert payload["C"] == [1, 0]
    assert payload["D"] is None
    assert payload["pi"] is None


def test_analyze_json_round_trips(capsys):
    _, first, _ = run_cli(capsys, "analyze", "abaab", "--format", "json")
    _, second, _ = run_cli(capsys, "analyze", "abaab", "--format", "json")
    assert first == second
    assert json.loads(first) == json.loads(second)


def test_analyze_text_and_csv(capsys):
    code, out, _ = run_cli(capsys, "analyze", "aba")
    assert code == 0
    assert "palindromic factors" in out
    assert run_cli(capsys, "analyze", "aabbaa") == (
        0,
        "word: 'aabbaa'  length: 6  alphabet: 'ab'\n"
        "C:  1 2 4 4 3 2 1 0\n"
        "P:  1 2 2 0 1 0 1 0\n"
        "D:  1 2 0 -1 -1 -1\n"
        "R: 2  K: 3  pi: 4\n"
        "palindromic factors (7): '', 'a', 'b', 'aa', 'bb', 'abba', 'aabbaa'\n"
        "palindrome: true\n"
        "rich: true\n"
        "trapezoidal: false\n"
        "balanced: false\n"
        "finite_sturmian: false\n"
        "sturmian_palindrome: false\n"
        "condition_B: true\n"
        "condition_B_prime: false\n"
        "unbalance_witness: ''\n",
        "",
    )
    code, out, _ = run_cli(capsys, "analyze", "aba", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["field", "value"]
    table = {field: value for field, value in rows[1:]}
    assert table["rich"] == "true"
    assert table["C"] == "1 2 2 1 0"


def test_analyze_rejects_unparseable_word(capsys):
    code, _, err = run_cli(capsys, "analyze", "a\tb")
    assert code == 2
    assert "error" in err


# Each row pins its own id, so deleting a row renames no other row; the ids
# are the positional names pytest gave the rows before they were pinned.
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: check_alphabet(""), id="<lambda>0"),
        pytest.param(lambda: check_alphabet("a\tb"), id="<lambda>1"),
        pytest.param(lambda: check_alphabet("aa"), id="<lambda>2"),
        pytest.param(lambda: verify_claim("NOPE", "ab", 2), id="<lambda>3"),
        pytest.param(lambda: verify_claim("PROP1", "ab", 2, workers=0), id="<lambda>4"),
        pytest.param(lambda: verify_claim("PROP1", "ab", -1), id="<lambda>5"),
        pytest.param(lambda: find_class_members("nope", "ab", 2), id="<lambda>6"),
        pytest.param(lambda: find_class_members("rich", "ab", -1), id="<lambda>7"),
        pytest.param(lambda: census("ab", -1), id="<lambda>8"),
        pytest.param(lambda: census("ab", 2, budget=-1), id="<lambda>9"),
        pytest.param(lambda: analyze_payload("a\tb"), id="<lambda>10"),
        pytest.param(lambda: analyze_payload("abcdefghijklmnopqrstuvwxyz0"), id="<lambda>11"),
        pytest.param(lambda: sturmian_corpus(0, 3), id="<lambda>12"),
        # the alphabet is checked before the length, which would raise BudgetExceededError
        pytest.param(
            lambda: analyze_payload("a\tb" + "a" * MAX_WORD_LENGTH), id="analyze-tab-over-length"
        ),
    ],
)
def test_caller_input_raises_usage_error(call):
    with pytest.raises(UsageError):
        call()


@pytest.mark.parametrize(  # ids pinned as above
    "call",
    [
        pytest.param(lambda: is_balanced("abc"), id="<lambda>0"),
        pytest.param(lambda: difference_profile(""), id="<lambda>1"),
        pytest.param(lambda: lower_christoffel(2, 4), id="<lambda>2"),
    ],
)
def test_domain_errors_are_not_usage_errors(call):
    # raised inside a command, these are faults (exit 4), not usage errors
    with pytest.raises(ValueError) as info:
        call()
    assert not isinstance(info.value, UsageError)


def test_analyze_length_limit(capsys):
    code, out, err = run_cli(capsys, "analyze", "a" * (MAX_WORD_LENGTH + 1))
    assert code == 3
    assert out == ""
    assert "limit" in err
    code, out, _ = run_cli(capsys, "analyze", "a" * MAX_WORD_LENGTH, "--format", "json")
    assert code == 0
    assert json.loads(out)["length"] == MAX_WORD_LENGTH


def test_analyze_verdicts_match_the_predicate_registry():
    # analyze reads its verdicts off classify, enumerate and census off PREDICATES; they
    # differ only where balance is undefined, which analyze prints as None
    assert all(key in theorems.PREDICATES for key, _ in cli._VERDICTS)
    words = [*words_up_to("ab", 12), *words_up_to("abc", 7), *words_up_to("abcd", 5)]
    for w in words:
        payload = analyze_payload(w)
        for key, _ in cli._VERDICTS:
            expected = theorems.PREDICATES[key](w)
            if key == "balanced" and len(set(w)) >= 3:
                assert payload[key] is None and expected is False, w
            else:
                assert payload[key] is expected, (w, key)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "PROP1", "--alphabet", "a", "--max-len", str(MAX_WORD_LENGTH + 1)],
        ["census", "--alphabet", "a", "--max-len", str(MAX_WORD_LENGTH + 1)],
        ["enumerate", "rich", "--alphabet", "a", "--len", str(MAX_WORD_LENGTH + 1)],
    ],
    ids=["verify", "census", "enumerate"],
)
def test_word_length_limit_exit_three(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "word-length limit" in err


def test_verify_exit_zero_and_report(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "THM_MAIN", "--alphabet", "ab", "--max-len", "8",
        "--sequential", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert payload["words_checked"] == 511
    assert payload["counterexamples"] == []


def test_verify_sequential_and_parallel_bytes_match(capsys):
    args = ["verify", "PROP1", "--alphabet", "ab", "--max-len", "8", "--format", "json"]
    modes = [["--sequential"], ["--parallel", "1"], [], ["--parallel", "8"]]
    results = [run_cli(capsys, *args, *mode) for mode in modes]
    assert results[0][0] == 0
    assert results == [results[0]] * len(modes)


@pytest.mark.parametrize(
    "mode,workers",
    [([], 3), (["--sequential"], 1), (["--parallel", "1"], 1), (["--parallel", "5"], 5)],
    ids=["no-flag", "sequential", "parallel-1", "parallel-5"],
)
def test_verify_worker_setting(capsys, monkeypatch, mode, workers):
    # --sequential is --parallel 1, and no flag asks for the CPU count
    calls = []

    def cpu_count():
        calls.append("cpu_count")
        return 3

    def record(*args, **kwargs):
        calls.append(kwargs["workers"])
        return theorems.VerificationReport("PROP1", "ab", 4, 31, [], 0.0)

    monkeypatch.setattr(cli.os, "cpu_count", cpu_count)
    monkeypatch.setattr(cli, "verify_claim", record)
    code, _, _ = run_cli(capsys, "verify", "PROP1", "--alphabet", "ab", "--max-len", "4", *mode)
    assert code == 0
    assert calls == ([] if mode else ["cpu_count"]) + [workers]


def test_verify_sequential_and_parallel_exclude_each_other(capsys):
    code, out, err = run_cli(
        capsys, "verify", "PROP1", "--alphabet", "ab", "--max-len", "2",
        "--sequential", "--parallel", "2",
    )
    assert (code, out) == (2, "")
    assert "not allowed with argument" in err


_PROP1_TEXT = (
    "claim PROP1: richness by palindrome count agrees with richness by complete returns\n"
    "alphabet: 'ab'  lengths: 0..2\n"
    "words checked: 7\n"
)


@pytest.mark.parametrize(
    "counterexamples,fmt,code,expected",
    [
        ([("ab", "made up")], "csv", 1, "word,diagnostic\nab,made up\n"),
        (
            [("ab", "made up")], "text", 1,
            _PROP1_TEXT
            + "counterexamples: 1\n  'ab': made up\nverified: no\nelapsed: 0.000s\n",
        ),
        ([], "csv", 0, "word,diagnostic\n"),
        ([], "text", 0, _PROP1_TEXT + "counterexamples: 0\nverified: yes\nelapsed: 0.000s\n"),
    ],
    ids=["failing-csv", "failing-text", "verified-csv", "verified-text"],
)
def test_verify_counterexample_exit_code(
    capsys, monkeypatch, counterexamples, fmt, code, expected
):
    # every bundled claim is a theorem, so fabricate a report to pin the
    # exit-code contract and what a failing report prints
    fake = theorems.VerificationReport(
        claim="PROP1",
        alphabet="ab",
        max_len=2,
        words_checked=7,
        counterexamples=counterexamples,
        elapsed_seconds=0.0,
    )
    monkeypatch.setattr("wordlab.cli.verify_claim", lambda *a, **k: fake)
    assert run_cli(
        capsys, "verify", "PROP1", "--alphabet", "ab", "--max-len", "2", "--format", fmt
    ) == (code, expected, "")


def _crash(w, index=None, flag=None):
    raise RuntimeError("checker fault")


def _value_fault(w, index=None, flag=None):
    raise ValueError("checker fault")


def _verify_with_checker(capsys, monkeypatch, checker, mode, field="checker"):
    # ab/13 deals the subtrees under aaa, aab, aba and abb, so --parallel 2 forks a child,
    # whose share is every second one, the subtrees under aab and abb
    spec = theorems.CLAIMS["PROP1"]
    monkeypatch.setitem(theorems.CLAIMS, "PROP1", dataclasses.replace(spec, **{field: checker}))
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: 2)
    return run_cli(
        capsys, "verify", "PROP1", "--alphabet", "ab", "--max-len", "13",
        "--format", "json", *mode,
    )


@pytest.mark.parametrize("mode", [[], ["--parallel", "2"]])
def test_verify_runs_on_one_process_without_the_fork_start_method(capsys, monkeypatch, mode):
    # as on Windows, where asking for the fork context raises; by default verify asks for as
    # many processes as CPUs, and ab/13 deals four heads
    def no_fork(method):
        raise ValueError(f"cannot find context for {method!r}")

    argv = ["verify", "PROP1", "--alphabet", "ab", "--max-len", "13", "--format", "json"]
    code, sequential, _ = run_cli(capsys, *argv, "--sequential")
    monkeypatch.setattr(theorems, "get_all_start_methods", lambda: ["spawn"])
    monkeypatch.setattr(theorems, "get_context", no_fork)
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    assert run_cli(capsys, *argv, *mode) == (code, sequential, "") == (0, sequential, "")


def _in_a_child(fault):
    """A checker that calls fault on the words under aab, and only in a forked child."""
    pid = os.getpid()

    def checker(w, index=None, flag=None):
        if w.startswith("aab") and os.getpid() != pid:
            fault()
        return None

    return checker


def _child_fault():
    raise ValueError("checker fault in a child")


@pytest.mark.parametrize("mode", [["--sequential"], ["--parallel", "2"]])
def test_verify_internal_error_exit_four(capsys, monkeypatch, mode):
    code, out, err = _verify_with_checker(capsys, monkeypatch, _crash, mode)
    assert code == 4
    assert out == ""
    assert "RuntimeError: checker fault" in err
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("mode", [["--sequential"], ["--parallel", "2"]])
def test_verify_checker_value_error_exit_four(capsys, monkeypatch, mode):
    # a ValueError raised inside the walk is a fault, not a usage error
    code, out, err = _verify_with_checker(capsys, monkeypatch, _value_fault, mode)
    assert code == 4
    assert out == ""
    assert "ValueError: checker fault" in err
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("mode", [["--sequential"], ["--parallel", "2"]])
def test_verify_carried_step_value_error_exit_four(capsys, monkeypatch, mode):
    # the step that carries PROP1's two flags, and prunes its walk, runs inside the walk too
    code, out, err = _verify_with_checker(capsys, monkeypatch, _value_fault, mode, "step")
    assert code == 4
    assert out == ""
    assert "ValueError: checker fault" in err
    assert multiprocessing.active_children() == []


def test_verify_fault_in_a_child_exit_four(capsys, monkeypatch):
    checker = _in_a_child(_child_fault)
    code, out, err = _verify_with_checker(capsys, monkeypatch, checker, ["--parallel", "2"])
    assert code == 4
    assert out == ""
    assert "ValueError: checker fault in a child" in err
    assert multiprocessing.active_children() == []


def _still_waiting(signum, frame):
    raise TimeoutError("verify still waits for a child that has exited")


def test_verify_child_that_exits_without_sending_is_a_fault(capsys, monkeypatch):
    checker = _in_a_child(lambda: os._exit(1))
    previous = signal.signal(signal.SIGALRM, _still_waiting)
    signal.alarm(10)  # a hang becomes a TimeoutError, which the message check below refuses
    try:
        code, out, err = _verify_with_checker(capsys, monkeypatch, checker, ["--parallel", "2"])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 4
    assert out == ""
    assert "RuntimeError: a forked child exited with code 1 before sending its results" in err
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "rich", "--alphabet", "ab", "--len", "3"],
        ["census", "--alphabet", "ab", "--max-len", "3"],
    ],
)
def test_predicate_value_error_exit_four(capsys, monkeypatch, argv):
    monkeypatch.setitem(theorems.PREDICATES, "rich", _value_fault)
    # census's trapezoidal column, stepped inside its walk on every run
    monkeypatch.setattr(theorems, "_trapezoidal_step", _value_fault)
    code, out, err = run_cli(capsys, *argv)
    assert code == 4
    assert out == ""
    assert "ValueError: checker fault" in err


@pytest.mark.parametrize(
    "target,argv",
    [
        ("wordlab.cli.classify", ["analyze", "abaab"]),
        (
            "wordlab.generate.lower_christoffel",
            ["corpus", "--max-denominator", "5", "--max-factor-len", "3"],
        ),
    ],
)
def test_plain_value_error_is_a_fault_in_every_command(capsys, monkeypatch, target, argv):
    # only core.UsageError, raised where caller input is checked, exits 2
    monkeypatch.setattr(target, _value_fault)
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 4
    assert out == ""
    assert "Traceback" in err and "ValueError: checker fault" in err


def _slow(w, index=None, flag=None):
    time.sleep(0.001)  # ab/12 is 8191 words, ~4 s on two processes: finite if nothing stops them
    return None


def test_verify_ctrl_c_propagates_and_leaves_no_children(capsys, monkeypatch):
    spec = theorems.CLAIMS["PROP1"]
    monkeypatch.setitem(theorems.CLAIMS, "PROP1", dataclasses.replace(spec, checker=_slow))
    monkeypatch.setattr(theorems.os, "cpu_count", lambda: 2)
    pid = os.getpid()  # this process only: the forked child gets no SIGINT
    timer = threading.Timer(0.5, os.kill, (pid, signal.SIGINT))
    timer.start()
    try:
        with pytest.raises(KeyboardInterrupt):
            main(["verify", "PROP1", "--alphabet", "ab", "--max-len", "12", "--parallel", "2"])
    finally:
        timer.cancel()
    assert capsys.readouterr().out == ""
    assert multiprocessing.active_children() == []


def test_verify_unknown_claim_exit_two(capsys):
    code, _, err = run_cli(capsys, "verify", "NOPE", "--alphabet", "ab", "--max-len", "2")
    assert code == 2
    assert "unknown claim" in err


def test_verify_budget_exit_three(capsys):
    code, _, err = run_cli(
        capsys, "verify", "PROP1", "--alphabet", "ab", "--max-len", "10",
        "--budget", "5",
    )
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "PROP1", "--alphabet", "ab", "--max-len", "2", "--parallel", "0"],
        ["verify", "PROP1", "--alphabet", "ab", "--max-len", "2", "--parallel", "-2"],
        ["verify", "PROP1", "--alphabet", "ab", "--max-len", "2", "--budget", "-1"],
        ["enumerate", "rich", "--alphabet", "ab", "--len", "2", "--budget", "-1"],
        ["census", "--alphabet", "ab", "--max-len", "2", "--budget", "-1"],
    ],
)
def test_bad_parallel_and_budget_exit_two(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "must be" in err


def test_verify_bad_alphabet_exit_two(capsys):
    # a refused input writes nothing to stdout, in any format
    for argv, message in (
        (["verify", "PROP1", "--alphabet", "aa", "--max-len", "2"], "duplicate"),
        (["enumerate", "rich", "--alphabet", "aa", "--len", "2"], "duplicate"),
        (["census", "--alphabet", "aa", "--max-len", "2"], "duplicate"),
        (["analyze", "a\tb"], "printable"),
        (["corpus", "--max-denominator", "0", "--max-factor-len", "1"], "positive"),
    ):
        for fmt in ("json", "csv", "text"):
            code, out, err = run_cli(capsys, *argv, "--format", fmt)
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and message in err


# each walk command's argv before its alphabet, length and budget, its length's name, and
# the words it counts against the budget at ab/3: every length up to 3, or 3 alone
WALK_COMMANDS = {
    "verify": (["verify", "PROP1"], "--max-len", "max_len", "15 words of length <= 3"),
    "enumerate": (["enumerate", "rich"], "--len", "length", "8 words of length 3"),
    "census": (["census"], "--max-len", "max_len", "15 words of length <= 3"),
}


@pytest.mark.parametrize("command", list(WALK_COMMANDS))
def test_walk_commands_refuse_their_inputs_in_one_order(capsys, command):
    # a bad alphabet, a negative length, a negative budget, then an over-long word, then
    # the budget: every usage error (exit 2) before any refusal (exit 3)
    argv, length_option, name, words = WALK_COMMANDS[command]
    over = MAX_WORD_LENGTH + 1
    for alphabet, length, budget, code, message in (
        ("aa", -1, -1, 2, "duplicate symbol: 'a'"),
        ("ab", -1, -1, 2, f"{name} must be non-negative"),
        ("a", over, -1, 2, "budget must be non-negative, got -1"),
        ("a", over, 0, 3, f"{name} {over} exceeds the word-length limit of {MAX_WORD_LENGTH}"),
        ("ab", 3, -1, 2, "budget must be non-negative, got -1"),
        ("ab", 3, 0, 3, f"{words} exceeds the budget of 0"),
    ):
        options = ["--alphabet", alphabet, length_option, str(length), "--budget", str(budget)]
        assert run_cli(capsys, *argv, *options) == (code, "", f"error: {message}\n")


@pytest.mark.parametrize("command", list(WALK_COMMANDS))
def test_walk_commands_share_alphabet_and_budget(capsys, command):
    code, out, _ = run_cli(capsys, command, "--help")
    assert code == 0
    assert "alphabet symbols, e.g. ab" in out
    assert "most words to check (default 2^26)" in out and DEFAULT_BUDGET == 2**26


def test_verify_negative_max_len_exit_two(capsys):
    code, out, err = run_cli(capsys, "verify", "PROP1", "--alphabet", "ab", "--max-len", "-1")
    assert code == 2
    assert out == ""
    assert "non-negative" in err


def test_enumerate_witnesses(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "trapezoidal_not_sturmian", "--alphabet", "ab",
        "--len", "6",
    )
    assert code == 0
    assert "aaabab" in out.splitlines()

    code, out, _ = run_cli(
        capsys, "enumerate", "rich_not_trapezoidal", "--alphabet", "ab",
        "--len", "6", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert "aabbaa" in payload["words"]
    assert payload["count"] == len(payload["words"])


def test_enumerate_unknown_predicate_exit_two(capsys):
    code, _, err = run_cli(capsys, "enumerate", "shiny", "--alphabet", "ab", "--len", "2")
    assert code == 2
    assert "unknown predicate" in err


def test_census_csv(capsys):
    code, out, _ = run_cli(
        capsys, "census", "--alphabet", "ab", "--max-len", "4", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "length"
    balanced_col = rows[0].index("balanced")
    assert [r[balanced_col] for r in rows[1:]] == ["2", "4", "8", "14"]


@pytest.mark.parametrize(
    "fmt,expected",
    [
        (
            "text",
            "length   total    rich  trapezoidal  balanced  sturmian_palindrome"
            "  condition_B  condition_B_prime\n"
            "     1       2       2            2         2                    2"
            "            2                  2\n"
            "     2       4       4            4         4                    2"
            "            2                  2\n"
            "     3       8       8            8         8                    4"
            "            4                  4\n",
        ),
        (
            "csv",
            "length,total,rich,trapezoidal,balanced,sturmian_palindrome,condition_B,"
            "condition_B_prime\n"
            "1,2,2,2,2,2,2,2\n"
            "2,4,4,4,4,2,2,2\n"
            "3,8,8,8,8,4,4,4\n",
        ),
    ],
    ids=["text", "csv"],
)
def test_census_text_and_csv_output(capsys, fmt, expected):
    argv = ["census", "--alphabet", "ab", "--max-len", "3", "--format", fmt]
    assert run_cli(capsys, *argv) == (0, expected, "")


@pytest.mark.parametrize(
    "fmt,expected",
    [("text", "aaa\naba\nbab\nbbb\n"), ("csv", "word\naaa\naba\nbab\nbbb\n")],
    ids=["text", "csv"],
)
def test_enumerate_text_and_csv_output(capsys, fmt, expected):
    argv = ["enumerate", "palindrome", "--alphabet", "ab", "--len", "3", "--format", fmt]
    assert run_cli(capsys, *argv) == (0, expected, "")


def test_census_json(capsys):
    code, out, _ = run_cli(
        capsys, "census", "--alphabet", "ab", "--max-len", "3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["lengths"] == [1, 2, 3]
    assert payload["rich"] == [2, 4, 8]


def test_corpus_over_the_budget_exit_three(capsys):
    code, out, err = run_cli(
        capsys, "corpus", "--max-denominator", "200", "--max-factor-len", "200"
    )
    assert code == 3
    assert out == ""
    assert "budget" in err


def test_corpus_output(capsys):
    code, out, _ = run_cli(
        capsys, "corpus", "--max-denominator", "3", "--max-factor-len", "2"
    )
    assert code == 0
    # newline-delimited, shortest first; the empty word is an empty line
    assert out.splitlines() == ["", "a", "b", "aa", "ab", "bb"]

    code, out, _ = run_cli(
        capsys, "corpus", "--max-denominator", "3", "--max-factor-len", "2",
        "--format", "json",
    )
    payload = json.loads(out)
    assert payload["count"] == 6
    assert payload["words"][0] == ""

    # csv quotes the empty word, so it does not read as a blank line
    argv = ["corpus", "--max-denominator", "3", "--max-factor-len", "2", "--format", "csv"]
    assert run_cli(capsys, *argv) == (0, 'word\n""\na\nb\naa\nab\nbb\n', "")


def test_the_parser_is_built_once(capsys, monkeypatch):
    every_command = [
        ["analyze", "abaab"],
        ["verify", "PROP1", "--alphabet", "ab", "--max-len", "6", "--format", "json"],
        ["enumerate", "rich", "--alphabet", "ab", "--len", "4", "--format", "csv"],
        ["census", "--alphabet", "ab", "--max-len", "4", "--format", "json"],
        ["corpus", "--max-denominator", "3", "--max-factor-len", "2"],
    ]
    before = [run_cli(capsys, *argv) for argv in every_command]
    assert [code for code, _, _ in before] == [0] * 5

    def refuse(*args, **kwargs):
        raise AssertionError("main built a second parser")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    assert [run_cli(capsys, *argv) for argv in every_command] == before


def test_the_shared_parser_keeps_no_state_between_calls(capsys, monkeypatch):
    # a call on the parser every earlier call used prints what it prints on a new one
    sequence = [
        ["verify", "PROP1", "--alphabet", "ab", "--max-len", "6", "--parallel", "2",
         "--format", "json"],
        ["verify", "PROP1", "--alphabet", "ab", "--max-len", "6"],
        ["analyze", "abaab", "--format", "xml"],
        ["analyze", "abaab"],
        ["--help"],
        ["--help"],
        ["verify", "--help"],
        ["verify", "--help"],
    ]
    # the text report prints its elapsed time
    monkeypatch.setattr(theorems, "time", types.SimpleNamespace(perf_counter=lambda: 0.0))
    shared = [run_cli(capsys, *argv) for argv in sequence]
    fresh = []
    for argv in sequence:
        monkeypatch.setattr("wordlab.cli._parser", None)
        fresh.append(run_cli(capsys, *argv))
    assert [code for code, _, _ in shared] == [0, 0, 2, 0, 0, 0, 0, 0]
    assert shared == fresh


def _run_into_closed_pipe(args, buffered=True):
    """Exit code and stderr of `python *args`, its stdout the write end of a
    pipe whose read end is closed, so that every write to stdout fails."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    src = os.path.dirname(os.path.dirname(os.path.abspath(theorems.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = subprocess.run(
            [sys.executable, *args], stdout=write_end, stderr=subprocess.PIPE, env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    return child.returncode, child.stderr.decode()


# buffered, these short outputs first fail at main's flush; unbuffered, inside _emit
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "abaab", "--format", "json"],
        ["enumerate", "rich", "--alphabet", "ab", "--len", "8"],
        ["census", "--alphabet", "ab", "--max-len", "6", "--format", "csv"],
    ],
    ids=["analyze-json", "enumerate-text", "census-csv"],
)
def test_a_closed_stdout_is_not_a_fault(argv, buffered):
    assert _run_into_closed_pipe(["-m", "wordlab", *argv], buffered) == (0, "")


def test_a_broken_pipe_inside_a_computation_is_a_fault():
    planted = (
        "import sys, wordlab.cli as cli\n"
        "def classify(word): raise BrokenPipeError('planted')\n"
        "cli.classify = classify\n"
        "sys.exit(cli.main(['analyze', 'abaab', '--format', 'json']))\n"
    )
    code, err = _run_into_closed_pipe(["-c", planted])
    assert code == 4
    assert "Traceback" in err and "BrokenPipeError: planted" in err
