"""Command-line front end.

Subcommands: analyze one word, verify a claim exhaustively, enumerate
class members at one length, tabulate a census, or emit a Sturmian
corpus.  Each command returns its exit code and its result, and main
hands the result to one emitter, _emit, in the --format asked for.
JSON is one object that carries schema_version.  CSV is a header row
and then one row per record.  Text is for people to read.  Exit codes:
0 success/verified, 1 counterexamples found, 2 usage error
(core.UsageError), 3 word-budget or word-length refusal, 4 any other
exception, in any command (traceback on stderr, no stdout).  A reader
that closes stdout early is no fault: the command keeps its exit code.

The argparse tree is built at the first main call and shared by every
later call in the process, so nothing may mutate it.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import traceback

from .classify import classify
from .core import (
    DEFAULT_BUDGET,
    SCHEMA_VERSION,
    BudgetExceededError,
    UsageError,
    check_alphabet,
    check_length,
)
from .generate import sturmian_corpus
from .theorems import (
    CENSUS_CLASSES,
    CLAIMS,
    PREDICATES,
    VerificationReport,
    census,
    find_class_members,
    verify_claim,
)

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _emit(fmt: str, payload: dict, header: list[str], rows, text=None) -> None:
    """Print a result: payload as JSON, header then rows as CSV, or text() as text.

    Only the format asked for is built: rows may be a generator and text a
    callable, so a JSON run formats no cell.  With no text, the text format
    prints one row per line.
    """
    if fmt == "json":
        print(json.dumps(payload))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    elif text is not None:
        text()
    else:
        for row in rows:
            print(*row)


def _word_list(header: dict, words: list[str]) -> dict:
    """The JSON payload of a word list: the header fields, then the words."""
    return {"schema_version": SCHEMA_VERSION, **header, "count": len(words), "words": words}


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


# analyze's class verdicts: (JSON key, ClassificationReport field), in output order
_VERDICTS = (
    ("palindrome", "is_palindrome"),
    ("rich", "is_rich"),
    ("trapezoidal", "is_trapezoidal"),
    ("balanced", "is_balanced"),
    ("finite_sturmian", "is_finite_sturmian"),
    ("sturmian_palindrome", "is_sturmian_palindrome"),
    ("condition_B", "condition_B"),
    ("condition_B_prime", "condition_B_prime"),
)


def analyze_payload(word: str) -> dict:
    """Flat JSON-ready record with profiles, indices, factors, and verdicts."""
    alphabet = "".join(sorted(set(word)))
    if word:
        check_alphabet(alphabet)  # printable, <= 26 symbols
    check_length("word of length", len(word))
    report = classify(word)
    d = report.difference
    runs = d.trapezoid_runs if d is not None else None
    return {
        "schema_version": SCHEMA_VERSION,
        "word": word,
        "length": len(word),
        "alphabet": alphabet,
        "C": list(report.subword),
        "P": list(report.palindromic),
        "D": list(d.values) if d is not None else None,
        "trapezoid_runs": list(runs) if runs is not None else None,
        "R": report.indices.r_index,
        "K": report.indices.k_index,
        "pi": report.indices.min_period,
        "palindrome_count": report.palindrome_count,
        "palindromic_factors": list(report.palindromic_factors),
        **{key: getattr(report, field) for key, field in _VERDICTS},
        "unbalance_witness": report.unbalance_witness,
    }


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return " ".join(str(v) for v in value)
    return str(value)


def _quote(w: str) -> str:
    return f"'{w}'"


def _analyze_text(payload: dict) -> None:
    q = _quote
    print(f"word: {q(payload['word'])}  length: {payload['length']}  alphabet: {q(payload['alphabet'])}")
    print(f"C:  {_fmt_cell(payload['C'])}")
    print(f"P:  {_fmt_cell(payload['P'])}")
    if payload["D"] is not None:
        runs = payload["trapezoid_runs"]
        suffix = f"   (runs r={runs[0]} s={runs[1]})" if runs else ""
        print(f"D:  {_fmt_cell(payload['D'])}{suffix}")
    print(f"R: {payload['R']}  K: {payload['K']}  pi: {_fmt_cell(payload['pi']) or 'undefined'}")
    print(
        f"palindromic factors ({payload['palindrome_count']}): "
        + ", ".join(q(f) for f in payload["palindromic_factors"])
    )
    for key, _ in _VERDICTS:
        value = payload[key]
        print(f"{key}: {'undefined' if value is None else _fmt_cell(value)}")
    if payload["unbalance_witness"] is not None:
        print(f"unbalance_witness: {q(payload['unbalance_witness'])}")


def _cmd_analyze(args) -> tuple:
    payload = analyze_payload(args.word)
    rows = ([key, _fmt_cell(value)] for key, value in payload.items())
    return EXIT_OK, payload, ["field", "value"], rows, lambda: _analyze_text(payload)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _verify_text(report: VerificationReport) -> None:
    print(f"claim {report.claim}: {CLAIMS[report.claim].description}")
    print(f"alphabet: '{report.alphabet}'  lengths: 0..{report.max_len}")
    print(f"words checked: {report.words_checked}")
    print(f"counterexamples: {len(report.counterexamples)}")
    for word, diag in report.counterexamples:
        print(f"  '{word}': {diag}")
    print(f"verified: {'yes' if report.verified else 'no'}")
    print(f"elapsed: {report.elapsed_seconds:.3f}s")


def _cmd_verify(args) -> tuple:
    workers = (os.cpu_count() or 1) if args.parallel is None else args.parallel
    report = verify_claim(
        args.claim, args.alphabet, args.max_len, workers=workers, budget=args.budget
    )
    code = EXIT_OK if report.verified else EXIT_COUNTEREXAMPLE
    rows = report.counterexamples
    return code, report.to_json_dict(), ["word", "diagnostic"], rows, lambda: _verify_text(report)


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


def _cmd_enumerate(args) -> tuple:
    words = find_class_members(args.predicate, args.alphabet, args.len, budget=args.budget)
    header = {"predicate": args.predicate, "alphabet": args.alphabet, "length": args.len}
    return EXIT_OK, _word_list(header, words), ["word"], ([w] for w in words)


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

_CENSUS_HEADER = ["length", "total", *CENSUS_CLASSES]


def _census_text(rows: list[list[int]]) -> None:
    widths = [max(len(h), 6) for h in _CENSUS_HEADER]
    for row in [_CENSUS_HEADER, *rows]:
        print("  ".join(str(v).rjust(w) for v, w in zip(row, widths)))


def _cmd_census(args) -> tuple:
    table = census(args.alphabet, args.max_len, budget=args.budget)
    rows = table.rows()
    return EXIT_OK, table.to_json_dict(), _CENSUS_HEADER, rows, lambda: _census_text(rows)


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------


def _cmd_corpus(args) -> tuple:
    words = sorted(
        sturmian_corpus(args.max_denominator, args.max_factor_len),
        key=lambda w: (len(w), w),
    )
    header = {"max_denominator": args.max_denominator, "max_factor_len": args.max_factor_len}
    return EXIT_OK, _word_list(header, words), ["word"], ([w] for w in words)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI's parser.  main builds one at its first call and shares
    it with every later call in the process, so nothing may mutate that one."""
    parser = argparse.ArgumentParser(
        prog="wordlab",
        description="Complexity profiles, palindromic richness, and exhaustive "
        "verification for finite words.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "csv", "text"), default="text", help="output format"
    )
    # the walk commands' shared inputs, checked by core.check_walk
    walk = argparse.ArgumentParser(add_help=False)
    walk.add_argument("--alphabet", required=True, help="alphabet symbols, e.g. ab")
    walk.add_argument(
        "--budget", type=int, default=DEFAULT_BUDGET, help="most words to check (default 2^26)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser(
        "analyze", parents=[common], help="profiles and verdicts for one word"
    )
    p_analyze.add_argument("word", help="ASCII word; the empty string is the empty word")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_verify = sub.add_parser(
        "verify",
        parents=[common, walk],
        help="check a claim on every word up to a length bound",
        epilog="claims: " + ", ".join(CLAIMS),
    )
    p_verify.add_argument("claim", help="claim identifier, e.g. THM_MAIN")
    p_verify.add_argument("--max-len", type=int, required=True)
    group = p_verify.add_mutually_exclusive_group()
    group.add_argument(
        "--parallel",
        type=int,
        metavar="K",
        help="processes, this one included, at least 1; capped at the CPU and head counts",
    )
    group.add_argument(
        "--sequential",
        action="store_const",
        const=1,
        dest="parallel",
        help="force single-threaded execution, as --parallel 1",
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_enum = sub.add_parser(
        "enumerate",
        parents=[common, walk],
        help="list all words of one length in a class",
        epilog="predicates: " + ", ".join(PREDICATES),
    )
    p_enum.add_argument("predicate", help="predicate identifier, e.g. rich")
    p_enum.add_argument("--len", type=int, required=True)
    p_enum.set_defaults(func=_cmd_enumerate)

    p_census = sub.add_parser("census", parents=[common, walk], help="per-length class counts")
    p_census.add_argument("--max-len", type=int, required=True)
    p_census.set_defaults(func=_cmd_census)

    p_corpus = sub.add_parser(
        "corpus", parents=[common], help="factors of Christoffel words"
    )
    p_corpus.add_argument("--max-denominator", type=int, required=True)
    p_corpus.add_argument("--max-factor-len", type=int, required=True)
    p_corpus.set_defaults(func=_cmd_corpus)

    return parser


_parser: argparse.ArgumentParser | None = None  # main's, built at its first call


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        code, *result = args.func(args)
        try:
            _emit(args.format, *result)
            sys.stdout.flush()  # so that a closed stdout fails here, not at exit
        except BrokenPipeError:
            # the reader has gone; stdout writes to devnull, so the flush at exit cannot fail
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return code
    except (UsageError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, UsageError) else EXIT_BUDGET
    except Exception:
        # a fault in the program, not a finding: exit 1 would read as counterexamples
        traceback.print_exc()
        return EXIT_INTERNAL
