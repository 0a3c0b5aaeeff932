"""Record the reference values the correctness gate compares against.

    python3 perfbench/record_references.py

Run it from the root of a checkout whose outputs are trusted; it writes
perfbench/references.json:

- census: every census column for 2 letters up to length 13 and 3
  letters up to length 8, after checking the closed forms of gate.py;
- analyze: the payload digest of every analyze pool word, at each
  analyze length the workload scales use.

Recording is only needed when the analyze pools, the scales or the
program's output format change.
"""

from __future__ import annotations

import contextlib
import io
import json
import re

import gate
from run import import_program
from workloads import POOL_SIZE, POOLS, SCALES, pool_word

CENSUS_SIZES = {2: 13, 3: 8}


def _cli_json(cli, argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv + ["--format", "json"])
    if rc != 0:
        raise RuntimeError(f"{argv} exited with {rc}")
    return json.loads(out.getvalue())


def record() -> dict:
    cli, generate = import_program()
    census = {}
    for k, n in CENSUS_SIZES.items():
        table = _cli_json(cli, ["census", "--alphabet", "abcdef"[:k], "--max-len", str(n)])
        if table["balanced"] != [gate.balanced_words(k, m) for m in range(1, n + 1)]:
            raise RuntimeError(f"balanced counts over {k} letters miss the closed form")
        if k == 2 and table["rich"] != list(gate.BINARY_RICH[:n]):
            raise RuntimeError("binary rich counts differ from OEIS A216264")
        census[str(k)] = {column: table[column] for column in gate.CENSUS_COLUMNS}
    analyze = {}
    for length in sorted({scale["analyze_len"] for scale in SCALES.values()}):
        analyze[str(length)] = {
            pool: [
                gate.payload_digest(
                    _cli_json(cli, ["analyze", pool_word(generate, pool, i, length)])
                )
                for i in range(POOL_SIZE)
            ]
            for pool in POOLS
        }
    return {"census": census, "analyze": analyze}


def dump(data: dict) -> str:
    """Indented JSON with every list of numbers or digests on one line."""
    text = json.dumps(data, indent=1)
    return re.sub(r"\[\s+([^\[\]{}]*?)\s+\]", lambda m: "[" + re.sub(r"\s+", " ", m[1]) + "]", text)


if __name__ == "__main__":
    gate.REFERENCES_PATH.write_text(dump(record()) + "\n")
