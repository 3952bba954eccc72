"""The gate before any timing: README worked examples and the golden CSV.

Every case runs through ``cli.main`` with stdout captured and compares
the text exactly. The compare table is checked byte for byte against
``tests/data/compare_golden.csv``, which is only read.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

from trimsum import cli

EXAMPLES = [
    (["weight", "-q", "79"], "q=79 base=10 omega=+8 method=inverse agree=yes\n"),
    (["trim", "-q", "7", "32184"], "3210\n"),
    (["sum", "-q", "17", "32184"], "1518\n"),
    (["binomial", "-q", "7", "32184"], "334\n"),
    (["talmud", "32184"], "726\n"),
    (["lastdigit", "-q", "8", "32184"], "184\n"),
    (
        ["trace", "--family", "trim", "-q", "7", "32184"],
        "rule: family=trim q=7 base=10 omega=-2\n"
        "step 1: trim -> 3210\n"
        "step 2: trim -> 321\n"
        "step 3: trim -> 30\n"
        "terminal: 30\n"
        "verdict: not divisible\n",
    ),
    (
        ["trace", "--family", "trim", "-q", "9", "--stacked", "32184"],
        "rule: family=trim q=9 base=10 omega=+1\n"
        "step 1: stack -> [12, 1, 2, 3] = 3222\n"
        "step 2: stack -> [13, 2, 3] = 333\n"
        "step 3: stack -> [15, 3] = 45\n"
        "step 4: stack -> [18] = 18\n"
        "terminal: 18\n"
        "verdict: divisible\n",
    ),
    (
        ["trace", "--family", "left_trim", "-q", "7", "32184"],
        "rule: family=left_trim q=7 base=10\n"
        "step 1: left_trim -> [4, 8, 1, 11] = 11184\n"
        "step 2: left_trim -> [4, 8, 34] = 3484\n"
        "step 3: left_trim -> [4, 110] = 1104\n"
        "step 4: left_trim -> [334] = 334\n"
        "terminal: 334\n"
        "verdict: not divisible\n",
    ),
]
GOLDEN_ARGV = ["compare", "-q", "7,9,11,17,39,181", "32184"]


def _run(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def failures(golden: Path) -> list[str]:
    """One line per check that did not reproduce; empty when all pass."""
    out = []
    for argv, want in EXAMPLES:
        code, got = _run(argv)
        if (code, got) != (0, want):
            out.append(f"trimsum {' '.join(argv)}: exit {code}, got {got!r}, want {want!r}")
    if not golden.is_file():
        return out + [f"golden file {golden} is missing"]
    code, got = _run(GOLDEN_ARGV)
    if code != 0 or got.encode() != golden.read_bytes():
        out.append(f"trimsum {' '.join(GOLDEN_ARGV)} differs from {golden.name}")
    return out
