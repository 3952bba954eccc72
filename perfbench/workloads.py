"""The four workloads: seeded op pools, the op each runs, and its check.

A workload draws its whole pool of ops from the seed before anything is
timed. The pool is a sequence of blocks. Every block holds the same op
kinds, one op per length stratum, with the same fixed (base, q) design,
shuffled. The lengths within each stratum follow a fixed sequence and
runs time whole blocks, so the seed moves only the digits, the shapes,
which ops are exact multiples, and the order. Ops call trimsum
through its module attributes, so the spans installed by ``spans.Tracer``
see every call. Each check compares an op's output with a reference from
``inputs``, which never calls trimsum.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass

from inputs import (
    compare_row,
    from_text,
    log_uniform_strata,
    make_number,
    omega,
    plain_chain,
    reference_image,
    remainder,
    small_digits,
    small_value,
    stacked_chain,
    to_text,
)
from trimsum import cli, digits, families, oracle

# (base, q) per length stratum: mostly base 10, q on both sides of the base.
# The k-th kind of a workload pairs stratum i with entry (i + 3k) % 8 in
# every block, so all blocks and seeds run the same design and only the
# digits and the lengths within each stratum move.
CHAIN_DESIGN = ((10, 3), (10, 7), (10, 9), (10, 11), (10, 13), (10, 17), (2, 5), (36, 7))
TALMUD_DESIGN = ((10, 7),) * 8
# Small and large weights (|omega| for sum, |base - q| for binomial), kept
# to |weight| < base: a weight as large as the base barely shrinks a
# 10^4-digit value per pass, and one such op would outweigh a whole block.
LONG_DESIGN = {
    "sum": ((10, 9), (10, 11), (10, 7), (10, 19), (10, 13), (10, 17), (2, 3), (36, 37)),
    "binomial": ((10, 9), (10, 11), (10, 8), (10, 12), (10, 7), (10, 13), (2, 3), (36, 33)),
    "last_digits": ((10, 2), (10, 4), (10, 5), (10, 8), (10, 16), (10, 125), (2, 64), (36, 27)),
}
GOLDEN = (math.sqrt(5) - 1) / 2
COMPARE_HEADER = "q,base,family,weight_magnitude,iterations,digit_ops,max_intermediate_digits"


def build_rule(key):
    family, q, base = key
    if family == "talmud":
        return families.TestRule.talmud()
    return getattr(families.TestRule, family)(q, base)


def signed_value(text: str, base: int) -> int:
    sign, ds = from_text(text)
    return sign * small_value(ds, base)


def expected_verdict(rem: int) -> str:
    return "divisible" if rem == 0 else "not_divisible"


@dataclass(frozen=True)
class NumberOp:
    kind: str
    key: tuple  # (family, q, base) of the rule
    text: str
    n: int  # digits in the input
    rem: int  # input mod q, from the benchmark's own fold
    q2: int = 0  # second divisor of a compare op


def number_ops(rng, phase: float, k: int, kind: str, family: str, design, lo: int, hi: int) -> list[NumberOp]:
    """One op per length stratum of [lo, hi]; half of them exact multiples of q."""
    multiples = set(rng.sample(range(len(design)), len(design) // 2))
    ops = []
    for i, n in enumerate(log_uniform_strata(lo, hi, len(design), phase)):
        base, q = design[(i + 3 * k) % len(design)]
        ds = make_number(rng, n, base, q, i in multiples)
        q2 = (13 if q == 11 else 11) if kind == "compare" else 0  # coprime to 2, 10 and 36
        ops.append(NumberOp(kind, (family, q, base), to_text(ds), len(ds), remainder(ds, base, q), q2))
    return ops


class Workload:
    name = ""
    blocks = 1  # blocks in the pool
    block_size = 1  # ops in a block
    trace_blocks = 1  # leading blocks a traced pass runs

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        self.ops = []
        for b in range(self.blocks):
            block = self.block(rng, b * GOLDEN % 1.0)
            rng.shuffle(block)
            self.ops.extend(block)

    def rule_keys(self) -> list:
        return sorted({op.key for op in self.ops})

    def rules(self) -> dict:
        return {key: build_rule(key) for key in self.rule_keys()}

    def trace_ops(self) -> list:
        return self.ops[: self.trace_blocks * self.block_size]

    def probe_ops(self, seed: int) -> list:
        """Every eighth op of a block at phase 0.5, for the heap probe.

        At a fixed phase the lengths (and short_batch's input counts) are
        the same for every seed; the seed moves only the digits. A block
        lists its ops kind by kind, eight strata each, so this takes the
        fifth length stratum of every kind.
        """
        return self.block(random.Random(f"{self.name}:probe:{seed}"), 0.5)[4::8]

    def stdout_bytes(self, out) -> int:
        return 0


class ChainVerdict(Workload):
    name = "chain_verdict"
    KINDS = ("trim", "left_trim", "talmud", "stacked")
    blocks, block_size, trace_blocks = 40, 4 * 8, 3

    def block(self, rng, phase: float) -> list:
        ops = []
        for k, kind in enumerate(self.KINDS):
            family = "trim" if kind == "stacked" else kind
            design = TALMUD_DESIGN if kind == "talmud" else CHAIN_DESIGN
            ops += number_ops(rng, phase, k, kind, family, design, 50, 600)
        return ops

    def run(self, op, rules):
        a = digits.parse(op.text, op.key[2])
        if op.kind == "stacked":
            return families.iterate(a, rules[op.key], stacked=True).verdict
        return families.divides_via(a, rules[op.key])

    def check(self, op, out) -> bool:
        if op.kind == "stacked":
            return out == expected_verdict(op.rem)
        return out is (op.rem == 0)


class TraceRender(Workload):
    name = "trace_render"
    KINDS = ("trim", "stacked", "left_trim", "talmud", "compare")
    blocks, block_size, trace_blocks = 64, 5 * 8, 6

    def block(self, rng, phase: float) -> list:
        ops = []
        for k, kind in enumerate(self.KINDS):
            family = "trim" if kind in ("stacked", "compare") else kind
            design = TALMUD_DESIGN if kind == "talmud" else CHAIN_DESIGN
            ops += number_ops(rng, phase, k, kind, family, design, 20, 200)
        return ops

    @staticmethod
    def argv(op) -> list[str]:
        family, q, base = op.key
        if op.kind == "compare":
            return ["compare", "-q", f"{q},{op.q2}", "--base", str(base), op.text]
        args = ["trace", "--json", "--family", family]
        if op.kind != "talmud":
            args += ["-q", str(q), "--base", str(base)]
        if op.kind == "stacked":
            args.append("--stacked")
        return args + [op.text]

    def run(self, op, rules):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(self.argv(op))
        return code, buf.getvalue()

    def stdout_bytes(self, out) -> int:
        return len(out[1].encode())

    def check(self, op, out) -> bool:
        """The whole output against the benchmark's own chains: every step, row and column."""
        code, text = out
        if code != 0:
            return False
        family, q, base = op.key
        _, ds = from_text(op.text)
        if op.kind == "compare":
            rows = [compare_row(f, ds, base, p) for p in sorted((q, op.q2)) for f in ("binomial", "sum", "trim")]
            return text == "\n".join([COMPARE_HEADER, *rows]) + "\n"
        doc = json.loads(text)
        if op.kind in ("stacked", "left_trim"):
            coeffs = stacked_chain(family, ds, base, q)
            values = [small_value(list(c), base) for c in coeffs]  # a coefficient list folds like digits
            names = ["stack" if op.kind == "stacked" else "left_trim"] * len(coeffs)
        else:
            values = plain_chain(family, ds, base, q)
            coeffs = [[-d if v < 0 else d for d in small_digits(v, base)] for v in values]
            names = [family] * len(values)
        steps = [(s["op"], s["coeffs"], signed_value(s["collapsed"], base)) for s in doc["steps"]]
        if steps != [(n, list(c), v) for n, c, v in zip(names, coeffs, values)]:
            return False
        if any((v % q == 0) != (op.rem == 0) for v in values):
            return False
        terminal = signed_value(doc["terminal"], base)
        return (
            doc["rule"] == {"family": family, "q": q, "base": base, "omega": omega(q, base) if family == "trim" else None}
            and terminal == (values[-1] if values else small_value(ds, base))
            and doc["verdict"] == expected_verdict(terminal % q)
            and doc["verdict"] == expected_verdict(op.rem)
        )


class LongSinglePass(Workload):
    name = "long_single_pass"
    blocks, block_size = 16, 3 * 8

    def block(self, rng, phase: float) -> list:
        ops = []
        for k, (kind, design) in enumerate(LONG_DESIGN.items()):
            ops += number_ops(rng, phase, k, kind, kind, design, 3000, 30000)
        return ops

    def run(self, op, rules):
        a = digits.parse(op.text, op.key[2])
        return a, families.divides_via(a, rules[op.key])

    def check(self, op, out) -> bool:
        a, verdict = out
        return a.render() == op.text and verdict is (op.rem == 0)


@dataclass(frozen=True)
class BatchOp:
    key: tuple
    texts: tuple[str, ...]
    fuzz_seed: int


class ShortBatch(Workload):
    name = "short_batch"
    INPUTS = 200  # geometric mean; an op holds 100 to 400 inputs
    FUZZ_TRIALS = 1000
    # Every family in bases 10, 2 and 36; q below the base where one exists.
    RULES = [(f, b, q) for f in ("trim", "left_trim", "sum", "binomial") for b, q in ((10, 7), (2, 3), (36, 11))]
    RULES += [("last_digits", 10, 8), ("last_digits", 2, 16), ("last_digits", 36, 27), ("talmud", 10, 7)]
    blocks, block_size = 24, len(RULES)

    def block(self, rng, phase: float) -> list:
        ops = []
        for j, (family, base, q) in enumerate(self.RULES):
            # The chain families cost about ten times the others per input. A
            # spread input count and a fixed fuzz batch keep the op latencies
            # from forming two clusters that p50 could jump between.
            count = round(self.INPUTS * 4 ** ((phase + j * GOLDEN) % 1.0 - 0.5))
            texts = tuple(
                to_text(make_number(rng, 1 + i % 60, base, q, i % 2 == 0), negative=rng.random() < 0.2)
                for i in range(count)
            )
            ops.append(BatchOp((family, q, base), texts, rng.randrange(2**31)))
        return ops

    def run(self, op, rules):
        rule = rules[op.key]
        out = []
        for text in op.texts:
            a = digits.parse(text, rule.base)
            out.append((a, families.apply_once(a, rule), families.divides_via(a, rule)))
        return out, oracle.fuzz_equivalence(rule, self.FUZZ_TRIALS, 60, op.fuzz_seed)

    def check(self, op, out) -> bool:
        results, report = out
        family, q, base = op.key
        for (a, image, verdict), text in zip(results, op.texts):
            _, ds = from_text(text)
            sign, image_ds = from_text(image.render())
            if a.render() != text or sign * small_value(image_ds, base) != reference_image(family, ds, base, q):
                return False
            if verdict is not (remainder(ds, base, q) == 0):
                return False
        return len(results) == len(op.texts) and report.trials == self.FUZZ_TRIALS and report.mismatches == 0


WORKLOADS = {w.name: w for w in (ChainVerdict, TraceRender, LongSinglePass, ShortBatch)}
