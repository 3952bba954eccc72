"""Length-ladder diagnostic: every family at 10^2 to 3*10^4 digits, layer by layer.

    python3 perfbench/ladder.py --seed 1

Not part of the gated benchmark. For each case and rung it parses a
seeded base-10 number and takes the verdict, first untraced (median of
repeats until REPEAT_S has passed) and then once with spans installed,
and records per-layer calls and self time. The "layers" case times one
call each of parse, .value, from_int, oracle.remainder and trim, as the
per-layer baseline table in ROADMAP.md does.

Before a rung runs, its time is extrapolated from the rung below with
the growth exponent of the two rungs below it (cubic when only one is
known, clamped to [1, 3]). A case whose estimate exceeds BUDGET_S is
recorded as over_budget and not run, and neither are the rungs above.
The record goes to perfbench/out/ladder-seed<N>.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import sys
from time import perf_counter

from run import OUT, SRC, git_sha

RUNGS = (100, 1000, 3000, 10000, 30000)
BUDGET_S = 30.0
REPEAT_S = 0.5
# Rule key (family, q, base) per case; "layers" times single calls under a trim rule.
CASES = {
    "trim": ("trim", 7, 10),
    "trim_stacked": ("trim", 7, 10),
    "left_trim": ("left_trim", 7, 10),
    "talmud": ("talmud", 7, 10),
    "sum": ("sum", 7, 10),
    "binomial": ("binomial", 7, 10),
    "last_digits": ("last_digits", 8, 10),
    "layers": ("trim", 7, 10),
}


def make_case(case: str, text: str, rems: dict):
    """(op, check) for one case on one input; the op calls trimsum through module attributes."""
    from trimsum import digits, families, oracle
    from workloads import build_rule

    rule = build_rule(CASES[case])
    rem = rems[rule.q]
    if case == "layers":

        def op():
            a = digits.parse(text)
            v = a.value
            return digits.DigitString.from_int(v), oracle.remainder(a, 7), families.trim(a, rule)

        return op, lambda out: out[0].render() == text and out[1] == rem
    if case == "trim_stacked":
        return (
            lambda: families.iterate(digits.parse(text), rule, stacked=True).verdict,
            lambda out: out == ("divisible" if rem == 0 else "not_divisible"),
        )
    return lambda: families.divides_via(digits.parse(text), rule), lambda out: out is (rem == 0)


def estimate(times: list[tuple[int, float]], n: int) -> float:
    (n1, t1) = times[-1]
    p = 3.0
    if len(times) >= 2:
        n0, t0 = times[-2]
        p = min(3.0, max(1.0, math.log(t1 / t0) / math.log(n1 / n0)))
    return t1 * (n / n1) ** p


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if not (SRC / "trimsum" / "__init__.py").is_file():
        print(f"error: no trimsum sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from inputs import make_digits, remainder, to_text
    from spans import LAYERS, Tracer

    rng = random.Random(f"ladder:{args.seed}")
    numbers = {}
    for n in RUNGS:
        ds = make_digits(rng, n, 10, "random")
        numbers[n] = (to_text(ds), {q: remainder(ds, 10, q) for q in (7, 8)})

    meta = {
        "seed": args.seed,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_1m_start": os.getloadavg()[0],
        "budget_s": BUDGET_S,
    }
    rows = []
    for case in CASES:
        times = []
        for n in RUNGS:
            est = estimate(times, n) if times else 0.0
            if est > BUDGET_S or (rows and rows[-1]["case"] == case and rows[-1]["status"] == "over_budget"):
                rows.append({"case": case, "digits": n, "status": "over_budget", "estimate_s": est})
                continue
            op, check = make_case(case, *numbers[n])
            walls, correct = [], True
            while not walls or (sum(walls) < REPEAT_S and len(walls) < 50):
                t0 = perf_counter()
                out = op()
                walls.append(perf_counter() - t0)
                correct = correct and check(out)
            tracer = Tracer()
            tracer.install()
            try:
                tracer.active = True
                out = tracer.root("bench.op", 0, op)
            finally:
                tracer.active = False
                tracer.uninstall()
            summary = tracer.summary()
            wall = statistics.median(walls)
            times.append((n, wall))
            rows.append(
                {
                    "case": case,
                    "digits": n,
                    "status": "ran",
                    "estimate_s": est,
                    "wall_s": wall,
                    "repeats": len(walls),
                    "traced_wall_s": tracer.root_wall(),
                    "correct": correct and check(out),
                    "steps": tracer.steps,
                    "layers": {k: summary[k] for k in LAYERS if summary[k]["calls"]},
                }
            )
            print(f"{case:13s} {n:6d} {wall:10.4f} s", flush=True)
    meta["loadavg_1m_end"] = os.getloadavg()[0]

    OUT.mkdir(exist_ok=True)
    path = OUT / f"ladder-seed{args.seed}.json"
    path.write_text(json.dumps({"meta": meta, "rows": rows}, indent=2) + "\n")
    print(f"\n{'case':13s}" + "".join(f"{n:>12d}" for n in RUNGS))
    for case in CASES:
        cells = [r for r in rows if r["case"] == case]
        print(f"{case:13s}" + "".join(f"{r['wall_s']:12.4f}" if r["status"] == "ran" else f"{'over':>12s}" for r in cells))
    print(f"\nwrote {path}")
    return 0 if all(r.get("correct", True) for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
