"""trimsum benchmark: one workload, one seed, one run, one JSON line.

    python3 perfbench/run.py --workload chain_verdict --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports trimsum from ``src/`` of
that checkout and exits non-zero without a result when ``src/trimsum``
or the golden CSV is missing. A single thread drives a closed loop: one
caller, and each op starts when the previous one has returned and been
checked.

``--trace 0`` times the loop for ``--seconds`` (and at least MIN_OPS
ops) with nothing installed and reports the end-to-end metrics; op
times are rescaled to the nominal machine speed by the yardstick unit
run between ops (see yardstick.py).
``--trace 1`` runs the workload's leading blocks of ops twice, untraced
and then with spans around every layer function, and reports per-layer
calls and self time plus the ratio of the two wall times.

The last stdout line is {"correct", "attempted", "failed", "metrics"};
the lines before it print every metric by name with its unit, and the
run record (metadata, metrics, spans) is written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tracemalloc
import traceback
from pathlib import Path
from time import perf_counter, process_time

import yardstick

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = ROOT / "tests" / "data" / "compare_golden.csv"

MIN_OPS = 110  # leaves at least ten samples above p90
MAX_SECONDS = 150  # the loop stops here even short of MIN_OPS
SETUP_SAMPLES = 25
YARDSTICK_SHARE = 0.1  # yardstick time kept at about this share of op time
YARDSTICK_WARMUP = 5
YARDSTICK_IN_SETUP = 2

# Timed in a fresh interpreter: import trimsum from src/, then build the workload's rules.
# Afterwards the same interpreter times the yardstick unit (one warm-up, then
# YARDSTICK_IN_SETUP units), so each sample can be rescaled to the nominal speed.
SETUP_CHILD = """
import json, sys, time
keys = json.loads(sys.argv[3])
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import trimsum
from trimsum import TestRule
rules = [TestRule.talmud() if f == "talmud" else getattr(TestRule, f)(q, b) for f, q, b in keys]
seconds = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
import yardstick
yardstick.unit()
sticks = [yardstick.timed()[0] for _ in range(int(sys.argv[4]))]
print(json.dumps([seconds, sum(sticks) / len(sticks), trimsum.__file__]))
"""


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git clone or git is missing."""
    # The ceiling keeps git from reading any repository above the checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def measure_setup(keys) -> tuple[float, float]:
    """Median over fresh processes of importing trimsum and building the rules: (rescaled, raw)."""
    rescaled, raw = [], []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CHILD, str(SRC), str(HERE), json.dumps(keys), str(YARDSTICK_IN_SETUP)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        seconds, stick, where = json.loads(done.stdout.splitlines()[-1])
        if not Path(where).resolve().is_relative_to(SRC):
            raise RuntimeError(f"setup imported trimsum from {where}, not {SRC}")
        rescaled.append(seconds * yardstick.NOMINAL_S / stick)
        raw.append(seconds)
    return statistics.median(rescaled), statistics.median(raw)


class Failures:
    """Counts ops that raised or disagreed with the reference; prints the first few."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.count = 0

    def add(self, op, what: str) -> None:
        self.count += 1
        if self.count <= 3:
            print(f"{self.workload}: op failed ({what}): {op!r:.300}", file=sys.stderr)
            if what == "raised":
                traceback.print_exc(file=sys.stderr)


def checked(wl, op, out, failures: Failures) -> None:
    try:
        ok = wl.check(op, out)
    except Exception:  # a malformed output is a failed op, not a crashed benchmark
        ok = False
    if not ok:
        failures.add(op, "wrong result")


def timed_loop(wl, rules, seconds: int, failures: Failures):
    """Closed loop over the pool (wrapping round) until `seconds` and MIN_OPS are reached.

    A run ends only between blocks, so every run times whole blocks and
    all seeds see the same mix of op kinds and lengths. Between ops the
    yardstick unit runs, at least once per block and otherwise whenever
    its time falls below YARDSTICK_SHARE of the op time so far. Returns
    per-op wall and CPU times and, per block, the yardstick's (wall, CPU)
    samples.
    """
    wall, cpu, sticks = [], [], [[]]
    op_total = stick_total = 0.0
    start = perf_counter()
    while True:
        op = wl.ops[len(wall) % len(wl.ops)]
        c0, t0 = process_time(), perf_counter()
        try:
            out = wl.run(op, rules)
        except Exception:
            out = failures
            failures.add(op, "raised")
        t1, c1 = perf_counter(), process_time()
        wall.append(t1 - t0)
        cpu.append(c1 - c0)
        op_total += t1 - t0
        if out is not failures:
            checked(wl, op, out, failures)
        if not sticks[-1] or stick_total < YARDSTICK_SHARE * op_total:
            sticks[-1].append(yardstick.timed())
            stick_total += sticks[-1][-1][0]
        whole = len(wall) % wl.block_size == 0
        elapsed = perf_counter() - start
        if (whole and elapsed >= seconds and len(wall) >= MIN_OPS) or elapsed >= MAX_SECONDS:
            return wall, cpu, sticks
        if whole:
            sticks.append([])


def rescaled(times, sticks, block_size: int, field: int) -> list[float]:
    """Each op's time at the nominal machine speed: times NOMINAL_S over its block's mean yardstick.

    `field` picks the yardstick's wall (0) or CPU (1) time.
    """
    speed = [yardstick.NOMINAL_S / statistics.fmean(s[field] for s in block) for block in sticks]
    return [t * speed[i // block_size] for i, t in enumerate(times)]


def nearest_rank(sorted_xs, p: float) -> float:
    return sorted_xs[max(0, math.ceil(p * len(sorted_xs)) - 1)]


def heap_probe(wl, rules, seed: int, failures: Failures):
    """Mean peak of the Python heap an op allocates above what is live when it starts, in MB.

    tracemalloc slows allocation several times over, so this is a pass of
    its own, over the probe ops of ``wl.probe_ops``, whose sizes do not
    depend on the seed. Only allocations made during an op count; the
    pre-built pool and the interpreter do not. It runs before the timed
    loop: run after it, the figure spread about 5% from run to run, as
    interpreter state such as free lists, which tracemalloc does not
    see, served a varying share of an op's allocations.
    """
    ops, peaks = wl.probe_ops(seed), []
    tracemalloc.start()
    try:
        for op in ops:
            tracemalloc.reset_peak()
            live = tracemalloc.get_traced_memory()[0]
            try:
                out = wl.run(op, rules)
            except Exception:
                failures.add(op, "raised")
                continue
            peaks.append(tracemalloc.get_traced_memory()[1] - live)
            checked(wl, op, out, failures)
            del out
    finally:
        tracemalloc.stop()
    return len(ops), statistics.fmean(peaks or [0]) / 2**20


def end_to_end(wl, seed: int, seconds: int, failures: Failures):
    setup_s, raw_setup_s = measure_setup(wl.rule_keys())
    rules = wl.rules()
    probed, heap_mb = heap_probe(wl, rules, seed, failures)
    for _ in range(YARDSTICK_WARMUP):
        yardstick.timed()
    raw_wall, raw_cpu, sticks = timed_loop(wl, rules, seconds, failures)
    wall = rescaled(raw_wall, sticks, wl.block_size, 0)
    cpu = rescaled(raw_cpu, sticks, wl.block_size, 1)
    lat = sorted(wall)
    metrics = {
        "ops_per_s": (len(wall) / sum(wall), "1/s"),
        "latency_ms_p50": (1e3 * nearest_rank(lat, 0.5), "ms"),
        "latency_ms_p90": (1e3 * nearest_rank(lat, 0.9), "ms"),
        "cpu_ms_per_op": (1e3 * sum(cpu) / len(cpu), "ms"),
        "op_peak_heap_mb": (heap_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }
    notes = {
        "samples": len(wall),
        "samples_above_p90": len(wall) - math.ceil(0.9 * len(wall)),
        "heap_probe_ops": probed,
        "yardstick_wall_ms_median": 1e3 * statistics.median(w for block in sticks for w, _ in block),
        "raw_ops_per_s": len(raw_wall) / sum(raw_wall),
        "raw_latency_ms_p50": 1e3 * nearest_rank(sorted(raw_wall), 0.5),
        "raw_latency_ms_p90": 1e3 * nearest_rank(sorted(raw_wall), 0.9),
        "raw_cpu_ms_per_op": 1e3 * sum(raw_cpu) / len(raw_cpu),
        "raw_setup_s": raw_setup_s,
    }
    return len(wall) + probed, metrics, notes, None


def per_layer(wl, failures: Failures):
    """Untraced then traced pass over the same leading ops; layer figures from the spans."""
    from spans import LAYERS, OP, SETUP, Tracer

    ops = wl.trace_ops()
    t0 = perf_counter()
    rules = wl.rules()
    untraced = perf_counter() - t0
    for op in ops:
        t0 = perf_counter()
        try:
            out = wl.run(op, rules)
        except Exception:
            failures.add(op, "raised")
            continue
        finally:
            untraced += perf_counter() - t0
        checked(wl, op, out, failures)

    tracer = Tracer()
    tracer.install()
    stdout_bytes = 0
    try:
        tracer.active = True
        rules = tracer.root(SETUP, -1, wl.rules)
        for i, op in enumerate(ops):
            try:
                out = tracer.root(OP, i, wl.run, op, rules)
            except Exception:
                failures.add(op, "raised")
                continue
            tracer.active = False
            checked(wl, op, out, failures)
            stdout_bytes += wl.stdout_bytes(out)
            tracer.active = True
    finally:
        tracer.active = False
        tracer.uninstall()

    summary, traced = tracer.summary(), tracer.root_wall()
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (summary[layer]["calls"], "count")
        metrics[f"{layer}.self_s"] = (summary[layer]["self_s"], "s")
    metrics["bench.op.self_s"] = (summary[OP]["self_s"], "s")
    metrics["families.steps"] = (tracer.steps, "count")
    metrics["families.trace_slots"] = (tracer.slots, "count")
    metrics["cli.stdout_bytes"] = (stdout_bytes, "bytes")
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    own = summary[OP]["self_s"] + summary[SETUP]["self_s"]
    notes = {
        "untraced_wall_s": untraced,
        "traced_wall_s": traced,
        "spans": len(tracer.spans),
        "layer_share_of_traced_wall": (traced - own) / traced,
    }
    return 2 * len(ops), metrics, notes, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "trimsum" / "__init__.py").is_file():
        print(f"error: no trimsum sources at {SRC}; run from the root of a trimsum checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import preflight
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    load_start = os.getloadavg()[0]
    problems = preflight.failures(GOLDEN)
    if problems:
        print("error: preflight failed, no result reported:", *problems, sep="\n  ", file=sys.stderr)
        return 3

    wl = WORKLOADS[args.workload](args.seed)
    failures = Failures(wl.name)
    if args.trace:
        attempted, metrics, notes, tracer = per_layer(wl, failures)
    else:
        attempted, metrics, notes, tracer = end_to_end(wl, args.seed, args.seconds, failures)

    meta = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": attempted,
        "failed_ratio": failures.count / attempted,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": os.getloadavg()[0],
        **notes,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    record = {"meta": meta, "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{wl.name}-spans.tsv")  # the latest traced run only: a dump can be tens of MB

    print("run: " + json.dumps(meta))
    print(f"failed_ratio {meta['failed_ratio']} ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    result = {
        "correct": failures.count == 0,
        "attempted": attempted,
        "failed": failures.count,
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
