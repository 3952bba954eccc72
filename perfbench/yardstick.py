"""A fixed unit of pure-Python digit work that measures the machine's momentary speed.

The benchmark runs on a shared virtual machine whose speed drifts by up
to 1.5x over tens of seconds, the same for every kind of work: raw op
times of one workload's leading blocks, repeated in one process, spread
18% (IQR over median) while op time over the time of this unit, run
between the same ops, spread 2-3%. So the timed loop runs the unit
between ops and rescales each op's time by NOMINAL_S over the unit's
mean time in the same block: the figures read as at the speed where
the unit takes NOMINAL_S.

The unit uses only the benchmark's own arithmetic from ``inputs`` on
inputs fixed here, never trimsum, so no change to trimsum moves it. It
mixes the kinds of work the four workloads do: a stacked chain
rendered to JSON, a plain chain that converts to and from int at every
step, a long Horner fold, and many one-step images of short inputs.
"""

from __future__ import annotations

import json
import random
from time import perf_counter, process_time

from inputs import make_digits, plain_chain, reference_image, remainder, small_value, stacked_chain, to_text

NOMINAL_S = 0.005  # about the unit's median time on a 2-vCPU Intel Xeon VM at 2.0 GHz

_rng = random.Random("yardstick")
_MEDIUM = make_digits(_rng, 120, 10, "random")
_SHORT = make_digits(_rng, 60, 10, "random")
_LONG = make_digits(_rng, 3000, 10, "random")
_BATCH = [make_digits(_rng, 1 + i % 40, 10, "random") for i in range(60)]


def unit():
    chain = stacked_chain("trim", _MEDIUM, 10, 7)
    rendered = json.dumps([{"c": list(c), "v": small_value(list(c), 10)} for c in chain[::4]])
    values = plain_chain("trim", _SHORT, 10, 7)
    folded = (small_value(_LONG, 10) % 7, remainder(_LONG, 10, 7), len(to_text(_LONG)))
    rng = random.Random(1)
    images = [(reference_image("sum", d, 10, 7), remainder(d, 10, 7), make_digits(rng, len(d), 10, "random")) for d in _BATCH]
    return len(rendered), values[-1], folded, len(images)


def timed() -> tuple[float, float]:
    """(wall, cpu) seconds of one unit."""
    c0, t0 = process_time(), perf_counter()
    unit()
    t1, c1 = perf_counter(), process_time()
    return t1 - t0, c1 - c0
