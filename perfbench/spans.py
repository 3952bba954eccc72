"""Spans around trimsum's public functions, installed from outside.

Each layer is a set of functions of one trimsum module. Installing a
``Tracer`` replaces each of them, wherever a trimsum module holds it
(including names another module bound with ``from ... import``, such as
``families.split_low``, ``analyzer.iterate`` and ``cli.parse``), by a
wrapper that records a span: layer, start, end, parent span and op id.
Properties and class methods (``DigitString.value``,
``DigitString.from_int``) are wrapped on their class. Nothing under
``src/`` is edited, and ``uninstall`` puts every original back.

Spans stay in memory until the run ends; self time (a span's duration
minus the time its child spans cover) is derived from them afterwards.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

LAYERS = {
    "digits.parse": ("digits.parse",),
    "digits.value": ("digits.DigitString.value", "digits.StackedNumber.value"),
    "digits.from_int": ("digits.DigitString.from_int",),
    "digits.arith": ("digits.add", "digits.scale", "digits.split_low", "digits.lift", "digits.collapse"),
    "digits.render": ("digits.DigitString.render",),
    "weights.weight_inverse": ("weights.weight_inverse",),
    "families.step": (
        "families.trim",
        "families.stack_trim",
        "families.left_trim",
        "families.talmud",
        "families.sum_test",
        "families.binomial_test",
        "families.last_digits",
        "families.apply_once",
    ),
    "families.iterate": ("families.iterate",),
    "families.trace_as_json": ("families.Trace.as_json",),
    "oracle.remainder": ("oracle.remainder",),
    "oracle.random_digit_string": ("oracle.random_digit_string",),
    "oracle.fuzz_equivalence": ("oracle.fuzz_equivalence",),
    "analyzer.cost_profile": ("analyzer.cost_profile",),
    "analyzer.compare": ("analyzer.compare",),
    "cli.main": ("cli.main",),
}
# Root spans opened by the benchmark itself around each op and around rule building.
OP, SETUP = "bench.op", "bench.setup"


class Tracer:
    def __init__(self) -> None:
        self.names = [OP, SETUP, *LAYERS]
        self.spans: list = []  # (name index, start, end, parent index or -1, op id)
        self.stack: list[int] = []
        self.op = -1
        self.active = False
        self.steps = 0  # chain steps in the traces iterate returned
        self.slots = 0  # coefficient and digit slots those traces hold
        self._undo: list = []

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, name: int, t0: float, t1: float) -> None:
        self.stack.pop()
        self.spans[idx] = (name, t0, t1, self.stack[-1] if self.stack else -1, self.op)

    def root(self, name: str, op: int, fn, *args):
        """Run fn(*args) as a root span of the given op."""
        self.op = op
        idx = self._open()
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(idx, self.names.index(name), t0, perf_counter())

    def _wrap(self, fn, name: int, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open()
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx, name, t0, perf_counter())
            if observe is not None:
                observe(out)
            return out

        return traced

    def _count_trace(self, trace) -> None:
        self.steps += len(trace.steps)
        self.slots += sum(len(s.stacked.coeffs) + len(s.collapsed) for s in trace.steps)

    def install(self) -> None:
        """Wrap every layer function that exists in the loaded trimsum."""
        swaps = {}  # id of original function -> wrapper, for module-level names
        for layer, targets in LAYERS.items():
            name = self.names.index(layer)
            observe = self._count_trace if layer == "families.iterate" else None
            for target in targets:
                mod_name, *path = target.split(".")
                owner = importlib.import_module(f"trimsum.{mod_name}")
                if len(path) == 2:
                    owner = getattr(owner, path[0], None)
                raw = vars(owner).get(path[-1]) if owner is not None else None
                if isinstance(raw, property):
                    self._set(owner, path[-1], property(self._wrap(raw.fget, name, observe)))
                elif isinstance(raw, classmethod):
                    self._set(owner, path[-1], classmethod(self._wrap(raw.__func__, name, observe)))
                elif callable(raw) and len(path) == 2:
                    self._set(owner, path[-1], self._wrap(raw, name, observe))
                elif callable(raw):
                    swaps[id(raw)] = self._wrap(raw, name, observe)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "trimsum" or mod_name.startswith("trimsum."):
                for attr, value in list(vars(module).items()):
                    if id(value) in swaps:
                        self._set(module, attr, swaps[id(value)])

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def summary(self) -> dict[str, dict[str, float]]:
        """calls and self time per span name, derived from the recorded spans."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {n: {"calls": 0, "self_s": 0.0} for n in self.names}
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            row = out[self.names[name]]
            row["calls"] += 1
            row["self_s"] += (t1 - t0) - child[i]
        return out

    def root_wall(self) -> float:
        """Total duration of the root spans: the traced wall time."""
        return sum(t1 - t0 for _, t0, t1, parent, _ in self.spans if parent < 0)

    def write(self, path) -> None:
        """One line per span, times in seconds from the first span's start."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\top\tname\tparent\tstart_s\tend_s\n")
            for i, (name, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(f"{i}\t{op}\t{self.names[name]}\t{parent}\t{t0 - origin:.9f}\t{t1 - origin:.9f}\n")
