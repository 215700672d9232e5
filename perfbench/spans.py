"""Host-time spans recorded from outside the program under test.

A :class:`Tracer` keeps every span in memory.  A span carries its name,
start, end, parent span and the benchmark item it belongs to.  Layers are
timed by rebinding their public names at the sites that import them
(:func:`instrument`), never by passing a sink or hook into the program, so
the code path a traced pass runs is the one an untraced pass runs.

Per-cycle layers (the simulator step and each component's ``tick``) are
*rolled up*: all calls of one name under one parent share a single span
whose ``busy`` is the summed duration of the calls and whose ``calls``
counts them.  Every other span is exact: one span per call, ``busy`` equal
to ``end - start``.

A span's self time is its busy time minus the part of it that its children
cover (:func:`self_times`).
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Tuple

perf_counter = time.perf_counter


@dataclass
class Span:
    name: str
    #: index of the parent span in :attr:`Tracer.spans`; -1 at the root
    parent: int
    #: benchmark item the span belongs to
    item: object
    start: float
    end: float = 0.0
    #: summed duration of the calls the span covers
    busy: float = 0.0
    calls: int = 1
    rolled: bool = False

    def to_dict(self) -> dict:
        return {"name": self.name, "parent": self.parent, "item": self.item,
                "start": self.start, "end": self.end, "busy": self.busy,
                "calls": self.calls, "rolled": self.rolled}


def _covered(intervals: List[Tuple[float, float]], low: float,
             high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, low), min(end, high)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: List[Span]) -> List[float]:
    """Self time of every span: busy time minus child coverage.

    Exact children cover the union of their intervals, clipped to an exact
    parent's interval, so overlapping children are not counted twice.
    Rolled-up children cover their busy time: their calls run one after
    another inside the parent.
    """
    exact: Dict[int, List[Tuple[float, float]]] = {}
    rolled: Dict[int, float] = {}
    for span in spans:
        if span.parent < 0:
            continue
        if span.rolled:
            rolled[span.parent] = rolled.get(span.parent, 0.0) + span.busy
        else:
            exact.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        low, high = ((float("-inf"), float("inf")) if span.rolled
                     else (span.start, span.end))
        cover = rolled.get(index, 0.0) + _covered(exact.get(index, []),
                                                  low, high)
        out.append(span.busy - cover)
    return out


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._rolled: Dict[Tuple[str, int], int] = {}
        #: item id stamped on spans opened from now on
        self.item: object = None

    def _parent(self) -> int:
        return self._stack[-1] if self._stack else -1

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        record = Span(name, self._parent(), self.item, perf_counter())
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = perf_counter()
            record.busy = record.end - record.start
            self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with an exact span around every call."""
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    def wrap_rolled(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call added to one rolled-up span per parent."""
        spans, stack, rolled = self.spans, self._stack, self._rolled

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = rolled.get((name, parent))
            if index is None:
                index = len(spans)
                spans.append(Span(name, parent, self.item, perf_counter(),
                                  calls=0, rolled=True))
                rolled[(name, parent)] = index
            record = spans[index]
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                record.busy += end - start
                record.end = end
                record.calls += 1
        traced.__wrapped__ = fn
        return traced


# -- instrumentation -----------------------------------------------------------

_MISSING = object()


class Patches:
    """Attribute rebindings that can be undone in reverse order."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


def _schedule_import_sites() -> List[object]:
    """Workload builder modules and ``repro.fuzz.case``: every module that
    imported the CGRA compiler's ``schedule`` to build its programs."""
    from repro.core.compiler import scheduler

    return [
        module for name, module in sorted(sys.modules.items())
        if (name.startswith("repro.workloads.") or name == "repro.fuzz.case")
        and getattr(module, "schedule", None) is scheduler.schedule
    ]


def instrument(tracer: Tracer, patches: Patches) -> None:
    """Rebind each layer's public entry points to span-recording wrappers."""
    from repro.baselines.asic import dse
    from repro.fuzz import oracle
    from repro.sim.cgra_exec import CgraExecutor
    from repro.sim.control_core import ControlCore
    from repro.sim.dispatcher import Dispatcher
    from repro.sim.softbrain import SoftbrainSim
    from repro.sim.stream_engine import (
        MemReadEngine, MemWriteEngine, RecurrenceEngine, ScratchEngine,
    )

    exact = [
        (dse, "schedule_ddg", "asic.schedule_ddg"),
        (dse, "estimate_power_area", "asic.power_area"),
        (oracle, "build_case", "fuzz.build_case"),
        (oracle, "evaluate_case", "fuzz.pure_eval"),
        (oracle, "interpret_program", "interp.run"),
    ]
    exact += [(module, "schedule", "compiler.schedule")
              for module in _schedule_import_sites()]
    for owner, attr, name in exact:
        patches.set(owner, attr, tracer.wrap(name, getattr(owner, attr)))

    rolled = [
        (SoftbrainSim, "step", "sim.step"),
        (ControlCore, "tick", "sim.core"),
        (Dispatcher, "tick", "sim.dispatcher"),
        (MemReadEngine, "tick", "sim.mse_read"),
        (MemWriteEngine, "tick", "sim.mse_write"),
        (ScratchEngine, "tick", "sim.sse"),
        (RecurrenceEngine, "tick", "sim.rse"),
        (CgraExecutor, "tick", "sim.cgra"),
    ]
    for owner, attr, name in rolled:
        patches.set(owner, attr, tracer.wrap_rolled(name, getattr(owner, attr)))


def span_totals(spans: List[Span]) -> Dict[str, dict]:
    """Per span name: summed self time, busy time and call count."""
    totals: Dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(span.name,
                                  {"self_s": 0.0, "busy_s": 0.0, "calls": 0})
        entry["self_s"] += own
        entry["busy_s"] += span.busy
        entry["calls"] += span.calls
    return totals
