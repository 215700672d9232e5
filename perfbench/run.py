#!/usr/bin/env python3
"""Benchmark of the Softbrain reproduction: end-to-end host time per
workload, and a traced per-layer breakdown.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload dnn-layers --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Workloads (see ``suites.py``): ``dnn-layers``, ``machsuite-asic`` and
``fuzz-oracle``; ``all`` runs each in its own process, one after another.

A run derives its inputs from ``--seed`` only, then repeats *passes* over
the workload's items, one item at a time in one thread, until the next
pass would end after ``--seconds``.  Every item's output is checked (the
workload's ``verify``, or zero oracle divergences); a failing item is
counted and the run goes on.  The run prints a digest of the model outputs
of its first pass, which is the same for the same seed on every run and
must not change under a change that only makes the program faster.  When
passes repeat the same items, an item whose output differs from the first
pass's also counts as failed.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: median host time of one pass, first item start to last end;
* ``setup_s``: median, over several fresh interpreters, of the time from
  process start until the first item could start (imports and inputs);
* ``sim_cycles_per_s``: median per pass of simulated cycles divided by the
  host time spent inside ``run_program`` calls;
* ``peak_rss_mb``: peak resident memory through set-up and the first pass.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics.  Traced passes rebind each layer's public entry points
to span-recording wrappers (``spans.py``); times are self times per traced
pass, exact counters come from the first traced pass, ``sim.run_*`` from
the untraced passes, and ``trace.overhead_frac`` compares the two.  Spans
are written to ``.perfbench/spans-<workload>-seed<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status is
non-zero when any item failed.  Seed 7 is held out: tune on others and
use it to check a claimed gain.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from spans import Patches, Tracer, instrument, self_times, span_totals  # noqa: E402
from suites import WORKLOADS, Context, Workload  # noqa: E402

#: fresh interpreters timed for ``setup_s``
SETUP_SAMPLES = 5

#: span name -> per-layer metric of its self time per traced pass
SPAN_METRICS = {
    "asic.schedule_ddg": "asic.schedule_ddg_s",
    "asic.ddg_build": "asic.ddg_build_s",
    "asic.power_area": "asic.power_area_s",
    "asic.select": "asic.select_s",
    "sim.run": "sim.run_self_s",
    "sim.step": "sim.step_self_s",
    "sim.core": "sim.core_s",
    "sim.dispatcher": "sim.dispatcher_s",
    "sim.mse_read": "sim.mse_read_s",
    "sim.mse_write": "sim.mse_write_s",
    "sim.sse": "sim.sse_s",
    "sim.rse": "sim.rse_s",
    "sim.cgra": "sim.cgra_s",
    "compiler.schedule": "compiler.schedule_s",
    "workloads.build": "workloads.build_s",
    "verify": "verify_s",
    "models": "models_s",
    "fuzz.plan": "fuzz.plan_s",
    "fuzz.build_case": "fuzz.build_case_s",
    "fuzz.pure_eval": "fuzz.pure_eval_s",
    "interp.run": "interp.run_s",
}

#: exact counters copied from the first traced pass
COUNT_METRICS = [
    "sim.cycles", "sim.commands_issued", "sim.instances_fired",
    "sim.engine_busy.mse_read", "sim.engine_busy.mse_write",
    "sim.engine_busy.sse", "sim.engine_busy.rse",
    "sim.cgra_stall_no_input", "sim.cgra_stall_no_output_room",
    "sim.mem.requests", "asic.ddg_ops",
]

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_cycles_per_s": "cycles/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    **{metric: "s" for metric in SPAN_METRICS.values()},
    **{metric: "count" for metric in COUNT_METRICS},
    "asic.schedule_ddg_calls": "count",
    "asic.sched_ops_per_s": "ops/s",
    "sim.run_s": "s",
    "sim.run_calls": "count",
    "sim.steps": "count",
    "sim.step_ratio": "ratio",
    "sim.mem.hit_ratio": "ratio",
    "compiler.schedule_calls": "count",
    "fuzz.divergences": "count",
    "trace.overhead_frac": "ratio",
}


@dataclass
class PassResult:
    index: int
    traced: bool
    wall_s: float
    ctx: Context
    digests: Dict[object, str] = field(default_factory=dict)
    item_s: Dict[object, float] = field(default_factory=dict)
    failed: int = 0
    spans: list = field(default_factory=list)


def run_pass(workload: Workload, index: int, traced: bool) -> PassResult:
    tracer = Tracer() if traced else None
    ctx = Context(tracer)
    patches = Patches()
    digests: Dict[object, str] = {}
    item_s: Dict[object, float] = {}
    failed = 0
    try:
        if tracer is not None:
            instrument(tracer, patches)
        workload.begin_pass(ctx, patches)
        start = perf_counter()
        for item in workload.items(index):
            if tracer is not None:
                tracer.item = item
            item_start = perf_counter()
            try:
                with ctx.span("item"):
                    output = workload.run(item, ctx)
            except Exception as exc:  # any failure counts; the run goes on
                failed += 1
                print(f"{workload.name} pass {index} item {item}: FAILED "
                      f"{type(exc).__name__}: {exc}", file=sys.stderr)
                traceback.print_exc(limit=4, file=sys.stderr)
                continue
            item_s[item] = perf_counter() - item_start
            digests[item] = json.dumps(output, sort_keys=True)
        wall = perf_counter() - start
    finally:
        patches.undo()
    return PassResult(index, traced, wall, ctx, digests, item_s, failed,
                      tracer.spans if tracer else [])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_passes(workload: Workload, seconds: float,
               trace: bool) -> Tuple[List[PassResult], float]:
    """Closed loop: passes until the next one would end after ``seconds``.
    With ``trace`` passes alternate untraced / traced, at least one each.
    Also returns the peak resident memory through the first pass: later
    passes add an amount of work that depends on the program's speed."""
    deadline = perf_counter() + seconds
    passes: List[PassResult] = []
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(workload, len(passes), traced))
        if len(passes) == 1:
            first_pass_rss = peak_rss_mb()
        if trace and len(passes) < 2:
            continue
        next_traced = trace and len(passes) % 2 == 1
        same_kind = [p.wall_s for p in passes if p.traced == next_traced]
        if perf_counter() + statistics.median(same_kind) > deadline:
            return passes, first_pass_rss


def check_repeats(workload: Workload, passes: List[PassResult]) -> int:
    """Items whose outputs differ from the first pass's (repeating
    workloads only); each counts as a failed item."""
    if not workload.repeats_items:
        return 0
    first = passes[0].digests
    bad = 0
    for result in passes[1:]:
        for item, digest in result.digests.items():
            if item in first and digest != first[item]:
                bad += 1
                print(f"{workload.name} pass {result.index} item {item}: "
                      f"FAILED output differs from pass 0", file=sys.stderr)
    return bad


def digest_of(result: PassResult) -> str:
    text = "\n".join(f"{item}\t{digest}"
                     for item, digest in result.digests.items())
    return hashlib.sha256(text.encode()).hexdigest()


def pass_s(workload: Workload, passes: List[PassResult]) -> float:
    """Host time of a typical pass.  When every pass runs the same items,
    the sum of each item's median time: it shrugs off a slow moment of a
    shared host better than the median of a few pass times.  Otherwise the
    median pass time."""
    if not workload.repeats_items:
        return statistics.median(p.wall_s for p in passes)
    items = {item: None for p in passes for item in p.item_s}
    return sum(statistics.median(p.item_s[item] for p in passes
                                 if item in p.item_s) for item in items)


def measure_setup(name: str, seed: int) -> float:
    """Median time for a fresh interpreter to import the program, derive
    the inputs and exit."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-only",
             "--workload", name, "--seed", str(seed)],
            check=True, stdout=subprocess.DEVNULL, timeout=20)
        samples.append(perf_counter() - start)
    return statistics.median(samples)


def end_to_end_metrics(workload: Workload, passes: List[PassResult],
                       rss_mb: float) -> Dict[str, float]:
    rates = [p.ctx.counts["sim.cycles"] / p.ctx.sim_s
             for p in passes if p.ctx.sim_s > 0]
    return {
        "wall_s": pass_s(workload, passes),
        "setup_s": measure_setup(workload.name, workload.seed),
        "sim_cycles_per_s": statistics.median(rates) if rates else 0.0,
        "peak_rss_mb": rss_mb,
    }


def mean_self_times(totals: List[Dict[str, dict]]) -> Dict[str, float]:
    """Self time per span name, averaged over traced passes."""
    means: Dict[str, float] = {}
    for pass_totals in totals:
        for name, entry in pass_totals.items():
            means[name] = means.get(name, 0.0) + entry["self_s"] / len(totals)
    return means


def per_layer_metrics(workload: Workload, passes: List[PassResult],
                      totals: List[Dict[str, dict]]) -> Dict[str, float]:
    """``totals`` holds :func:`span_totals` of each traced pass."""
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    first = traced[0]
    self_s = mean_self_times(totals)
    metrics = {metric: self_s.get(name, 0.0)
               for name, metric in SPAN_METRICS.items()}
    schedule_busy = sum(t.get("asic.schedule_ddg", {}).get("busy_s", 0.0)
                        for t in totals)

    def calls(span_name: str) -> int:
        return totals[0].get(span_name, {}).get("calls", 0)

    counts = first.ctx.counts
    for metric in COUNT_METRICS:
        metrics[metric] = counts[metric]
    scheduled = sum(p.ctx.counts["asic.ops_scheduled"] for p in traced)
    accesses = counts["sim.mem.hits"] + counts["sim.mem.misses"]
    metrics.update({
        "asic.schedule_ddg_calls": calls("asic.schedule_ddg"),
        "asic.sched_ops_per_s": scheduled / schedule_busy if schedule_busy
        else 0.0,
        "sim.run_s": statistics.mean(p.ctx.sim_s for p in untraced),
        "sim.run_calls": untraced[0].ctx.sim_calls,
        "sim.steps": calls("sim.step"),
        "sim.step_ratio": calls("sim.step") / counts["sim.cycles"]
        if counts["sim.cycles"] else 0.0,
        "sim.mem.hit_ratio": counts["sim.mem.hits"] / accesses if accesses
        else 0.0,
        "compiler.schedule_calls": calls("compiler.schedule"),
        "fuzz.divergences": sum(p.ctx.counts["fuzz.divergences"]
                                for p in passes),
        "trace.overhead_frac":
            pass_s(workload, traced) / pass_s(workload, untraced) - 1.0,
    })
    return metrics


def write_spans(path: Path, passes: List[PassResult]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        for result in passes:
            for span, own in zip(result.spans, self_times(result.spans)):
                out.write(json.dumps({"pass": result.index, **span.to_dict(),
                                      "self": own}) + "\n")


def print_top_spans(self_s: Dict[str, float], limit: int = 6) -> None:
    sim = sum(v for k, v in self_s.items() if k.startswith("sim."))
    print("largest self times per traced pass:")
    for name, value in sorted(self_s.items(), key=lambda kv: -kv[1])[:limit]:
        print(f"  {name:<22} {value:.4f} s")
    print(f"  {'sim.* (all)':<22} {sim:.4f} s")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workload: Optional[Workload] = None) -> int:
    workload = workload or WORKLOADS[name](seed)
    workload.setup()
    passes, rss_mb = run_passes(workload, seconds, trace)
    attempted = sum(len(p.digests) + p.failed for p in passes)
    failed = sum(p.failed for p in passes) + check_repeats(workload, passes)
    if trace:
        totals = [span_totals(p.spans) for p in passes if p.traced]
        metrics = per_layer_metrics(workload, passes, totals)
    else:
        metrics = end_to_end_metrics(workload, passes, rss_mb)

    print(f"perfbench {name} seed={seed} trace={int(trace)} "
          f"passes={len(passes)} attempted={attempted} failed={failed} "
          f"fail_frac={failed / attempted:.6f}")
    print(f"digest {digest_of(passes[0])} "
          f"(pass 0, {len(passes[0].digests)} items)")
    if trace:
        print_top_spans(mean_self_times(totals))
        spans_path = ROOT / ".perfbench" / f"spans-{name}-seed{seed}.jsonl"
        write_spans(spans_path, passes)
        print(f"spans written to {spans_path}")
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    for metric, value in metrics.items():
        print(f"  {metric:<30} {value!r} {units[metric]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": units[metric]}
                    for metric, value in metrics.items()},
    }))
    return 1 if failed else 0


def run_all(args) -> int:
    """Each workload in a fresh process; a combined result line last."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600)
        print(child.stdout, end="")
        status = status or child.returncode
        lines = child.stdout.strip().splitlines()
        if child.returncode not in (0, 1) or not lines:
            return child.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and derive the inputs, then exit "
                             "(how setup_s is timed)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        WORKLOADS[args.workload](args.seed).setup()
        return 0
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
