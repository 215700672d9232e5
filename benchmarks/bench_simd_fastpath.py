"""Simulator throughput per mode (BENCH_sim_throughput).

Measures simulated cycles, wall-clock time and simulated cycles per second
of the batched fast path (docs/PERFORMANCE.md) and of the per-cycle slow
path on the Figure 4/6 timeline workloads — the dot-product stream program
and the DNN classifier layer, scaled up so each run takes long enough to
time reliably — and on all 21 golden workloads of
``tests/test_golden_stats.py`` (every MachSuite kernel and DNN layer).
Both modes must produce bit-identical stats — this file re-asserts that
before trusting any timing.

Runs two ways:

* ``pytest benchmarks/bench_simd_fastpath.py`` — records the table next
  to the other figure benchmarks (and leaves the committed JSON alone);
* ``python benchmarks/bench_simd_fastpath.py --check 1.5`` — CI mode:
  writes ``BENCH_sim_throughput.json`` and exits non-zero if the DNN
  classifier speedup drops below the threshold.

``--baseline OLD.json`` takes an earlier report of this script (say, run
on the parent commit) and writes each workload's rows as ``parent`` and
``change`` columns, with the fast path's cycles/s ratio between them.
"""

import argparse
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.cgra import dnn_provisioned
from repro.core.compiler import schedule
from repro.core.dfg import parse_dfg
from repro.core.isa import StreamProgram
from repro.sim import MemorySystem, run_program
from repro.sim.softbrain import SoftbrainParams
from repro.workloads.common import run_and_verify, write_words
from repro.workloads.dnn import DNN_LAYERS, build_classifier, build_dnn_layer
from repro.workloads.dnn.layers import ClassifierLayer
from repro.workloads.machsuite import MACHSUITE

#: the workload the CI gate applies to
GATED_WORKLOAD = "dnn-classifier"
ROUNDS = 3  # best-of-N wall-clock per mode


def _dot_product_case():
    dfg = parse_dfg(
        "input A 4\ninput B 4\n"
        "m0 = mul A.0 B.0\nm1 = mul A.1 B.1\nm2 = mul A.2 B.2\n"
        "s0 = add m0 m1\ns1 = add s0 m2\noutput C s1",
        "dotprod",
    )
    fabric = dnn_provisioned()
    config = schedule(dfg, fabric)

    def run(params):
        memory = MemorySystem()
        n = 4096
        write_words(memory, 0x1000, list(range(4 * n)))
        write_words(memory, 0x20000, list(range(4 * n)))
        program = StreamProgram("fig4-dotprod", config)
        program.mem_port(0x1000, 32, 32, n, "A")
        program.mem_port(0x20000, 32, 32, n, "B")
        program.port_mem("C", 8, 8, n, 0x80000)
        program.barrier_all()
        return run_program(program, fabric=fabric, memory=memory,
                           params=params)

    return run


def _classifier_case():
    layer = ClassifierLayer("bench", ni=1024, nn=64)

    def run(params):
        built = build_classifier(layer)
        result = run_program(built.program, fabric=built.fabric,
                             memory=built.memory, params=params)
        built.verify(built.memory)
        return result

    return run


def _golden_case(build):
    """A golden-stats workload (same builders and names as the tests)."""

    def case():
        return lambda params: run_and_verify(build(), params=params)

    return case


WORKLOADS = {
    "fig4-dotprod": _dot_product_case,
    GATED_WORKLOAD: _classifier_case,
}
#: the Figure 4/6 timeline workloads (the golden ones follow)
TIMELINE_WORKLOADS = tuple(WORKLOADS)
WORKLOADS.update(
    (f"machsuite-{name}", _golden_case(entry[0]))
    for name, entry in MACHSUITE.items()
)
WORKLOADS.update(
    (f"dnn-{layer.name}", _golden_case(lambda layer=layer: build_dnn_layer(layer)))
    for layer in DNN_LAYERS
)


def _time_mode(run, fast: bool):
    best = float("inf")
    result = None
    for _ in range(ROUNDS):
        params = SoftbrainParams(fast_path=fast)
        start = time.perf_counter()
        result = run(params)
        best = min(best, time.perf_counter() - start)
    return best, result


def measure():
    rows = {}
    for name, case in WORKLOADS.items():
        run = case()
        fast_s, fast = _time_mode(run, fast=True)
        slow_s, slow = _time_mode(run, fast=False)
        assert fast.stats.to_dict() == slow.stats.to_dict(), (
            f"{name}: fast path is not stat-identical; timing is void")
        rows[name] = {
            "cycles": fast.stats.cycles,
            "fast_seconds": round(fast_s, 4),
            "slow_seconds": round(slow_s, 4),
            "speedup": round(slow_s / fast_s, 3),
            "fast_cycles_per_second": round(fast.stats.cycles / fast_s),
            "slow_cycles_per_second": round(slow.stats.cycles / slow_s),
        }
    return rows


def render(rows) -> str:
    header = (f"{'workload':<22} {'cycles':>8} {'slow s':>8} "
              f"{'fast s':>8} {'speedup':>8} {'slow c/s':>9} {'fast c/s':>9}")
    lines = [header, "-" * len(header)]
    for name, row in rows.items():
        lines.append(
            f"{name:<22} {row['cycles']:>8} {row['slow_seconds']:>8.3f} "
            f"{row['fast_seconds']:>8.3f} {row['speedup']:>7.2f}x "
            f"{row['slow_cycles_per_second']:>9} "
            f"{row['fast_cycles_per_second']:>9}")
    return "\n".join(lines)


def compare(baseline, rows):
    """Per workload: the baseline's row as ``parent``, this run's as
    ``change``, and the fast path's cycles/s ratio change/parent."""
    table = {}
    for name, row in rows.items():
        parent = baseline.get(name)
        entry = {"parent": parent, "change": row}
        if parent is not None:
            if parent["cycles"] != row["cycles"]:
                raise ValueError(
                    f"{name}: simulated cycles differ from the baseline")
            entry["fast_cps_ratio"] = round(
                row["fast_cycles_per_second"]
                / parent["fast_cycles_per_second"], 3)
        table[name] = entry
    return table


def emit(rows, path: pathlib.Path, baseline=None) -> None:
    path.write_text(json.dumps({
        "bench": "sim_throughput",
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "rounds": ROUNDS,
        "workloads": rows if baseline is None else compare(baseline, rows),
    }, indent=1) + "\n")


def test_fastpath_speedup(benchmark):
    from conftest import record

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    # The table goes to the session's results file; the committed JSON
    # record is written only by the script (see main).
    record("Fast-path throughput (BENCH_sim_throughput)", render(rows))
    for name in TIMELINE_WORKLOADS:
        assert rows[name]["speedup"] > 1.0, (
            f"{name}: fast path slower than slow")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", type=float, default=None, metavar="X",
                        help=f"fail unless {GATED_WORKLOAD} speedup >= X")
    parser.add_argument("--out", default="BENCH_sim_throughput.json",
                        help="where to write the JSON report")
    parser.add_argument("--baseline", default=None, metavar="OLD.json",
                        help="earlier report whose rows become the "
                             "parent column")
    args = parser.parse_args()
    baseline = None
    if args.baseline is not None:
        report = json.loads(pathlib.Path(args.baseline).read_text())
        baseline = report["workloads"]
    rows = measure()
    print(render(rows))
    emit(rows, pathlib.Path(args.out), baseline)
    print(f"report written to {args.out}")
    if args.check is not None:
        got = rows[GATED_WORKLOAD]["speedup"]
        if got < args.check:
            print(f"FAIL: {GATED_WORKLOAD} speedup {got:.2f}x "
                  f"< required {args.check:.2f}x")
            return 1
        print(f"OK: {GATED_WORKLOAD} speedup {got:.2f}x "
              f">= {args.check:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
