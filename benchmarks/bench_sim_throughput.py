"""Simulator throughput (BENCH_sim_throughput).

Measures simulated cycles, wall-clock time (best of ``ROUNDS``) and
simulated cycles per second on the Figure 4/6 timeline workloads — the
dot-product stream program and the DNN classifier layer, scaled up so
each run takes long enough to time reliably — and on all 21 golden
workloads of ``tests/test_golden_stats.py`` (every MachSuite kernel and
DNN layer).

Runs two ways:

* ``pytest benchmarks/bench_sim_throughput.py`` — records the table next
  to the other figure benchmarks, checks every workload's simulated
  cycles against the committed ``BENCH_sim_throughput.json`` and leaves
  that file alone;
* ``python benchmarks/bench_sim_throughput.py --check`` — CI mode:
  writes the JSON report and exits non-zero if the DNN classifier's
  cycles/s falls more than ``CHECK_MARGIN`` below the value committed in
  ``BENCH_sim_throughput.json``.

``--baseline OLD.json`` takes an earlier report of this script (say, run
on the parent commit) and writes each workload's rows as ``parent`` and
``change`` columns, with the cycles/s ratio between them.
"""

import argparse
import json
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.cgra import dnn_provisioned
from repro.core.compiler import schedule
from repro.core.dfg import parse_dfg
from repro.core.isa import StreamProgram
from repro.sim import MemorySystem, run_program
from repro.workloads.common import run_and_verify, write_words
from repro.workloads.dnn import DNN_LAYERS, build_classifier, build_dnn_layer
from repro.workloads.dnn.layers import ClassifierLayer
from repro.workloads.machsuite import MACHSUITE

#: the committed report the ``--check`` gate reads
COMMITTED = ROOT / "BENCH_sim_throughput.json"
#: the workload the CI gate applies to
GATED_WORKLOAD = "dnn-classifier"
#: allowed fractional drop of the gated cycles/s below the committed value
CHECK_MARGIN = 0.30
ROUNDS = 3  # best-of-N wall-clock


def _dot_product_case():
    dfg = parse_dfg(
        "input A 4\ninput B 4\n"
        "m0 = mul A.0 B.0\nm1 = mul A.1 B.1\nm2 = mul A.2 B.2\n"
        "s0 = add m0 m1\ns1 = add s0 m2\noutput C s1",
        "dotprod",
    )
    fabric = dnn_provisioned()
    config = schedule(dfg, fabric)

    def run():
        memory = MemorySystem()
        n = 4096
        write_words(memory, 0x1000, list(range(4 * n)))
        write_words(memory, 0x20000, list(range(4 * n)))
        program = StreamProgram("fig4-dotprod", config)
        program.mem_port(0x1000, 32, 32, n, "A")
        program.mem_port(0x20000, 32, 32, n, "B")
        program.port_mem("C", 8, 8, n, 0x80000)
        program.barrier_all()
        return run_program(program, fabric=fabric, memory=memory)

    return run


def _classifier_case():
    layer = ClassifierLayer("bench", ni=1024, nn=64)

    def run():
        built = build_classifier(layer)
        result = run_program(built.program, fabric=built.fabric,
                             memory=built.memory)
        built.verify(built.memory)
        return result

    return run


def _golden_case(build):
    """A golden-stats workload (same builders and names as the tests)."""

    def case():
        return lambda: run_and_verify(build())

    return case


WORKLOADS = {
    "fig4-dotprod": _dot_product_case,
    GATED_WORKLOAD: _classifier_case,
}
WORKLOADS.update(
    (f"machsuite-{name}", _golden_case(entry[0]))
    for name, entry in MACHSUITE.items()
)
WORKLOADS.update(
    (f"dnn-{layer.name}", _golden_case(lambda layer=layer: build_dnn_layer(layer)))
    for layer in DNN_LAYERS
)


def _best_of(run):
    best = float("inf")
    result = None
    for _ in range(ROUNDS):
        start = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - start)
    return best, result


def measure():
    rows = {}
    for name, case in WORKLOADS.items():
        seconds, result = _best_of(case())
        rows[name] = {
            "cycles": result.stats.cycles,
            "seconds": round(seconds, 4),
            "cycles_per_second": round(result.stats.cycles / seconds),
        }
    return rows


def render(rows) -> str:
    header = f"{'workload':<22} {'cycles':>8} {'s':>8} {'cycles/s':>9}"
    lines = [header, "-" * len(header)]
    for name, row in rows.items():
        lines.append(
            f"{name:<22} {row['cycles']:>8} {row['seconds']:>8.3f} "
            f"{row['cycles_per_second']:>9}")
    return "\n".join(lines)


def committed_rows(path: pathlib.Path = COMMITTED):
    """Each workload's row in a report, taking the ``change`` column of a
    parent/change report."""
    workloads = json.loads(path.read_text())["workloads"]
    return {name: entry.get("change", entry)
            for name, entry in workloads.items()}


def compare(baseline, rows):
    """Per workload: the baseline's row as ``parent``, this run's as
    ``change``, and the cycles/s ratio change/parent."""
    table = {}
    for name, row in rows.items():
        parent = baseline.get(name)
        entry = {"parent": parent, "change": row}
        if parent is not None:
            if parent["cycles"] != row["cycles"]:
                raise ValueError(
                    f"{name}: simulated cycles differ from the baseline")
            entry["cps_ratio"] = round(
                row["cycles_per_second"] / parent["cycles_per_second"], 3)
        table[name] = entry
    return table


def emit(rows, path: pathlib.Path, baseline=None) -> None:
    path.write_text(json.dumps({
        "bench": "sim_throughput",
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "rounds": ROUNDS,
        "workloads": rows if baseline is None else compare(baseline, rows),
    }, indent=1) + "\n")


def check(rows, committed) -> bool:
    """The CI gate: the gated workload keeps its committed cycles and
    stays within ``CHECK_MARGIN`` of its committed cycles/s."""
    got, want = rows[GATED_WORKLOAD], committed[GATED_WORKLOAD]
    floor = (1 - CHECK_MARGIN) * want["cycles_per_second"]
    ok = (got["cycles"] == want["cycles"]
          and got["cycles_per_second"] >= floor)
    print(f"{'OK' if ok else 'FAIL'}: {GATED_WORKLOAD} "
          f"{got['cycles_per_second']} cycles/s (floor {floor:.0f}, "
          f"committed {want['cycles_per_second']}), "
          f"{got['cycles']} cycles (committed {want['cycles']})")
    return ok


def test_sim_throughput(benchmark):
    from conftest import record

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    # The table goes to the session's results file; the committed JSON
    # record is written only by the script (see main).
    record("Simulator throughput (BENCH_sim_throughput)", render(rows))
    committed = committed_rows()
    for name, row in rows.items():
        assert row["cycles"] == committed[name]["cycles"], (
            f"{name}: simulated cycles differ from {COMMITTED.name}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help=f"fail if {GATED_WORKLOAD} cycles/s drops more "
                             f"than {CHECK_MARGIN:.0%} below {COMMITTED.name}")
    parser.add_argument("--out", default=str(COMMITTED),
                        help="where to write the JSON report")
    parser.add_argument("--baseline", default=None, metavar="OLD.json",
                        help="earlier report whose rows become the "
                             "parent column")
    args = parser.parse_args()
    baseline = None
    if args.baseline is not None:
        baseline = committed_rows(pathlib.Path(args.baseline))
    committed = committed_rows() if args.check else None
    rows = measure()
    print(render(rows))
    emit(rows, pathlib.Path(args.out), baseline)
    print(f"report written to {args.out}")
    if committed is not None and not check(rows, committed):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
