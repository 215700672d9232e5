"""CGRA compiler throughput (BENCH_compiler).

Times ``schedule()`` — greedy placement, annealing, routing and delay
matching — on the DFGs the repository compiles most:

* each of the 21 golden workloads' DFGs (every MachSuite kernel and DNN
  layer, on its own fabric, with the default effort);
* the 150 fuzz DFGs of one perfbench ``fuzz-oracle`` pass (case ``i`` of
  seed ``FUZZ_SEED`` drawn as ``python -m repro fuzz`` draws it, scheduled
  on the fuzz fabric with the fuzz effort), timed together.

Each row holds the best-of-``ROUNDS`` seconds and a sha256 fingerprint of
the resulting configurations: placement, port map, routed links, extra
delays and latency.  A change that only makes the compiler faster keeps
every fingerprint.

Runs two ways:

* ``pytest benchmarks/bench_compiler.py`` — schedules each DFG once and
  checks every fingerprint against the committed ``BENCH_compiler.json``
  (exact, so it cannot flake on a slow machine); it writes no JSON;
* ``python benchmarks/bench_compiler.py`` — times every row and writes
  the JSON report (``--out``, default the committed file).

``--baseline OLD.json`` takes an earlier report of this script (say, run
on the parent commit) and writes each row as ``parent`` and ``change``
columns, with the speedup parent/change seconds; it refuses a baseline
whose fingerprints differ.
"""

import argparse
import hashlib
import json
import pathlib
import random
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.core.compiler import schedule
from repro.fuzz.case import (
    FUZZ_ANNEAL_ITERATIONS,
    FUZZ_SCHEDULE_ATTEMPTS,
    fuzz_fabric,
)
from repro.fuzz.generators import dfg_from_spec, random_plan
from repro.workloads.dnn import DNN_LAYERS, build_dnn_layer
from repro.workloads.machsuite import MACHSUITE

#: the committed report the pytest form checks
COMMITTED = ROOT / "BENCH_compiler.json"
ROUNDS = 5  # best-of-N wall-clock
#: fuzz seed whose first pass of cases the ``fuzz-150`` row compiles
FUZZ_SEED = 1
FUZZ_CASES = 150
FUZZ_ROW = f"fuzz-{FUZZ_CASES}"


def fingerprint(configs) -> str:
    """sha256 over everything the compiler decided for ``configs``."""
    facts = [
        [list(config.placement.items()), list(config.port_map.items()),
         [[list(key), edge.src, edge.dst, edge.links, edge.extra_delay]
          for key, edge in config.edges.items()],
         config.latency]
        for config in configs
    ]
    return hashlib.sha256(json.dumps(facts).encode()).hexdigest()


def cases():
    """Row name -> list of ``(dfg, fabric, schedule kwargs)`` to compile."""
    rows = {}
    builds = {f"machsuite-{name}": entry[0]
              for name, entry in MACHSUITE.items()}
    builds.update((f"dnn-{layer.name}",
                   lambda layer=layer: build_dnn_layer(layer))
                  for layer in DNN_LAYERS)
    for name, build in builds.items():
        rows[name] = [(config.dfg, config.fabric, {})
                      for config in build().program.config_images.values()]
    effort = dict(anneal_iterations=FUZZ_ANNEAL_ITERATIONS,
                  max_attempts=FUZZ_SCHEDULE_ATTEMPTS)
    rows[FUZZ_ROW] = []
    for index in range(FUZZ_CASES):
        plan = random_plan(random.Random(f"{FUZZ_SEED}:{index}"))
        rows[FUZZ_ROW].append((dfg_from_spec(plan.dfg_spec), fuzz_fabric(),
                               dict(effort, seed=plan.schedule_seed)))
    return rows


def compile_all(jobs):
    return [schedule(dfg, fabric, **kwargs) for dfg, fabric, kwargs in jobs]


def measure(rows):
    table = {}
    for name, jobs in rows.items():
        best = float("inf")
        for _ in range(ROUNDS):
            start = time.perf_counter()
            configs = compile_all(jobs)
            best = min(best, time.perf_counter() - start)
        table[name] = {"seconds": round(best, 5),
                       "fingerprint": fingerprint(configs)}
    return table


def render(rows) -> str:
    header = f"{'dfgs':<22} {'s':>9}  fingerprint"
    lines = [header, "-" * len(header)]
    for name, row in rows.items():
        lines.append(f"{name:<22} {row['seconds']:>9.5f}  "
                     f"{row['fingerprint'][:16]}")
    return "\n".join(lines)


def committed_rows(path: pathlib.Path = COMMITTED):
    """Each row of a report, taking the ``change`` column of a
    parent/change report."""
    rows = json.loads(path.read_text())["rows"]
    return {name: entry.get("change", entry) for name, entry in rows.items()}


def compare(baseline, rows):
    """Per row: the baseline's as ``parent``, this run's as ``change``, and
    the speedup parent/change seconds."""
    table = {}
    for name, row in rows.items():
        parent = baseline.get(name)
        entry = {"parent": parent, "change": row}
        if parent is not None:
            if parent["fingerprint"] != row["fingerprint"]:
                raise ValueError(f"{name}: configs differ from the baseline")
            entry["speedup"] = round(parent["seconds"] / row["seconds"], 2)
        table[name] = entry
    return table


def emit(rows, path: pathlib.Path, baseline=None) -> None:
    path.write_text(json.dumps({
        "bench": "compiler",
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "rounds": ROUNDS,
        "rows": rows if baseline is None else compare(baseline, rows),
    }, indent=1) + "\n")


def test_compiler_fingerprints():
    committed = committed_rows()
    got = {name: fingerprint(compile_all(jobs))
           for name, jobs in cases().items()}
    assert set(got) == set(committed)
    for name, digest in got.items():
        assert digest == committed[name]["fingerprint"], (
            f"{name}: compiled configs differ from {COMMITTED.name}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=str(COMMITTED),
                        help="where to write the JSON report")
    parser.add_argument("--baseline", default=None, metavar="OLD.json",
                        help="earlier report whose rows become the "
                             "parent column")
    args = parser.parse_args()
    baseline = None
    if args.baseline is not None:
        baseline = committed_rows(pathlib.Path(args.baseline))
    rows = measure(cases())
    print(render(rows))
    emit(rows, pathlib.Path(args.out), baseline)
    print(f"report written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
