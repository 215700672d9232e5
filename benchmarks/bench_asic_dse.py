"""ASIC design-space sweep throughput (BENCH_asic_dse).

Times ``explore_design_space`` — the 20-point (unroll, partition) sweep
that picks each Figure 12-15 ASIC — on every MachSuite kernel's DDG at
its default size, with the kernel's own base design.

Each row holds:

* ``schedules`` — how many of the 20 points ran the list scheduler
  (``schedule_ddg``); the others reused a schedule the sweep had already
  computed;
* ``seconds`` — the best-of-``ROUNDS`` wall-clock time of the sweep;
* ``fingerprint`` — a sha256 over every point's design label, cycles,
  power and area, in sweep order.  A change that only makes the sweep
  faster keeps every fingerprint.

Runs two ways:

* ``pytest benchmarks/bench_asic_dse.py`` — sweeps each kernel once and
  checks its fingerprint and schedule count against the committed
  ``BENCH_asic_dse.json`` (both exact, so it cannot flake on a slow
  machine); it writes no JSON;
* ``python benchmarks/bench_asic_dse.py`` — times every row and writes the
  JSON report (``--out``, default the committed file).

``--baseline OLD.json`` takes an earlier report of this script (say, run
on the parent commit) and writes each row as ``parent`` and ``change``
columns, with the speedup parent/change seconds; it refuses a baseline
whose fingerprints differ.
"""

import argparse
import hashlib
import json
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.baselines.asic import dse
from repro.workloads.machsuite import MACHSUITE

#: the committed report the pytest form checks
COMMITTED = ROOT / "BENCH_asic_dse.json"
ROUNDS = 5  # best-of-N wall-clock


def fingerprint(points) -> str:
    """sha256 over what the sweep decided at every design point."""
    facts = [[p.design.label(), p.cycles, p.power_mw, p.area_mm2]
             for p in points]
    return hashlib.sha256(json.dumps(facts).encode()).hexdigest()


def cases():
    """Row name -> ``(ddg, base design)`` to sweep."""
    return {name: (ddg_fn(), base_fn())
            for name, (_, ddg_fn, _, base_fn) in MACHSUITE.items()}


def sweep_counted(ddg, base):
    """One sweep, and how many points ran the list scheduler."""
    calls = 0
    schedule = dse.schedule_ddg

    def counted(*args):
        nonlocal calls
        calls += 1
        return schedule(*args)

    dse.schedule_ddg = counted
    try:
        points = dse.explore_design_space(ddg, base=base)
    finally:
        dse.schedule_ddg = schedule
    return points, calls


def measure(rows):
    table = {}
    for name, (ddg, base) in rows.items():
        points, calls = sweep_counted(ddg, base)
        best = float("inf")
        for _ in range(ROUNDS):
            start = time.perf_counter()
            dse.explore_design_space(ddg, base=base)
            best = min(best, time.perf_counter() - start)
        table[name] = {"schedules": calls, "points": len(points),
                       "seconds": round(best, 5),
                       "fingerprint": fingerprint(points)}
    return table


def render(rows) -> str:
    header = f"{'kernel':<14} {'schedules':>10} {'s':>9}  fingerprint"
    lines = [header, "-" * len(header)]
    for name, row in rows.items():
        lines.append(f"{name:<14} {row['schedules']:>6}/{row['points']:<3} "
                     f"{row['seconds']:>9.5f}  {row['fingerprint'][:16]}")
    lines.append("-" * len(header))
    lines.append(f"{'total':<14} "
                 f"{sum(r['schedules'] for r in rows.values()):>6}/"
                 f"{sum(r['points'] for r in rows.values()):<3} "
                 f"{sum(r['seconds'] for r in rows.values()):>9.5f}")
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
                raise ValueError(f"{name}: design points differ from the "
                                 "baseline")
            entry["speedup"] = round(parent["seconds"] / row["seconds"], 2)
        table[name] = entry
    return table


def emit(rows, path: pathlib.Path, baseline=None) -> None:
    path.write_text(json.dumps({
        "bench": "asic_dse",
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "rounds": ROUNDS,
        "rows": rows if baseline is None else compare(baseline, rows),
    }, indent=1) + "\n")


def test_asic_dse_fingerprints_and_schedules():
    committed = committed_rows()
    rows = cases()
    assert set(rows) == set(committed)
    for name, (ddg, base) in rows.items():
        points, calls = sweep_counted(ddg, base)
        assert fingerprint(points) == committed[name]["fingerprint"], (
            f"{name}: design points differ from {COMMITTED.name}")
        assert calls == committed[name]["schedules"], (
            f"{name}: {calls} schedules, {COMMITTED.name} records "
            f"{committed[name]['schedules']}")


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
