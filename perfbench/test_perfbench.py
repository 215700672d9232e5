"""Self-tests for the benchmark's own code.

Run from the root of the repository: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run
from spans import Patches, Span, Tracer, self_times, span_totals
from suites import DnnLayers, FuzzOracle, WORKLOADS


def exact(name, parent, start, end):
    return Span(name, parent, None, start, end, busy=end - start)


def test_self_time_subtracts_nested_children():
    spans = [
        exact("root", -1, 0.0, 10.0),
        exact("a", 0, 1.0, 4.0),
        exact("a.inner", 1, 2.0, 3.0),
        exact("b", 0, 6.0, 7.5),
    ]
    assert self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 1.5])


def test_self_time_counts_overlapping_children_once():
    spans = [
        exact("root", -1, 0.0, 10.0),
        exact("a", 0, 1.0, 5.0),
        exact("b", 0, 3.0, 6.0),      # overlaps a by 2
        exact("c", 0, 3.5, 4.5),      # inside the a/b overlap
        exact("d", 0, 9.0, 12.0),     # runs past the parent: clipped
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_self_time_of_rolled_up_spans():
    spans = [
        exact("run", -1, 0.0, 10.0),
        Span("step", 0, None, 0.5, 9.5, busy=6.0, calls=100, rolled=True),
        Span("tick.a", 1, None, 0.5, 9.4, busy=2.0, calls=100, rolled=True),
        Span("tick.b", 1, None, 0.6, 9.5, busy=1.5, calls=90, rolled=True),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.5, 2.0, 1.5])
    totals = span_totals(spans)
    assert totals["step"]["calls"] == 100
    assert totals["tick.b"]["self_s"] == pytest.approx(1.5)


def test_tracer_records_parents_items_and_rollups():
    tracer = Tracer()

    def leaf():
        return 1

    rolled_leaf = tracer.wrap_rolled("leaf", leaf)

    def middle():
        return sum(rolled_leaf() for _ in range(5))

    traced_middle = tracer.wrap("middle", middle)
    tracer.item = "x"
    with tracer.span("item"):
        assert traced_middle() == 5
        assert traced_middle() == 5
    names = [(s.name, s.parent, s.item, s.calls) for s in tracer.spans]
    assert names == [("item", -1, "x", 1), ("middle", 0, "x", 1),
                     ("leaf", 1, "x", 5), ("middle", 0, "x", 1),
                     ("leaf", 3, "x", 5)]
    selves = self_times(tracer.spans)
    assert sum(selves) == pytest.approx(tracer.spans[0].busy)
    assert min(selves) >= -1e-9


def test_patches_restore_inherited_and_own_attributes():
    class Base:
        def tick(self):
            return "base"

    class Child(Base):
        pass

    patches = Patches()
    patches.set(Child, "tick", lambda self: "patched")
    patches.set(Base, "tick", lambda self: "patched base")
    assert Child().tick() == "patched"
    patches.undo()
    assert Child().tick() == "base"
    assert "tick" not in vars(Child)


class BrokenVerify(DnnLayers):
    """Two small layers; the first one's verify raises."""

    def __init__(self, seed):
        super().__init__(seed, layers=["class1p", "conv5p"])

    def setup(self):
        super().setup()
        build = self.build

        def broken_build(layer, *args, **kwargs):
            built = build(layer, *args, **kwargs)
            if layer.name == "class1p":
                from repro.workloads.common import VerificationError

                def verify(memory):
                    raise VerificationError("deliberately wrong")

                built.verify = verify
            return built

        self.build = broken_build


def test_failing_item_is_counted_and_the_run_goes_on(capsys):
    status = run.run_workload("dnn-layers", 3, 0.0, False,
                              workload=BrokenVerify(3))
    out = capsys.readouterr()
    result = json.loads(out.out.strip().splitlines()[-1])
    assert status == 1
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert "deliberately wrong" in out.err
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)


def test_traced_pass_matches_untraced_and_restores_the_program():
    from repro.sim.softbrain import SoftbrainSim
    from repro.workloads import common

    step, run_program = SoftbrainSim.step, common.run_program
    workload = FuzzOracle(5)
    workload.CASES_PER_PASS = 4
    workload.setup()
    plain = run.run_pass(workload, 0, traced=False)
    traced = run.run_pass(workload, 0, traced=True)
    assert plain.failed == traced.failed == 0
    assert plain.digests == traced.digests
    assert plain.ctx.counts == traced.ctx.counts
    assert SoftbrainSim.step is step and common.run_program is run_program
    names = {span.name for span in traced.spans}
    assert {"item", "fuzz.plan", "sim.run", "sim.step", "interp.run",
            "fuzz.pure_eval", "fuzz.build_case"} <= names


def test_benchmark_json_matches_the_code():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.PER_LAYER_UNITS
