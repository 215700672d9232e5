"""Unit + property tests for mini-Aladdin: DDG, scheduler, power/area, DSE."""

from collections import defaultdict
from dataclasses import replace
from functools import partial
from typing import Dict, List

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.asic import (
    OP_COSTS,
    AsicDesign,
    Ddg,
    ScheduleResult,
    TraceBuilder,
    estimate_power_area,
    explore_design_space,
    local_sram_kb,
    schedule_ddg,
    select_iso_performance,
)
from repro.baselines.asic import dse
from repro.workloads import machsuite as m


# The original cycle-by-cycle slot scan (quadratic once a resource
# saturates), kept as the oracle for ``schedule_ddg``.  It reports
# ``waited`` from its own definition: the resources with an op that
# started after all its dependences had finished.
def reference_schedule_ddg(ddg: Ddg, design: AsicDesign) -> ScheduleResult:
    """List-schedule the DDG; returns total cycles and busy counters."""
    resources = design.resources
    # usage[resource][cycle] = slots consumed that cycle
    usage: Dict[str, Dict[int, int]] = {name: defaultdict(int) for name in resources}
    finish: List[int] = [0] * ddg.num_ops
    busy: Dict[str, int] = {name: 0 for name in resources}
    waited = set()
    last_cycle = 0

    for node in ddg.nodes:
        earliest = 0
        for dep in node.deps:
            if finish[dep] > earliest:
                earliest = finish[dep]
        resource = node.resource
        limit = resources[resource]
        slot_usage = usage[resource]
        cycle = earliest
        while slot_usage[cycle] >= limit:
            cycle += 1
        slot_usage[cycle] += 1
        busy[resource] += 1
        if cycle > max((finish[dep] for dep in node.deps), default=0):
            waited.add(resource)
        finish[node.node_id] = cycle + node.latency
        if finish[node.node_id] > last_cycle:
            last_cycle = finish[node.node_id]

    return ScheduleResult(design, max(last_cycle, 1), ddg.num_ops, busy,
                          frozenset(waited))


def reference_explore_design_space(ddg: Ddg, base: AsicDesign):
    """The design-space sweep with no schedule reuse: every point is
    scheduled afresh by the reference scheduler."""
    return [
        estimate_power_area(ddg, reference_schedule_ddg(
            ddg, replace(base, unroll=unroll, partition=partition)))
        for unroll in dse.DEFAULT_UNROLL
        for partition in dse.DEFAULT_PARTITION
    ]


def vector_scale_ddg(n=32, factor=3):
    t = TraceBuilder("scale")
    t.array("a", list(range(n)))
    t.array("out", [0] * n)
    c = t.const(factor)
    for i in range(n):
        t.store("out", i, t.mul(t.load("a", i), c))
    return t


class TestTraceBuilder:
    def test_computes_real_values(self):
        t = vector_scale_ddg(8, 5)
        assert t.array_values("out") == [i * 5 for i in range(8)]

    def test_all_ops_recorded(self):
        t = vector_scale_ddg(8)
        histogram = t.ddg.op_histogram()
        assert histogram == {"load": 8, "mul": 8, "store": 8}

    def test_data_dependences(self):
        t = TraceBuilder("dep")
        t.array("a", [1])
        t.array("o", [0])
        x = t.load("a", 0)
        y = t.add(x, t.const(1))
        t.store("o", 0, y)
        store_node = t.ddg.nodes[-1]
        assert y.node in store_node.deps

    def test_load_after_store_dependence(self):
        t = TraceBuilder("raw")
        t.array("a", [0])
        t.store("a", 0, t.const(5))
        loaded = t.load("a", 0)
        assert loaded.value == 5
        load_node = t.ddg.nodes[loaded.node]
        assert t.ddg.nodes[0].node_id in load_node.deps

    def test_store_after_load_dependence(self):
        t = TraceBuilder("war")
        t.array("a", [1])
        loaded = t.load("a", 0)
        t.store("a", 0, t.const(2))
        store_node = t.ddg.nodes[-1]
        assert loaded.node in store_node.deps

    def test_independent_elements_no_dependence(self):
        t = TraceBuilder("indep")
        t.array("a", [1, 2])
        t.store("a", 0, t.const(9))
        loaded = t.load("a", 1)
        assert t.ddg.nodes[loaded.node].deps == ()

    def test_traced_arithmetic(self):
        t = TraceBuilder("ops")
        t.array("x", [0])
        a, b = t.const(10), t.const(3)
        assert t.sub(a, b).value == 7
        assert t.div(a, b).value == 3
        assert t.minimum(a, b).value == 3
        assert t.maximum(a, b).value == 10
        assert t.compare_eq(a, a).value == 1
        assert t.select(t.const(0), a, b).value == 3
        assert t.shift_right(a, 1).value == 5
        assert t.special(lambda v: v + 100, a).value == 110

    def test_critical_path(self):
        t = TraceBuilder("chain")
        t.array("a", [1])
        v = t.load("a", 0)  # latency 2
        for _ in range(5):
            v = t.add(v, t.const(1))  # 5 x latency 1
        assert t.ddg.critical_path() == 7

    def test_unknown_op_kind(self):
        t = TraceBuilder("bad")
        with pytest.raises(KeyError):
            t.ddg.add("teleport", [])


class TestScheduling:
    def test_critical_path_is_lower_bound(self):
        ddg = vector_scale_ddg(16).ddg
        result = schedule_ddg(ddg, AsicDesign(unroll=16, partition=8))
        assert result.cycles >= ddg.critical_path()

    def test_more_resources_never_slower(self):
        ddg = vector_scale_ddg(64).ddg
        slow = schedule_ddg(ddg, AsicDesign(unroll=1, partition=1))
        fast = schedule_ddg(ddg, AsicDesign(unroll=8, partition=8))
        assert fast.cycles <= slow.cycles

    def test_resource_limits_respected(self):
        # 1 memory port: 64 loads + 64 stores serialise to >= 128 cycles
        ddg = vector_scale_ddg(64).ddg
        design = AsicDesign(unroll=1, partition=1, mem_ports_per_partition=1)
        result = schedule_ddg(ddg, design)
        assert result.cycles >= 128

    def test_busy_counters(self):
        ddg = vector_scale_ddg(8).ddg
        result = schedule_ddg(ddg, AsicDesign())
        assert result.resource_busy["mem"] == 16
        assert result.resource_busy["mul"] == 8

    @given(unroll=st.sampled_from([1, 2, 4, 8]), partition=st.sampled_from([1, 2, 4]))
    @settings(max_examples=12, deadline=None)
    def test_schedule_deterministic(self, unroll, partition):
        ddg = vector_scale_ddg(32).ddg
        design = AsicDesign(unroll=unroll, partition=partition)
        assert schedule_ddg(ddg, design).cycles == schedule_ddg(ddg, design).cycles

    def test_columns_reset_by_add(self):
        ddg = vector_scale_ddg(4).ddg
        before = schedule_ddg(ddg, AsicDesign())
        ddg.add("div", [ddg.num_ops - 1])
        after = schedule_ddg(ddg, AsicDesign())
        assert after.ops == before.ops + 1
        assert after.cycles == before.cycles + OP_COSTS["div"][0]
        assert ddg.op_histogram()["div"] == 1


@st.composite
def random_ddgs(draw):
    """Random DAGs over every op kind; a node may depend on any earlier one."""
    ddg = Ddg("random")
    for node_id in range(draw(st.integers(1, 80))):
        deps = []
        if node_id:
            deps = draw(st.lists(st.integers(0, node_id - 1), max_size=3))
        ddg.add(draw(st.sampled_from(sorted(OP_COSTS))), deps)
    return ddg


designs = st.builds(
    AsicDesign,
    unroll=st.sampled_from(dse.DEFAULT_UNROLL),
    partition=st.sampled_from(dse.DEFAULT_PARTITION),
    base_alu=st.integers(1, 4),
    base_mul=st.integers(1, 4),
    base_div=st.integers(1, 2),
    base_special=st.integers(1, 2),
    mem_ports_per_partition=st.integers(1, 2),
)


class TestSchedulerOracle:
    """The next-free-slot scheduler against the cycle-by-cycle scan."""

    @staticmethod
    def assert_same(ddg, design):
        fast = schedule_ddg(ddg, design)
        slow = reference_schedule_ddg(ddg, design)
        assert (fast.cycles, fast.ops, fast.resource_busy, fast.waited) == (
            slow.cycles, slow.ops, slow.resource_busy, slow.waited)

    @given(ddg=random_ddgs(), design=designs)
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_on_random_dags(self, ddg, design):
        self.assert_same(ddg, design)

    @given(ddg=random_ddgs())
    @settings(max_examples=50, deadline=None)
    def test_matches_reference_under_heavy_saturation(self, ddg):
        self.assert_same(ddg, AsicDesign(mem_ports_per_partition=1))
        self.assert_same(ddg, AsicDesign(unroll=16, partition=8))


class TestSweepReuse:
    """The sweep that reuses schedules against one that schedules every
    point with the reference scheduler."""

    @given(ddg=random_ddgs(), base=designs)
    @settings(max_examples=150, deadline=None)
    def test_sweep_matches_reference_sweep(self, ddg, base):
        assert explore_design_space(ddg, base=base) == (
            reference_explore_design_space(ddg, base))

    def test_reused_result_has_own_design_and_busy(self, monkeypatch):
        results = []

        def keep(ddg, result):
            results.append(result)
            return estimate_power_area(ddg, result)

        monkeypatch.setattr(dse, "estimate_power_area", keep)
        explore_design_space(vector_scale_ddg(8).ddg)
        assert [r.design.label() for r in results] == [
            f"u{u}p{p}" for u in dse.DEFAULT_UNROLL
            for p in dse.DEFAULT_PARTITION]
        assert len({id(r.resource_busy) for r in results}) == len(results)


#: every MachSuite kernel's DDG at a small size
SMALL_DDGS = {
    "bfs": partial(m.bfs_ddg, n=24, e=72),
    "spmv-crs": partial(m.spmv_ddg, "crs", n=24),
    "spmv-ellpack": partial(m.spmv_ddg, "ellpack", n=24),
    "stencil": partial(m.stencil2d_ddg, width=10, height=6),
    "stencil3d": partial(m.stencil3d_ddg, side=5),
    "gemm": partial(m.gemm_ddg, n=6),
    "md": partial(m.md_ddg, n=12, k=4),
    "viterbi": partial(m.viterbi_ddg, n_states=8, n_steps=4),
    "fft": partial(m.fft_ddg, n=16),
    "nw": partial(m.nw_ddg, length=8),
    "backprop": partial(m.backprop_ddg, n_in=8, n_out=6),
}


def test_small_ddgs_cover_every_kernel():
    assert set(SMALL_DDGS) == set(m.MACHSUITE)


@pytest.mark.parametrize("name", sorted(SMALL_DDGS))
def test_kernel_sweep_selects_same_design(name):
    ddg = SMALL_DDGS[name]()
    base = m.MACHSUITE[name][3]()
    fast = explore_design_space(ddg, base=base)
    slow = reference_explore_design_space(ddg, base)
    assert fast == slow
    targets = sorted({p.cycles for p in slow}) + [1, 2 * max(p.cycles for p in slow)]
    for target in targets:
        assert (select_iso_performance(fast, target).design.label()
                == select_iso_performance(slow, target).design.label())


class TestPowerArea:
    def test_bigger_designs_cost_more(self):
        ddg = vector_scale_ddg(64).ddg
        small = estimate_power_area(ddg, schedule_ddg(ddg, AsicDesign(unroll=1)))
        big = estimate_power_area(ddg, schedule_ddg(ddg, AsicDesign(unroll=8)))
        assert big.area_mm2 > small.area_mm2
        assert big.power_mw > small.power_mw  # leakage dominates

    def test_sram_grows_with_partitioning(self):
        ddg = vector_scale_ddg(64).ddg
        assert local_sram_kb(ddg, AsicDesign(partition=8)) > local_sram_kb(
            ddg, AsicDesign(partition=1)
        )

    def test_energy_positive(self):
        ddg = vector_scale_ddg(16).ddg
        estimate = estimate_power_area(ddg, schedule_ddg(ddg, AsicDesign()))
        assert estimate.energy_mj > 0


class TestDse:
    def test_sweep_covers_grid(self):
        points = explore_design_space(vector_scale_ddg(32).ddg)
        assert len(points) == 20  # 5 unrolls x 4 partitions
        labels = {p.design.label() for p in points}
        assert "u1p1" in labels and "u16p8" in labels

    def test_iso_selection_prefers_band(self):
        points = explore_design_space(vector_scale_ddg(64).ddg)
        slowest = max(p.cycles for p in points)
        chosen = select_iso_performance(points, target_cycles=slowest)
        assert chosen.cycles <= slowest * 1.1

    def test_iso_selection_power_priority(self):
        points = explore_design_space(vector_scale_ddg(64).ddg)
        target = max(p.cycles for p in points) * 2  # everything qualifies
        chosen = select_iso_performance(points, target)
        assert chosen.power_mw == min(p.power_mw for p in points)

    def test_unreachable_target_picks_fastest_available(self):
        points = explore_design_space(vector_scale_ddg(64).ddg)
        chosen = select_iso_performance(points, target_cycles=1)
        fastest = min(p.cycles for p in points)
        assert chosen.cycles == fastest

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_iso_performance([], 100)
