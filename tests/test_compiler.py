"""Unit tests for the spatial compiler: routing, placement, delay matching."""

import random
from typing import Dict, List

import pytest

from repro.cgra import MeshNetwork, broadly_provisioned, build_fabric, dnn_provisioned
from repro.cgra.network import Coord
from repro.core.compiler import (
    CgraConfig,
    DelayMatchError,
    RouterState,
    RoutingError,
    SchedulingError,
    compute_delays,
    map_ports,
    route_value,
    schedule,
)
from repro.core.compiler import scheduler
from repro.core.dfg import DfgBuilder, parse_dfg
from repro.fuzz.case import FUZZ_ANNEAL_ITERATIONS, FUZZ_SCHEDULE_ATTEMPTS
from repro.fuzz.generators import random_dfg
from repro.workloads.dnn import DNN_LAYERS, build_dnn_layer
from repro.workloads.machsuite import MACHSUITE

DOT = parse_dfg(
    "input A 3\ninput B 3\n"
    "m0 = mul A.0 B.0\nm1 = mul A.1 B.1\nm2 = mul A.2 B.2\n"
    "s0 = add m0 m1\ns1 = add s0 m2\noutput C s1",
    "dot3",
)


class TestRouter:
    def test_same_coord_empty_path(self):
        state = RouterState(MeshNetwork(3, 3))
        assert route_value(state, "v", (1, 1), (1, 1)) == []

    def test_path_connects_endpoints(self):
        state = RouterState(MeshNetwork(4, 4))
        path = route_value(state, "v", (0, 0), (3, 3))
        assert path[0][0] == (0, 0)
        assert path[-1][1] == (3, 3)
        for (_src, a), (b, _dst) in zip(path, path[1:]):
            assert a == b
        assert len(path) == 6  # shortest

    def test_multicast_free_reuse(self):
        state = RouterState(MeshNetwork(4, 1, channels=1))
        route_value(state, "v", (0, 0), (3, 0))
        # same value again: reuses the claimed channels at zero extra cost
        path = route_value(state, "v", (0, 0), (2, 0))
        assert len(path) == 2
        assert state.total_channels_used() == 3

    def test_capacity_exhaustion(self):
        state = RouterState(MeshNetwork(2, 1, channels=1))
        route_value(state, "v1", (0, 0), (1, 0))
        with pytest.raises(RoutingError):
            route_value(state, "v2", (0, 0), (1, 0))

    def test_congestion_detour(self):
        # 3x2: block the straight path for a different value, expect detour
        state = RouterState(MeshNetwork(3, 2, channels=1))
        route_value(state, "v1", (0, 0), (1, 0))
        route_value(state, "v2", (1, 0), (2, 0))
        path = route_value(state, "v3", (0, 0), (2, 0))
        assert len(path) == 4  # around through row 1


class TestPortMapping:
    def test_widest_gets_sufficient_port(self):
        mapping = map_ports(DOT, dnn_provisioned())
        fabric = dnn_provisioned()
        for name in ("A", "B"):
            hw = fabric.find_port("in", mapping[name])
            assert hw.width >= 3
        assert fabric.find_port("out", mapping["C"]).width >= 1

    def test_distinct_ports(self):
        mapping = map_ports(DOT, dnn_provisioned())
        assert mapping["A"] != mapping["B"]

    def test_too_many_wide_ports_rejected(self):
        b = DfgBuilder("wide")
        handles = [b.input(f"I{i}", 8) for i in range(4)]
        total = b.reduce_tree("add", [h[0] for h in handles])
        b.output("O", total)
        dfg = b.build()
        fabric = build_fabric(
            "tiny", 2, 2,
            [["alu", "alu"], ["alu", "alu"]],
            input_widths=[8, 8],  # only two wide ports
            output_widths=[1],
        )
        with pytest.raises(SchedulingError, match="vector port"):
            map_ports(dfg, fabric)


class TestDelayMatching:
    def test_balanced_paths_zero_delay(self):
        dfg = parse_dfg(
            "input A 2\nx = add A.0 A.1\noutput O x", "bal"
        )
        hops = {
            ("A", "x", 0): 1,
            ("A.1", "x", 1): 1,
            ("x", "out:O", 0): 1,
        }
        solution = compute_delays(dfg, hops)
        assert all(d == 0 for d in solution.extra_delay.values())
        # operands arrive at 2 (hop+switch), add finishes at 3, output edge
        # adds another hop+switch -> 5
        assert solution.latency == 5

    def test_unbalanced_operand_gets_delay(self):
        dfg = parse_dfg("input A 2\nx = add A.0 A.1\noutput O x", "unbal")
        hops = {
            ("A", "x", 0): 5,
            ("A.1", "x", 1): 1,
            ("x", "out:O", 0): 0,
        }
        solution = compute_delays(dfg, hops)
        assert solution.extra_delay[("A.1", "x", 1)] == 4
        assert solution.extra_delay[("A", "x", 0)] == 0

    def test_excessive_delay_raises(self):
        dfg = parse_dfg("input A 2\nx = add A.0 A.1\noutput O x", "deep")
        hops = {
            ("A", "x", 0): 200,
            ("A.1", "x", 1): 0,
            ("x", "out:O", 0): 0,
        }
        with pytest.raises(DelayMatchError):
            compute_delays(dfg, hops)

    def test_output_lanes_matched(self):
        dfg = parse_dfg(
            "input A 2\nx = pass A.0\ny = pass A.1\noutput O x y", "lanes"
        )
        hops = {
            ("A", "x", 0): 0,
            ("A.1", "y", 0): 0,
            ("x", "out:O", 0): 4,
            ("y", "out:O", 1): 1,
        }
        solution = compute_delays(dfg, hops)
        assert solution.extra_delay[("y", "out:O", 1)] == 3


class TestSchedule:
    def test_dot_product_schedules(self):
        config = schedule(DOT, dnn_provisioned())
        assert isinstance(config, CgraConfig)
        assert len(config.placement) == 5
        assert config.initiation_interval == 1

    def test_deterministic_for_seed(self):
        c1 = schedule(DOT, dnn_provisioned(), seed=3)
        c2 = schedule(DOT, dnn_provisioned(), seed=3)
        assert c1.placement == c2.placement

    def test_placement_respects_fu_capability(self):
        config = schedule(DOT, dnn_provisioned())
        for name, coord in config.placement.items():
            inst = DOT.instructions[name]
            assert config.fabric.pes[coord].supports(inst.op.name)

    def test_placement_no_overlap(self):
        config = schedule(DOT, dnn_provisioned())
        coords = list(config.placement.values())
        assert len(coords) == len(set(coords))

    def test_every_edge_routed(self):
        config = schedule(DOT, dnn_provisioned())
        # 10 operand edges (5 two-input instructions) + 1 output edge
        assert len(config.edges) == 11

    def test_latency_covers_op_latency_and_hops(self):
        config = schedule(DOT, dnn_provisioned())
        # mul(2) + add(1) + add(1) = 4 plus at least one switch per edge
        assert config.latency >= 4 + 3

    def test_unsupported_op_rejected(self):
        dfg = parse_dfg("input A\nx = sigmoid A\noutput O x", "sig")
        fabric = build_fabric(
            "nosig", 2, 2,
            [["alu", "alu"], ["alu", "mul"]],
            input_widths=[1],
            output_widths=[1],
        )
        with pytest.raises(SchedulingError, match="sigmoid"):
            schedule(dfg, fabric)

    def test_too_many_instructions_rejected(self):
        b = DfgBuilder("big")
        a = b.input("A", 1)
        value = a[0]
        for _ in range(30):  # more muls than the fabric has mul FUs
            value = b.mul(value, 3)
        b.output("O", value)
        with pytest.raises(SchedulingError):
            schedule(b.build(), dnn_provisioned())

    def test_scarce_fus_left_for_scarce_ops(self):
        # classifier-like graph: sigmoid must land on the single sigmoid FU
        dfg = parse_dfg(
            "input A 2\nm = mul A.0 A.1\ns = sigmoid m\noutput O s", "sig2"
        )
        config = schedule(dfg, dnn_provisioned())
        coord = config.placement["s"]
        assert config.fabric.pes[coord].fu.name == "sigmoid"

    def test_summary_and_stats(self):
        config = schedule(DOT, dnn_provisioned())
        assert "dot3" in config.summary()
        assert config.total_hops >= 0
        assert sum(config.active_fus().values()) == 5
        assert config.config_size_bytes > 0

    def test_broadly_provisioned_handles_all_ops(self):
        dfg = parse_dfg(
            "input A 2\nd = div A.0 A.1\nm = mul d A.1\noutput O m", "divmul"
        )
        config = schedule(dfg, broadly_provisioned())
        assert len(config.placement) == 2


# The annealer before incremental costing, kept verbatim as the oracle
# for ``scheduler._anneal_placement``: every move re-prices the whole
# placement with ``_placement_cost``.
def reference_anneal_placement(dfg, fabric, port_map, placement, rng,
                               iterations) -> Dict[str, Coord]:
    """Simulated-annealing refinement by pairwise swaps and moves."""
    if not placement or iterations <= 0:
        return placement
    placement = dict(placement)
    names = list(placement)
    cost = scheduler._placement_cost(dfg, fabric, port_map, placement)
    best, best_cost = dict(placement), cost
    temperature = max(2.0, cost / 4.0)
    cooling = 0.995

    free_by_op: Dict[str, List[Coord]] = {}
    for inst in dfg.instructions.values():
        coords = [pe.coord for pe in fabric.pes_supporting(inst.op.name)]
        free_by_op[inst.name] = coords

    for _ in range(iterations):
        name = rng.choice(names)
        old = placement[name]
        target = rng.choice(free_by_op[name])
        if target == old:
            continue
        occupant = next(
            (n for n, c in placement.items() if c == target), None
        )
        if occupant is not None and not fabric.pes[old].supports(
            dfg.instructions[occupant].op.name
        ):
            continue  # swap would strand the occupant on an unsupported FU
        placement[name] = target
        if occupant is not None:
            placement[occupant] = old
        new_cost = scheduler._placement_cost(dfg, fabric, port_map, placement)
        delta = new_cost - cost
        if delta <= 0 or rng.random() < pow(2.718, -delta / temperature):
            cost = new_cost
            if cost < best_cost:
                best, best_cost = dict(placement), cost
        else:  # revert
            placement[name] = old
            if occupant is not None:
                placement[occupant] = target
        temperature = max(0.05, temperature * cooling)
    return best


def config_facts(config: CgraConfig):
    """Everything a mapping decides, in the order it was decided."""
    return (list(config.placement.items()), list(config.port_map.items()),
            list(config.edges.items()), config.latency)


def schedule_both(monkeypatch, dfg, fabric, **kwargs):
    """``schedule`` as it is, then with the reference annealer swapped in
    (a ``SchedulingError`` message stands in for a config)."""
    outcomes = []
    for anneal in (None, reference_anneal_placement):
        with monkeypatch.context() as patch:
            if anneal is not None:
                patch.setattr(scheduler, "_anneal_placement", anneal)
            try:
                outcomes.append(config_facts(schedule(dfg, fabric, **kwargs)))
            except SchedulingError as exc:
                outcomes.append(str(exc))
    return outcomes


#: random DFGs checked against the reference, dealt round-robin to the
#: four fabric x effort combinations
ORACLE_DFGS = 300
FABRICS = {"dnn": dnn_provisioned(), "broad": broadly_provisioned()}
EFFORTS = {
    "fuzz": dict(anneal_iterations=FUZZ_ANNEAL_ITERATIONS,
                 max_attempts=FUZZ_SCHEDULE_ATTEMPTS),
    "default": {},
}
COMBOS = [(fabric, effort) for fabric in FABRICS for effort in EFFORTS]


class TestIncrementalAnnealer:
    """``schedule`` maps every DFG exactly as the full-recompute annealer
    does: same placement, port map, routed links, delays and latency."""

    @pytest.mark.parametrize("fabric, effort", COMBOS)
    def test_random_dfgs_match_reference(self, monkeypatch, fabric, effort):
        first = COMBOS.index((fabric, effort))
        for index in range(first, ORACLE_DFGS, len(COMBOS)):
            rng = random.Random(index)
            dfg = random_dfg(rng.randrange(1_000_000), rng.randint(1, 3),
                             rng.randint(1, 12))
            new, ref = schedule_both(monkeypatch, dfg, FABRICS[fabric],
                                     seed=index % 5, **EFFORTS[effort])
            assert new == ref, f"DFG {index} ({dfg.name}) maps differently"

    def test_workload_dfgs_match_reference(self, monkeypatch):
        builds = [entry[0] for entry in MACHSUITE.values()]
        builds += [lambda layer=layer: build_dnn_layer(layer)
                   for layer in DNN_LAYERS]
        for build in builds:
            for config in build().program.config_images.values():
                new, ref = schedule_both(monkeypatch, config.dfg,
                                         config.fabric)
                assert new == ref == config_facts(config), config.dfg.name
