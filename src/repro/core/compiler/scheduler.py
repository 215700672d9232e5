"""Spatial scheduler: place and route a DFG onto a CGRA fabric.

The paper's toolchain uses an ILP-based constraint scheduler [22]; we use a
greedy constructive placement refined by simulated annealing, followed by
congestion-aware routing and delay matching.  Optimality only shifts small
constant factors (a hop or two of pipeline latency); any valid mapping has
initiation interval 1 on the fully-pipelined fabric, which is what the
performance results depend on.

Entry point: :func:`schedule`.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from ...cgra.fabric import Fabric, HwVectorPort
from ...cgra.network import Coord
from ..dfg.graph import Constant, Dfg, ValueRef
from .config import CgraConfig, EdgeKey, RoutedEdge
from .delay_match import DelayMatchError, compute_delays
from .routing import RouterState, RoutingError, route_value


class SchedulingError(RuntimeError):
    """The DFG cannot be mapped to the fabric (capacity or capability)."""


# ---------------------------------------------------------------------------
# Vector-port assignment
# ---------------------------------------------------------------------------

def map_ports(dfg: Dfg, fabric: Fabric) -> Dict[str, int]:
    """Assign each DFG port the narrowest sufficient hardware vector port.

    Widest DFG ports are assigned first so they get the scarce wide hardware
    ports; raises :class:`SchedulingError` when no port is wide enough or
    all candidates are taken.
    """
    port_map: Dict[str, int] = {}
    for direction, dfg_ports in (("in", dfg.inputs), ("out", dfg.outputs)):
        available = sorted(
            fabric.ports_in(direction), key=lambda p: (p.width, p.port_id)
        )
        taken: set = set()
        for name in sorted(dfg_ports, key=lambda n: -dfg_ports[n].width):
            width = dfg_ports[name].width
            chosen: Optional[HwVectorPort] = None
            for hw_port in available:
                if hw_port.port_id in taken or hw_port.width < width:
                    continue
                chosen = hw_port
                break
            if chosen is None:
                raise SchedulingError(
                    f"no free {direction} vector port of width >= {width} "
                    f"for DFG port {name!r} on {fabric.name!r}"
                )
            taken.add(chosen.port_id)
            port_map[name] = chosen.port_id
    return port_map


# ---------------------------------------------------------------------------
# Placement
# ---------------------------------------------------------------------------

def _value_coord(
    dfg: Dfg,
    fabric: Fabric,
    port_map: Dict[str, int],
    placement: Dict[str, Coord],
    ref: ValueRef,
) -> Optional[Coord]:
    """Grid coordinate where a value becomes available (None if unplaced)."""
    if ref.node in dfg.inputs:
        hw_port = fabric.find_port("in", port_map[ref.node])
        return hw_port.attach[ref.lane % len(hw_port.attach)]
    return placement.get(ref.node)


def _placement_cost(
    dfg: Dfg,
    fabric: Fabric,
    port_map: Dict[str, int],
    placement: Dict[str, Coord],
) -> int:
    """Total manhattan wirelength of all dataflow edges (route estimate)."""
    mesh = fabric.mesh
    cost = 0
    for inst in dfg.instructions.values():
        dst = placement.get(inst.name)
        if dst is None:
            continue
        for ref in dfg.operand_refs(inst):
            src = _value_coord(dfg, fabric, port_map, placement, ref)
            if src is not None:
                cost += mesh.manhattan(src, dst)
    for port_name, port in dfg.outputs.items():
        hw_port = fabric.find_port("out", port_map[port_name])
        for lane, ref in enumerate(port.sources):
            src = _value_coord(dfg, fabric, port_map, placement, ref)
            dst = hw_port.attach[lane % len(hw_port.attach)]
            if src is not None:
                cost += mesh.manhattan(src, dst)
    return cost


def _greedy_placement(
    dfg: Dfg,
    fabric: Fabric,
    port_map: Dict[str, int],
    rng: random.Random,
) -> Dict[str, Coord]:
    """Topological-order constructive placement minimising wirelength."""
    placement: Dict[str, Coord] = {}
    occupied: set = set()
    mesh = fabric.mesh
    consumers = dfg.consumers()
    output_sources = {
        ref.node for port in dfg.outputs.values() for ref in port.sources
    }

    for inst in dfg.topological_order():
        candidates = [
            pe.coord
            for pe in fabric.pes_supporting(inst.op.name)
            if pe.coord not in occupied
        ]
        if not candidates:
            raise SchedulingError(
                f"no free FU for op {inst.op.name!r} "
                f"(instruction {inst.name!r}) on fabric {fabric.name!r}"
            )
        source_coords = [
            coord
            for ref in dfg.operand_refs(inst)
            if (coord := _value_coord(dfg, fabric, port_map, placement, ref))
            is not None
        ]
        # Pull instructions that feed outputs toward the bottom edge.
        feeds_output = inst.name in output_sources

        def score(coord: Coord) -> Tuple[int, int, int, float]:
            # Prefer the least-capable FU that supports the op, so scarce
            # specialised units (sigmoid, divide) stay free for the ops
            # that actually need them.
            richness = len(fabric.pes[coord].fu.ops)
            wire = sum(mesh.manhattan(src, coord) for src in source_coords)
            pull = (mesh.rows - 1 - coord[1]) if feeds_output else 0
            # Leave room below for downstream consumers.
            downstream = len(consumers.get(inst.name, []))
            headroom = coord[1] if downstream else 0
            return (richness, wire + pull, headroom, rng.random())

        best = min(candidates, key=score)
        placement[inst.name] = best
        occupied.add(best)
    return placement


def _incident_edges(
    dfg: Dfg,
    fabric: Fabric,
    port_map: Dict[str, int],
    slots: Dict[str, int],
) -> Tuple[List[List[Tuple[int, int]]], List[Coord]]:
    """The edges :func:`_placement_cost` sums, listed per instruction.

    An edge is a pair of endpoint slots: ``slots`` numbers the placed
    instructions ``0..n-1``, and slots from ``n`` on are the fixed
    vector-port lane coordinates returned second, resolved here once.
    Entry ``i`` of the first list holds every edge touching instruction
    ``i``; an edge with two fixed ends never changes length and is in no
    list.
    """
    movable = len(slots)
    fixed: List[Coord] = []

    def fixed_slot(coord: Coord) -> int:
        fixed.append(coord)
        return movable + len(fixed) - 1

    def source(ref: ValueRef) -> Optional[int]:
        if ref.node in dfg.inputs:
            return fixed_slot(_value_coord(dfg, fabric, port_map, {}, ref))
        return slots.get(ref.node)

    incident: List[List[Tuple[int, int]]] = [[] for _ in range(movable)]

    def add(src: Optional[int], dst: int) -> None:
        if src is None:
            return
        for end in {src, dst}:
            if end < movable:
                incident[end].append((src, dst))

    for inst in dfg.instructions.values():
        dst = slots.get(inst.name)
        if dst is None:
            continue
        for ref in dfg.operand_refs(inst):
            add(source(ref), dst)
    for port_name, port in dfg.outputs.items():
        hw_port = fabric.find_port("out", port_map[port_name])
        for lane, ref in enumerate(port.sources):
            add(source(ref),
                fixed_slot(hw_port.attach[lane % len(hw_port.attach)]))
    return incident, fixed


def _anneal_placement(
    dfg: Dfg,
    fabric: Fabric,
    port_map: Dict[str, int],
    placement: Dict[str, Coord],
    rng: random.Random,
    iterations: int,
) -> Dict[str, Coord]:
    """Simulated-annealing refinement by pairwise swaps and moves.

    A move re-prices only the edges touching the instructions it moves,
    so ``cost`` always equals what :func:`_placement_cost` would return
    and every accept/reject decision, with its RNG draws, is the one a
    full recompute makes.
    """
    if not placement or iterations <= 0:
        return placement
    placement = dict(placement)
    names = list(placement)
    cost = _placement_cost(dfg, fabric, port_map, placement)
    best, best_cost = dict(placement), cost
    temperature = max(2.0, cost / 4.0)
    cooling = 0.995

    free_by_op: Dict[str, List[Coord]] = {}
    for inst in dfg.instructions.values():
        coords = [pe.coord for pe in fabric.pes_supporting(inst.op.name)]
        free_by_op[inst.name] = coords

    slots = {name: i for i, name in enumerate(names)}
    incident, fixed = _incident_edges(dfg, fabric, port_map, slots)
    pos: List[Coord] = [placement[name] for name in names] + fixed
    occupant_at = {coord: i for i, coord in enumerate(pos[:len(names)])}

    def length(edges: List[Tuple[int, int]]) -> int:
        total = 0
        for a, b in edges:
            (ax, ay), (bx, by) = pos[a], pos[b]
            total += abs(ax - bx) + abs(ay - by)
        return total

    for _ in range(iterations):
        name = rng.choice(names)
        i = slots[name]
        old = pos[i]
        target = rng.choice(free_by_op[name])
        if target == old:
            continue
        j = occupant_at.get(target)
        if j is None:
            edges = incident[i]
        elif not fabric.pes[old].supports(
            dfg.instructions[names[j]].op.name
        ):
            continue  # swap would strand the occupant on an unsupported FU
        else:  # a swap keeps the length of an edge between the pair, so
            # listing it twice adds the same amount before and after
            edges = incident[i] + incident[j]
        before = length(edges)
        pos[i] = target
        if j is not None:
            pos[j] = old
        delta = length(edges) - before
        if delta <= 0 or rng.random() < pow(2.718, -delta / temperature):
            cost += delta
            placement[name] = target
            occupant_at[target] = i
            if j is None:
                del occupant_at[old]
            else:
                placement[names[j]] = old
                occupant_at[old] = j
            if cost < best_cost:
                best, best_cost = dict(placement), cost
        else:  # revert
            pos[i] = old
            if j is not None:
                pos[j] = target
        temperature = max(0.05, temperature * cooling)
    return best


# ---------------------------------------------------------------------------
# Routing + full schedule
# ---------------------------------------------------------------------------

def _route_all(
    dfg: Dfg,
    fabric: Fabric,
    port_map: Dict[str, int],
    placement: Dict[str, Coord],
) -> Dict[EdgeKey, RoutedEdge]:
    state = RouterState(fabric.mesh)
    edges: Dict[EdgeKey, RoutedEdge] = {}

    def add_edge(ref: ValueRef, consumer: str, slot: int, dst: Coord) -> None:
        src = _value_coord(dfg, fabric, port_map, placement, ref)
        assert src is not None, f"unplaced producer {ref}"
        producer = str(ref)
        key: EdgeKey = (producer, consumer, slot)
        links = route_value(state, producer, src, dst)
        edges[key] = RoutedEdge(key, src, dst, links)

    # Route in topological order for deterministic congestion behaviour.
    for inst in dfg.topological_order():
        dst = placement[inst.name]
        for slot, operand in enumerate(inst.operands):
            if isinstance(operand, Constant):
                continue
            add_edge(operand, inst.name, slot, dst)
    for port_name, port in dfg.outputs.items():
        hw_port = fabric.find_port("out", port_map[port_name])
        for lane, ref in enumerate(port.sources):
            dst = hw_port.attach[lane % len(hw_port.attach)]
            add_edge(ref, f"out:{port_name}", lane, dst)
    return edges


def schedule(
    dfg: Dfg,
    fabric: Fabric,
    seed: int = 0,
    anneal_iterations: int = 400,
    max_attempts: int = 8,
) -> CgraConfig:
    """Map ``dfg`` onto ``fabric``: place, route and delay-match.

    Deterministic for a given ``seed``.  Retries with perturbed placements
    when routing or delay matching fails; raises :class:`SchedulingError`
    after ``max_attempts``.
    """
    port_map = map_ports(dfg, fabric)
    last_error: Optional[Exception] = None
    for attempt in range(max_attempts):
        rng = random.Random(seed + attempt * 7919)
        try:
            placement = _greedy_placement(dfg, fabric, port_map, rng)
            placement = _anneal_placement(
                dfg, fabric, port_map, placement, rng, anneal_iterations
            )
            edges = _route_all(dfg, fabric, port_map, placement)
            hops = {key: edge.hops for key, edge in edges.items()}
            solution = compute_delays(dfg, hops)
            for key, delay in solution.extra_delay.items():
                edges[key].extra_delay = delay
            return CgraConfig(
                dfg=dfg,
                fabric=fabric,
                placement=placement,
                port_map=port_map,
                edges=edges,
                latency=solution.latency,
            )
        except (RoutingError, DelayMatchError) as exc:
            last_error = exc
            continue
    raise SchedulingError(
        f"could not map DFG {dfg.name!r} onto {fabric.name!r} after "
        f"{max_attempts} attempts: {last_error}"
    )
