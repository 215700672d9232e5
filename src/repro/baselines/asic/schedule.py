"""Resource-constrained scheduling of a DDG under a candidate ASIC design.

Aladdin's core step: given the dynamic dependence graph and a set of
hardware constraints (functional-unit counts from loop unrolling, memory
ports from array partitioning), compute the achievable cycle count.  We use
latency-weighted list scheduling — each op starts at the earliest cycle
where its dependences have finished and a resource slot is free — which is
the same "ideally pipelined, resource limited" assumption Aladdin makes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set

from .ddg import Ddg


@dataclass(frozen=True)
class AsicDesign:
    """One candidate hardware design point.

    ``unroll`` scales datapath resources (Aladdin's loop-unrolling knob);
    ``partition`` scales memory ports (array-partitioning knob).
    """

    unroll: int = 1
    partition: int = 1
    base_alu: int = 2
    base_mul: int = 1
    base_div: int = 1
    base_special: int = 1
    mem_ports_per_partition: int = 2

    @property
    def resources(self) -> Dict[str, int]:
        return {
            "alu": self.base_alu * self.unroll,
            "mul": self.base_mul * self.unroll,
            "div": max(1, self.base_div * max(1, self.unroll // 2)),
            "special": self.base_special * self.unroll,
            "mem": self.mem_ports_per_partition * self.partition,
        }

    def label(self) -> str:
        return f"u{self.unroll}p{self.partition}"


@dataclass
class ScheduleResult:
    """Outcome of scheduling one DDG on one design point.

    ``waited`` names the resources on which some op started later than
    its dependences allowed, because every slot of its ready cycle was
    taken.  Giving any other resource more units cannot change the
    schedule, which is what lets :func:`~.dse.explore_design_space` reuse
    a result across design points.  It has no default, so no result can
    claim "no op waited" by omission.
    """

    design: AsicDesign
    cycles: int
    ops: int
    resource_busy: Dict[str, int]
    waited: FrozenSet[str]


def schedule_ddg(ddg: Ddg, design: AsicDesign) -> ScheduleResult:
    """List-schedule the DDG; returns total cycles and busy counters.

    Each op takes the first cycle at or after its dependences finish that
    has a free slot on its resource.  Per resource, ``used`` counts the
    slots taken in each partly-filled cycle, and ``skip`` links every full
    cycle towards a later cycle (a union-find with path compression), so
    the search jumps over saturated runs instead of scanning them.  An op
    whose ready cycle is full is the only one that follows ``skip``, so
    that branch also records its resource in ``waited``.
    """
    resources = design.resources
    columns = ddg.columns()
    state = {name: (limit, {}, {}) for name, limit in resources.items()}
    finish: List[int] = []
    waited: Set[str] = set()
    last_cycle = 0

    for deps, resource, latency in zip(
        columns.deps, columns.resources, columns.latencies
    ):
        cycle = 0
        for dep in deps:
            if finish[dep] > cycle:
                cycle = finish[dep]
        limit, used, skip = state[resource]
        if cycle in skip:
            waited.add(resource)
            root = skip[cycle]
            while root in skip:
                root = skip[root]
            while cycle != root:
                parent = skip[cycle]
                skip[cycle] = root
                cycle = parent
        taken = used.get(cycle, 0) + 1
        if taken >= limit:
            skip[cycle] = cycle + 1
            used.pop(cycle, None)
        else:
            used[cycle] = taken
        cycle += latency
        finish.append(cycle)
        if cycle > last_cycle:
            last_cycle = cycle

    busy = {name: columns.resource_ops.get(name, 0) for name in resources}
    return ScheduleResult(design, max(last_cycle, 1), ddg.num_ops, busy,
                          frozenset(waited))
