"""Design-space exploration and iso-performance Pareto selection.

Section 7.3: "for each workload we explore a large ASIC design space by
modifying hardware optimization parameters, and find the set of ASIC
designs within a certain performance threshold of Softbrain (within 10%
where possible).  Within these points, we chose a Pareto-optimal ASIC
design across power, area, and execution time, where power is given
priority over area."  :func:`select_iso_performance` implements exactly
that selection rule.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Sequence

from .ddg import Ddg
from .power_area import AsicEstimate, estimate_power_area
from .schedule import AsicDesign, ScheduleResult, schedule_ddg

#: default sweep axes (Aladdin's unrolling / array-partitioning knobs)
DEFAULT_UNROLL = (1, 2, 4, 8, 16)
DEFAULT_PARTITION = (1, 2, 4, 8)


def explore_design_space(
    ddg: Ddg,
    unroll_factors: Sequence[int] = DEFAULT_UNROLL,
    partition_factors: Sequence[int] = DEFAULT_PARTITION,
    base: Optional[AsicDesign] = None,
) -> List[AsicEstimate]:
    """Estimate the DDG at every (unroll, partition) point, in sweep order.

    Each distinct schedule is computed once.  A point reuses an earlier
    result when, per resource, its limit is either equal, or larger on a
    resource where no op of that schedule waited for a slot (see
    :func:`_same_schedule`); otherwise it calls :func:`schedule_ddg`.
    """
    base = base or AsicDesign()
    estimates: List[AsicEstimate] = []
    computed: List[ScheduleResult] = []
    for unroll in unroll_factors:
        for partition in partition_factors:
            design = AsicDesign(
                unroll=unroll,
                partition=partition,
                base_alu=base.base_alu,
                base_mul=base.base_mul,
                base_div=base.base_div,
                base_special=base.base_special,
                mem_ports_per_partition=base.mem_ports_per_partition,
            )
            limits = design.resources
            for earlier in computed:
                if _same_schedule(earlier, limits):
                    result = replace(earlier, design=design,
                                     resource_busy=dict(earlier.resource_busy))
                    break
            else:
                result = schedule_ddg(ddg, design)
                computed.append(result)
            estimates.append(estimate_power_area(ddg, result))
    return estimates


def _same_schedule(result: ScheduleResult, limits: Dict[str, int]) -> bool:
    """Whether list scheduling under ``limits`` gives ``result``'s schedule.

    It does when each resource either keeps its limit, or gains units and
    made no op of ``result`` wait.  By induction over the fixed op order: each op has the
    same ready cycle as before; on a resource that made no op wait it
    started at that cycle with a slot to spare, which a larger limit
    keeps; on a resource with an unchanged limit, the same earlier ops
    fill the same slots, so it lands on the same first free cycle.
    """
    old = result.design.resources
    return all(
        limit == old[name] or (limit > old[name] and name not in result.waited)
        for name, limit in limits.items()
    )


def _pareto_front(points: Iterable[AsicEstimate]) -> List[AsicEstimate]:
    """Non-dominated points over (power, area, cycles)."""
    points = list(points)
    front = []
    for p in points:
        dominated = any(
            q.power_mw <= p.power_mw
            and q.area_mm2 <= p.area_mm2
            and q.cycles <= p.cycles
            and (
                q.power_mw < p.power_mw
                or q.area_mm2 < p.area_mm2
                or q.cycles < p.cycles
            )
            for q in points
        )
        if not dominated:
            front.append(p)
    return front


def select_iso_performance(
    estimates: Sequence[AsicEstimate],
    target_cycles: float,
    threshold: float = 0.10,
) -> AsicEstimate:
    """The paper's ASIC design-point selection rule.

    Prefer designs within ``threshold`` of the Softbrain cycle count; if no
    design lands in the band, fall back to every design at least as fast
    as the band allows, or, with none, to the fastest designs.  Among
    candidates, take the Pareto front over (power, area, cycles) and
    order by power first, then area.
    """
    if not estimates:
        raise ValueError("no design points to select from")
    low = target_cycles * (1.0 - threshold)
    high = target_cycles * (1.0 + threshold)
    candidates = [e for e in estimates if low <= e.cycles <= high]
    if not candidates:
        # Best-effort: every at-least-as-fast design goes to the Pareto
        # step; with none, the fastest designs do.
        fast_enough = [e for e in estimates if e.cycles <= high]
        if fast_enough:
            candidates = fast_enough
        else:
            fastest = min(e.cycles for e in estimates)
            candidates = [e for e in estimates if e.cycles == fastest]
    front = _pareto_front(candidates)
    front.sort(key=lambda e: (e.power_mw, e.area_mm2, e.cycles))
    return front[0]
