"""Power and area of a candidate ASIC design point (55 nm accounting).

Mirrors Aladdin's methodology and the paper's comparison rules:

* **Power** includes datapath dynamic energy (per-op energies from the DDG
  over the runtime), functional-unit leakage, and the local memory
  structures (scratchpads/buffers grow with partitioning and unrolling) —
  the paper explicitly includes ASIC local memories in power (Section 7.3).
* **Area** counts datapath only — the paper excludes ASIC memory structures
  from the area comparison (Figure 15's footnote), and we follow that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .ddg import Ddg
from .schedule import AsicDesign, ScheduleResult

#: per-FU area (mm²) and leakage (mW) at 55 nm (a leakage-heavy node)
FU_AREA_MM2: Dict[str, float] = {
    "alu": 0.0015,
    "mul": 0.0050,
    "div": 0.0090,
    "special": 0.0035,
    "mem": 0.0040,  # per memory port (address generation + muxing)
}
FU_LEAKAGE_MW: Dict[str, float] = {
    "alu": 0.080,
    "mul": 0.360,
    "div": 0.640,
    "special": 0.240,
    "mem": 0.160,
}

#: fixed control/clock-tree overhead plus per-unroll pipeline registers
CONTROL_LEAKAGE_MW = 8.0
CONTROL_LEAKAGE_PER_UNROLL_MW = 1.0
CONTROL_AREA_MM2 = 0.012
CONTROL_AREA_PER_UNROLL_MM2 = 0.005

#: local SRAM parameters
SRAM_LEAKAGE_MW_PER_KB = 0.70
SRAM_DYNAMIC_PJ_PER_ACCESS = 3.5
SRAM_AREA_MM2_PER_KB = 0.012
BYTES_PER_ELEMENT = 8


@dataclass
class AsicEstimate:
    """Cycles, power and area of one scheduled design point."""

    workload: str
    design: AsicDesign
    cycles: int
    power_mw: float
    area_mm2: float
    local_sram_kb: float

    @property
    def energy_mj(self) -> float:
        return self.power_mw * self.cycles / 1e9  # at 1 GHz


def local_sram_kb(ddg: Ddg, design: AsicDesign) -> float:
    """Local buffer capacity implied by the design point.

    Partitioning replicates banks (padding overhead) and deeper unrolling
    needs wider fetch buffers; this is what makes aggressively-unrolled
    Aladdin points approach programmable-design power, as the paper notes.
    """
    data_kb = sum(ddg.arrays.values()) * BYTES_PER_ELEMENT / 1024.0
    partition_overhead = 1.0 + 0.08 * (design.partition - 1)
    unroll_buffers_kb = 0.25 * design.unroll
    return data_kb * partition_overhead + unroll_buffers_kb


def estimate_power_area(ddg: Ddg, result: ScheduleResult) -> AsicEstimate:
    """Combine schedule + DDG into the final power/area estimate."""
    design = result.design
    resources = design.resources

    datapath_area = CONTROL_AREA_MM2 + CONTROL_AREA_PER_UNROLL_MM2 * design.unroll
    datapath_area += sum(
        FU_AREA_MM2[name] * count for name, count in resources.items()
    )
    leakage_mw = CONTROL_LEAKAGE_MW + CONTROL_LEAKAGE_PER_UNROLL_MW * design.unroll
    leakage_mw += sum(
        FU_LEAKAGE_MW[name] * count for name, count in resources.items()
    )

    sram_kb = local_sram_kb(ddg, design)
    leakage_mw += SRAM_LEAKAGE_MW_PER_KB * sram_kb

    # Dynamic power: datapath op energies plus SRAM access energy for every
    # load/store, averaged over the runtime at 1 GHz (pJ/ns == mW).
    columns = ddg.columns()
    histogram = columns.histogram
    mem_accesses = histogram.get("load", 0) + histogram.get("store", 0)
    dynamic_pj = columns.energy_pj + SRAM_DYNAMIC_PJ_PER_ACCESS * mem_accesses
    dynamic_mw = dynamic_pj / max(1, result.cycles)

    return AsicEstimate(
        workload=ddg.name,
        design=design,
        cycles=result.cycles,
        power_mw=leakage_mw + dynamic_mw,
        area_mm2=datapath_area,
        local_sram_kb=sram_kb,
    )
