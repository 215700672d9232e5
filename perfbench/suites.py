"""The benchmark's three workloads.

Each workload turns the benchmark seed into a list of items and runs one
item at a time (a closed loop with one client).  Running an item returns a
digest of the model outputs it produced; an item fails by raising.

* ``dnn-layers``: the ten Figure 11 layers, each whole layer on one
  Softbrain unit (as ``python -m repro run <layer>`` runs it), plus the
  CPU, GPU and DianNao models and the power model.  The simulator's
  steady-state loop does nearly all the work.
* ``machsuite-asic``: the Figures 12-15 pipeline for each Figure 12
  kernel except gemm: build, simulate and verify, power and CPU models,
  DDG build, ASIC design-space sweep and iso-performance selection.  The
  ASIC scheduler does nearly all the work.  Kernels run scaled down from
  their default sizes so that one pass fits into a run several times;
  gemm is left out because its sweep alone would take longer than all
  the others together.
* ``fuzz-oracle``: seeded random fuzz cases through the three-way oracle,
  as ``python -m repro fuzz`` runs them.  Short programs, so per-run
  construction, the CGRA compiler and the functional interpreter carry
  real weight.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter
from typing import Callable, Dict, List, Optional

from spans import Tracer


class ItemFailure(Exception):
    """An item finished but its output is wrong."""


class Context:
    """What an item may use during one pass.

    ``tracer`` is set in traced passes only.  :meth:`run_program` is the
    one way items reach the simulator; it times every call and adds the
    run's exact counters to :attr:`counts`.
    """

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        from repro.sim.softbrain import run_program

        self.tracer = tracer
        self.sim_s = 0.0
        self.sim_calls = 0
        self.counts: Counter = Counter()
        self._run_program = run_program

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def run_program(self, *args, **kwargs):
        with self.span("sim.run"):
            start = perf_counter()
            try:
                result = self._run_program(*args, **kwargs)
            finally:
                self.sim_s += perf_counter() - start
                self.sim_calls += 1
        stats, mem = result.stats, result.memory.stats
        counts = self.counts
        counts["sim.cycles"] += stats.cycles
        counts["sim.commands_issued"] += stats.commands_issued
        counts["sim.instances_fired"] += stats.instances_fired
        counts["sim.cgra_stall_no_input"] += stats.cgra_stall_no_input
        counts["sim.cgra_stall_no_output_room"] += (
            stats.cgra_stall_no_output_room)
        for engine, busy in stats.engine_busy.items():
            counts[f"sim.engine_busy.{engine}"] += busy
        counts["sim.mem.requests"] += mem.requests
        counts["sim.mem.hits"] += mem.hits
        counts["sim.mem.misses"] += mem.misses
        return result


def sim_digest(result) -> dict:
    """Counters of one simulation and a hash of its final memory image."""
    image = hashlib.sha256()
    pages = result.memory.store.snapshot_pages()
    for page_id in sorted(pages):
        image.update(page_id.to_bytes(8, "little"))
        image.update(pages[page_id])
    return {"stats": result.stats.to_dict(),
            "memory": dict(vars(result.memory.stats)),
            "memory_image": image.hexdigest()}


class Workload:
    """Base: a named item list derived from the seed."""

    name = ""
    #: every pass runs the same items, so their digests must repeat
    repeats_items = True

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        """Import the program and derive the inputs from the seed."""

    def items(self, pass_index: int) -> List[object]:
        raise NotImplementedError

    def begin_pass(self, ctx: Context, patches) -> None:
        """Route the program's own simulator calls through ``ctx``."""

    def run(self, item, ctx: Context) -> dict:
        raise NotImplementedError


class DnnLayers(Workload):
    name = "dnn-layers"

    def __init__(self, seed: int, layers: Optional[List[str]] = None) -> None:
        super().__init__(seed)
        self.layer_names = layers

    def setup(self) -> None:
        from repro.baselines.cpu import estimate_cpu_cycles
        from repro.baselines.diannao import estimate_diannao_cycles
        from repro.baselines.gpu import estimate_gpu_cycles
        from repro.power.model import estimate_power
        from repro.workloads.dnn import (
            DNN_LAYERS, build_dnn_layer, gpu_workload, layer_cost,
        )

        self.build = build_dnn_layer
        self.cpu_model = estimate_cpu_cycles
        self.gpu_model = lambda layer: estimate_gpu_cycles(gpu_workload(layer))
        self.diannao_model = (
            lambda layer: estimate_diannao_cycles(layer_cost(layer)))
        self.power_model = estimate_power
        layers = [layer for layer in DNN_LAYERS
                  if self.layer_names is None or layer.name in self.layer_names]
        self.layers = {layer.name: layer for layer in layers}
        self.data_seeds = {layer.name: self.seed * 1000 + index
                           for index, layer in enumerate(layers)}

    def items(self, pass_index: int) -> List[object]:
        return list(self.layers)

    def run(self, item, ctx: Context) -> dict:
        layer = self.layers[item]
        with ctx.span("workloads.build"):
            built = self.build(layer, 0, 1, seed=self.data_seeds[item])
        result = ctx.run_program(built.program, fabric=built.fabric,
                                 memory=built.memory)
        with ctx.span("verify"):
            built.verify(built.memory)
        with ctx.span("models"):
            cpu = self.cpu_model(layer.cpu_census()).cycles
            gpu = self.gpu_model(layer)
            diannao = self.diannao_model(layer)
            power = self.power_model(result, built.fabric).total_mw
        return {"layer": item, **sim_digest(result), "cpu_cycles": cpu,
                "gpu_cycles": gpu, "diannao_cycles": diannao,
                "power_mw": power}


@dataclass
class Kernel:
    name: str
    build: Callable
    ddg: Callable
    census: Callable
    asic_base: Callable
    #: size arguments shared by the builder, the DDG and the CPU census
    size: Dict[str, int] = field(default_factory=dict)


def machsuite_kernels() -> List[Kernel]:
    """Figure 12's kernels except gemm, scaled down (default sizes in
    parentheses).  stencil, stencil3d and viterbi saturate an ASIC resource
    at their cheapest design points; the others do not."""
    from repro.workloads import machsuite as m

    return [
        Kernel("bfs", m.build_bfs, m.bfs_ddg, m.bfs_census, m.bfs_asic_base,
               {"n": 64, "e": 256}),  # (96, 384)
        Kernel("spmv-crs", m.build_spmv_crs, partial(m.spmv_ddg, "crs"),
               partial(m.spmv_census, "crs"), m.spmv_asic_base,
               {"n": 64}),  # (96)
        Kernel("spmv-ellpack", m.build_spmv_ellpack,
               partial(m.spmv_ddg, "ellpack"),
               partial(m.spmv_census, "ellpack"), m.spmv_asic_base,
               {"n": 64}),  # (96)
        Kernel("stencil", m.build_stencil2d, m.stencil2d_ddg,
               m.stencil2d_census, m.stencil2d_asic_base,
               {"width": 18, "height": 10}),  # (34, 18)
        Kernel("stencil3d", m.build_stencil3d, m.stencil3d_ddg,
               m.stencil3d_census, m.stencil3d_asic_base,
               {"side": 8}),  # (12)
        Kernel("md", m.build_md_knn, m.md_ddg, m.md_census, m.md_asic_base,
               {"n": 32}),  # (64)
        Kernel("viterbi", m.build_viterbi, m.viterbi_ddg, m.viterbi_census,
               m.viterbi_asic_base, {"n_steps": 8}),  # (24)
    ]


class MachsuiteAsic(Workload):
    name = "machsuite-asic"

    def setup(self) -> None:
        from repro.baselines.asic.dse import (
            explore_design_space, select_iso_performance,
        )
        from repro.baselines.cpu import estimate_cpu_cycles
        from repro.power.model import estimate_power

        self.explore = explore_design_space
        self.select = select_iso_performance
        self.cpu_model = estimate_cpu_cycles
        self.power_model = estimate_power
        kernels = machsuite_kernels()
        self.kernels = {kernel.name: kernel for kernel in kernels}
        # One seed per kernel, given to both its builder and its DDG so
        # the simulator and the ASIC model see the same instance.
        self.data_seeds = {kernel.name: self.seed * 1000 + index
                           for index, kernel in enumerate(kernels)}

    def items(self, pass_index: int) -> List[object]:
        return list(self.kernels)

    def run(self, item, ctx: Context) -> dict:
        kernel = self.kernels[item]
        seed = self.data_seeds[item]
        with ctx.span("workloads.build"):
            built = kernel.build(seed=seed, **kernel.size)
        result = ctx.run_program(built.program, fabric=built.fabric,
                                 memory=built.memory)
        with ctx.span("verify"):
            built.verify(built.memory)
        with ctx.span("models"):
            power = self.power_model(result, built.fabric).total_mw
            cpu = self.cpu_model(kernel.census(**kernel.size)).cycles
        with ctx.span("asic.ddg_build"):
            ddg = kernel.ddg(seed=seed, **kernel.size)
        with ctx.span("asic.dse"):
            points = self.explore(ddg, base=kernel.asic_base())
        with ctx.span("asic.select"):
            asic = self.select(points, target_cycles=result.cycles)
        ctx.counts["asic.ddg_ops"] += ddg.num_ops
        ctx.counts["asic.ops_scheduled"] += ddg.num_ops * len(points)
        return {"kernel": item, **sim_digest(result), "power_mw": power,
                "cpu_cycles": cpu,
                "asic": {"design": asic.design.label(), "cycles": asic.cycles,
                         "power_mw": asic.power_mw,
                         "area_mm2": asic.area_mm2}}


class FuzzOracle(Workload):
    name = "fuzz-oracle"
    repeats_items = False
    #: cases per pass; every pass draws fresh cases so no case repeats
    #: within a run (a repeat would hit the fuzz scheduler's memo)
    CASES_PER_PASS = 150

    def setup(self) -> None:
        from repro.fuzz.generators import random_plan
        from repro.fuzz.oracle import run_case

        self.random_plan = random_plan
        self.run_case = run_case

    def items(self, pass_index: int) -> List[object]:
        first = pass_index * self.CASES_PER_PASS
        return list(range(first, first + self.CASES_PER_PASS))

    def begin_pass(self, ctx: Context, patches) -> None:
        # The oracle's simulator leg calls run_program through
        # run_and_verify; time those calls like the other workloads' own.
        import repro.workloads.common as common

        patches.set(common, "run_program", ctx.run_program)

    def run(self, item, ctx: Context) -> dict:
        # Same case and verify RNG derivation as ``python -m repro fuzz``.
        with ctx.span("fuzz.plan"):
            plan = self.random_plan(random.Random(f"{self.seed}:{item}"),
                                    name=f"fuzz-{self.seed}-{item}")
        report = self.run_case(plan,
                               rng=random.Random(f"verify:{self.seed}:{item}"))
        ctx.counts["fuzz.divergences"] += len(report.divergences)
        if not report.ok:
            raise ItemFailure("; ".join(str(d) for d in report.divergences))
        return {"case": plan.name, "sim_cycles": report.sim_cycles}


WORKLOADS = {cls.name: cls for cls in (DnnLayers, MachsuiteAsic, FuzzOracle)}
