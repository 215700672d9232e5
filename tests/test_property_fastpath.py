"""Property test: the compiled DFG agrees with the reference evaluator.

:class:`repro.sim.cgra_exec.CompiledDfg` turns every instruction into a
specialised closure (:func:`repro.sim.cgra_exec._compile_step`).  Over 40
random DFGs and random inputs it must agree with :meth:`Dfg.execute`,
including accumulator state carried across a sequence of firings.
"""

import random

import pytest

from repro.fuzz.generators import random_dfg, random_inputs
from repro.sim.cgra_exec import CompiledDfg


@pytest.mark.parametrize("seed", range(40))
def test_compiled_dfg_specialisation_matches_reference(seed):
    rng = random.Random(f"compile:{seed}")
    dfg = random_dfg(seed, num_inputs=rng.randint(1, 3),
                     num_insts=rng.randint(1, 8))
    compiled = CompiledDfg(dfg)
    ref_state = dfg.make_state()
    state = compiled.make_state()
    for fire in range(8):
        inputs = random_inputs(dfg, seed * 1000 + fire)
        want = dfg.execute(inputs, ref_state)
        assert compiled.run(inputs, state) == want
    # CompiledDfg numbers its accumulator slots in topological order
    assert state == [ref_state[inst.name] for inst in dfg.topological_order()
                     if inst.is_accumulator]
