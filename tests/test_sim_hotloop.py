"""The simulator's hot-loop caches stay coherent with what they cache.

The dispatcher and the stream engines keep derived state that is updated
only at the events that change it — enqueue, dispatch, stream accept and
retire — instead of being recomputed in every cycle's scan
(docs/PERFORMANCE.md, "Hot-loop caches").  These tests hook
``SoftbrainSim.step`` and, after every simulated cycle, recompute each
cache from scratch (``port_uses`` on the queued and active commands) and
require it to be equal.  They run over random fuzz programs and every DNN
layer, untraced, traced and under fault injection.

They also pin the specialised CGRA closures for the wrapping and
horizontal ops (``cgra_exec.WRAPPING_OPS`` / ``HORIZONTAL_OPS``) to
:meth:`Operation.evaluate` and :func:`accumulate_combine` on random and
boundary words.
"""

import random

import pytest

from repro.core.dfg.instructions import (
    SUBWORD_WIDTHS,
    WORD_MASK,
    accumulate_combine,
    accumulator_identity,
    get_operation,
)
from repro.core.isa.commands import SDBarrierAll, SDConfig, is_barrier, port_uses
from repro.fuzz.case import build_case
from repro.fuzz.generators import random_plan
from repro.resilience import FaultInjector, FaultPlan
from repro.sim.cgra_exec import HORIZONTAL_OPS, WRAPPING_OPS, _compile_step
from repro.sim.dispatcher import BARRIER, CONFIG, STREAM
from repro.sim.errors import SimError
from repro.sim.softbrain import SoftbrainParams, SoftbrainSim
from repro.trace import ListSink
from repro.workloads.dnn import DNN_LAYERS, build_dnn_layer

PLANS = 100
MODES = ("plain", "traced", "faulted")


class Expected:
    """What each cache should hold for a command, computed from scratch
    with ``port_uses`` once per command object (commands are immutable;
    the memo keeps them alive so their ids stay unique)."""

    def __init__(self):
        self._memo = {}

    def __call__(self, command):
        entry = self._memo.get(id(command))
        if entry is None:
            uses = port_uses(command)
            if is_barrier(command):
                kind = BARRIER
            else:
                kind = CONFIG if isinstance(command, SDConfig) else STREAM
            entry = self._memo[id(command)] = (command, {
                "kind": kind,
                "keys": frozenset(
                    (p.kind, p.port_id, role) for p, role in uses),
                "port_keys": tuple(
                    (p.kind, p.port_id, role) for p, role in uses),
                "write_keys": tuple(
                    (p.kind, p.port_id) for p, role in uses if role == "w"),
                "refs": tuple(getattr(command, attr, None)
                              for attr in ("source", "dest", "index_port")),
                "barrier_all": isinstance(command, SDBarrierAll),
            })
        return entry[1]


def assert_dispatcher_coherent(sim, expected):
    dispatcher = sim.dispatcher
    queue = list(dispatcher.queue)
    assert list(dispatcher.facts) == [t.index for t in queue]
    users, scan, barrier_alls = {}, [], 0
    for trace in queue:
        want = expected(trace.command)
        kind, ports, engine, cached_trace = dispatcher.facts[trace.index]
        assert cached_trace is trace
        assert (kind, ports) == (want["kind"], want["keys"])
        assert engine is (None if kind == BARRIER
                          else sim.engines[trace.command.engine])
        barrier_alls += want["barrier_all"]
        if kind != STREAM or users.keys().isdisjoint(ports):
            scan.append(trace.index)
        for key in ports:
            users.setdefault(key, []).append(trace.index)
    assert dispatcher.barrier_alls == barrier_alls
    assert {key: list(q) for key, q in dispatcher.users.items()} == users
    assert dispatcher.scan == scan


def assert_engines_coherent(sim, expected):
    for engine in sim.engines.values():
        owners = {}
        for stream in engine.streams:
            want = expected(stream.command)
            assert stream.port_keys == want["port_keys"]
            assert stream.write_keys == want["write_keys"]
            assert (stream.source_port, stream.dest_port,
                    stream.index_port) == tuple(
                None if ref is None else sim.port_state(ref)
                for ref in want["refs"])
            for key in want["write_keys"]:
                owners.setdefault(key, stream)
        assert ({key: id(s) for key, s in engine.owners.items()}
                == {key: id(s) for key, s in owners.items()}), engine.name


@pytest.fixture
def checked_steps(monkeypatch):
    """Check every cache after every simulated cycle; count the cycles."""
    original = SoftbrainSim.step
    expected = Expected()
    counter = {"steps": 0}

    def step(self, cycle):
        progress = original(self, cycle)
        assert_dispatcher_coherent(self, expected)
        assert_engines_coherent(self, expected)
        counter["steps"] += 1
        return progress

    monkeypatch.setattr(SoftbrainSim, "step", step)
    return counter


def _run(built, memory, mode, seed):
    trace = ListSink() if mode == "traced" else None
    faults = (FaultInjector(FaultPlan.random(seed, max_cycle=400))
              if mode == "faulted" else None)
    sim = SoftbrainSim(built.program, fabric=built.fabric, memory=memory,
                       params=SoftbrainParams(max_cycles=400_000),
                       trace=trace, faults=faults)
    try:
        sim.run()
    except SimError:
        if faults is None:
            raise  # only an injected fault may end a run early


@pytest.mark.parametrize("mode", MODES)
def test_caches_coherent_on_random_programs(mode, checked_steps):
    for index in range(PLANS):
        plan = random_plan(random.Random(f"hotloop:{index}"),
                           name=f"hotloop-{index}")
        built = build_case(plan)
        _run(built, built.fresh_memory(), mode, seed=index)
    assert checked_steps["steps"] > 10 * PLANS


@pytest.mark.parametrize("mode", MODES)
def test_caches_coherent_on_dnn_layers(mode, checked_steps):
    # Unit 0 of a four-unit split: each layer's full command structure in
    # a quarter of its cycles (~2 k each), so three modes stay affordable.
    for index, layer in enumerate(DNN_LAYERS):
        built = build_dnn_layer(layer, 0, 4)
        _run(built, built.memory, mode, seed=index)
    assert checked_steps["steps"] > 1000 * len(DNN_LAYERS)


BOUNDARY_WORDS = (
    0, 1, WORD_MASK, 1 << 63, (1 << 63) - 1, 0x8000_8000_8000_8000,
    0x7FFF_7FFF_7FFF_7FFF, 0xFFFF_0000_FFFF_0000, 0x8000_0000_7FFF_FFFF,
)


def _word(rng):
    if rng.random() < 0.3:
        return rng.choice(BOUNDARY_WORDS)
    return rng.getrandbits(64)


@pytest.mark.parametrize("lane_bits", SUBWORD_WIDTHS)
@pytest.mark.parametrize("name", sorted(WRAPPING_OPS))
def test_wrapping_closures_match_evaluate(name, lane_bits):
    op = get_operation(name)
    step = _compile_step(op, lane_bits, ((False, 0), (False, 1)), 2, -1, 0)
    rng = random.Random(f"wrap:{name}:{lane_bits}")
    for _ in range(2000):
        values = [_word(rng), _word(rng), 0]
        step(values, [])
        assert values[2] == op.evaluate(values[:2], lane_bits)


@pytest.mark.parametrize("lane_bits", SUBWORD_WIDTHS)
@pytest.mark.parametrize("name", sorted(HORIZONTAL_OPS))
def test_horizontal_closures_match_evaluate(name, lane_bits):
    op = get_operation(name)
    step = _compile_step(op, lane_bits, ((False, 0),), 1, -1, 0)
    rng = random.Random(f"horizontal:{name}:{lane_bits}")
    for _ in range(2000):
        values = [_word(rng), 0]
        step(values, [])
        assert values[1] == op.evaluate(values[:1], lane_bits)


@pytest.mark.parametrize("lane_bits", SUBWORD_WIDTHS)
@pytest.mark.parametrize("name", ["acc", "accmin", "accmax"])
def test_accumulator_closures_match_combine(name, lane_bits):
    identity = accumulator_identity(name, lane_bits)
    step = _compile_step(get_operation(name), lane_bits,
                         ((False, 0), (False, 1)), 2, 0, identity)
    rng = random.Random(f"acc:{name}:{lane_bits}")
    state, want_state = [identity], identity
    for _ in range(2000):
        reset = int(rng.random() < 0.1)
        values = [_word(rng), reset, 0]
        step(values, state)
        total = accumulate_combine(name, want_state, values[0], lane_bits)
        want_state = identity if reset else total
        assert (values[2], state[0]) == (total, want_state)
