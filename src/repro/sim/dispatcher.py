"""Stream dispatcher: scoreboards, program-order port rules and barriers.

The dispatcher (Section 4.2) sits between the control core and the stream
engines.  It issues at most one command per cycle, in program order, once:

* every vector port the command uses is *free* (streams touching the same
  port must execute in program order),
* the target stream engine has a free stream-table entry, and
* no pending barrier forbids it.

Barriers block the head of the queue until their condition holds; other
already-issued streams keep running, which is how forward progress is
guaranteed.  ``SD_Barrier_All`` additionally stalls the control core while
it is anywhere in the queue.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, FrozenSet, List, Optional, Tuple

from ..core.isa.commands import (
    Command,
    SDBarrierAll,
    SDBarrierScratchRd,
    SDBarrierScratchWr,
    SDConfig,
    is_barrier,
    port_uses,
)
from ..trace import TraceEvent
from .stats import CommandTrace

#: command-queue capacity between core and dispatcher
COMMAND_QUEUE_DEPTH = 16

#: queued-command kinds recorded at enqueue (see ``Dispatcher.facts``)
STREAM, CONFIG, BARRIER = 0, 1, 2

PortKey = Tuple[str, int, str]  # (port kind, port id, role)


def port_keys(command: Command) -> FrozenSet[PortKey]:
    """The ``(kind, port_id, role)`` scoreboard keys ``command`` occupies."""
    return frozenset(
        (port.kind, port.port_id, role) for port, role in port_uses(command)
    )


class Dispatcher:
    """Issue logic with vector-port and stream-engine scoreboards.

    ``busy_ports`` is a counter per port rather than a set: the
    all-requests-in-flight optimisation (Section 4.2) lets a memory stream
    release its port for *issue* while its data is still in flight, so two
    streams can transiently own the same port — one draining, one issuing.
    """

    def __init__(self, sim: "SoftbrainSim") -> None:  # noqa: F821
        self.sim = sim
        self.queue: Deque[CommandTrace] = deque()
        self.busy_ports: Dict[PortKey, int] = {}
        self.issued_total = 0
        # Derived queue state, updated at enqueue and dispatch only (the
        # scan reads it every cycle instead of re-deriving it):
        #: per queued command, keyed by timeline index: its kind, the
        #: frozen set of ``(kind, port_id, role)`` keys it occupies, its
        #: target engine (None for barriers) and its trace
        self.facts: Dict[
            int, Tuple[int, FrozenSet[PortKey], object, CommandTrace]
        ] = {}
        #: queued ``SD_Barrier_All`` commands (they stall enqueue)
        self.barrier_alls = 0
        #: per port key, the queued timeline indices using it, oldest first
        self.users: Dict[PortKey, Deque[int]] = {}
        #: ascending timeline indices the scan visits: every queued barrier
        #: and config, and each stream that is the oldest queued user of
        #: all its port keys.  Any other stream waits behind an earlier
        #: same-port command whatever the scoreboards say.
        self.scan: List[int] = []
        # Scan cache: a full scan that issued nothing is valid until
        # sim.dispatch_version changes (enqueue / port release / stream
        # completion / config apply).  "quiesce" verdicts also depend on
        # sim.quiesced(), which changes without a version bump, so they
        # re-check only that predicate per cycle.  A cache hit replays the
        # scan's one trace event: ``barrier.wait`` for the head barrier.
        self._cache_version = -1
        self._cache_kind = ""  # "hard" | "quiesce"
        self._cache_wait: Optional[CommandTrace] = None
        self._used_quiesce = False

    # -- core-facing interface ---------------------------------------------------

    def can_enqueue(self) -> bool:
        return len(self.queue) < COMMAND_QUEUE_DEPTH and not self.barrier_alls

    def enqueue(self, command: Command, cycle: int) -> Optional[CommandTrace]:
        """Enqueue ``command``; returns ``None`` when the queue is not
        ready this cycle (full, or an ``SD_Barrier_All`` is queued) — the
        core must hold the command and retry, exactly as the hardware
        stalls the issue stage."""
        if not self.can_enqueue():
            return None
        trace = self.sim.timeline.note_enqueue(command, cycle)
        self.queue.append(trace)
        if is_barrier(command):
            kind, engine = BARRIER, None
            if isinstance(command, SDBarrierAll):
                self.barrier_alls += 1
        else:
            kind = CONFIG if isinstance(command, SDConfig) else STREAM
            engine = self.sim.engines[command.engine]
        index = trace.index
        ports = port_keys(command)
        self.facts[index] = (kind, ports, engine, trace)
        oldest = True
        for key in ports:
            users = self.users.get(key)
            if users is None:
                self.users[key] = deque((index,))
            else:
                oldest = False
                users.append(index)
        if oldest:
            self.scan.append(index)  # the newest index: stays sorted
        self.sim.dispatch_version += 1
        sink = self.sim.trace
        if sink.enabled:
            sink.emit(TraceEvent(
                "command.enqueue", cycle, self.sim.unit, "dispatcher",
                {"index": trace.index, "command": trace.label,
                 "queue_depth": len(self.queue)},
            ))
        return trace

    @property
    def drained(self) -> bool:
        return not self.queue

    # -- issue logic ----------------------------------------------------------------

    def tick(self, cycle: int) -> bool:
        """Issue at most one command per cycle.

        The scan preserves the architecture's ordering rules: streams that
        touch the *same* port issue in program order, but a stream whose
        ports are free may issue past an earlier stalled stream on other
        ports (Section 4.2's scoreboard — without this, the paper's own
        Figure 6 command sequence would deadlock on the reset-constant /
        clean pair).  Barriers order everything behind them.  A stream
        sharing a port key with an earlier queued command can never issue
        first, so the scan visits only :attr:`scan`'s entries.
        """
        if not self.queue:
            return False
        if self.sim.config_pending:
            return False  # reconfiguration in flight orders everything

        if self._cache_version == self.sim.dispatch_version:
            # Nothing the scan depends on changed since it last came up
            # empty; "quiesce" verdicts must still watch the one predicate
            # that moves without a version bump.
            if self._cache_kind == "hard" or not self.sim.quiesced():
                waiting = self._cache_wait
                if waiting is not None and self.sim.trace.enabled:
                    self._trace_barrier_wait(waiting, cycle)
                return False

        self._used_quiesce = False
        queue = self.queue
        facts = self.facts
        busy = self.busy_ports.keys()
        for index in self.scan:
            kind, ports, engine, trace = facts[index]

            if kind == BARRIER:
                sink = self.sim.trace
                at_head = queue[0] is trace
                if at_head and self._barrier_met(trace.command):
                    queue.popleft()
                    self._forget(index)
                    trace.dispatched = cycle
                    trace.completed = cycle
                    if sink.enabled:
                        self._trace_barrier_release(sink, trace, cycle)
                    return True
                if sink.enabled and at_head:
                    self._trace_barrier_wait(trace, cycle)
                # nothing may pass a pending barrier
                return self._blocked(waiting=trace if at_head else None)

            if kind == CONFIG:
                if not self._config_ready(engine):
                    return self._blocked()  # nothing passes a reconfiguration
            elif (
                len(engine.streams) >= engine.table_size
                or not busy.isdisjoint(ports)
            ):
                continue

            for position, queued in enumerate(queue):
                if queued is trace:
                    del queue[position]
                    break
            self._forget(index)
            trace.dispatched = cycle
            busy_ports = self.busy_ports
            for key in ports:
                busy_ports[key] = busy_ports.get(key, 0) + 1
            command = trace.command
            sink = self.sim.trace
            if sink.enabled:
                sink.emit(TraceEvent(
                    "command.dispatch", cycle, self.sim.unit, "dispatcher",
                    {"index": trace.index, "command": trace.label,
                     "engine": command.engine,
                     "wait_cycles": cycle - trace.enqueued},
                ))
            self.sim.issue_to_engine(command, trace)
            self.issued_total += 1
            self.sim.stats.commands_issued += 1
            return True
        return self._blocked()

    def _forget(self, index: int) -> None:
        """Drop a dispatched command's derived queue state.  It was the
        oldest user of each of its port keys; the next user of a key joins
        the scan once it is the oldest user of all its own keys."""
        kind, ports, _, trace = self.facts.pop(index)
        self.scan.remove(index)
        if kind == BARRIER and isinstance(trace.command, SDBarrierAll):
            self.barrier_alls -= 1
        users = self.users
        successors = []
        for key in ports:
            queued = users[key]
            queued.popleft()
            if queued:
                successors.append(queued[0])
            else:
                del users[key]
        scan = self.scan
        for successor in successors:
            if successor not in scan and all(
                users[key][0] == successor
                for key in self.facts[successor][1]
            ):
                scan.append(successor)
                scan.sort()  # at most 16 entries

    def _blocked(self, waiting: Optional[CommandTrace] = None) -> bool:
        """Record that a full scan issued nothing (the scan cache);
        ``waiting`` is the head barrier it reported as waiting."""
        self._cache_version = self.sim.dispatch_version
        self._cache_kind = "quiesce" if self._used_quiesce else "hard"
        self._cache_wait = waiting
        return False

    def _trace_barrier_wait(self, trace: CommandTrace, cycle: int) -> None:
        self.sim.trace.emit(TraceEvent(
            "barrier.wait", cycle, self.sim.unit, "dispatcher",
            {"index": trace.index, "command": trace.label},
        ))

    def _trace_barrier_release(self, sink, trace: CommandTrace,
                               cycle: int) -> None:
        """Barriers dispatch and complete in the same cycle — emit both
        lifetime events so every timeline index appears in the trace."""
        common = {"index": trace.index, "command": trace.label,
                  "engine": "barrier"}
        sink.emit(TraceEvent(
            "command.dispatch", cycle, self.sim.unit, "dispatcher",
            dict(common, wait_cycles=cycle - trace.enqueued),
        ))
        sink.emit(TraceEvent(
            "command.complete", cycle, self.sim.unit, "dispatcher",
            dict(common, latency=0),
        ))

    def _config_ready(self, engine) -> bool:
        """Reconfiguration needs a stream-table slot and must wait until
        the whole unit quiesces: the port mapping and datapath are about
        to change."""
        if len(engine.streams) >= engine.table_size:
            return False
        self._used_quiesce = True
        return self.sim.quiesced()

    def _barrier_met(self, command: Command) -> bool:
        if isinstance(command, SDBarrierScratchRd):
            return self.sim.outstanding["scratch_rd"] == 0
        if isinstance(command, SDBarrierScratchWr):
            return self.sim.outstanding["scratch_wr"] == 0
        assert isinstance(command, SDBarrierAll)
        self._used_quiesce = True
        return self.sim.quiesced()

    # -- completion callbacks ---------------------------------------------------------

    def release_port(self, kind: str, port_id: int, role: str) -> None:
        self.sim.dispatch_version += 1
        key = (kind, port_id, role)
        count = self.busy_ports.get(key, 0)
        if count <= 1:
            self.busy_ports.pop(key, None)
        else:
            self.busy_ports[key] = count - 1
