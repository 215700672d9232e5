"""Stream engines: concurrent executors of stream commands (Section 4.3).

Four engines mirror the paper's microarchitecture:

* :class:`MemReadEngine` — memory -> ports/scratchpad, config loads and
  indirect gathers; contains the *balance unit* that de-prioritises
  heavily-unbalanced vector ports to avoid deadlock (Section 4.5).
* :class:`MemWriteEngine` — ports -> memory, including indirect scatter.
* :class:`ScratchEngine` — the scratchpad's one read + one write port.
* :class:`RecurrenceEngine` — port-to-port recurrences, constants, cleans.

Each engine owns a small *stream table* of active streams; per cycle it
selects one ready stream per resource (a stream-request-pipeline slot) and
advances it by at most one line request / eight words.

Data convention: one stream element always occupies one 64-bit word at a
vector port.  ``elem_bytes < 8`` means narrow memory traffic (zero-extended
on load, truncated on store); packed sub-word SIMD data (e.g. 16-bit DNN
arrays) should be streamed with ``elem_bytes=8`` so each word carries four
16-bit lanes, exactly as the hardware's 512-bit buses do.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, List, Optional, Tuple

from ..core.isa.commands import (
    Command,
    SDCleanPort,
    SDConfig,
    SDConstPort,
    SDIndPortMem,
    SDIndPortPort,
    SDMemPort,
    SDMemScratch,
    SDPortMem,
    SDPortPort,
    SDPortScratch,
    SDScratchPort,
    port_uses,
)
from ..core.isa.patterns import LINE_BYTES, LineRequest, affine_requests
from ..trace import TraceEvent
from .errors import StreamTableError
from .stats import CommandTrace
from .vector_port import VectorPortState

#: max words an engine moves between ports per cycle (512-bit bus)
WORDS_PER_CYCLE = 8
#: scratchpad SRAM read latency, cycles
SCRATCH_READ_LATENCY = 2


@dataclass
class ActiveStream:
    """One stream-table entry."""

    command: Command
    trace: CommandTrace
    requests: Optional[Iterator[LineRequest]] = None
    next_request: Optional[LineRequest] = None
    elements_left: int = 0
    elements_done: int = 0
    #: in-order delivery queue: (ready_cycle, words, dest or None)
    pending: Deque[Tuple[int, List[int], Optional[VectorPortState]]] = field(
        default_factory=deque
    )
    issued_all: bool = False
    #: ports already released to the dispatcher (all-requests-in-flight)
    early_released: bool = False
    #: scoreboard keys ``(kind, port_id, role)`` and written ports
    #: ``(kind, port_id)`` of ``command``, recorded at accept
    port_keys: Tuple[Tuple[str, int, str], ...] = ()
    write_keys: Tuple[Tuple[str, int], ...] = ()
    #: runtime state of the command's ``source`` / ``dest`` /
    #: ``index_port`` vector ports (None where it has none), from accept
    source_port: Optional[VectorPortState] = None
    dest_port: Optional[VectorPortState] = None
    index_port: Optional[VectorPortState] = None

    def advance_request(self) -> None:
        """Pop the next line request from the pattern iterator."""
        assert self.requests is not None
        try:
            self.next_request = next(self.requests)
        except StopIteration:
            self.next_request = None
            self.issued_all = True


class StreamEngineBase:
    """Common stream-table behaviour; subclasses implement ``tick``."""

    name = "engine"

    def __init__(self, sim: "SoftbrainSim", table_size: int = 8) -> None:  # noqa: F821
        self.sim = sim
        self.table_size = table_size
        self.streams: List[ActiveStream] = []
        #: earliest stream per written port (see :meth:`_delivery_owners`),
        #: rebuilt whenever the stream table changes
        self.owners: Dict[Tuple[str, int], ActiveStream] = {}
        self._rr = 0  # round-robin pointer for fair selection

    def has_free_slot(self) -> bool:
        return len(self.streams) < self.table_size

    def accept(self, command: Command, trace: CommandTrace) -> None:
        if not self.has_free_slot():
            raise StreamTableError(f"{self.name}: stream table full")
        stream = self._make_stream(command, trace)
        uses = port_uses(command)
        stream.port_keys = tuple(
            (port.kind, port.port_id, role) for port, role in uses
        )
        stream.write_keys = tuple(
            (port.kind, port.port_id) for port, role in uses if role == "w"
        )
        refs = (getattr(command, attr, None)
                for attr in ("source", "dest", "index_port"))
        stream.source_port, stream.dest_port, stream.index_port = (
            None if ref is None else self.sim.port_state(ref) for ref in refs
        )
        self.streams.append(stream)
        self.owners = self._delivery_owners()

    def _make_stream(self, command: Command, trace: CommandTrace) -> ActiveStream:
        return ActiveStream(command, trace)

    def idle(self) -> bool:
        return not self.streams

    def _retire(self, stream: ActiveStream, cycle: int) -> None:
        self.streams.remove(stream)
        self.owners = self._delivery_owners()
        self.sim.stream_completed(stream, cycle)

    def _note_busy(self, cycle: int, stream: ActiveStream) -> None:
        """Account one busy cycle (stats counter + the trace's
        ``engine.busy`` / ``stream.issue`` pair — kept in lock-step so the
        two accountings reconcile exactly)."""
        self.sim.stats.note_engine_busy(self.name)
        sink = self.sim.trace
        if sink.enabled:
            unit = self.sim.unit
            sink.emit(TraceEvent("engine.busy", cycle, unit, self.name, {}))
            sink.emit(TraceEvent(
                "stream.issue", cycle, unit, self.name,
                {"index": stream.trace.index, "command": stream.trace.label},
            ))

    def _fault_stalled(self, cycle: int) -> bool:
        """True while an injected ``engine.stall`` fault freezes this
        engine; schedules a wake-up so fast-forward still works.  Callers
        test ``sim.faults is not None`` first."""
        injector = self.sim.faults
        if cycle < injector.engine_stall_at:
            return False
        until = injector.engine_stall_until(self.name, cycle)
        if until > cycle:
            self.sim.schedule(until, None)
            return True
        return False

    def _drain_pending(self, stream: ActiveStream, cycle: int) -> bool:
        """Push in-order deliveries whose data has arrived.  True if any.

        Arrived data waits in the engine's request buffer until the
        destination port has room (the paper's "buffering for outstanding
        requests"), decoupling port depth from memory latency.
        """
        progressed = False
        injector = self.sim.faults
        while stream.pending and stream.pending[0][0] <= cycle:
            ready_at, words, dest = stream.pending[0]
            if dest is not None:
                if (injector is not None and words
                        and cycle >= injector.port_drop_at):
                    port_name = (f"{dest.spec.direction}"
                                 f"{dest.spec.port_id}")
                    dropped = injector.drop_port_words(
                        cycle, port_name, words)
                    if dropped is not words:
                        # persist the loss: the retried delivery must not
                        # resurrect the dropped word
                        words = dropped
                        stream.pending[0] = (ready_at, words, dest)
                if dest.free_words < len(words):
                    break
                dest.push(words, reserved=False)
                sink = self.sim.trace
                if sink.enabled and words:
                    sink.emit(TraceEvent(
                        "stream.drain", cycle, self.sim.unit, self.name,
                        {
                            "index": stream.trace.index,
                            "command": stream.trace.label,
                            "port": f"{dest.spec.direction}"
                                    f"{dest.spec.port_id}",
                            "words": len(words),
                        },
                    ))
            stream.pending.popleft()
            progressed = True
        return progressed

    def _maybe_early_release(self, stream: ActiveStream) -> None:
        """All-requests-in-flight (Section 4.2): once every request of a
        stream is in the memory system, release its ports for issue so the
        next same-port stream can overlap its requests with this stream's
        remaining deliveries.  Callers check ``issued_all and not
        early_released`` first."""
        if not self.sim.params.all_requests_in_flight:
            return
        stream.early_released = True
        release = self.sim.dispatcher.release_port
        for kind, port_id, role in stream.port_keys:
            release(kind, port_id, role)

    def _delivery_owners(self) -> dict:
        """Earliest stream per written port — only it may deliver,
        preserving program order across overlapped same-port streams."""
        owners: dict = {}
        for stream in self.streams:
            for key in stream.write_keys:
                owners.setdefault(key, stream)
        return owners

    @staticmethod
    def _may_deliver(owners: dict, stream: ActiveStream) -> bool:
        for key in stream.write_keys:
            if owners[key] is not stream:
                return False
        return True

    def _rotate(self, candidates: List[ActiveStream]) -> List[ActiveStream]:
        """Round-robin rotation for fair stream selection."""
        if not candidates:
            return candidates
        self._rr = (self._rr + 1) % len(candidates)
        return candidates[self._rr :] + candidates[: self._rr]

    def tick(self, cycle: int) -> bool:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Memory read engine (+ balance unit, config loads, indirect gather)
# ---------------------------------------------------------------------------

class MemReadEngine(StreamEngineBase):
    name = "mse_read"

    #: outstanding-request buffer capacity (64-byte entries)
    BUFFER_LINES = 32

    def _make_stream(self, command: Command, trace: CommandTrace) -> ActiveStream:
        stream = ActiveStream(command, trace)
        if isinstance(command, SDMemPort):
            stream.requests = affine_requests(command.pattern)
            stream.advance_request()
        elif isinstance(command, SDMemScratch):
            stream.requests = affine_requests(command.pattern)
            stream.advance_request()
        elif isinstance(command, SDIndPortPort):
            stream.elements_left = command.num_elements
        elif isinstance(command, SDConfig):
            stream.elements_left = 1
        else:
            raise TypeError(f"{self.name} cannot run {type(command).__name__}")
        return stream

    def _balance_score(self, stream: ActiveStream) -> int:
        """Balance unit: fewest queued+in-flight words at the target first."""
        port = stream.dest_port
        if port is None:
            return 0  # scratch/config streams have no port to unbalance
        return len(port.fifo) + port.reserved

    def tick(self, cycle: int) -> bool:
        sim = self.sim
        if sim.faults is not None and self._fault_stalled(cycle):
            return False
        progressed = False
        streams = self.streams
        # Ownership as of the start of the tick: a stream retiring below
        # must not let a later same-port stream deliver in this cycle.
        owners = None if len(streams) == 1 else self.owners
        lines = 0  # request-buffer entries still held after the drains
        for stream in list(streams):
            pending = stream.pending
            if (
                pending and pending[0][0] <= cycle
                and (owners is None or self._may_deliver(owners, stream))
                and self._drain_pending(stream, cycle)
            ):
                progressed = True
            if stream.issued_all and not pending:
                self._retire(stream, cycle)
                progressed = True
                continue
            if stream.issued_all and not stream.early_released:
                self._maybe_early_release(stream)
            lines += len(pending)

        if lines >= self.BUFFER_LINES or not sim.memory.can_accept(cycle):
            return progressed

        ready = [s for s in streams if self._can_issue(s)]
        if not ready:
            return progressed
        if sim.params.balance_unit:
            if len(ready) > 1:
                ready.sort(key=self._balance_score)
        else:
            ready = self._rotate(ready)
        self._issue(ready[0], cycle)
        self._note_busy(cycle, ready[0])
        return True

    def _can_issue(self, stream: ActiveStream) -> bool:
        """Ready to issue, given the request buffer has room (checked
        once per tick by the caller)."""
        command = stream.command
        if isinstance(command, (SDMemPort, SDMemScratch)):
            return stream.next_request is not None
        if isinstance(command, SDIndPortPort):
            if stream.elements_left <= 0:
                return False
            index_port = stream.index_port
            return index_port.occupancy > 0
        if isinstance(command, SDConfig):
            return stream.elements_left > 0
        return False

    def _issue(self, stream: ActiveStream, cycle: int) -> None:
        command = stream.command
        memory = self.sim.memory
        if isinstance(command, SDMemPort):
            request = stream.next_request
            assert request is not None
            port = stream.dest_port
            ready = memory.issue(cycle, request.line_addr, False, request.bytes_used)
            words = memory.store.read_elements(
                request.element_addrs, request.elem_bytes,
                command.pattern.signed,
            )
            injector = self.sim.faults
            if injector is not None and cycle >= injector.mem_corrupt_at:
                words = injector.corrupt_read(cycle, words)
            stream.pending.append((ready, words, port))
            self.sim.schedule(ready, None)
            stream.advance_request()
        elif isinstance(command, SDMemScratch):
            request = stream.next_request
            assert request is not None
            ready = memory.issue(cycle, request.line_addr, False, request.bytes_used)
            data = b"".join(
                memory.store.read(addr, request.elem_bytes)
                for addr in request.element_addrs
            )
            base = command.scratch_addr + stream.elements_done * request.elem_bytes
            stream.elements_done += request.num_elements
            scratchpad = self.sim.scratchpad
            self.sim.schedule(ready, lambda: scratchpad.write(base, data))
            stream.pending.append((ready, [], None))
            stream.advance_request()
        elif isinstance(command, SDIndPortPort):
            index_port = stream.index_port
            dest = stream.dest_port
            # Indirect AGU: coalesce up to 4 increasing same-line addresses.
            addrs: List[int] = []
            limit = min(4, index_port.occupancy, stream.elements_left)
            line = None
            while len(addrs) < limit and index_port.occupancy:
                index = index_port.fifo[0]
                addr = command.offset_addr + index * command.index_scale
                addr_line = (addr // LINE_BYTES) * LINE_BYTES
                if line is None:
                    line = addr_line
                elif addr_line != line or addr < addrs[-1]:
                    break
                addrs.append(addr)
                index_port.pop_words(1)
            assert addrs and line is not None
            ready = memory.issue(
                cycle, line, False, len(addrs) * command.elem_bytes
            )
            words = memory.store.read_elements(
                addrs, command.elem_bytes, command.signed
            )
            injector = self.sim.faults
            if injector is not None and cycle >= injector.mem_corrupt_at:
                words = injector.corrupt_read(cycle, words)
            stream.pending.append((ready, words, dest))
            self.sim.schedule(ready, None)
            stream.elements_left -= len(addrs)
            if stream.elements_left == 0:
                stream.issued_all = True
        elif isinstance(command, SDConfig):
            lines = (command.size + LINE_BYTES - 1) // LINE_BYTES
            ready = memory.issue(cycle, command.address, False, command.size)
            done = ready + max(0, lines - 1)
            self.sim.schedule(done, lambda: self.sim.apply_config(command.address))
            stream.pending.append((done, [], None))
            stream.elements_left = 0
            stream.issued_all = True
            self.sim.stats.config_loads += 1

# ---------------------------------------------------------------------------
# Memory write engine
# ---------------------------------------------------------------------------

class MemWriteEngine(StreamEngineBase):
    name = "mse_write"

    def _make_stream(self, command: Command, trace: CommandTrace) -> ActiveStream:
        stream = ActiveStream(command, trace)
        if isinstance(command, SDPortMem):
            stream.requests = affine_requests(command.pattern)
            stream.advance_request()
        elif isinstance(command, SDIndPortMem):
            stream.elements_left = command.num_elements
        else:
            raise TypeError(f"{self.name} cannot run {type(command).__name__}")
        return stream

    def tick(self, cycle: int) -> bool:
        if self.sim.faults is not None and self._fault_stalled(cycle):
            return False
        progressed = False
        for stream in list(self.streams):
            pending = stream.pending
            if (pending and pending[0][0] <= cycle
                    and self._drain_pending(stream, cycle)):
                progressed = True
            if stream.issued_all and not pending:
                self._retire(stream, cycle)
                progressed = True
            elif stream.issued_all and not stream.early_released:
                self._maybe_early_release(stream)

        if not self.sim.memory.can_accept(cycle):
            return progressed

        ready = [s for s in self.streams if self._can_issue(s)]
        if not ready:
            return progressed
        chosen = self._rotate(ready)[0]
        self._issue(chosen, cycle)
        self._note_busy(cycle, chosen)
        return True

    def _can_issue(self, stream: ActiveStream) -> bool:
        command = stream.command
        if isinstance(command, SDPortMem):
            request = stream.next_request
            if request is None:
                return False
            source = stream.source_port
            return source.occupancy >= request.num_elements
        if isinstance(command, SDIndPortMem):
            if stream.elements_left <= 0:
                return False
            index_port = stream.index_port
            source = stream.source_port
            return index_port.occupancy >= 1 and source.occupancy >= 1
        return False

    def _issue(self, stream: ActiveStream, cycle: int) -> None:
        command = stream.command
        memory = self.sim.memory
        if isinstance(command, SDPortMem):
            request = stream.next_request
            assert request is not None
            source = stream.source_port
            words = source.pop_words(request.num_elements)
            ready = memory.issue(cycle, request.line_addr, True, request.bytes_used)
            writes = list(zip(request.element_addrs, words))
            elem_bytes = request.elem_bytes

            def apply(writes=writes, elem_bytes=elem_bytes) -> None:
                for addr, word in writes:
                    memory.store.write_word(addr, word, elem_bytes)

            self.sim.schedule(ready, apply)
            stream.pending.append((ready, [], None))
            stream.advance_request()
        else:
            assert isinstance(command, SDIndPortMem)
            index_port = stream.index_port
            source = stream.source_port
            count = min(
                4, index_port.occupancy, source.occupancy, stream.elements_left
            )
            # Coalesce same-line increasing addresses like the indirect AGU.
            addrs: List[int] = []
            line = None
            for i in range(count):
                index = index_port.fifo[i]
                addr = command.offset_addr + index * command.index_scale
                addr_line = (addr // LINE_BYTES) * LINE_BYTES
                if line is None:
                    line = addr_line
                elif addr_line != line or addr < addrs[-1]:
                    break
                addrs.append(addr)
            take = len(addrs)
            assert take >= 1 and line is not None
            index_port.pop_words(take)
            words = source.pop_words(take)
            ready = memory.issue(cycle, line, True, take * command.elem_bytes)
            writes = list(zip(addrs, words))
            elem_bytes = command.elem_bytes

            def apply(writes=writes, elem_bytes=elem_bytes) -> None:
                for addr, word in writes:
                    memory.store.write_word(addr, word, elem_bytes)

            self.sim.schedule(ready, apply)
            stream.pending.append((ready, [], None))
            stream.elements_left -= take
            if stream.elements_left == 0:
                stream.issued_all = True


# ---------------------------------------------------------------------------
# Scratchpad engine (one read port + one write port per cycle)
# ---------------------------------------------------------------------------

class ScratchEngine(StreamEngineBase):
    name = "sse"

    def _make_stream(self, command: Command, trace: CommandTrace) -> ActiveStream:
        stream = ActiveStream(command, trace)
        if isinstance(command, SDScratchPort):
            stream.requests = affine_requests(command.pattern)
            stream.advance_request()
        elif isinstance(command, SDPortScratch):
            stream.elements_left = command.num_elements
        else:
            raise TypeError(f"{self.name} cannot run {type(command).__name__}")
        return stream

    def tick(self, cycle: int) -> bool:
        if self.sim.faults is not None and self._fault_stalled(cycle):
            return False
        progressed = False
        for stream in list(self.streams):
            pending = stream.pending
            if (pending and pending[0][0] <= cycle
                    and self._drain_pending(stream, cycle)):
                progressed = True
            if stream.issued_all and not pending:
                self._retire(stream, cycle)
                progressed = True

        # One read-stream action per cycle.
        reads = [s for s in self.streams if self._read_ready(s)]
        if reads:
            chosen = self._rotate(reads)[0]
            self._issue_read(chosen, cycle)
            self._note_busy(cycle, chosen)
            progressed = True

        # One write-stream action per cycle.
        writes = [
            s
            for s in self.streams
            if isinstance(s.command, SDPortScratch) and self._write_ready(s)
        ]
        if writes:
            self._issue_write(writes[0], cycle)
            self._note_busy(cycle, writes[0])
            progressed = True
        return progressed

    @staticmethod
    def _read_ready(stream: ActiveStream) -> bool:
        # Only SD_Scratch_Port streams carry line requests here.  A short
        # request buffer covers the 2-cycle SRAM latency.
        return stream.next_request is not None and len(stream.pending) < 4

    def _issue_read(self, stream: ActiveStream, cycle: int) -> None:
        command = stream.command
        assert isinstance(command, SDScratchPort)
        request = stream.next_request
        assert request is not None
        port = stream.dest_port
        words = self.sim.scratchpad.read_elements(
            request.element_addrs, request.elem_bytes, command.pattern.signed
        )
        stream.pending.append((cycle + SCRATCH_READ_LATENCY, words, port))
        self.sim.schedule(cycle + SCRATCH_READ_LATENCY, None)
        stream.advance_request()

    def _write_ready(self, stream: ActiveStream) -> bool:
        if stream.elements_left <= 0:
            return False
        source = stream.source_port
        return source.occupancy >= 1

    def _issue_write(self, stream: ActiveStream, cycle: int) -> None:
        command = stream.command
        assert isinstance(command, SDPortScratch)
        source = stream.source_port
        max_elems = self.sim.scratchpad.width_bytes // command.elem_bytes
        count = min(max_elems, source.occupancy, stream.elements_left)
        words = source.pop_words(count)
        done = command.num_elements - stream.elements_left
        addr = command.scratch_addr + done * command.elem_bytes
        data = b"".join(
            (w & ((1 << (8 * command.elem_bytes)) - 1)).to_bytes(
                command.elem_bytes, "little"
            )
            for w in words
        )
        self.sim.scratchpad.write(addr, data)
        stream.elements_left -= count
        if stream.elements_left == 0:
            stream.issued_all = True


# ---------------------------------------------------------------------------
# Recurrence / constant engine
# ---------------------------------------------------------------------------

class RecurrenceEngine(StreamEngineBase):
    name = "rse"

    def _make_stream(self, command: Command, trace: CommandTrace) -> ActiveStream:
        stream = ActiveStream(command, trace)
        if isinstance(command, (SDConstPort, SDCleanPort, SDPortPort)):
            stream.elements_left = command.num_elements
        else:
            raise TypeError(f"{self.name} cannot run {type(command).__name__}")
        return stream

    def tick(self, cycle: int) -> bool:
        if self.sim.faults is not None and self._fault_stalled(cycle):
            return False
        progressed = False
        for stream in list(self.streams):
            if stream.elements_left == 0:
                self._retire(stream, cycle)
                progressed = True

        ready = [s for s in self.streams if self._ready(s)]
        if not ready:
            return progressed
        chosen = self._rotate(ready)[0]
        self._issue(chosen, cycle)
        self._note_busy(cycle, chosen)
        return True

    @staticmethod
    def _ready(stream: ActiveStream) -> bool:
        """A word to move: SD_Const_Port has only a destination,
        SD_Clean_Port only a source, SD_Port_Port both."""
        if stream.elements_left <= 0:
            return False
        source = stream.source_port
        if source is not None and not source.fifo:
            return False
        dest = stream.dest_port
        return dest is None or dest.free_words >= 1

    def _issue(self, stream: ActiveStream, cycle: int) -> None:
        command = stream.command
        if isinstance(command, SDConstPort):
            dest = stream.dest_port
            count = min(WORDS_PER_CYCLE, dest.free_words, stream.elements_left)
            dest.push([command.value] * count, reserved=False)
        elif isinstance(command, SDCleanPort):
            source = stream.source_port
            count = min(WORDS_PER_CYCLE, source.occupancy, stream.elements_left)
            source.pop_words(count)
        else:
            assert isinstance(command, SDPortPort)
            source = stream.source_port
            dest = stream.dest_port
            count = min(
                WORDS_PER_CYCLE,
                source.occupancy,
                dest.free_words,
                stream.elements_left,
            )
            words = source.pop_words(count)
            dest.push(words, reserved=False)
        stream.elements_left -= count
