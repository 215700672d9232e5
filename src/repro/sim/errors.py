"""Unified simulator exception hierarchy.

Every failure the cycle-level simulator can raise derives from
:class:`SimError`, which carries the context a post-mortem needs:

* ``program_name`` / ``cycle`` — where the failure happened (filled in by
  the failing :class:`~repro.sim.softbrain.SoftbrainSim` if the raise site
  did not know them);
* ``report`` — a structured :class:`repro.resilience.FailureReport` crash
  dump (wait-for graph, component snapshots, trace tail, injected faults),
  attached by the simulator's failure path;
* ``kind`` — a stable short tag (``"deadlock"``, ``"limit"``, ...) used by
  crash-dump files and the fault-campaign classifier.

The base derives from :class:`RuntimeError` so callers written against the
old ad-hoc exceptions keep working; :class:`ScratchpadError` additionally
keeps its historical :class:`ValueError` parentage.
"""

from __future__ import annotations

from typing import Dict, Optional


class SimError(RuntimeError):
    """Base of every simulator-raised failure."""

    #: stable machine-readable failure class (overridden per subclass)
    kind: str = "error"

    def __init__(
        self,
        message: str = "",
        *,
        program_name: Optional[str] = None,
        cycle: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.program_name = program_name
        self.cycle = cycle
        #: structured crash dump, attached by the simulator's failure path
        self.report = None  # type: Optional[object]


class SimulationDeadlock(SimError):
    """No component can progress and no events are pending."""

    kind = "deadlock"


class SimulationLimit(SimError):
    """The cycle budget was exhausted before the program finished."""

    kind = "limit"


class PortRuntimeError(SimError):
    """FIFO protocol violation (overflow/underflow) — a simulator bug."""

    kind = "port-protocol"


class ScratchpadError(SimError, ValueError):
    """Out-of-range scratchpad access (the address space is private)."""

    kind = "scratch-bounds"


class ConfigError(SimError):
    """A CGRA configuration load failed (missing image, wrong fabric), or
    a machine parameter is illegal (raised at construction)."""

    kind = "config"


def check_lower_bounds(params: object, bounds: Dict[str, int]) -> None:
    """Raise :class:`ConfigError` for the first field of ``params`` that is
    below its bound in ``bounds`` (field name -> least legal value)."""
    for name, least in bounds.items():
        value = getattr(params, name)
        if value < least:
            raise ConfigError(
                f"{type(params).__name__}.{name} must be >= {least}, "
                f"got {value!r}"
            )


class StreamTableError(SimError):
    """A stream engine was handed a command without a free table entry."""

    kind = "stream-table"


class MemoryProtocolError(SimError):
    """The memory interface was over-subscribed within one cycle."""

    kind = "mem-protocol"


class IllegalCommandError(SimError):
    """A command word failed to decode or referenced unknown resources."""

    kind = "illegal-command"
