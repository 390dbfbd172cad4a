"""Trap and world-switch statistics collected by the machine.

These counters drive most of the paper's evaluation: Figure 3 (trap-cause
distribution over time), the world-switch frequencies quoted in §8.3, and
the per-benchmark trap rates of Figures 10-13.
"""

from __future__ import annotations

import dataclasses
import functools
from collections import Counter, defaultdict
from typing import Optional

from repro.isa import constants as c


@dataclasses.dataclass
class TrapEvent:
    """One recorded trap."""

    hart: int
    cause: int
    is_interrupt: bool
    from_mode: Optional[c.PrivilegeLevel]
    mtime: int
    handler: str = "unclassified"
    detail: str = ""


@functools.cache
def cause_name(cause: int, is_interrupt: bool) -> str:
    # Memoized: every recorded trap names its cause, and building the
    # enum member for that is the costly part.
    if is_interrupt:
        try:
            return f"irq:{c.InterruptCause(cause).name}"
        except ValueError:
            return f"irq:{cause}"
    try:
        return c.TrapCause(cause).name
    except ValueError:
        return f"exception:{cause}"


class TrapStats:
    """The trap-event stream: aggregate counters, the event log, and the
    observers those events are forwarded to.

    Monitor code reports every event here, once: each method updates the
    counters it owns and forwards the event to the attached
    :class:`~repro.trace.Tracer` and :class:`~repro.coverage.CoverageMap`
    (``tracer``/``coverage``, attached through ``machine.tracer`` and
    ``machine.coverage``).  With neither attached an event costs its
    counter update plus one branch per observer.  The stream also owns
    the epoch (mark and rewind) for itself and the tracer, so a watchdog
    retry or a checkpoint restore rolls back every record of the
    abandoned execution in one call.
    """

    #: The counters an epoch marks and a rewind puts back, each with the
    #: type that copies (and, called bare, zeroes) it.  Listed once:
    #: epochs, checkpoints and :meth:`reset` all go through this table.
    _COUNTERS = {
        "trap_counts": Counter,       # per cause name (Figure 3)
        "handler_counts": Counter,    # per final handler, see annotate_last
        "world_switches": int,
        "firmware_emulations": int,
        "fastpath_hits": int,
        "total_traps": int,
    }

    #: Trace state of each recovery kind (see :meth:`note_recovery`).
    _RECOVERY_STATES = {"recoveries": "recover", "retries": "retry",
                        "quarantines": "quarantine"}

    def __init__(self, keep_events: bool = True, machine=None):
        self.keep_events = keep_events
        #: The machine whose events these are; observers stamp events
        #: with its clock.  None for a detached stream, which has no
        #: observers.
        self.machine = machine
        self.tracer = None
        self.coverage = None
        self.events: list[TrapEvent] = []
        # Besides the _COUNTERS, reset() creates ``recovery_counts``:
        # recovery decisions (recoveries/retries/quarantines), counted
        # explicitly because ``annotate_last`` moves counts when a trap
        # is re-annotated, so handler counts cannot double as recovery
        # counts (several recoveries may share one trap event); and
        # ``recovery_counts_by_hart``, the per-hart view that always sums
        # to it.  Neither is rewound by an epoch.
        self.reset()

    # -- events ------------------------------------------------------------

    def record_trap(self, hart, cause, is_interrupt, from_mode, mtime) -> TrapEvent:
        """A hart took a trap: count and log it, open the tracer's
        latency span, and fold it into the coverage map."""
        event = TrapEvent(hart, cause, is_interrupt, from_mode, mtime)
        self.total_traps += 1
        self.trap_counts[cause_name(cause, is_interrupt)] += 1
        if self.keep_events:
            self.events.append(event)
        self._last = event
        self._last_by_hart[hart] = event
        tracer = self.tracer
        if tracer is not None:
            tracer.trap_entry(self.machine, hart, cause, is_interrupt)
        coverage = self.coverage
        if coverage is not None:
            machine = self.machine
            view = machine.world_view
            coverage.record(hart, cause, is_interrupt,
                            machine.harts[hart].state.pc,
                            None if view is None else view[hart])
        return event

    def trap_exit(self, hart: int) -> None:
        """The monitor finished this hart's trap: close the tracer's span
        under the handler the trap was finally annotated with."""
        tracer = self.tracer
        if tracer is not None:
            event = self._last_by_hart.get(hart)
            tracer.trap_exit(self.machine, hart,
                             "unclassified" if event is None else event.handler)

    def pin_injected(self, hart: int) -> None:
        """Mark this hart's most recent trap as the one delivered to the
        virtual firmware.  Emulating the firmware's handler raises further
        traps on the same hart (every privileged instruction faults into
        the monitor), so by the time the handler classifies its trap, the
        hart's *last* event is one of those emulation traps — the handler
        must annotate the pinned injection instead."""
        event = self._last_by_hart.get(hart)
        if event is not None:
            self._injected_by_hart[hart] = event

    def annotate_last(self, handler: str, detail: str = "",
                      hart: Optional[int] = None,
                      injected: bool = False) -> None:
        """Record which subsystem handled the most recent trap.

        Each trap is counted under exactly one handler: re-annotating (a
        trap escalated from one subsystem to another, e.g. a fast-path
        miss turning into a world switch) moves the count to the final
        handler.  Without a recorded trap this is a no-op, keeping
        ``sum(handler_counts.values()) <= total_traps`` invariant.

        Pass ``hart`` to annotate that hart's most recent trap.  Firmware
        trap handling spans scheduler slices under SMP, so by the time
        the handler annotates, another hart may have recorded its own
        trap — the machine-global last event would then be the wrong one.

        ``injected=True`` (guest trap handlers) targets the trap the
        monitor delivered to this hart's virtual firmware — see
        ``pin_injected``.  Natively nothing ever pins, and the call falls
        back to the hart's last trap, which *is* the trap being served.
        """
        if hart is None:
            event = self._last
        elif injected and hart in self._injected_by_hart:
            event = self._injected_by_hart[hart]
        else:
            event = self._last_by_hart.get(hart)
        if event is None:
            return
        if event.handler != "unclassified":
            previous = event.handler
            self.handler_counts[previous] -= 1
            if self.handler_counts[previous] <= 0:
                del self.handler_counts[previous]
        self.handler_counts[handler] += 1
        event.handler = handler
        if detail:
            event.detail = detail

    def note_world_switch(self, hart: int, **args) -> None:
        self.world_switches += 1
        self.emit("world-switch", hart, **args)

    def note_firmware_emulation(self, hart: int, what: str) -> None:
        self.firmware_emulations += 1
        self.emit("fw-emulate", hart, what=what)

    def note_fastpath(self, hart: int, name: str) -> None:
        self.fastpath_hits += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.fastpath(self.machine, hart, name)

    def note_recovery(self, kind: str, hart: int, reason: str,
                      **args) -> None:
        """Count one watchdog recovery decision (first-class, not moved)
        and trace it; a quarantine also snapshots the tracer's flight
        recorder."""
        self.recovery_counts[kind] += 1
        self.recovery_counts_by_hart[hart][kind] += 1
        self.emit("watchdog", hart, state=self._RECOVERY_STATES[kind],
                  reason=reason, **args)
        if kind == "quarantines" and self.tracer is not None:
            self.tracer.note_quarantine(reason)

    def emit(self, kind: str, hart: int, **args) -> None:
        """Forward one event to the tracer.  Monitor code calls this for
        the kinds no counter tracks (vCLINT and vPMP activity, policy
        violations, fault injections)."""
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(self.machine, kind, hart, **args)

    # -- epochs (watchdog restore / checkpoint rewind) --------------------

    def _counters(self) -> dict:
        return {name: kind(getattr(self, name))
                for name, kind in self._COUNTERS.items()}

    def _set_counters(self, saved: dict) -> None:
        for name, kind in self._COUNTERS.items():
            setattr(self, name, kind(saved[name]))

    def mark_epoch(self) -> dict:
        """Freeze the stream and the tracer at a restore point.

        The watchdog marks an epoch when it arms an activation; if the
        activation fails and its architectural state is rolled back,
        :meth:`rewind_to_epoch` rolls the *records* back too — otherwise
        every retried activation double-counts its traps and the reported
        histograms describe executions that were abandoned.
        """
        tracer = self.tracer
        return {
            "events_len": len(self.events),
            "counters": self._counters(),
            # The last-trap pointers travel with the epoch: rebuilding
            # them from ``events`` fails when events are not kept.
            "last": self._last,
            "last_by_hart": dict(self._last_by_hart),
            "trace": None if tracer is None else tracer.mark_epoch(),
        }

    def rewind_to_epoch(self, epoch: dict) -> None:
        """Truncate events and restore counters to a marked epoch, and
        rewind the tracer to the same point.

        ``recovery_counts`` is deliberately *not* rewound: recovery
        decisions are facts about the run (they happened, and they are
        counted before the rollback), not state of the abandoned
        activation.  The injection pins are cleared: a retry re-pins.
        """
        del self.events[epoch["events_len"]:]
        self._set_counters(epoch["counters"])
        self._last = epoch["last"]
        self._last_by_hart = dict(epoch["last_by_hart"])
        self._injected_by_hart = {}
        self._rewind_tracer(epoch["trace"])

    def _rewind_tracer(self, trace_epoch: Optional[dict]) -> None:
        tracer = self.tracer
        if tracer is not None and trace_epoch is not None:
            tracer.rewind_to_epoch(trace_epoch)

    def save(self) -> tuple[dict, Optional[dict]]:
        """A full copy for a machine checkpoint: ``(state, trace epoch)``.

        Unlike an epoch, the state holds copies of the events themselves
        and the recovery counts, since a checkpoint may be restored into
        another machine.
        """
        tracer = self.tracer
        state = {
            "events": [dataclasses.replace(event) for event in self.events],
            **self._counters(),
            "recovery_counts": Counter(self.recovery_counts),
            "recovery_counts_by_hart": {
                hart: Counter(counts)
                for hart, counts in self.recovery_counts_by_hart.items()
            },
        }
        return state, None if tracer is None else tracer.mark_epoch()

    def restore(self, state: dict, trace_epoch: Optional[dict] = None) -> None:
        """Install a state from :meth:`save` and rewind the tracer."""
        self.events[:] = [dataclasses.replace(event)
                          for event in state["events"]]
        self._set_counters(state)
        # Unlike the watchdog's epoch rewind, a full checkpoint restore
        # *does* reset recovery counts: the restored machine is the
        # machine as it was, recoveries included — a warm-started cell
        # must not inherit another cell's decisions.
        self.recovery_counts = Counter(state["recovery_counts"])
        self.recovery_counts_by_hart = defaultdict(Counter, {
            hart: Counter(counts)
            for hart, counts in state["recovery_counts_by_hart"].items()
        })
        self._last = self.events[-1] if self.events else None
        self._last_by_hart = {event.hart: event for event in self.events}
        self._injected_by_hart = {}
        self._rewind_tracer(trace_epoch)

    def reset(self) -> None:
        """Zero every counter and drop the event log (the observers stay
        attached and untouched)."""
        self.restore({
            "events": [],
            **{name: kind() for name, kind in self._COUNTERS.items()},
            "recovery_counts": {},
            "recovery_counts_by_hart": {},
        })

    # -- analysis helpers ------------------------------------------------

    def events_by_window(self, window_mtime: int) -> dict[int, Counter]:
        """Bucket event causes into fixed-duration windows (Figure 3).

        Returns a sparse mapping from window index (``mtime //
        window_mtime``) to a Counter of cause names; windows with no
        events are absent.  A dense list would allocate one bucket per
        elapsed window, which for a small window on a long run means
        millions of empty Counters.
        """
        buckets: dict[int, Counter] = {}
        for event in self.events:
            bucket = buckets.setdefault(event.mtime // window_mtime, Counter())
            bucket[cause_name(event.cause, event.is_interrupt)] += 1
        return buckets

    def detail_counts(self) -> Counter:
        """Counts by handler detail string (e.g. SBI call names)."""
        counts: Counter[str] = Counter()
        for event in self.events:
            if event.detail:
                counts[event.detail] += 1
        return counts
