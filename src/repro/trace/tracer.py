"""The event recorder: a bounded ring buffer of typed monitor events.

The monitor never calls a tracer directly: it reports each event once to
the trap-event stream (:class:`~repro.hart.stats.TrapStats`), which
updates its counters and forwards the event here when a tracer is
attached (``machine.tracer``)::

    self.machine.stats.note_world_switch(hartid, direction=...)

so a disabled tracer (the default) costs the stream one branch per
event — the same budget as the ``perf.toggle`` cache switch.  The stream
also marks and rewinds this tracer's epoch together with its own.

An *enabled* tracer has its own budget (<10% of steps/sec, checked by
the hot-path benchmark), so the recording path does the minimum work per
event: the ring holds plain tuples and :class:`TraceEvent` objects are
materialized lazily by :meth:`Tracer.events`; trap cause names are
memoized instead of re-deriving the enum name on every trap; and trap
latencies are buffered and folded into the metrics registry in batches
(flushed transparently when :attr:`metrics` is read).

The ring is bounded (old events are dropped, counted in :attr:`dropped`)
but the per-kind and per-cause counters are cumulative, so aggregate
numbers stay exact even after the buffer wraps on a long run.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Optional

from repro.hart.cycles import cycles_to_mtime
from repro.hart.stats import cause_name
from repro.trace.metrics import MetricsRegistry

#: The event kinds the monitor emits, one per instrumented subsystem.
KINDS = (
    "trap-entry",    # hart took a trap (cause, interrupt flag)
    "trap-exit",     # monitor finished handling it (handler, latency)
    "world-switch",  # vM-mode <-> OS transition (direction)
    "fw-emulate",    # one firmware-emulation step (mnemonic)
    "fastpath",      # offload hit (which of the five hot causes)
    "vpmp",          # vPMP reprogramming (world, physical writes)
    "vclint",        # virtual CLINT activity (timer/IPI register ops)
    "violation",     # policy violation (message)
    "fault-inject",  # committed fault injection (site, index, seed)
    "watchdog",      # watchdog state transition (detect/retry/quarantine)
)

#: Default ring capacity.  Sized so a full boot (a few thousand events)
#: never wraps — required for the event-counts == trap-counters check —
#: while bounding memory on chaos campaigns.
DEFAULT_CAPACITY = 65536

#: Events preserved by a quarantine dump (the "flight recorder" tail).
QUARANTINE_TAIL = 64


class TraceEvent:
    """One recorded event: kind + stamps + kind-specific args."""

    __slots__ = ("seq", "kind", "hart", "mtime", "instret", "args")

    def __init__(self, seq: int, kind: str, hart: int, mtime: int,
                 instret: int, args: dict):
        self.seq = seq
        self.kind = kind
        self.hart = hart
        self.mtime = mtime
        self.instret = instret
        self.args = args

    def to_tuple(self) -> tuple:
        """A plain, comparable form (for dumps and determinism checks)."""
        return (self.seq, self.kind, self.hart, self.mtime, self.instret,
                tuple(sorted(self.args.items())))

    def __repr__(self) -> str:
        detail = " ".join(f"{k}={v}" for k, v in self.args.items())
        return (f"<TraceEvent #{self.seq} {self.kind} h{self.hart} "
                f"@{self.mtime} {detail}>")


class Tracer:
    """Bounded event recorder plus the metrics fed by trap pairing."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.capacity = capacity
        #: Raw records ``(seq, kind, hart, mtime, instret, args)``; use
        #: :meth:`events` for the materialized :class:`TraceEvent` view.
        self.ring: deque[tuple] = deque(maxlen=capacity)
        self._ring_append = self.ring.append
        # Per-kind counters.  The three kinds on the per-trap path get
        # scalar counters (or are derived: trap-entry == sum of causes);
        # everything else shares one Counter.  Merged by :attr:`counts`.
        self._counts: Counter[str] = Counter()
        self._n_exit = 0
        self._n_fastpath = 0
        # Per-cause trap counts fold in batches: list.append per trap,
        # one C-speed Counter.update at read time.
        self._causes: Counter[str] = Counter()
        self._pending_causes: list[str] = []
        self._metrics = MetricsRegistry()
        # (handler, cause, latency) observations awaiting a batched fold
        # into the registry; bounded by _FLUSH_THRESHOLD.
        self._pending_metrics: list[tuple[str, str, float]] = []
        #: Last-N snapshots taken when the watchdog quarantines firmware,
        #: as ``(reason, events)`` pairs.
        self.quarantine_dumps: list[tuple[str, tuple[TraceEvent, ...]]] = []
        self._seq = 0
        # Per-hart open trap: (cause name, machine.cycles at entry).
        self._open: dict[int, tuple[str, float]] = {}
        # (cause << 1 | is_interrupt) -> name; enum-name derivation (and
        # even a tuple key) is too slow for the per-trap path.
        self._names: dict[int, str] = {}
        # Clock frequency of the traced machine, captured on first emit:
        # events are stamped with the cheap ``machine.cycles`` attribute
        # and converted to mtime lazily when materialized.  A tracer
        # therefore records one machine (one run), which every user —
        # CLI, chaos harness, benchmark — already guarantees.
        self._hz: Optional[int] = None

    _FLUSH_THRESHOLD = 4096

    # -- recording -----------------------------------------------------

    def emit(self, machine, kind: str, hart: int, **args) -> None:
        """Record one event, stamped with mtime and retired instructions."""
        if self._hz is None:
            self._hz = machine.config.frequency_hz
        seq = self._seq
        self._seq = seq + 1
        self._ring_append((seq, kind, hart, machine.cycles,
                           machine.harts[hart].instret, args))
        self._counts[kind] += 1

    def trap_entry(self, machine, hartid: int, cause: int,
                   is_interrupt: bool) -> None:
        """A hart took a trap; opens the latency span for this hart."""
        if self._hz is None:
            self._hz = machine.config.frequency_hz
        key = cause << 1 | is_interrupt
        name = self._names.get(key)
        if name is None:
            name = cause_name(cause, is_interrupt)
            self._names[key] = name
        self._pending_causes.append(name)
        cycles = machine.cycles
        self._open[hartid] = (name, cycles)
        seq = self._seq
        self._seq = seq + 1
        # Payload is a plain tuple; the args dict is built lazily on
        # materialization (a dict per trap is measurable on this path).
        self._ring_append((seq, "trap-entry", hartid, cycles,
                           machine.harts[hartid].instret,
                           (name, is_interrupt)))

    def trap_exit(self, machine, hartid: int, handler: str) -> None:
        """The monitor finished a trap; closes the span and feeds metrics."""
        cycles = machine.cycles
        opened = self._open.pop(hartid, None)
        if opened is None:
            payload: tuple = (handler,)
        else:
            name, entry_cycles = opened
            payload = (handler, name, cycles - entry_cycles)
            pending = self._pending_metrics
            pending.append(payload)
            if len(pending) >= self._FLUSH_THRESHOLD:
                self._flush_metrics()
        seq = self._seq
        self._seq = seq + 1
        self._ring_append((seq, "trap-exit", hartid, cycles,
                           machine.harts[hartid].instret, payload))
        self._n_exit += 1

    def fastpath(self, machine, hartid: int, name: str) -> None:
        """An offload hit — frequent enough to warrant its own lean path."""
        seq = self._seq
        self._seq = seq + 1
        self._ring_append((seq, "fastpath", hartid, machine.cycles,
                           machine.harts[hartid].instret, (name,)))
        self._n_fastpath += 1

    # -- inspection ----------------------------------------------------

    @property
    def counts(self) -> Counter:
        """Cumulative events per kind (exact even after the ring wraps)."""
        merged = Counter(self._counts)
        entries = sum(self.trap_causes.values())
        if entries:
            merged["trap-entry"] = entries
        if self._n_exit:
            merged["trap-exit"] = self._n_exit
        if self._n_fastpath:
            merged["fastpath"] = self._n_fastpath
        return merged

    @property
    def trap_causes(self) -> Counter:
        """Cumulative trap-entry events per cause name; by construction
        equal to ``TrapStats.trap_counts`` for the same run."""
        pending = self._pending_causes
        if pending:
            self._causes.update(pending)
            pending.clear()
        return self._causes

    def _flush_metrics(self) -> None:
        pending = self._pending_metrics
        if pending:
            observe = self._metrics.observe_trap
            for handler, cause, latency in pending:
                observe(cause, handler, latency)
            pending.clear()

    @property
    def metrics(self) -> MetricsRegistry:
        """The metrics registry, with buffered observations folded in."""
        self._flush_metrics()
        return self._metrics

    @property
    def total_events(self) -> int:
        """Events ever emitted (recorded + dropped)."""
        return self._seq

    @property
    def dropped(self) -> int:
        """Events the bounded ring has discarded."""
        return self._seq - len(self.ring)

    @staticmethod
    def _payload_args(kind: str, payload) -> dict:
        if type(payload) is dict:
            return payload
        if kind == "trap-entry":
            return {"cause": payload[0], "interrupt": payload[1]}
        if kind == "fastpath":
            return {"name": payload[0]}
        if len(payload) == 1:  # trap-exit with no matching entry
            return {"handler": payload[0]}
        return {"handler": payload[0], "cause": payload[1],
                "cycles": payload[2]}

    def _materialize(self, records) -> list[TraceEvent]:
        hz = self._hz or 1
        payload_args = self._payload_args
        return [
            TraceEvent(seq, kind, hart, cycles_to_mtime(cycles, hz),
                       instret, payload_args(kind, payload))
            for seq, kind, hart, cycles, instret, payload in records
        ]

    def events(self) -> list[TraceEvent]:
        return self._materialize(self.ring)

    def tail(self, n: int) -> list[TraceEvent]:
        if n <= 0:
            return []
        ring = self.ring
        start = len(ring) - n if len(ring) > n else 0
        return self._materialize(list(ring)[start:])

    def tail_tuples(self, n: int) -> list[tuple]:
        """The last ``n`` events as plain JSON-stable tuples.

        The flight-recorder form embedded in repro bundles
        (:mod:`repro.triage`): each entry is ``(seq, kind, hart, mtime,
        instret, ((arg, value), ...))`` — comparable, sorted-arg, and
        serializable without the :class:`TraceEvent` wrapper.
        """
        return [event.to_tuple() for event in self.tail(n)]

    def note_quarantine(self, reason: str,
                        tail: Optional[int] = None) -> None:
        """Snapshot the last-N events leading up to a quarantine."""
        count = QUARANTINE_TAIL if tail is None else tail
        self.quarantine_dumps.append((reason, tuple(self.tail(count))))

    # -- epochs (watchdog restore / checkpoint rewind) --------------------

    def mark_epoch(self) -> dict:
        """Freeze the flight recorder and histograms at a restore point.

        Called by the trap-event stream's own epoch mark (a watchdog
        activation or a checkpoint): when an activation's architectural
        state is rolled back, the stream rewinds this tracer with itself,
        so its trace events and latency observations are rolled back
        too, keeping ``trap_causes`` equal to ``TrapStats.trap_counts``.
        """
        _ = self.trap_causes      # fold pending causes
        self._flush_metrics()     # fold pending latency observations
        return {
            "seq": self._seq,
            "counts": dict(self._counts),
            "n_exit": self._n_exit,
            "n_fastpath": self._n_fastpath,
            "causes": dict(self._causes),
            "metrics": self._metrics.mark_epoch(),
            "open": dict(self._open),
        }

    #: Event kinds that survive an epoch rewind: these record *decisions*
    #: whose own counters are never rolled back (the injector's committed
    #: injections, the watchdog's recover/retry/quarantine transitions,
    #: policy violations).  Dropping them would desynchronize the trace
    #: from those counters; everything else — trap entries/exits,
    #: world switches, emulation steps — is state of the abandoned
    #: activation and is rewound.
    PRESERVED_KINDS = frozenset({"fault-inject", "watchdog", "violation"})

    def rewind_to_epoch(self, epoch: dict) -> None:
        """Drop events and observations recorded after a marked epoch.

        ``quarantine_dumps`` is deliberately untouched: like recovery
        counts, a quarantine record is a fact about the run, not state of
        the abandoned activation.
        """
        seq = epoch["seq"]
        if self._seq < seq:
            # Marked on a timeline that a rewind to an older epoch has
            # already dropped: nothing recorded since belongs to it.
            return
        ring = self.ring
        kept: list[tuple] = []
        while ring and ring[-1][0] >= seq:
            record = ring.pop()
            if record[1] in self.PRESERVED_KINDS:
                kept.append(record)
        kept.reverse()
        self._counts = Counter(epoch["counts"])
        for record in kept:
            ring.append(record)
            self._counts[record[1]] += 1
        # Preserved events keep their sequence numbers, so the clock only
        # rewinds to just past the last survivor (seq stays monotonic).
        self._seq = kept[-1][0] + 1 if kept else seq
        self._n_exit = epoch["n_exit"]
        self._n_fastpath = epoch["n_fastpath"]
        self._pending_causes.clear()
        self._causes = Counter(epoch["causes"])
        self._pending_metrics.clear()
        self._metrics.rewind_to_epoch(epoch["metrics"])
        self._open = dict(epoch["open"])
