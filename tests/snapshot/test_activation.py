"""Activation snapshots roll back *everything* an activation mutated.

S1 of the snapshot PR: the watchdog's activation snapshot used to hold
only the virtual context and vCLINT shadows — firmware writes to its own
RAM region leaked straight through a restore, so a retried activation
started from memory the abandoned attempt had already scribbled on.

S2: trap statistics and tracer metrics recorded during the abandoned
activation used to survive the restore, so every retry double-counted
its traps.  Epoch marking rewinds them; recovery decisions and committed
fault injections are facts and survive.
"""

from repro.core.config import MiralisConfig
from repro.hart.stats import cause_name
from repro.spec.platform import VISIONFIVE2
from repro.system import build_virtualized
from repro.trace import Tracer

CAUSE = 8
CAUSE_NAME = cause_name(CAUSE, False)


def _system(tracer=None):
    system = build_virtualized(
        VISIONFIVE2,
        miralis_config=MiralisConfig(watchdog_enabled=True,
                                     offload_enabled=False),
    )
    if tracer is not None:
        system.machine.tracer = tracer
    return system


class TestRamRollback:
    def test_firmware_ram_writes_roll_back_on_restore(self):
        system = _system()
        machine = system.machine
        watchdog = system.miralis.watchdog
        hart = machine.harts[0]
        vctx = system.miralis.vctx[0]
        scratch = system.firmware.region.base + 0x8000

        machine.ram.write(scratch, 8, 0x1111_2222_3333_4444)
        snap = watchdog._activation_snapshot(hart, vctx)
        # The activation scribbles on firmware scratch memory, then fails.
        machine.ram.write(scratch, 8, 0xDEAD_BEEF_DEAD_BEEF)
        machine.ram.write(scratch + 0x1000, 8, 0x5555)  # a fresh page too
        watchdog._activation_restore(hart, vctx, snap)
        assert machine.ram.read(scratch, 8) == 0x1111_2222_3333_4444
        assert machine.ram.read(scratch + 0x1000, 8) == 0

    def test_non_firmware_ram_is_left_alone(self):
        system = _system()
        machine = system.machine
        watchdog = system.miralis.watchdog
        hart = machine.harts[0]
        vctx = system.miralis.vctx[0]
        kernel_addr = system.kernel.region.base + 0x8000

        snap = watchdog._activation_snapshot(hart, vctx)
        machine.ram.write(kernel_addr, 8, 0xABCD)
        watchdog._activation_restore(hart, vctx, snap)
        assert machine.ram.read(kernel_addr, 8) == 0xABCD

    def test_snapshot_pages_are_immune_to_later_writes(self):
        system = _system()
        machine = system.machine
        watchdog = system.miralis.watchdog
        hart = machine.harts[0]
        vctx = system.miralis.vctx[0]
        scratch = system.firmware.region.base + 0x8000

        machine.ram.write(scratch, 8, 0xAAAA)
        snap = watchdog._activation_snapshot(hart, vctx)
        # Two rounds of mutate+restore: the same snapshot must restore
        # the same bytes both times (copy-on-write, not aliasing).
        for garbage in (0xBBBB, 0xCCCC):
            machine.ram.write(scratch, 8, garbage)
            watchdog._activation_restore(hart, vctx, snap)
            assert machine.ram.read(scratch, 8) == 0xAAAA


class TestMetricsRewind:
    def _record_some_traps(self, machine, tracer, count=3):
        # Through the trap-event stream, which forwards to the tracer.
        stats = machine.stats
        for _ in range(count):
            stats.record_trap(hart=0, cause=CAUSE, is_interrupt=False,
                              from_mode=None, mtime=0)
            stats.annotate_last("miralis-emulate", hart=0)
            stats.trap_exit(0)

    def test_abandoned_activation_traps_are_not_double_counted(self):
        tracer = Tracer()
        system = _system(tracer)
        machine = system.machine
        watchdog = system.miralis.watchdog
        hart = machine.harts[0]
        vctx = system.miralis.vctx[0]

        self._record_some_traps(machine, tracer, count=2)
        baseline_traps = machine.stats.total_traps
        baseline_events = len(machine.stats.events)

        snap = watchdog._activation_snapshot(hart, vctx)
        self._record_some_traps(machine, tracer, count=5)
        watchdog._activation_restore(hart, vctx, snap)

        stats = machine.stats
        assert stats.total_traps == baseline_traps
        assert len(stats.events) == baseline_events
        assert stats.trap_counts[CAUSE_NAME] == baseline_traps
        assert tracer.trap_causes[CAUSE_NAME] == baseline_traps
        assert tracer.counts.get("trap-exit", 0) == baseline_traps
        histogram = tracer.metrics.trap_latency.get(CAUSE_NAME)
        assert histogram is not None and histogram.count == baseline_traps

    def test_fault_injections_and_watchdog_events_survive_rewind(self):
        tracer = Tracer()
        system = _system(tracer)
        machine = system.machine
        watchdog = system.miralis.watchdog
        hart = machine.harts[0]
        vctx = system.miralis.vctx[0]

        snap = watchdog._activation_snapshot(hart, vctx)
        self._record_some_traps(machine, tracer, count=3)
        # A committed injection and a watchdog transition during the
        # activation are decisions, not activation state.
        machine.stats.emit("fault-inject", 0, site="mmio", index=1, seed=9)
        machine.stats.note_recovery("recoveries", 0, "test")
        watchdog._activation_restore(hart, vctx, snap)

        kinds = [event.kind for event in tracer.events()]
        assert kinds.count("fault-inject") == 1
        assert kinds.count("watchdog") == 1
        assert "trap-entry" not in kinds[-2:]
        assert tracer.counts["fault-inject"] == 1
        assert tracer.counts["watchdog"] == 1
        # The sequence clock stays monotonic past the survivors.
        seqs = [event.seq for event in tracer.events()]
        assert seqs == sorted(seqs)
        assert tracer.total_events > (seqs[-1] if seqs else 0)

    def test_recovery_counts_are_never_rewound(self):
        system = _system()
        machine = system.machine
        watchdog = system.miralis.watchdog
        hart = machine.harts[0]
        vctx = system.miralis.vctx[0]

        snap = watchdog._activation_snapshot(hart, vctx)
        machine.stats.note_recovery("recoveries", 0, "test")
        machine.stats.note_recovery("retries", 0, "test", attempt=1)
        watchdog._activation_restore(hart, vctx, snap)
        assert machine.stats.recovery_counts["recoveries"] == 1
        assert machine.stats.recovery_counts["retries"] == 1
