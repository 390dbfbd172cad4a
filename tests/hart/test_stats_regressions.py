"""Regression tests for TrapStats accounting (Figure 3 data quality)."""

from repro.hart.stats import TrapStats
from repro.policy import FirmwareSandboxPolicy
from repro.spec.platform import VISIONFIVE2
from repro.system import build_virtualized


def _record(stats, mtime):
    return stats.record_trap(
        hart=0, cause=5, is_interrupt=True, from_mode=None, mtime=mtime
    )


class TestEventsByWindow:
    def test_sparse_for_large_mtime(self):
        """A single late event with window=1 must not allocate one bucket
        per elapsed tick (the seeded dense-allocation bug)."""
        stats = TrapStats()
        _record(stats, 1_000_000)
        windows = stats.events_by_window(1)
        assert len(windows) == 1
        assert sum(windows[1_000_000].values()) == 1

    def test_window_indices_are_sparse_keys(self):
        stats = TrapStats()
        _record(stats, 3)
        _record(stats, 7)
        _record(stats, 95)
        windows = stats.events_by_window(10)
        assert sorted(windows) == [0, 9]
        assert sum(windows[0].values()) == 2
        assert sum(windows[9].values()) == 1

    def test_empty(self):
        assert TrapStats().events_by_window(10) == {}


class TestAnnotateLast:
    def test_annotate_without_trap_is_a_noop(self):
        stats = TrapStats()
        stats.annotate_last("firmware")
        assert sum(stats.handler_counts.values()) == 0
        assert stats.total_traps == 0

    def test_reannotation_counts_each_trap_once(self):
        """A trap reclassified by a later handler (interrupt forwarded into
        a world switch) must count once, under its final handler."""
        stats = TrapStats()
        _record(stats, 10)
        stats.annotate_last("miralis")
        stats.annotate_last("miralis-worldswitch")
        assert sum(stats.handler_counts.values()) == 1
        assert stats.handler_counts["miralis-worldswitch"] == 1

    def test_invariant_through_sandbox_boot(self):
        def workload(kernel, ctx):
            kernel.read_time(ctx)
            ctx.compute(5_000)
            kernel.sbi_send_ipi(ctx, 0b1, 0)
            kernel.print(ctx, "done\n")

        system = build_virtualized(
            VISIONFIVE2,
            workload=workload,
            policy=FirmwareSandboxPolicy(
                extra_allowed_regions=[(VISIONFIVE2.uart_base, 0x100)]
            ),
        )
        system.run()
        stats = system.machine.stats
        assert stats.total_traps > 0
        assert sum(stats.handler_counts.values()) <= stats.total_traps


class TestEventsOffEpochs:
    """A rewind used to rebuild the last-trap pointers from ``events``,
    which is empty when events are not kept, so the watchdog's
    post-restore ``annotate_last`` did nothing and ``handler_counts``
    depended on ``keep_trap_events``."""

    def test_rewind_keeps_last_trap_without_events(self):
        stats = TrapStats(keep_events=False)
        _record(stats, 1)
        epoch = stats.mark_epoch()
        _record(stats, 2)
        stats.rewind_to_epoch(epoch)
        stats.annotate_last("miralis-recovery", hart=0)
        assert stats.handler_counts == {"miralis-recovery": 1}

    def _stall_loop_cell(self, monkeypatch, keep_events):
        from repro.faults import chaos

        build = chaos._build_sbi_system
        built = {}

        def build_with_events(*args, **kwargs):
            system, checkpoint = build(*args, **kwargs)
            system.machine.stats.keep_events = keep_events
            built["stats"] = system.machine.stats
            return system, checkpoint

        monkeypatch.setattr(chaos, "_build_sbi_system", build_with_events)
        result = chaos.run_chaos("opensbi", plan="stall-loop", seed=0)
        return result, built["stats"]

    def test_retrying_chaos_cell_counts_match(self, monkeypatch):
        kept, kept_stats = self._stall_loop_cell(monkeypatch, True)
        dropped, dropped_stats = self._stall_loop_cell(monkeypatch, False)
        assert kept.recoveries.get("retries", 0) > 0  # the cell retries
        assert kept_stats.events and not dropped_stats.events
        assert dropped_stats.handler_counts == kept_stats.handler_counts
        assert dropped_stats.trap_counts == kept_stats.trap_counts
