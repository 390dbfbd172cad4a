"""Firmware watchdog: detect and survive a failing vM-mode firmware.

The monitor's promise (§5) is that the machine keeps running even when
the firmware it hosts is buggy or hostile.  The watchdog supplies the
*recovery* half of that promise:

* **Detection** — each firmware *activation* (boot, or handling one
  injected trap) runs under a trap budget, a nested-injection depth
  limit, a same-fault repeat limit, and a violation quota.  Firmware
  panics, trap vectors pointing into unmapped memory, and hopeless WFIs
  are reported by the monitor directly.
* **Retry** — the :class:`~repro.core.vcpu.VirtContext` is snapshotted
  at the start of every activation; on failure it is restored and the
  activation retried with bounded exponential backoff (charged as host
  cycles).
* **Quarantine** — after ``max_firmware_retries`` consecutive failures
  the firmware is quarantined: Miralis stops entering vM-mode and serves
  default SBI responses itself so the OS can keep running (or shut down
  cleanly).

Recovery transfers control by raising
:class:`~repro.hart.program.FirmwareRecovered`, which abandons the
Python frames of the wedged firmware instruction stream — the software
analogue of resetting the vM-mode context.  Every decision is counted in
:attr:`counters` (surfaced via ``perf``) and annotated in the trap log.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from repro.hart.program import FirmwareRecovered, MachineHalted
from repro.isa import constants as c


class FirmwareWatchdog:
    """Per-hart failure detection and graceful recovery for vM-mode."""

    def __init__(self, miralis, config):
        self.miralis = miralis
        self.machine = miralis.machine
        self.config = config
        num_harts = self.machine.config.num_harts
        self.quarantined = [False] * num_harts
        self.consecutive_failures = [0] * num_harts
        #: Whether the hart ever completed a firmware→OS switch; decides
        #: whether quarantine can fall back to the OS or must halt.
        self.os_entered = [False] * num_harts
        #: Aggregate decision counts (kept for dashboards/back-compat)
        #: plus the per-hart views: a secondary hart's fault loop must
        #: not be indistinguishable from a hart-0 failure.  Every
        #: increment goes through :meth:`_count`, so the per-hart lists
        #: always sum to the aggregate.
        self.counters: Counter[str] = Counter()
        self.hart_counters: list[Counter[str]] = [
            Counter() for _ in range(num_harts)
        ]
        self.events: list[tuple[int, str, str]] = []
        #: One structured record per quarantine decision — the raw
        #: material for repro bundles (see :mod:`repro.triage`).  Each
        #: record carries the hart, the reason, what activation was
        #: abandoned, and a short trap-log tail so the bundle preserves
        #: the flight-recorder window even without a tracer attached.
        self.quarantine_records: list[dict] = []
        # Per-activation state.
        self._vm_traps = [0] * num_harts
        self._inject_depth = [0] * num_harts
        self._last_fault_tval: list[Optional[int]] = [None] * num_harts
        self._fault_repeats = [0] * num_harts
        self._violations = [0] * num_harts
        self._snapshots: list[Optional[dict]] = [None] * num_harts
        # ("boot",) or ("trap", code, is_interrupt, mtval, mepc, os_mode).
        self._pending: list[Optional[tuple]] = [None] * num_harts

    def _count(self, hartid: int, name: str) -> None:
        """Count one watchdog decision, keyed by hart and in aggregate."""
        self.counters[name] += 1
        self.hart_counters[hartid][name] += 1

    # ------------------------------------------------------------------
    # Activation lifecycle
    # ------------------------------------------------------------------

    def _reset_activation(self, hartid: int) -> None:
        self._vm_traps[hartid] = 0
        self._inject_depth[hartid] = 0
        self._last_fault_tval[hartid] = None
        self._fault_repeats[hartid] = 0
        self._violations[hartid] = 0

    def _activation_snapshot(self, hart, vctx) -> dict:
        """Everything a retry (or replay) must restore: the full virtual
        context, this hart's virtual-CLINT shadows, the firmware region's
        RAM pages (copy-on-write), and the trap-event stream's epoch — see
        :mod:`repro.snapshot.activation` for the full contract."""
        from repro.snapshot.activation import capture_activation

        return capture_activation(self, hart, vctx)

    def _activation_restore(self, hart, vctx, snap: dict) -> None:
        from repro.snapshot.activation import restore_activation

        restore_activation(self, hart, vctx, snap)

    def arm_boot(self, hart, vctx) -> None:
        """A firmware boot activation begins (cold boot or retry)."""
        self._snapshots[hart.hartid] = self._activation_snapshot(hart, vctx)
        self._pending[hart.hartid] = ("boot",)
        self._reset_activation(hart.hartid)

    def arm_trap(self, hart, vctx, code, is_interrupt, mtval, mepc) -> None:
        """A trap-handling activation begins (post world switch, pre inject).

        The snapshot is taken *after* ``enter_firmware`` loaded the OS's
        supervisor state into ``vctx``, so restoring it reproduces the
        exact state a retry (or a quarantine fallback to the OS) needs.
        """
        from repro.isa.bits import get_field

        mpp = get_field(hart.state.csr.mstatus, c.MSTATUS_MPP)
        os_mode = c.PrivilegeLevel(mpp if mpp != 3 else 1)
        self._snapshots[hart.hartid] = self._activation_snapshot(hart, vctx)
        self._pending[hart.hartid] = (
            "trap", code, is_interrupt, mtval, mepc, os_mode
        )
        self._reset_activation(hart.hartid)

    def note_enter_os(self, hart) -> None:
        """The firmware completed its activation and switched to the OS."""
        hartid = hart.hartid
        self.os_entered[hartid] = True
        self.consecutive_failures[hartid] = 0
        self._snapshots[hartid] = None
        self._pending[hartid] = None
        self._reset_activation(hartid)

    # ------------------------------------------------------------------
    # Detectors (each may raise FirmwareRecovered / MachineHalted)
    # ------------------------------------------------------------------

    def note_vm_trap(self, hart, vctx) -> None:
        hartid = hart.hartid
        self._vm_traps[hartid] += 1
        if self._vm_traps[hartid] > self.config.vm_trap_budget:
            self._count(hartid, "detect:trap-budget")
            self.recover(hart, vctx, "vM-mode trap budget exhausted")

    def note_injection(self, hart, vctx) -> None:
        hartid = hart.hartid
        self._inject_depth[hartid] += 1
        if self._inject_depth[hartid] > self.config.max_nested_traps:
            self._count(hartid, "detect:double-trap")
            self.recover(hart, vctx, "virtual double-trap cascade")

    def note_virtual_xret(self, hart) -> None:
        hartid = hart.hartid
        if self._inject_depth[hartid] > 0:
            self._inject_depth[hartid] -= 1

    def note_memory_fault(self, hart, vctx, mtval) -> None:
        hartid = hart.hartid
        if self._last_fault_tval[hartid] == mtval:
            self._fault_repeats[hartid] += 1
        else:
            self._last_fault_tval[hartid] = mtval
            self._fault_repeats[hartid] = 1
        if self._fault_repeats[hartid] >= self.config.max_fault_repeats:
            self._count(hartid, "detect:fault-loop")
            self.recover(
                hart, vctx,
                f"firmware faulting repeatedly on {mtval:#x} (PMP/access loop)",
            )

    def note_violation(self, hart, vctx, message: str) -> None:
        hartid = hart.hartid
        self._violations[hartid] += 1
        if self._violations[hartid] >= self.config.max_violations_per_activation:
            self._count(hartid, "detect:violation-storm")
            self.recover(hart, vctx, f"policy violation storm ({message})")

    def on_panic(self, hart, message: str) -> None:
        """Installed as ``machine.firmware_panic_hook``."""
        from repro.core.vcpu import World

        hartid = hart.hartid
        if self.quarantined[hartid]:
            return
        if self.miralis.world[hartid] is not World.FIRMWARE:
            return
        self._count(hartid, "detect:panic")
        self.recover(hart, self.miralis.vctx[hartid], f"firmware panic: {message}")

    def on_bad_vector(self, hart, vctx, pc: int) -> None:
        self._count(hart.hartid, "detect:bad-vector")
        self.recover(
            hart, vctx,
            f"virtual trap vector targets unmapped memory ({pc:#x})",
        )

    def on_wfi_stall(self, hart, vctx) -> None:
        self._count(hart.hartid, "detect:wfi-stall")
        self.recover(hart, vctx, "wfi with no wakeup source armed")

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def recover(self, hart, vctx, reason: str) -> None:
        """Abandon the current activation: retry it, or quarantine.

        Never returns — raises :class:`FirmwareRecovered` (control
        continues at the recovered pc) or :class:`MachineHalted` (clean
        quarantine halt when no OS exists to fall back to).
        """
        hartid = hart.hartid
        self._count(hartid, "recoveries")
        self.events.append((hartid, "recover", reason))
        # annotate_last has move semantics (one annotation per trap event),
        # so the authoritative per-kind totals live in recovery_counts.
        self.machine.stats.note_recovery("recoveries", hartid, reason)
        self.consecutive_failures[hartid] += 1
        attempt = self.consecutive_failures[hartid]
        snapshot = self._snapshots[hartid]
        pending = self._pending[hartid]
        if (attempt > self.config.max_firmware_retries
                or snapshot is None or pending is None):
            self._quarantine(hart, vctx, reason)
        # Bounded exponential backoff, charged as monitor host work.
        self._count(hartid, "retries")
        self.machine.stats.note_recovery("retries", hartid, reason,
                                         attempt=attempt)
        backoff = self.config.retry_backoff_cycles * (1 << (attempt - 1))
        self.miralis._charge_host(hart, backoff)
        self._activation_restore(hart, vctx, snapshot)
        # Annotate *after* the restore: the rewind truncated the abandoned
        # activation's trap events, so the annotation lands on the trap
        # that survives it — the one whose handling is being retried.
        self.machine.stats.annotate_last("miralis-recovery", detail=reason, hart=hartid)
        self._reset_activation(hartid)
        if pending[0] == "boot":
            self.miralis.reenter_firmware_boot(hart, vctx)
        else:
            _, code, is_interrupt, mtval, mepc, _ = pending
            self.miralis.reinject_after_recovery(
                hart, vctx, code, is_interrupt, mtval, mepc
            )
        raise FirmwareRecovered(reason)

    #: Trap events preserved in a quarantine record (bundle tail).
    RECORD_TAIL = 16

    def _record_quarantine(self, hartid: int, reason: str, pending) -> None:
        """Capture the repro-bundle material for one quarantine decision."""
        self.quarantine_records.append({
            "hart": hartid,
            "reason": reason,
            "activation": "boot" if pending is None or pending[0] == "boot"
            else "trap",
            "consecutive_failures": self.consecutive_failures[hartid],
            "trap_tail": [
                (e.cause, e.is_interrupt, e.handler, e.detail)
                for e in self.machine.stats.events[-self.RECORD_TAIL:]
            ],
        })

    def _quarantine(self, hart, vctx, reason: str) -> None:
        hartid = hart.hartid
        self.quarantined[hartid] = True
        self._count(hartid, "quarantines")
        self.events.append((hartid, "quarantine", reason))
        self.machine.stats.note_recovery("quarantines", hartid, reason)
        pending = self._pending[hartid]
        snapshot = self._snapshots[hartid]
        # Record the bundle material *before* any restore: the record's
        # trap tail is flight-recorder evidence of the abandoned
        # activation, which the epoch rewind below would truncate.
        self._record_quarantine(hartid, reason, pending)
        self._pending[hartid] = None
        self._snapshots[hartid] = None
        if (pending is not None and pending[0] == "trap"
                and self.os_entered[hartid]):
            if snapshot is not None:
                self._activation_restore(hart, vctx, snapshot)
            self.machine.stats.annotate_last(
                "miralis-recovery", detail=f"quarantine: {reason}", hart=hartid
            )
            # Drop the firmware's M-level interrupt enables: nothing will
            # service them again, and leaving them armed would storm.
            vctx.mie &= c.SIP_MASK
            _, code, is_interrupt, mtval, mepc, os_mode = pending
            self.miralis.resume_os_quarantined(
                hart, vctx, code, is_interrupt, mtval, mepc, os_mode
            )
            raise FirmwareRecovered(f"quarantined: {reason}")
        # Boot-time failure (or no OS yet): nothing to fall back to.
        self.machine.stats.annotate_last(
            "miralis-recovery", detail=f"quarantine: {reason}", hart=hartid
        )
        vctx.mie &= c.SIP_MASK
        self.machine.halt(f"miralis: firmware quarantined ({reason})")
        raise MachineHalted(self.machine.halt_reason)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "counters": dict(self.counters),
            "hart_counters": [dict(per_hart) for per_hart in self.hart_counters],
            "quarantined": list(self.quarantined),
            "events": list(self.events),
            "quarantine_records": [dict(r) for r in self.quarantine_records],
        }
