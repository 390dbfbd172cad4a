"""Activation snapshots: what a watchdog retry must capture and restore.

A firmware *activation* (boot, or handling one injected trap) can be
abandoned and retried by the watchdog.  Retrying replays the activation
from its start, so everything the activation may have mutated must roll
back with it:

* the hart's :class:`VirtContext` (every field, deep-copied — the
  round-trip tests drive this generically over ``__dict__``);
* this hart's virtual-CLINT shadows (a retried activation must not
  inherit a half-programmed virtual timer or a stale self-IPI);
* the firmware region's RAM pages — firmware scratch memory is
  activation state, and before this layer existed, post-snapshot writes
  leaked straight through a restore (the snapshot held no memory at
  all);
* the trap-event stream's epoch, one mark that covers the stats and
  the attached tracer — an abandoned activation's traps must not be
  double-counted by the retried one.

Recovery *decisions* (``recovery_counts``, watchdog counters, quarantine
dumps) are facts about the run, not activation state, and are never
rolled back.
"""

from __future__ import annotations

from repro.snapshot.checkpoint import VCTX_NON_STATE, _copy


def capture_activation(watchdog, hart, vctx) -> dict:
    """Snapshot one hart's activation state (see module docstring)."""
    snap: dict = {
        "vctx": {name: _copy(value) for name, value in vctx.__dict__.items()
                 if name not in VCTX_NON_STATE},
    }
    vclint = getattr(watchdog.miralis, "vclint", None)
    if vclint is not None:
        snap["vclint"] = vclint.snapshot_hart(hart.hartid)
    machine = watchdog.machine
    firmware = getattr(watchdog.miralis, "firmware", None)
    if firmware is not None:
        region = firmware.region
        snap["ram_span"] = (region.base, region.end)
        snap["ram"] = machine.ram.snapshot_pages(region.base, region.end)
    snap["epoch"] = machine.stats.mark_epoch()
    return snap


def restore_activation(watchdog, hart, vctx, snap: dict) -> None:
    """Roll one hart's activation state back to a captured snapshot."""
    for name, value in snap["vctx"].items():
        setattr(vctx, name, _copy(value))
    vclint = getattr(watchdog.miralis, "vclint", None)
    if vclint is not None and "vclint" in snap:
        vclint.restore_hart(hart.hartid, snap["vclint"])
    machine = watchdog.machine
    if "ram" in snap:
        start, stop = snap["ram_span"]
        machine.ram.restore_pages(snap["ram"], start, stop)
    machine.stats.rewind_to_epoch(snap["epoch"])
