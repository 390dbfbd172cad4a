"""Per-layer spans for the traced run, recorded from outside the program.

Each layer boundary is one public callable of the simulator.  For the
traced run, :func:`installed` replaces every such callable with a wrapper
that opens a span on entry and closes it on exit (exceptions included),
and puts the originals back afterwards, so untraced runs pay nothing.

Self time is attributed on one global timeline: at every span event the
time since the previous event is charged to the span that was running,
i.e. the innermost open span of the thread that emitted the previous
event.  In one thread that is exactly "duration minus the part its
children cover".  Under the SMP scheduler, hart threads run one at a
time (a baton handed over inside ``SmpScheduler.checkpoint``), so the
same rule charges each interval once: a thread's time blocked inside
``checkpoint`` is charged to whatever other hart ran meanwhile, and only
the hand-over itself lands on ``checkpoint``.  Self times therefore sum
to the wall time covered by spans.  The baton also serializes every
event, which is why the counters need no lock.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, NamedTuple


class Layer(NamedTuple):
    """A span name and the callables it wraps (``module:Qual.name``)."""

    name: str
    targets: tuple[str, ...]


def _layer(name: str, *targets: str) -> Layer:
    return Layer(name, targets)


#: Every layer boundary the traced run measures.  Names follow
#: ``<layer module>.<function>``.
LAYERS = (
    _layer("isa.decode", "repro.isa.decoder:decode"),
    _layer("isa.encode", "repro.isa.encoding:encode"),
    _layer("spec.execute_instruction", "repro.spec.step:execute_instruction"),
    _layer("spec.take_trap", "repro.spec.traps:take_trap"),
    _layer("spec.pending_interrupt", "repro.spec.interrupts:pending_interrupt"),
    _layer("hart.exec", "repro.hart.program:GuestContext.exec"),
    _layer("hart.compute", "repro.hart.program:GuestContext.compute"),
    _layer("hart.execute", "repro.hart.hart:Hart.execute"),
    _layer("hart.check_interrupts", "repro.hart.hart:Hart.check_interrupts"),
    _layer("hart.dispatch_current",
           "repro.hart.machine:Machine.dispatch_current"),
    _layer("hart.clint.tick", "repro.hart.clint:Clint.tick"),
    _layer("hart.blocks.run", "repro.hart.blocks:BlockEngine.run"),
    _layer("hart.binary.run_image", "repro.hart.binary:BinaryProgram.run_image"),
    _layer("core.miralis.handle", "repro.core.miralis:Miralis.handle"),
    _layer("core.offload.try_handle_exception",
           "repro.core.offload:FastPath.try_handle_exception"),
    _layer("core.offload.try_handle_interrupt",
           "repro.core.offload:FastPath.try_handle_interrupt"),
    _layer("core.world_switch.enter_firmware",
           "repro.core.world_switch:WorldSwitcher.enter_firmware"),
    _layer("core.world_switch.enter_os",
           "repro.core.world_switch:WorldSwitcher.enter_os"),
    _layer("core.vpmp.install", "repro.core.vpmp:PmpVirtualizer.install"),
    _layer("core.emulator.emulate_privileged",
           "repro.core.emulator:emulate_privileged"),
    _layer("firmware.dispatch", "repro.firmware.base:BaseFirmware.dispatch",
           "repro.firmware.zephyr:ZephyrFirmware.dispatch"),
    _layer("os_model.kernel.dispatch",
           "repro.os_model.kernel:KernelProgram.dispatch"),
    _layer("hart.stats.record_trap", "repro.hart.stats:TrapStats.record_trap"),
    _layer("trace.trap_entry", "repro.trace.tracer:Tracer.trap_entry"),
    _layer("trace.trap_exit", "repro.trace.tracer:Tracer.trap_exit"),
    _layer("coverage.record", "repro.coverage.map:CoverageMap.record"),
    _layer("faults.corrupt_vcsr_write",
           "repro.faults.injector:FaultInjector.corrupt_vcsr_write"),
    _layer("faults.mmio_error", "repro.faults.injector:FaultInjector.mmio_error"),
    _layer("faults.flip_instruction",
           "repro.faults.injector:FaultInjector.flip_instruction"),
    _layer("faults.stall_firmware",
           "repro.faults.injector:FaultInjector.stall_firmware"),
    _layer("core.watchdog.recover",
           "repro.core.watchdog:FirmwareWatchdog.recover"),
    _layer("snapshot.capture_activation",
           "repro.snapshot.activation:capture_activation"),
    _layer("snapshot.restore_activation",
           "repro.snapshot.activation:restore_activation"),
    _layer("smp.checkpoint", "repro.smp.scheduler:SmpScheduler.checkpoint"),
    _layer("campaign.execute_cell", "repro.campaign.cells:execute_cell"),
    _layer("campaign.merge_campaign", "repro.campaign.merge:merge_campaign"),
    _layer("triage.bundle_from_chaos",
           "repro.triage.bundle:bundle_from_chaos"),
)


class SpanRecorder:
    """Calls, self time and inclusive time per span, kept in memory."""

    def __init__(self, names, clock: Callable[[], float] = perf_counter):
        self.names = list(names)
        self.clock = clock
        count = len(self.names)
        self.calls = [0] * count
        self.self_s = [0.0] * count
        #: Per-thread duration (entry to exit, children included).
        self.inclusive_s = [0.0] * count
        #: Time when no span was running.
        self.outside_s = 0.0
        self._local = threading.local()
        self._running = None
        self._last = clock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _charge(self, now: float) -> None:
        elapsed = now - self._last
        if self._running is None:
            self.outside_s += elapsed
        else:
            self.self_s[self._running] += elapsed
        self._last = now

    def enter(self, index: int) -> None:
        now = self.clock()
        self._charge(now)
        self._stack().append((index, now))
        self.calls[index] += 1
        self._running = index

    def exit(self) -> None:
        now = self.clock()
        self._charge(now)
        stack = self._stack()
        index, started = stack.pop()
        self.inclusive_s[index] += now - started
        self._running = stack[-1][0] if stack else None

    def snapshot(self) -> dict:
        """Totals so far, per span name (open spans charged up to now)."""
        self._charge(self.clock())
        return {
            "calls": dict(zip(self.names, self.calls)),
            "self_s": dict(zip(self.names, self.self_s)),
            "inclusive_s": dict(zip(self.names, self.inclusive_s)),
            "outside_s": self.outside_s,
        }


def _wrap(function, index: int, recorder: SpanRecorder):
    enter, exit_ = recorder.enter, recorder.exit

    @functools.wraps(function)
    def span(*args, **kwargs):
        enter(index)
        try:
            return function(*args, **kwargs)
        finally:
            exit_()

    span.__perfbench_original__ = function
    return span


def _resolve(target: str):
    """``module:Class.attr`` -> (owner, attr); ``module:func`` -> (module, func)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attr


_MISSING = object()


def _install(recorder: SpanRecorder, layers) -> list:
    undo = []  # (owner, attr, value or _MISSING)
    for index, layer in enumerate(layers):
        for target in layer.targets:
            owner, attr = _resolve(target)
            original = getattr(owner, attr)
            wrapper = _wrap(original, index, recorder)
            if isinstance(owner, type):
                # Set on the class itself even when the method is
                # inherited: the wrapper then shadows it for this class
                # and its subclasses only.
                undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
                setattr(owner, attr, wrapper)
                continue
            # A module function is also bound by name wherever it was
            # imported with ``from module import name``.
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").partition(".")[0] == "repro"
                        and module.__dict__.get(attr) is original):
                    undo.append((module, attr, original))
                    setattr(module, attr, wrapper)
    return undo


def _uninstall(undo: list) -> None:
    for owner, attr, value in reversed(undo):
        if value is _MISSING:
            delattr(owner, attr)
        else:
            setattr(owner, attr, value)


@contextmanager
def installed(layers=LAYERS, clock: Callable[[], float] = perf_counter):
    """Wrap every layer callable for the block; yields the recorder."""
    recorder = SpanRecorder([layer.name for layer in layers], clock=clock)
    undo = _install(recorder, layers)
    try:
        yield recorder
    finally:
        _uninstall(undo)


def wrapped_targets() -> list[str]:
    """Layer targets currently wrapped (empty outside :func:`installed`)."""
    found = []
    for layer in LAYERS:
        for target in layer.targets:
            owner, attr = _resolve(target)
            if hasattr(getattr(owner, attr), "__perfbench_original__"):
                found.append(target)
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] != "repro":
            continue
        for attr, value in list(vars(module).items()):
            if hasattr(value, "__perfbench_original__"):
                found.append(f"{name}:{attr}")
    return found
