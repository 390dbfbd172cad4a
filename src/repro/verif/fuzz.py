"""System-level differential fuzzing: native vs. virtualized execution.

The §6 checkers verify the monitor's *components* against the
specification.  This module closes the loop at system level, in the
spirit of the hi-fi/lo-fi differential testing the paper cites [22, 72]:
generate a random-but-valid guest scenario (firmware personality plus an
OS operation sequence), run it on the native deployment and under
Miralis, and compare everything the OS can observe — register results,
memory contents, console output, interrupt counts.

Any divergence is a virtualization hole.  The generator is seeded and the
simulator deterministic, so every finding replays exactly.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Optional

from repro.firmware.opensbi import OpenSbiFirmware
from repro.hart.program import MachineHalted, ProtocolError
from repro.isa import constants as c
from repro.spec.platform import PlatformConfig, VISIONFIVE2
from repro.system import build_native, build_virtualized

U64 = (1 << 64) - 1

#: Per-case execution budgets: a diverging case must report its failing
#: seed rather than hang the campaign.  The dispatch budget bounds
#: simulated progress; the wall-clock budget bounds host time (e.g. a
#: pathological Python-level loop that makes no dispatches).
MAX_DISPATCHES_PER_CASE = 5_000_000
WALL_SECONDS_PER_CASE = 20.0

#: OS-level actions the fuzzer composes into scenarios.  Each entry is
#: (name, weight); the weights roughly follow the Figure 3 mix so fuzzing
#: pressure lands where real systems trap.
ACTIONS = (
    ("read_time", 8),
    ("set_timer", 3),
    ("send_ipi", 2),
    ("remote_fence", 1),
    ("misaligned_load", 3),
    ("misaligned_store", 3),
    ("aligned_memory", 4),
    ("csr_toggle", 3),
    ("sbi_probe", 2),
    ("unknown_sbi", 1),
    ("putchar", 2),
    ("compute", 6),
    ("sscratch_roundtrip", 2),
    ("satp_write", 1),
)

#: Actions the *guided* fuzzer can mutate into a scenario but the seed
#: decoder never generates.  Kept out of :data:`ACTIONS` so existing
#: seeds decode to exactly the same sequences they always did — adding
#: a name to the weighted choice list would silently re-map every seed.
EXTENDED_ACTIONS = (
    ("ipi_mask", 2),       # send_ipi with a fuzzed (mask, base) pair
    ("fence_mask", 1),     # remote fence with a fuzzed (mask, base) pair
    ("clint_access", 3),   # direct S-mode load/store into the CLINT
    ("timer_raw", 2),      # set_timer with due/past/imminent deadlines
)

ALL_ACTIONS = ACTIONS + EXTENDED_ACTIONS

#: Every action name a canonical step sequence may contain.
ACTION_NAMES = tuple(name for name, _weight in ALL_ACTIONS)

U32 = (1 << 32) - 1


def canonical_steps(steps) -> tuple[tuple[str, int], ...]:
    """Normalize a step sequence to its canonical encoded form.

    One encoding shared by every consumer — the seed decoder, the triage
    shrinker, bundle replay, and the coverage corpus: action names must
    be known (a typo'd corpus entry fails loudly instead of silently
    no-op'ing through the workload dispatch) and operands are masked to
    the 32-bit range the generator draws from, so a JSON round-trip
    through any of those paths reproduces the identical scenario.
    """
    canonical = []
    for action, operand in steps:
        name = str(action)
        if name not in ACTION_NAMES:
            raise ValueError(f"unknown fuzz action {name!r}")
        canonical.append((name, int(operand) & U32))
    return tuple(canonical)


@dataclasses.dataclass(frozen=True)
class Scenario:
    """A reproducible fuzz case.

    ``(seed, length)`` is the *encoded* input: :meth:`actions` decodes it
    into the concrete (action, operand) sequence.  An explicit ``steps``
    tuple overrides the decode — that is how the triage shrinker replays
    minimized subsequences that no seed encodes.
    """

    seed: int
    length: int = 40
    platform: PlatformConfig = VISIONFIVE2
    steps: Optional[tuple[tuple[str, int], ...]] = None

    def actions(self) -> list[tuple[str, int]]:
        """The (action, operand) sequence this scenario denotes, in
        canonical form (see :func:`canonical_steps`) on both branches."""
        if self.steps is not None:
            return list(canonical_steps(self.steps))
        rng = random.Random(self.seed)
        names = [name for name, weight in ACTIONS for _ in range(weight)]
        return [
            (rng.choice(names), rng.getrandbits(32))
            for _ in range(self.length)
        ]


@dataclasses.dataclass
class Observation:
    """Everything the OS could see after running a scenario."""

    halt_reason: str = ""
    #: (tag, value) pairs; "time"-tagged values are compared by ordering
    #: only (simulated time legitimately differs between deployments),
    #: everything else must match exactly.
    values: list[tuple[str, int]] = dataclasses.field(default_factory=list)
    memory: list[int] = dataclasses.field(default_factory=list)
    console: str = ""
    timer_ticks: int = 0
    software_interrupts: int = 0
    unexpected_kernel_traps: int = 0
    crashed: Optional[str] = None

    def normalized(self) -> dict:
        """Comparison view; time-tagged values are reduced to ordering."""
        times = [value for tag, value in self.values if tag == "time"]
        exact = [(tag, value) for tag, value in self.values if tag != "time"]
        monotone = all(b >= a for a, b in zip(times, times[1:]))
        return {
            "halt": self.halt_reason,
            "time_count": len(times),
            "exact_values": exact,
            "memory": self.memory,
            "console": self.console,
            "ticks>0": self.timer_ticks > 0,
            "ssi": self.software_interrupts,
            "bad_traps": self.unexpected_kernel_traps,
            "crashed": self.crashed,
            "monotone": monotone,
        }


def _run_scenario(scenario: Scenario, virtualized: bool,
                  offload: bool = True,
                  max_dispatches: int = MAX_DISPATCHES_PER_CASE,
                  wall_seconds: float = WALL_SECONDS_PER_CASE,
                  coverage=None) -> Observation:
    import time

    observation = Observation()
    actions = scenario.actions()

    def workload(kernel, ctx):
        base = kernel.region.base + 0xA000
        for action, operand in actions:
            if action == "read_time":
                observation.values.append(("time", kernel.read_time(ctx)))
            elif action == "set_timer":
                # Arm a deadline and wait for it, so the tick lands inside
                # the scenario on both deployments (otherwise the
                # deployments' different runtimes would race the deadline,
                # a timing difference rather than a virtualization hole).
                now = kernel.read_time(ctx)
                kernel.sbi_set_timer(ctx, now + 50 + operand % 500)
                ctx.csrs(c.CSR_SIE, c.MIP_STIP)
                before = kernel.timer_ticks
                for _ in range(2_000):  # watchdog: a lost tick is a finding
                    if kernel.timer_ticks != before:
                        break
                    ctx.compute(500)
                else:
                    observation.values.append(("stall", 1))
            elif action == "send_ipi":
                kernel.sbi_send_ipi(ctx, 0b1, 0)
                ctx.compute(50)  # delivery point
            elif action == "remote_fence":
                kernel.sbi_remote_fence_i(ctx, 0b1, 0)
                ctx.compute(50)
            elif action == "misaligned_load":
                ctx.store(base, operand | (operand << 32), size=8)
                observation.values.append(
                    ("mem", ctx.load(base + 1 + operand % 5, size=4))
                )
            elif action == "misaligned_store":
                ctx.store(base + 1 + operand % 5, operand, size=4)
                observation.values.append(("mem", ctx.load(base, size=8)))
            elif action == "aligned_memory":
                offset = (operand % 64) * 8
                ctx.store(base + offset, operand, size=8)
                observation.values.append(("mem", ctx.load(base + offset, size=8)))
            elif action == "csr_toggle":
                old = ctx.csrr(c.CSR_SSTATUS)
                ctx.csrw(c.CSR_SSTATUS, old ^ c.MSTATUS_SUM)
                observation.values.append(("csr", ctx.csrr(c.CSR_SSTATUS)))
            elif action == "sbi_probe":
                _err, present = kernel.sbi_call(
                    ctx, 0x10, 3, 0x54494D45  # probe TIME
                )
                observation.values.append(("sbi", present))
            elif action == "unknown_sbi":
                error, _ = kernel.sbi_call(ctx, 0x0F00D + operand % 7, 0)
                observation.values.append(("sbi", error))
            elif action == "putchar":
                kernel.sbi_putchar(ctx, 0x41 + operand % 26)
            elif action == "compute":
                ctx.compute(100 + operand % 5000)
            elif action == "sscratch_roundtrip":
                ctx.csrw(c.CSR_SSCRATCH, operand)
                observation.values.append(("csr", ctx.csrr(c.CSR_SSCRATCH)))
            elif action == "satp_write":
                ctx.csrw(c.CSR_SATP, (8 << 60) | (operand & 0xFFFFF))
                observation.values.append(("csr", ctx.csrr(c.CSR_SATP)))
            elif action == "ipi_mask":
                # Fuzzed (mask, base): bases 4 and 5 put some or all mask
                # bits out of range on a 4-hart platform, probing the
                # partial-delivery/error-code contract.
                error, _ = kernel.sbi_send_ipi(
                    ctx, operand & 0xF, (operand >> 4) % 6
                )
                observation.values.append(("sbi", error))
                ctx.compute(50)  # delivery point
            elif action == "fence_mask":
                error, _ = kernel.sbi_remote_fence_i(
                    ctx, operand & 0xF, (operand >> 4) % 6
                )
                observation.values.append(("sbi", error))
                ctx.compute(50)
            elif action == "clint_access":
                # Direct S-mode MMIO into the CLINT — allowed by the
                # native firmware's PMP, emulated under the monitor.
                clint_base = scenario.platform.clint_base
                select = operand % 4
                if select == 0:
                    # mtime is a time value: compared by ordering only.
                    observation.values.append(
                        ("time", ctx.load(clint_base + 0xBFF8, size=8))
                    )
                elif select == 1:
                    # Self-IPI by hand: raise msip, let it deliver, ack.
                    ctx.store(clint_base, 1, size=4)
                    ctx.compute(50)
                    ctx.store(clint_base, 0, size=4)
                    observation.values.append(
                        ("mem", ctx.load(clint_base, size=4))
                    )
                elif select == 2:
                    # Comparator read: performed for the trap path it
                    # exercises, but not recorded — the value is a
                    # deadline whose ordering against neighbouring time
                    # reads legitimately differs between deployments
                    # (the monitor parks fired deadlines at 2^64-1).
                    ctx.load(clint_base + 0x4000, size=8)
                else:
                    # Byte-granular comparator write: push the deadline
                    # to the far future and read the byte back.
                    ctx.store(clint_base + 0x4000 + 7, 0x7F, size=1)
                    observation.values.append(
                        ("mem", ctx.load(clint_base + 0x4000 + 7, size=1))
                    )
            elif action == "timer_raw":
                # Deadlines the polite set_timer action never produces:
                # already due, in the past, or imminent.  Spin for the
                # tick so delivery lands inside the scenario on both
                # deployments (as in set_timer).
                now = kernel.read_time(ctx)
                mode = operand % 3
                if mode == 0:
                    deadline = now
                elif mode == 1:
                    deadline = max(0, now - 1 - operand % 512)
                else:
                    deadline = now + 30 + operand % 200
                kernel.sbi_set_timer(ctx, deadline)
                ctx.csrs(c.CSR_SIE, c.MIP_STIP)
                before = kernel.timer_ticks
                for _ in range(2_000):
                    if kernel.timer_ticks != before:
                        break
                    ctx.compute(300)
                else:
                    observation.values.append(("stall", 1))
        # Final memory snapshot of the scratch area.
        observation.memory = [
            ctx.load(base + offset, size=8) for offset in range(0, 64, 8)
        ]
        observation.timer_ticks = kernel.timer_ticks
        observation.software_interrupts = kernel.software_interrupts
        observation.unexpected_kernel_traps = len(kernel.unexpected_traps)

    builder = build_virtualized if virtualized else build_native
    kwargs = {"offload": offload} if virtualized else {}
    system = builder(scenario.platform, firmware_class=OpenSbiFirmware,
                     workload=workload, keep_trap_events=False, **kwargs)
    system.machine.max_dispatches = max_dispatches
    system.machine.wall_deadline = time.monotonic() + wall_seconds
    if coverage is not None:
        # One map may span both halves of a differential case; reset the
        # edge chain so no phantom cross-run edge appears.
        coverage.begin_run()
        system.machine.coverage = coverage
    try:
        observation.halt_reason = system.run()
    except MachineHalted as halted:
        observation.crashed = str(halted)
    except ProtocolError as error:
        # Step or wall-clock budget blown: the case diverged into a hang.
        observation.crashed = f"budget: {error}"
    except Exception as error:  # a crash is itself a finding
        observation.crashed = f"{type(error).__name__}: {error}"
    finally:
        system.machine.wall_deadline = None
    observation.console = system.console_output.split("\n", 1)[-1]
    return observation


@dataclasses.dataclass
class FuzzFinding:
    """One behavioural divergence between deployments.

    ``steps`` embeds the decoded input — the concrete (action, operand)
    sequence the seed generated — so a report is actionable without
    re-running the generator: the old reports named only the failing
    seed, forcing a full re-run just to see what the scenario *did*.
    """

    scenario: Scenario
    offload: bool
    native: dict
    virtualized: dict
    #: The generated input, decoded: ``((action, operand), ...)``.
    steps: tuple = ()

    def __post_init__(self):
        if not self.steps:
            self.steps = tuple(self.scenario.actions())

    def diff(self) -> dict:
        """The differing observation fields (the divergence shape)."""
        differing = {
            key: (self.native[key], self.virtualized[key])
            for key in self.native
            if self.native[key] != self.virtualized[key]
        }
        if not differing:  # identical hangs: both sides blew a budget
            differing = {"crashed": (self.native["crashed"],
                                     self.virtualized["crashed"])}
        return differing

    def __str__(self) -> str:
        steps = " ".join(f"{action}({operand:#x})"
                         for action, operand in self.steps[:6])
        if len(self.steps) > 6:
            steps += f" …+{len(self.steps) - 6}"
        return (
            f"seed={self.scenario.seed} offload={self.offload}: "
            f"{self.diff()} [input: {steps}]"
        )


def fuzz_scenario(seed: int, length: int = 40,
                  platform: PlatformConfig = VISIONFIVE2,
                  offload: bool = True,
                  max_dispatches: int = MAX_DISPATCHES_PER_CASE,
                  wall_seconds: float = WALL_SECONDS_PER_CASE,
                  steps=None, coverage=None,
                  ) -> Optional[FuzzFinding]:
    """Run one differential case; returns a finding or None.

    ``steps`` replays an explicit (action, operand) sequence instead of
    the seed's decode (triage shrink/replay).  ``coverage`` is an
    optional :class:`~repro.coverage.CoverageMap` that accumulates the
    trap paths of *both* halves of the case (the native and virtualized
    runs record into distinct worlds).
    """
    scenario = Scenario(
        seed=seed, length=length, platform=platform,
        steps=None if steps is None else canonical_steps(steps),
    )
    native = _run_scenario(scenario, virtualized=False,
                           max_dispatches=max_dispatches,
                           wall_seconds=wall_seconds,
                           coverage=coverage).normalized()
    virtual = _run_scenario(scenario, virtualized=True, offload=offload,
                            max_dispatches=max_dispatches,
                            wall_seconds=wall_seconds,
                            coverage=coverage).normalized()
    blown = any(
        obs["crashed"] is not None and obs["crashed"].startswith("budget")
        for obs in (native, virtual)
    )
    if native != virtual or blown:
        # A blown budget is always reported, even when both deployments
        # hang identically — the failing seed must surface, not vanish
        # into an equal-observation "pass".
        return FuzzFinding(scenario, offload, native, virtual)
    return None


@dataclasses.dataclass
class FuzzCampaignResult:
    """Outcome of a (possibly budget-limited) fuzz campaign.

    The per-case budgets bound one scenario, but nothing used to bound
    the *campaign*: a pathological seed range could run for hours and, if
    aborted externally, the un-run seeds vanished into an implicit pass.
    ``seeds_skipped`` makes the abort explicit — a campaign that hit its
    deadline is incomplete, not clean.
    """

    findings: list[FuzzFinding] = dataclasses.field(default_factory=list)
    seeds_run: list[int] = dataclasses.field(default_factory=list)
    seeds_skipped: list[int] = dataclasses.field(default_factory=list)
    deadline_hit: bool = False
    elapsed_seconds: float = 0.0

    @property
    def complete(self) -> bool:
        return not self.seeds_skipped

    @property
    def clean(self) -> bool:
        """No divergence found *and* every seed actually ran."""
        return not self.findings and self.complete


def run_fuzz_campaign(seeds, length: int = 40,
                      platform: PlatformConfig = VISIONFIVE2,
                      offload: bool = True,
                      max_dispatches: int = MAX_DISPATCHES_PER_CASE,
                      wall_seconds: float = WALL_SECONDS_PER_CASE,
                      campaign_seconds: Optional[float] = None,
                      ) -> FuzzCampaignResult:
    """Run a seed range under an optional campaign-level wall deadline.

    ``campaign_seconds`` bounds the whole campaign: once the deadline
    passes, remaining seeds are not run but are *reported* in
    ``seeds_skipped`` (the checked deadline is campaign-level, so one
    slow-but-within-budget case never hides later seeds silently).
    """
    import time

    result = FuzzCampaignResult()
    start = time.monotonic()
    deadline = None if campaign_seconds is None else start + campaign_seconds
    pending = list(seeds)
    for index, seed in enumerate(pending):
        if deadline is not None and time.monotonic() >= deadline:
            result.deadline_hit = True
            result.seeds_skipped = pending[index:]
            break
        finding = fuzz_scenario(seed, length=length, platform=platform,
                                offload=offload,
                                max_dispatches=max_dispatches,
                                wall_seconds=wall_seconds)
        result.seeds_run.append(seed)
        if finding is not None:
            result.findings.append(finding)
    result.elapsed_seconds = time.monotonic() - start
    return result
