"""The benchmark's four workloads: inputs generated from a seed, run as episodes.

Every workload is a closed loop with one client: the guest kernel on hart
0 issues its next operation only after the previous one returned.  An
*episode* builds a fresh system from reset, boots it to the kernel's
workload entry and runs a fixed list of operations, so two episodes with
the same inputs produce identical simulated statistics.  Host time is
measured around each operation; everything the benchmark checks about
the outputs is counted in ``Episode.failed``.

The system under test is driven only through its public API:
``repro.bench.runner.build_system`` and the ``KernelProgram`` SBI
wrappers, ``Machine``/``BinaryProgram``/``Miralis`` for the closed blob,
and ``chaos_cells``/``run_campaign``/``merge_campaign`` for chaos.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from array import array
from time import perf_counter
from typing import Callable, Optional

from repro.bench.runner import build_system
from repro.campaign.cells import FAMILY_RUNNERS, chaos_cells, register_family
from repro.campaign import merge as campaign_merge
from repro.campaign.runner import run_campaign
from repro.core.config import MiralisConfig
from repro.core.miralis import Miralis
from repro.coverage import CoverageMap
from repro.faults.chaos import CHAOS_FIRMWARES, run_chaos
from repro.faults.plans import CHAOS_SUITE
from repro.hart.binary import BinaryProgram
from repro.hart.machine import Machine
from repro.isa import constants as c
from repro.isa.asm import Assembler
from repro.os_model.kernel import KernelProgram
from repro.os_model.workloads import MEMCACHED_APP
from repro.policy.default import DefaultPolicy
from repro.sbi import constants as sbi
from repro.spec.platform import VISIONFIVE2
from repro.system import memory_regions
from repro.trace import Tracer
from repro.triage import bundle as triage_bundle

PLATFORM = VISIONFIVE2
U64 = (1 << 64) - 1
#: SBI ``NOT_SUPPORTED`` as the kernel reads it from a0.
SBI_NOT_SUPPORTED = sbi.SbiError.ERR_NOT_SUPPORTED & U64

#: Operations per fastpath/reinject episode, and blob SBI round trips per
#: closed-blob episode: enough for each episode's p99 latency to have 10
#: samples beyond it.
MIX_OPS = 1_000
BLOB_OPS = 1_000
#: The chaos matrix's seeds: 0..CHAOS_SEEDS-1, one campaign pass each.
#: Fixed so that runs compare (see README.md); the window holds the
#: known failing cells (see ``known_defect``).
CHAOS_SEEDS = 6
#: Chaos plans: the fault-free control, the canned suite, and one plan
#: composed from the cell's seed.  Without the control, half the cells end
#: within ~15 ms and half take 26 ms or more, and the median cell time
#: fell on that gap.
CHAOS_PLANS = ("none",) + CHAOS_SUITE + ("random",)
#: Hart count of a chaos pass, by the parity of its seed: the single-hart
#: flow on even seeds, the SMP scheduler on odd ones.  Each seed runs at
#: one hart count so that the fixed matrix fits in a run of about 15 s.
CHAOS_HARTS = (None, 2)

WORKLOADS = ("fastpath", "reinject", "chaos", "closed-blob")


class FirstOp(Exception):
    """Raised by a set-up probe's first-op hook to stop an episode there."""


@dataclasses.dataclass
class Episode:
    """One episode's host timings, check results and simulated statistics."""

    ops: int
    failed: int
    #: Host seconds from the first operation's start to the last one's end.
    op_s: float
    #: Host seconds per operation.
    latencies: array
    #: Guest instructions retired (``hart.instret`` summed) while the
    #: operations ran.
    instret: int
    #: Simulated statistics of the whole episode, from reset to halt.
    #: Deterministic for given inputs: the digest is computed over it.
    sim: dict
    #: Block-engine lookups (derived state, so kept out of ``sim``).
    blocks_hits: int = 0
    blocks_misses: int = 0
    #: Committed fault injections (chaos only).
    injections: int = 0
    #: Failed output checks.  Every failed op in ``fastpath``, ``reinject``
    #: and ``closed-blob``; in ``chaos``, every failed cell that is not a
    #: known defect (``known_defect``).
    check_failures: int = 0

    @property
    def digest(self) -> str:
        text = json.dumps(self.sim, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def _machine_sim(machine, halt: str) -> dict:
    stats = machine.stats
    return {
        "halt": halt,
        "traps": stats.total_traps,
        "world_switches": stats.world_switches,
        "fastpath_hits": stats.fastpath_hits,
        "firmware_emulations": stats.firmware_emulations,
        "cycles": machine.cycles,
        "instret": sum(hart.instret for hart in machine.harts),
    }


def _blocks(machine) -> tuple[int, int]:
    engine = machine.blocks
    return (0, 0) if engine is None else (engine.hits, engine.misses)


# ---------------------------------------------------------------------------
# fastpath / reinject: the Fig. 13 memcached-app trap mix
# ---------------------------------------------------------------------------

def mix_counts(count: int = MIX_OPS) -> dict[str, int]:
    """Ops of each kind in ``count`` ops, in proportion to the
    ``memcached-app`` rate weights (largest remainder)."""
    weights = dict(MEMCACHED_APP.weights())
    total = sum(weights.values())
    exact = {kind: count * rate / total for kind, rate in weights.items()}
    counts = {kind: int(share) for kind, share in exact.items()}
    by_remainder = sorted(exact, key=lambda kind: counts[kind] - exact[kind])
    for kind in by_remainder[:count - sum(counts.values())]:
        counts[kind] += 1
    return counts


def mix_ops(seed: int, count: int = MIX_OPS) -> list[tuple[str, int, int]]:
    """The kernel's op sequence: ``(kind, compute gap, store value)``.

    Every seed has the same ops of each kind (``mix_counts``) and the
    same compute gaps, spread evenly around the instruction count that
    yields the mix's total trap rate at the platform frequency; the seed
    orders them and draws the stored values.  Drawing each kind from
    the weights instead let the 26 IPIs and 6 remote fences of 1,000 ops
    vary by 20-40 % from seed to seed, and with them the host cost per
    op and the ops that set the p99.
    """
    rng = random.Random(seed)
    kinds = [kind for kind, n in mix_counts(count).items()
             for _ in range(n)]
    gap = int(PLATFORM.frequency_hz / MEMCACHED_APP.total_rate)
    gaps = [gap // 2 + gap * i // max(1, count - 1) for i in range(count)]
    rng.shuffle(kinds)
    rng.shuffle(gaps)
    return [(kind, gap_, rng.getrandbits(64))
            for kind, gap_ in zip(kinds, gaps)]


def run_mix_episode(ops, offload: bool,
                    on_first_op: Optional[Callable[[], None]] = None,
                    ) -> Episode:
    """Boot Miralis (offload on or off) and run ``ops`` from the kernel."""
    latencies = array("d")
    box = {"failed": 0}

    def workload(kernel: KernelProgram, ctx) -> None:
        box["first"] = first = perf_counter()
        if on_first_op is not None:
            on_first_op()
        machine = kernel.machine
        ipi_mask = 1 << (machine.config.num_harts - 1)
        buffer = kernel.region.base + 0x8000
        instret = sum(hart.instret for hart in machine.harts)
        last_time = 0
        failed = 0
        for kind, gap, value in ops:
            start = perf_counter()
            ctx.compute(gap)
            if kind == "time":
                now = kernel.read_time(ctx)
                ok = now >= last_time
                last_time = now
            elif kind == "timer":
                now = kernel.read_time(ctx)
                ctx.csrs(c.CSR_SIE, c.MIP_STIP)
                error, _ = kernel.sbi_call(
                    ctx, sbi.EXT_TIMER, sbi.FN_TIMER_SET_TIMER,
                    now + kernel.tick_interval_mtime)
                ok = error == 0 and now >= last_time
                last_time = now
            elif kind == "ipi":
                error, _ = kernel.sbi_send_ipi(ctx, ipi_mask, 0)
                ok = error == 0
            elif kind == "rfence":
                error, _ = kernel.sbi_remote_fence_i(ctx, ipi_mask, 0)
                ok = error == 0
            else:  # misaligned: the load must return the bytes just stored
                ctx.store(buffer, value, size=8)
                ok = ctx.load(buffer + 1, size=4) == (value >> 8) & 0xFFFF_FFFF
            latencies.append(perf_counter() - start)
            failed += not ok
        box["op_s"] = perf_counter() - first
        box["instret"] = sum(h.instret for h in machine.harts) - instret
        box["failed"] = failed

    system = build_system(
        "miralis" if offload else "miralis-no-offload", PLATFORM, workload,
        keep_trap_events=False,
    )
    halt = system.run()
    machine = system.machine
    expected_halt = "sbi system reset" in halt
    hits, misses = _blocks(machine)
    failed = box["failed"] + (len(ops) - len(latencies)) + (not expected_halt)
    return Episode(
        ops=len(latencies),
        failed=failed,
        check_failures=failed,
        op_s=box.get("op_s", 0.0),
        latencies=latencies,
        instret=box.get("instret", 0),
        sim=_machine_sim(machine, halt),
        blocks_hits=hits,
        blocks_misses=misses,
    )


# ---------------------------------------------------------------------------
# closed-blob: the Star64 experiment, a vendor binary under Miralis
# ---------------------------------------------------------------------------

#: Iterations of the blob handler's ALU loop, passed by the kernel in a0:
#: most calls are light, a fixed 2 % are heavy.  Every seed has the same
#: mix (only the positions move), so every seed costs the same, and an
#: episode's p99 latency is the median heavy call instead of host noise.
BLOB_LIGHT_LOOPS = 12
BLOB_HEAVY_LOOPS = 48
BLOB_HEAVY_CALLS = BLOB_OPS // 50


@dataclasses.dataclass(frozen=True)
class BlobInputs:
    """What the seed decides for a closed-blob run."""

    #: ``(addi, xori)`` immediates of the handler's 16 loop steps.
    steps: tuple
    #: The loop count each call passes, in call order.
    loops: tuple
    constant: int    # value the blob's handler returns in a1
    eid: int         # SBI extension id the kernel calls (unknown to Miralis)
    fid: int


def blob_inputs(seed: int) -> BlobInputs:
    rng = random.Random(seed)
    loops = ([BLOB_HEAVY_LOOPS] * BLOB_HEAVY_CALLS
             + [BLOB_LIGHT_LOOPS] * (BLOB_OPS - BLOB_HEAVY_CALLS))
    rng.shuffle(loops)
    return BlobInputs(
        steps=tuple((rng.randint(1, 2047), rng.randint(0, 2047))
                    for _ in range(16)),
        loops=tuple(loops),
        constant=rng.getrandbits(31) | 1,
        # The SBI experimental extension space: no firmware model and no
        # Miralis fast path implements it, so every call reaches the blob.
        eid=0x0800_0000 | rng.getrandbits(20),
        fid=rng.getrandbits(8),
    )


def build_blob(base: int, kernel_entry: int, inputs: BlobInputs) -> bytes:
    """Assemble the vendor blob: a boot path and an SBI trap handler.

    The handler runs a short ALU loop (what the block engine caches) for
    ``(a0 & 63) | 1`` iterations, bounded whatever the caller passes (the
    kernel's boot-time SBI probes reach it too), then the real ``csrr``/``csrw mepc`` and ``mret`` words that trap
    and are emulated by Miralis, answering NOT_SUPPORTED with
    ``a1 = constant``.
    """
    asm = Assembler(base=base)
    asm.auipc("t0", 0)
    asm.addi("t0", "t0", 0x100)
    asm.csrw(c.CSR_MTVEC, "t0")
    asm.li("t1", 3 << 11)
    asm.csrc(c.CSR_MSTATUS, "t1")
    asm.li("t1", 1 << 11)
    asm.csrs(c.CSR_MSTATUS, "t1")  # MPP = S
    asm.li("t2", kernel_entry)
    asm.csrw(c.CSR_MEPC, "t2")
    asm.li("a0", 0)
    asm.mret()
    while asm.current_address < base + 0x100:
        asm.nop()
    asm.andi("a4", "a0", 63)
    asm.ori("a4", "a4", 1)
    asm.label("mix")
    for add, xor in inputs.steps:
        asm.addi("a2", "a2", add)
        asm.xori("a3", "a2", xor)
    asm.addi("a4", "a4", -1)
    asm.bne("a4", "zero", "mix")
    asm.csrr("t0", c.CSR_MEPC)
    asm.addi("t0", "t0", 4)
    asm.csrw(c.CSR_MEPC, "t0")
    asm.li("a0", sbi.SbiError.ERR_NOT_SUPPORTED)
    asm.li("a1", inputs.constant)
    asm.mret()
    return asm.binary()


def run_blob_episode(inputs: BlobInputs, count: int = BLOB_OPS,
                     on_first_op: Optional[Callable[[], None]] = None,
                     ) -> Episode:
    """Boot the blob under Miralis; the kernel alternates ``read_time``
    with an unknown SBI call, for the first ``count`` calls of the inputs."""
    calls = inputs.loops[:count]
    latencies = array("d")
    box = {"failed": 0}
    machine = Machine(PLATFORM, keep_trap_events=False)
    regions = memory_regions(PLATFORM)

    def workload(kernel: KernelProgram, ctx) -> None:
        box["first"] = first = perf_counter()
        if on_first_op is not None:
            on_first_op()
        instret = sum(hart.instret for hart in machine.harts)
        last_time = 0
        failed = 0
        for loops in calls:
            begin = perf_counter()
            now = kernel.read_time(ctx)
            error, value = kernel.sbi_call(ctx, inputs.eid, inputs.fid, loops)
            latencies.append(perf_counter() - begin)
            failed += not (now >= last_time and error == SBI_NOT_SUPPORTED
                           and value == inputs.constant)
            last_time = now
        box["op_s"] = perf_counter() - first
        box["instret"] = sum(h.instret for h in machine.harts) - instret
        box["failed"] = failed
        # The blob implements no SRST; end the run here.
        machine.halt("closed-blob workload complete")

    kernel = KernelProgram("kernel", regions["kernel"], machine,
                           workload=workload)
    blob = BinaryProgram(
        "closed-blob", regions["firmware"], machine,
        build_blob(regions["firmware"].base, kernel.entry_point, inputs),
    )
    miralis = Miralis(machine, regions["miralis"], blob, MiralisConfig(),
                      DefaultPolicy())
    machine.register(blob)
    machine.register(kernel)
    machine.register(miralis)
    halt = machine.boot(entry=miralis.region.base)
    hits, misses = _blocks(machine)
    failed = (box["failed"] + (len(calls) - len(latencies))
              + (halt != "closed-blob workload complete"))
    return Episode(
        ops=len(latencies),
        failed=failed,
        check_failures=failed,
        op_s=box.get("op_s", 0.0),
        latencies=latencies,
        instret=box.get("instret", 0),
        sim=_machine_sim(machine, halt),
        blocks_hits=hits,
        blocks_misses=misses,
    )


# ---------------------------------------------------------------------------
# chaos: firmware x fault plan x seed (1 or 2 harts) through run_campaign
# ---------------------------------------------------------------------------

def chaos_seeds(seed: int, count: int = CHAOS_SEEDS) -> list[int]:
    """The chaos seeds 0..count-1, contiguous and never filtered, in the
    pass order the benchmark seed draws.

    Even and odd seeds alternate, so any two consecutive passes run both
    hart counts (a traced run measures the first two).
    """
    rng = random.Random(seed)
    evens, odds = list(range(0, count, 2)), list(range(1, count, 2))
    rng.shuffle(evens)
    rng.shuffle(odds)
    order = [s for pair in zip(evens, odds) for s in pair]
    return order + evens[len(odds):]


def chaos_matrix(chaos_seed: int) -> list:
    """One campaign pass: every firmware x plan at one seed, at the hart
    count of the seed's parity."""
    return chaos_cells(CHAOS_FIRMWARES, CHAOS_PLANS, [chaos_seed],
                       harts=CHAOS_HARTS[chaos_seed % 2])


def known_defect(firmware, plan, seed) -> Optional[str]:
    """The error a known failing chaos cell raises, or None if it must pass.

    These are ROADMAP item 4's defects, shown rather than hidden: a fault
    injected at a CLINT access leaks out of the monitor, and a corrupted
    virtual CSR write sends the kernel back to an unexpected pc.  Any
    other failed cell, an ``error`` status (an exception outside the
    model, the benchmark's own runner included) or another error text is
    a failed check.
    """
    if plan == "transient-mmio" and (
            seed in (1, 2) or (seed == 0 and firmware == "malicious")):
        return "BusError: clint: transient bus fault"
    if plan == "csr-chaos" and seed == 5 and firmware != "zephyr":
        return "ProtocolError: program kernel re-entered at unexpected pc"
    return None


def _is_known_failure(result) -> bool:
    payload = result.payload or {}
    expected = known_defect(payload.get("firmware"), payload.get("plan"),
                            payload.get("seed"))
    return (result.status == "fail" and expected is not None
            and (payload.get("error") or "").startswith(expected))


class _CellTracer(Tracer):
    """A Tracer that also remembers the machine it observed.

    ``run_chaos`` does not return its machine; the first trap entry hands
    it over, so the cell can report simulated cycles and world switches.
    """

    machine = None

    def trap_entry(self, machine, hartid, cause, is_interrupt):
        self.machine = machine
        super().trap_entry(machine, hartid, cause, is_interrupt)


class _ChaosCellRunner:
    """The campaign's ``chaos`` family runner with a Tracer and a
    CoverageMap attached to every cell."""

    def __init__(self, on_cell_start: Callable[[], None]):
        self.on_cell_start = on_cell_start

    def __call__(self, params: dict) -> tuple[str, dict]:
        self.on_cell_start()
        tracer = _CellTracer()
        coverage = CoverageMap()
        result = run_chaos(params["firmware"], plan=params["plan"],
                           seed=params["seed"], harts=params["harts"],
                           tracer=tracer, coverage=coverage)
        machine = tracer.machine
        payload = {
            "firmware": result.firmware,
            "plan": result.plan,
            "seed": result.seed,
            "harts": params["harts"],
            "ok": result.ok,
            "halt": result.halt_reason,
            "checkpoint": result.checkpoint,
            "quarantined": result.quarantined,
            "injections": result.injections,
            "recoveries": dict(sorted(result.recoveries.items())),
            "trap_log_total": result.trap_log_total,
            "error": result.error,
            "coverage": coverage.digest(),
            "sim": None if machine is None else _machine_sim(
                machine, result.halt_reason),
        }
        if not result.ok or result.quarantined or result.error is not None:
            payload["bundle"] = triage_bundle.bundle_from_chaos(
                result, platform=params["platform"], harts=params["harts"],
                source="perfbench:chaos", tracer=tracer,
            )
        return ("ok" if result.ok else "fail"), payload


def run_chaos_pass(chaos_seed: int, limit: Optional[int] = None,
                   on_first_op: Optional[Callable[[], None]] = None,
                   ) -> Episode:
    """Run one seed's chaos matrix through ``run_campaign(workers=1)``.

    An op is one cell; a cell whose status is not ``ok`` (fail, error,
    timeout) counts as failed, and as a failed check unless it is a known
    defect.
    """
    cells = chaos_matrix(chaos_seed)[:limit]
    latencies = array("d")
    box: dict = {}

    def on_cell_start() -> None:
        if "first" not in box:
            box["first"] = box["last"] = perf_counter()
            if on_first_op is not None:
                on_first_op()

    def progress(_result) -> None:
        now = perf_counter()
        latencies.append(now - box["last"])
        box["last"] = now

    previous = FAMILY_RUNNERS.get("chaos")
    register_family("chaos", _ChaosCellRunner(on_cell_start))
    try:
        campaign = run_campaign(cells, workers=1, progress=progress)
        # Through the module, so a traced run's wrapper is the one called.
        aggregate = campaign_merge.merge_campaign(campaign)
        canonical = campaign_merge.canonical_json(aggregate)
    finally:
        if previous is None:
            FAMILY_RUNNERS.pop("chaos", None)
        else:
            register_family("chaos", previous)
    op_s = perf_counter() - box["first"]
    sim = {"halt": None, "traps": 0, "world_switches": 0, "fastpath_hits": 0,
           "firmware_emulations": 0, "cycles": 0.0, "instret": 0}
    injections = 0
    for result in campaign.results:
        payload = result.payload or {}
        cell_sim = payload.get("sim") or {}
        for key in ("traps", "world_switches", "fastpath_hits",
                    "firmware_emulations", "cycles", "instret"):
            sim[key] += cell_sim.get(key, 0)
        injections += payload.get("injections", 0)
    sim["aggregate"] = hashlib.sha256(canonical.encode()).hexdigest()[:16]
    failed = [result for result in campaign.results if result.status != "ok"]
    return Episode(
        ops=len(campaign.results),
        failed=len(failed),
        check_failures=sum(not _is_known_failure(result) for result in failed),
        op_s=op_s,
        latencies=latencies,
        instret=sim["instret"],
        sim=sim,
        injections=injections,
    )


# ---------------------------------------------------------------------------
# One interface for the runner
# ---------------------------------------------------------------------------

class Workload:
    """A workload bound to its seed: ``episode(i)`` runs the i-th episode.

    Mix and blob workloads repeat one input list, so every episode's
    digest must match.  Chaos runs every seed of its fixed matrix once,
    one pass per seed, so a run's work depends on neither the host's
    speed nor the seed.
    """

    def __init__(self, name: str, seed: int):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; "
                             f"choose from {', '.join(WORKLOADS)}")
        self.name = name
        self.seed = seed
        if name in ("fastpath", "reinject"):
            self.inputs = mix_ops(seed)
        elif name == "closed-blob":
            self.inputs = blob_inputs(seed)
        else:
            self.inputs = chaos_seeds(seed)

    @property
    def repeats_inputs(self) -> bool:
        return self.name != "chaos"

    @property
    def passes(self) -> Optional[int]:
        """Episodes in one run when fixed by the inputs (chaos), else None."""
        return None if self.repeats_inputs else len(self.inputs)

    def episode(self, index: int = 0, on_first_op=None,
                limit: Optional[int] = None) -> Episode:
        if self.name == "fastpath":
            return run_mix_episode(self.inputs, True, on_first_op)
        if self.name == "reinject":
            return run_mix_episode(self.inputs, False, on_first_op)
        if self.name == "closed-blob":
            return run_blob_episode(self.inputs, on_first_op=on_first_op)
        return run_chaos_pass(self.inputs[index % len(self.inputs)],
                              limit=limit, on_first_op=on_first_op)
