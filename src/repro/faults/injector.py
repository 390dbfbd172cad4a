"""Deterministic, seedable fault injection.

The paper's robustness claim (§5, §6.5) is that the monitor survives a
buggy or hostile firmware.  To *test* that claim the simulator needs a way
to provoke the failure modes systematically: corrupted CSR writes,
transient MMIO bus errors, decoder glitches, and runaway firmware loops.

A :class:`FaultInjector` is parameterized by a :class:`FaultPlan` — a set
of :class:`FaultSpec` triggers with probability schedules — and a seed.
Every decision draws from one ``random.Random(seed)`` stream in program
order, so a given (plan, seed) pair produces the *same* injections on
every run: two runs of the same chaos scenario yield identical trap logs,
and every finding replays exactly.

Injection sites (wired in by :meth:`Machine.install_fault_injector` and
the monitor):

``vcsr-write``
    A value being written to a virtual CSR by the instruction emulator is
    corrupted (bit flips or an explicit XOR mask).
``mmio``
    A device access (physical CLINT/PLIC/UART, or the virtual CLINT)
    raises a transient bus error, surfacing as an access fault.
``decode``
    A decoded firmware instruction is flipped to an illegal one before
    emulation.
``stall``
    A trapped firmware instruction is resumed *without* emulation, so the
    firmware re-executes it forever — a runaway trap loop.
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter
from typing import Callable, Optional

U64 = (1 << 64) - 1

#: The injection sites an injector understands.
SITES = ("vcsr-write", "mmio", "decode", "stall")

#: Devices an ``mmio`` spec may target.
MMIO_DEVICES = ("clint", "plic", "uart", "vclint")

#: Access kinds an ``mmio`` spec may target.
MMIO_KINDS = ("read", "write")


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """One fault trigger: where it applies, and its probability schedule."""

    #: Injection site, one of :data:`SITES`.
    site: str
    #: Chance of injecting at each matching decision point.
    probability: float = 1.0
    #: Skip the first N decision points at this site (lets boot complete
    #: before the faults begin, or targets a specific access).
    after: int = 0
    #: Maximum number of injections from this spec (None = unlimited).
    limit: Optional[int] = None
    #: ``mmio`` only: restrict to one device (clint/plic/uart/vclint).
    device: Optional[str] = None
    #: ``mmio`` only: restrict to "read" or "write" accesses.
    kind: Optional[str] = None
    #: ``vcsr-write`` only: restrict to one CSR address.
    csr: Optional[int] = None
    #: ``vcsr-write`` only: bits to flip in the written value.  When None
    #: a single pseudo-random bit is flipped instead.
    xor_mask: Optional[int] = None
    #: Restrict to one hart (None = any).
    hart: Optional[int] = None

    def __post_init__(self):
        if self.site not in SITES:
            raise ValueError(
                f"unknown fault site {self.site!r} (known: {', '.join(SITES)})"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")
        if self.device is not None and self.device not in MMIO_DEVICES:
            raise ValueError(
                f"unknown mmio device {self.device!r} "
                f"(known: {', '.join(MMIO_DEVICES)})"
            )
        if self.kind is not None and self.kind not in MMIO_KINDS:
            raise ValueError(
                f"unknown mmio access kind {self.kind!r} "
                f"(known: {', '.join(MMIO_KINDS)})"
            )

    def to_dict(self) -> dict:
        """JSON-stable form (repro bundles); defaults are elided."""
        doc: dict = {"site": self.site}
        for field in ("probability", "after", "limit", "device", "kind",
                      "csr", "xor_mask", "hart"):
            value = getattr(self, field)
            default = getattr(type(self), "__dataclass_fields__")[field].default
            if value != default:
                doc[field] = value
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultSpec":
        """Rebuild a spec from :meth:`to_dict` output.

        Unknown keys (and unknown site/device/kind names, via
        ``__post_init__``) raise ``ValueError`` here — at construction —
        so a corrupt bundle or hand-edited plan never survives to
        explode mid-chaos-run.
        """
        allowed = set(getattr(cls, "__dataclass_fields__"))
        unknown = set(doc) - allowed
        if unknown:
            raise ValueError(
                f"unknown FaultSpec fields {sorted(unknown)} "
                f"(allowed: {sorted(allowed)})"
            )
        return cls(**doc)

    def matches(self, **attrs) -> bool:
        for field in ("device", "kind", "csr", "hart"):
            want = getattr(self, field)
            if want is not None and attrs.get(field) != want:
                return False
        return True


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """A named set of fault triggers.

    Construction validates every spec: each entry must be a real
    :class:`FaultSpec` (whose own ``__post_init__`` rejects unknown
    site/device/kind names).  A plan that names a nonexistent injection
    site therefore fails loudly *here*, not with a raw ``KeyError`` (or
    ``AttributeError``) halfway through a chaos run.
    """

    name: str
    specs: tuple[FaultSpec, ...] = ()
    description: str = ""

    def __post_init__(self):
        for index, spec in enumerate(self.specs):
            if not isinstance(spec, FaultSpec):
                raise ValueError(
                    f"plan {self.name!r} spec #{index} is not a FaultSpec "
                    f"(got {type(spec).__name__}); build specs with "
                    f"FaultSpec(...) or FaultSpec.from_dict(...) so site "
                    f"names are validated at construction"
                )

    @property
    def sites(self) -> frozenset[str]:
        return frozenset(spec.site for spec in self.specs)

    def to_dict(self) -> dict:
        """JSON-stable form, round-tripped by :meth:`from_dict`."""
        return {
            "name": self.name,
            "description": self.description,
            "specs": [spec.to_dict() for spec in self.specs],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultPlan":
        return cls(
            name=doc["name"],
            specs=tuple(FaultSpec.from_dict(spec)
                        for spec in doc.get("specs", ())),
            description=doc.get("description", ""),
        )


@dataclasses.dataclass(frozen=True)
class InjectionEvent:
    """One committed injection (for reporting and determinism checks)."""

    site: str
    index: int  # decision index at this site when the fault fired
    detail: str


class FaultInjector:
    """Seeded fault source consulted at each hook point.

    Decision order is the simulator's deterministic execution order, and
    all randomness comes from one seeded stream, so the injector itself is
    fully deterministic: ``FaultInjector(plan, seed)`` makes identical
    choices on identical runs.
    """

    def __init__(self, plan: FaultPlan, seed: int = 0):
        self.plan = plan
        self.seed = seed
        self._rng = random.Random(seed)
        self._site_counts: Counter[str] = Counter()
        self._spec_hits: Counter[int] = Counter()
        self.injections: list[InjectionEvent] = []
        self._sites = plan.sites
        #: Set by ``Machine.install_fault_injector`` so committed
        #: injections can be traced; the injector stays usable standalone.
        self.machine = None

    # -- decision engine ---------------------------------------------------

    def _decide(self, site: str, detail: str, **attrs) -> Optional[FaultSpec]:
        """Advance the decision point at ``site``; the firing spec or None."""
        if site not in self._sites:
            return None
        index = self._site_counts[site]
        self._site_counts[site] += 1
        for spec_index, spec in enumerate(self.plan.specs):
            if spec.site != site or not spec.matches(**attrs):
                continue
            if index < spec.after:
                continue
            if spec.limit is not None and self._spec_hits[spec_index] >= spec.limit:
                continue
            if spec.probability < 1.0 and self._rng.random() >= spec.probability:
                continue
            self._spec_hits[spec_index] += 1
            self.injections.append(InjectionEvent(site, index, detail))
            machine = self.machine
            if machine is not None:
                machine.stats.emit(
                    "fault-inject", attrs.get("hart") or 0,
                    site=site, index=index, detail=detail, seed=self.seed,
                )
            return spec
        return None

    # -- site-specific entry points ---------------------------------------

    def corrupt_vcsr_write(self, hartid: int, csr: int, value: int) -> int:
        """Possibly corrupt a value about to be written to a virtual CSR."""
        spec = self._decide(
            "vcsr-write", f"csr={csr:#x}", hart=hartid, csr=csr
        )
        if spec is None:
            return value
        if spec.xor_mask is not None:
            corrupted = (value ^ spec.xor_mask) & U64
        else:
            corrupted = (value ^ (1 << self._rng.getrandbits(6))) & U64
        # Patch the recorded detail with the actual corruption.
        last = self.injections[-1]
        self.injections[-1] = dataclasses.replace(
            last, detail=f"csr={csr:#x} {value:#x}->{corrupted:#x}"
        )
        return corrupted

    def mmio_error(self, device: str, kind: str, offset: int,
                   hartid: Optional[int] = None) -> bool:
        """Whether this device access suffers a transient bus error."""
        return self._decide(
            "mmio", f"{device}:{kind}@{offset:#x}",
            device=device, kind=kind, hart=hartid,
        ) is not None

    def flip_instruction(self, hartid: int, mnemonic: str) -> bool:
        """Whether a decoded firmware instruction is flipped to illegal."""
        return self._decide("decode", f"flip:{mnemonic}", hart=hartid) is not None

    def stall_firmware(self, hartid: int) -> bool:
        """Whether the current firmware trap resumes without emulation."""
        return self._decide("stall", f"hart{hartid}", hart=hartid) is not None

    # -- hook factories ----------------------------------------------------

    def device_hook(self, device: str) -> Callable[[str, int, int], bool]:
        """A ``fault_hook`` for a physical device (see :mod:`repro.hart`)."""

        def hook(kind: str, offset: int, size: int) -> bool:
            return self.mmio_error(device, kind, offset)

        return hook

    def csr_hook(self, hartid: int) -> Callable[[int, int], int]:
        """A ``csr_write_hook`` for a :class:`VirtContext`."""

        def hook(csr: int, value: int) -> int:
            return self.corrupt_vcsr_write(hartid, csr, value)

        return hook

    # -- reporting ---------------------------------------------------------

    def summary(self) -> dict:
        return {
            "plan": self.plan.name,
            "seed": self.seed,
            "decisions": dict(self._site_counts),
            "injections": [
                f"{event.site}[{event.index}]: {event.detail}"
                for event in self.injections
            ],
        }
