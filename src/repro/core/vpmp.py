"""Physical Memory Protection virtualization (§4.2, Figure 5).

Miralis multiplexes the physical PMP entries:

========================  =====================================================
priority (low index)      contents
========================  =====================================================
0                         Miralis's own memory — no permissions
1                         emulated MMIO devices (the CLINT) — no permissions
2 .. 2+P-1                policy entries (P per the active policy module)
2+P                       the zero entry: address 0, OFF — anchors virtual
                          PMP 0's hard-wired TOR base (§4.2)
2+P+1 .. N-2              the virtual PMP entries
N-1                       the "all memory" entry: RWX while the firmware
                          executes (emulating M-mode default access), OFF
                          during direct OS execution
========================  =====================================================

While the firmware executes, *unlocked* virtual entries are installed with
RWX permissions — mimicking hardware, where unlocked PMP entries do not
constrain M-mode.  Locked virtual entries keep their permissions (minus
the lock bit: a physically locked entry would constrain the monitor
itself).  During OS execution virtual entries apply as configured, so the
virtual firmware's protections genuinely constrain the OS.
"""

from __future__ import annotations

from repro.core.vcpu import VirtContext, World
from repro.hart.program import Region
from repro.isa import constants as c
from repro.isa.bits import napot_encode

_NO_PERMISSION_NAPOT = int(c.PmpAddressMode.NAPOT) << c.PMP_A_SHIFT
_RWX_NAPOT = _NO_PERMISSION_NAPOT | c.PMP_R | c.PMP_W | c.PMP_X
_ALL_ADDRESSES = (1 << 54) - 1


def napot_power_of_two_cover(base: int, size: int) -> int:
    """NAPOT pmpaddr covering [base, base+size) (rounded up to a power of 2)."""
    covered = 8
    while covered < size or base % covered:
        covered *= 2
    aligned_base = base - (base % covered)
    return napot_encode(aligned_base, covered)


class PmpVirtualizer:
    """Computes and installs the multiplexed physical PMP configuration."""

    def __init__(self, machine, miralis_region: Region, miralis_config,
                 policy_entries: int):
        self.machine = machine
        self.miralis_region = miralis_region
        self.config = miralis_config
        self.policy_entry_count = policy_entries
        count = machine.config.pmp_count
        reserved = 2 + policy_entries + 2  # guards + policy + zero + all-mem
        self.virtual_count = max(0, min(count - reserved,
                                        miralis_config.max_virtual_pmp))
        if count and self.virtual_count == 0 and count < reserved:
            raise ValueError(
                f"platform has {count} PMP entries; {reserved} reserved — "
                "no room for virtual PMPs"
            )
        self.zero_entry_index = 2 + policy_entries
        self.virtual_base_index = self.zero_entry_index + 1
        self.all_memory_index = count - 1 if count else 0
        # The CLINT guard: a power-of-two window over the device.
        clint = machine.clint
        self._clint_guard_addr = napot_power_of_two_cover(clint.base, clint.size)
        self._miralis_guard_addr = napot_encode(
            miralis_region.base, miralis_region.size
        )
        from repro.isa.bits import napot_range

        self._guard_ranges = {
            "miralis": napot_range(self._miralis_guard_addr),
            "clint": napot_range(self._clint_guard_addr),
        }

    # -- classification ----------------------------------------------------

    def protects(self, address: int, size: int = 1) -> str | None:
        """Which guard an access [address, address+size) hits, if any.

        Uses the installed guard *windows* (power-of-two covers), so
        boundary-straddling accesses classify as protected — they fault
        physically and trap to the monitor, just like direct hits.
        """
        end = address + size
        for name, (base, covered) in self._guard_ranges.items():
            if address < base + covered and end > base:
                return name
        return None

    # -- physical install --------------------------------------------------

    def compute(self, vctx: VirtContext, world: World, policy,
                hartid: int) -> tuple[list[int], list[int]]:
        """The physical (pmpcfg bytes, pmpaddr values) for a world."""
        count = self.machine.config.pmp_count
        cfg = [0] * count
        addr = [0] * count
        if count == 0:
            return cfg, addr
        # Guards.
        cfg[0], addr[0] = _NO_PERMISSION_NAPOT, self._miralis_guard_addr
        cfg[1], addr[1] = _NO_PERMISSION_NAPOT, self._clint_guard_addr
        # Policy entries.
        entries = policy.pmp_entries(world, hartid)[: self.policy_entry_count]
        for i, (entry_addr, entry_cfg) in enumerate(entries):
            cfg[2 + i] = entry_cfg & c.PMP_CFG_VALID_MASK & ~c.PMP_L
            addr[2 + i] = entry_addr & _ALL_ADDRESSES
        # Zero anchor for virtual TOR entry 0 (address 0, OFF).
        cfg[self.zero_entry_index] = 0
        addr[self.zero_entry_index] = 0
        # Virtual entries.
        for i in range(self.virtual_count):
            physical = self.virtual_base_index + i
            if physical >= count - 1:
                break
            vcfg = vctx.pmpcfg[i]
            vaddr = vctx.pmpaddr[i]
            if world == World.FIRMWARE and not vcfg & c.PMP_L:
                # Unlocked entries do not constrain (v)M-mode: install as
                # RWX so the deprivileged firmware is not constrained either.
                mode_bits = vcfg & c.PMP_A_MASK
                vcfg = mode_bits | c.PMP_R | c.PMP_W | c.PMP_X
            cfg[physical] = vcfg & ~c.PMP_L
            addr[physical] = vaddr
        # The all-memory entry (Figure 5): RWX while the firmware executes
        # (emulating M-mode default access — unless a sandboxing policy
        # wants unmatched accesses to trap), disabled during direct OS
        # execution to match S/U-mode semantics (the firmware's own
        # virtual PMP entries then decide, as on a native machine).
        if world == World.FIRMWARE:
            if policy.allow_firmware_default_access():
                cfg[self.all_memory_index] = _RWX_NAPOT
            else:
                cfg[self.all_memory_index] = _NO_PERMISSION_NAPOT
            addr[self.all_memory_index] = _ALL_ADDRESSES
        else:
            cfg[self.all_memory_index] = 0
            addr[self.all_memory_index] = 0
        return cfg, addr

    def install(self, hart, vctx: VirtContext, world: World, policy) -> int:
        """Write the computed configuration into the physical registers.

        Returns the number of CSR writes performed (for cycle accounting).
        """
        cfg, addr = self.compute(vctx, world, policy, hart.hartid)
        csr_file = hart.state.csr
        writes = 0
        for index, value in enumerate(addr):
            if csr_file.pmpaddr[index] != value:
                csr_file.pmpaddr[index] = value
                writes += 1
        for index, value in enumerate(cfg):
            if csr_file.pmpcfg[index] != value:
                csr_file.pmpcfg[index] = value
                writes += 1
        if writes:
            self.machine.stats.emit("vpmp", hart.hartid,
                                    world=world.name.lower(), writes=writes)
        return writes
