"""Reference CSR semantics: storage, views, and WARL legalization.

This module is part of the executable specification (the paper's ``hw``
function, played by the RISC-V Sail model).  Every architectural CSR the
simulated platforms implement is defined here with its reset value, its
writable-bit mask, and its WARL legalization rules.

The Miralis emulator in :mod:`repro.core.csr_emul` deliberately does NOT
reuse this code: it is an independent implementation (as the Rust emulator
is independent from Sail), and :mod:`repro.verif` checks the two against
each other (faithful emulation, Definition 1 of the paper).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.isa import constants as c
from repro.isa.bits import get_field, set_field, to_u64

# CSRs held as plain 64-bit storage with a write mask applied.
_SIMPLE_CSRS: dict[int, tuple[int, int]] = {
    # addr: (reset value, write mask)
    c.CSR_MSCRATCH: (0, c.XMASK),
    c.CSR_MTVAL: (0, c.XMASK),
    c.CSR_MCYCLE: (0, c.XMASK),
    c.CSR_MINSTRET: (0, c.XMASK),
    c.CSR_MCOUNTEREN: (0, 0xFFFFFFFF),
    c.CSR_SCOUNTEREN: (0, 0xFFFFFFFF),
    c.CSR_MCOUNTINHIBIT: (0, 0xFFFFFFFD),
    c.CSR_SSCRATCH: (0, c.XMASK),
    c.CSR_STVAL: (0, c.XMASK),
    c.CSR_SENVCFG: (0, c.MENVCFG_FIOM),
}

# Hypervisor-extension CSRs (simple storage; full mask noted per register).
_H_CSRS: dict[int, tuple[int, int]] = {
    c.CSR_HSTATUS: (0x2 << 32, 0x30_01FF_E7C0),  # VSXL fixed, common fields
    c.CSR_HEDELEG: (0, c.MEDELEG_MASK),
    c.CSR_HIDELEG: (0, (1 << c.IRQ_VSSI) | (1 << c.IRQ_VSTI) | (1 << c.IRQ_VSEI)),
    c.CSR_HIE: (0, (1 << c.IRQ_VSSI) | (1 << c.IRQ_VSTI) | (1 << c.IRQ_VSEI) | (1 << c.IRQ_SGEI)),
    c.CSR_HIP: (0, 1 << c.IRQ_VSSI),
    c.CSR_HVIP: (0, (1 << c.IRQ_VSSI) | (1 << c.IRQ_VSTI) | (1 << c.IRQ_VSEI)),
    c.CSR_HCOUNTEREN: (0, 0xFFFFFFFF),
    c.CSR_HGEIE: (0, c.XMASK & ~1),
    c.CSR_HTVAL: (0, c.XMASK),
    c.CSR_HTINST: (0, c.XMASK),
    c.CSR_HGATP: (0, 0),  # bare-only in this model: writes ignored
    c.CSR_VSSTATUS: (c.XL_64 << 32, c.SSTATUS_MASK & ~(c.MSTATUS_UXL | c.MSTATUS_SD)),
    c.CSR_VSIE: (0, c.SIP_MASK),
    c.CSR_VSTVEC: (0, c.XMASK),
    c.CSR_VSSCRATCH: (0, c.XMASK),
    c.CSR_VSEPC: (0, c.XMASK & ~0x3),
    c.CSR_VSCAUSE: (0, c.XMASK),
    c.CSR_VSTVAL: (0, c.XMASK),
    c.CSR_VSIP: (0, 1 << c.IRQ_SSI),
    c.CSR_VSATP: (0, 0),
}

_MSTATUS_RESET = (c.XL_64 << 32) | (c.XL_64 << 34) | (3 << c.MSTATUS_MPP_SHIFT)


def legalize_mstatus(old: int, value: int) -> int:
    """WARL legalization for ``mstatus`` on an RV64 S+U machine.

    * Only writable fields change.
    * MPP may only hold U/S/M; an illegal write keeps the previous value.
    * UXL/SXL are read-only 64-bit.
    * SD is a read-only function of FS/VS/XS.
    """
    new = (old & ~c.MSTATUS_WRITABLE_MASK) | (value & c.MSTATUS_WRITABLE_MASK)
    mpp = get_field(new, c.MSTATUS_MPP)
    if mpp not in (0, 1, 3):
        new = set_field(new, c.MSTATUS_MPP, get_field(old, c.MSTATUS_MPP))
    new = set_field(new, c.MSTATUS_UXL, c.XL_64)
    new = set_field(new, c.MSTATUS_SXL, c.XL_64)
    dirty = get_field(new, c.MSTATUS_FS) == 3 or get_field(new, c.MSTATUS_VS) == 3
    new = (new | c.MSTATUS_SD) if dirty else (new & ~c.MSTATUS_SD)
    return to_u64(new)


def legalize_tvec(old: int, value: int) -> int:
    """WARL legalization for ``mtvec``/``stvec``: reserved modes keep old mode."""
    mode = value & c.TVEC_MODE_MASK
    if mode > c.TvecMode.VECTORED:
        mode = old & c.TVEC_MODE_MASK
    return (value & c.TVEC_BASE_MASK) | mode


def legalize_satp(old: int, value: int) -> int:
    """WARL legalization for ``satp``: unsupported modes leave satp unchanged.

    This model supports Bare (0), Sv39 (8), and Sv48 (9) encodings for the
    mode field; address translation itself is not modelled (bare behaviour),
    see DESIGN.md.
    """
    mode = value >> 60
    if mode not in (0, 8, 9):
        return old
    return to_u64(value)


def legalize_pmpcfg_byte(old: int, value: int) -> int:
    """WARL legalization of one pmpcfg byte.

    * Locked entries are not writable.
    * The reserved R=0/W=1 combination is ignored (keeps the old byte) —
      this is precisely the bug class §6.5 reports Miralis once got wrong.
    * Reserved bits 5 and 6 read as zero.
    """
    if old & c.PMP_L:
        return old
    value &= c.PMP_CFG_VALID_MASK
    if value & c.PMP_W and not value & c.PMP_R:
        return old
    return value


class CsrFile:
    """The reference machine's CSR state.

    Raw ``read``/``write`` implement architectural semantics without
    privilege checks — privilege and existence checks are applied by the
    instruction semantics in :mod:`repro.spec.step`.
    """

    def __init__(self, config, hartid: int = 0,
                 time_source: Optional[Callable[[], int]] = None):
        self.config = config
        self.hartid = hartid
        self.time_source = time_source or (lambda: 0)
        self.mstatus = _MSTATUS_RESET
        self.mtvec = 0
        self.stvec = 0
        self.mepc = 0
        self.sepc = 0
        self.mcause = 0
        self.scause = 0
        self.medeleg = 0
        self.mideleg = c.MIDELEG_MASK if config.mideleg_hardwired else 0
        self.mie = 0
        self.satp = 0
        self.menvcfg = 0
        self.stimecmp = (1 << 64) - 1
        # mip is split between software-writable bits and hardware lines
        # (CLINT/PLIC wires).  Reads OR the two together.
        self.mip_sw = 0
        self.mip_hw = 0
        self.pmpcfg = [0] * 64
        self.pmpaddr = [0] * 64
        self._simple = {addr: reset for addr, (reset, _mask) in _SIMPLE_CSRS.items()}
        self._simple.update({addr: 0 for addr in config.vendor_csrs})
        if config.has_h_extension:
            self._simple.update(
                {addr: reset for addr, (reset, _mask) in _H_CSRS.items()}
            )
            self._simple[c.CSR_MTINST] = 0
            self._simple[c.CSR_MTVAL2] = 0

    # -- interrupt lines -------------------------------------------------

    def set_interrupt_line(self, irq: int, level: bool) -> None:
        """Drive a hardware interrupt line (MSIP/MTIP/MEIP/SEIP)."""
        mask = 1 << irq
        if level:
            self.mip_hw |= mask
        else:
            self.mip_hw &= ~mask

    @property
    def mip(self) -> int:
        value = (self.mip_sw | self.mip_hw) & c.MIP_MASK
        if self.config.has_sstc and self.menvcfg & c.MENVCFG_STCE:
            if self.time_source() >= self.stimecmp:
                value |= c.MIP_STIP
            else:
                value &= ~c.MIP_STIP
        return value

    # -- existence ---------------------------------------------------------

    def exists(self, addr: int) -> bool:
        """Whether the CSR is implemented on this platform."""
        if c.CSR_PMPCFG0 <= addr <= c.CSR_PMPCFG15:
            # RV64: only even pmpcfg registers exist.  Registers beyond the
            # implemented entry count are WARL read-zero/ignore-write, so
            # software can probe the entry count without trapping — which
            # unmodified firmware relies on when running on the (smaller)
            # virtual PMP file.
            return addr % 2 == 0
        if c.CSR_PMPADDR0 <= addr <= c.CSR_PMPADDR63:
            return True
        if addr in (c.CSR_MHPMCOUNTER3, c.CSR_MHPMEVENT3):
            return True
        if c.CSR_MHPMCOUNTER3 <= addr < c.CSR_MHPMCOUNTER3 + 29:
            return True
        if c.CSR_MHPMEVENT3 <= addr < c.CSR_MHPMEVENT3 + 29:
            return True
        if c.CSR_HPMCOUNTER3 <= addr < c.CSR_HPMCOUNTER3 + 29:
            return True
        if addr == c.CSR_TIME:
            return self.config.has_hw_time_csr
        if addr == c.CSR_STIMECMP:
            return self.config.has_sstc
        if addr in self.config.vendor_csrs:
            return True
        if addr in _H_CSRS or addr in (c.CSR_MTINST, c.CSR_MTVAL2, c.CSR_HGEIP):
            return self.config.has_h_extension
        return addr in _KNOWN_CSRS

    # -- read ---------------------------------------------------------

    def read(self, addr: int) -> int:
        """Architectural read (no privilege check)."""
        reader = _CSR_READERS.get(addr)
        if reader is not None:
            return reader(self)
        return self._read_ranged(addr)

    def _read_ranged(self, addr: int) -> int:
        """Reads for range-addressed CSRs (pmp, hpm) and simple storage."""
        if c.CSR_PMPCFG0 <= addr <= c.CSR_PMPCFG15:
            base = (addr - c.CSR_PMPCFG0) * 4
            value = 0
            for i in range(8):
                value |= self.pmpcfg[base + i] << (8 * i)
            return value
        if c.CSR_PMPADDR0 <= addr <= c.CSR_PMPADDR63:
            return self.pmpaddr[addr - c.CSR_PMPADDR0]
        if c.CSR_MHPMCOUNTER3 <= addr < c.CSR_MHPMCOUNTER3 + 29:
            return 0
        if c.CSR_MHPMEVENT3 <= addr < c.CSR_MHPMEVENT3 + 29:
            return 0
        if c.CSR_HPMCOUNTER3 <= addr < c.CSR_HPMCOUNTER3 + 29:
            return 0
        if addr in self._simple:
            return self._simple[addr]
        raise KeyError(f"CSR {addr:#x} does not exist")

    # -- write --------------------------------------------------------

    def write(self, addr: int, value: int) -> None:
        """Architectural write with WARL legalization (no privilege check)."""
        value = to_u64(value)
        if addr == c.CSR_MSTATUS:
            self.mstatus = legalize_mstatus(self.mstatus, value)
        elif addr == c.CSR_SSTATUS:
            merged = (self.mstatus & ~c.SSTATUS_MASK) | (value & c.SSTATUS_MASK)
            self.mstatus = legalize_mstatus(self.mstatus, merged)
        elif addr == c.CSR_MISA:
            pass  # WARL: this implementation fixes misa
        elif addr == c.CSR_MEDELEG:
            self.medeleg = value & c.MEDELEG_MASK
        elif addr == c.CSR_MIDELEG:
            if self.config.mideleg_hardwired:
                self.mideleg = c.MIDELEG_MASK
            else:
                self.mideleg = value & c.MIDELEG_MASK
        elif addr == c.CSR_MIE:
            self.mie = value & c.MIP_MASK
        elif addr == c.CSR_SIE:
            writable = self.mideleg & c.SIP_MASK
            self.mie = (self.mie & ~writable) | (value & writable)
        elif addr == c.CSR_MIP:
            self.mip_sw = value & c.MIP_WRITABLE
        elif addr == c.CSR_SIP:
            writable = self.mideleg & c.MIP_SSIP
            self.mip_sw = (self.mip_sw & ~writable) | (value & writable)
        elif addr == c.CSR_MTVEC:
            self.mtvec = legalize_tvec(self.mtvec, value)
        elif addr == c.CSR_STVEC:
            self.stvec = legalize_tvec(self.stvec, value)
        elif addr == c.CSR_MEPC:
            self.mepc = value & ~0x3
        elif addr == c.CSR_SEPC:
            self.sepc = value & ~0x3
        elif addr == c.CSR_MCAUSE:
            self.mcause = value & (c.INTERRUPT_BIT | 0x3F)
        elif addr == c.CSR_SCAUSE:
            self.scause = value & (c.INTERRUPT_BIT | 0x3F)
        elif addr == c.CSR_SATP:
            self.satp = legalize_satp(self.satp, value)
        elif addr == c.CSR_MENVCFG:
            mask = c.MENVCFG_FIOM
            if self.config.has_sstc:
                mask |= c.MENVCFG_STCE
            self.menvcfg = value & mask
        elif addr == c.CSR_STIMECMP:
            self.stimecmp = value
        elif c.CSR_PMPCFG0 <= addr <= c.CSR_PMPCFG15:
            self._write_pmpcfg((addr - c.CSR_PMPCFG0) * 4, value)
        elif c.CSR_PMPADDR0 <= addr <= c.CSR_PMPADDR63:
            self._write_pmpaddr(addr - c.CSR_PMPADDR0, value)
        elif c.CSR_MHPMCOUNTER3 <= addr < c.CSR_MHPMCOUNTER3 + 29:
            pass  # hardwired-zero performance counters
        elif c.CSR_MHPMEVENT3 <= addr < c.CSR_MHPMEVENT3 + 29:
            pass
        elif addr in _SIMPLE_CSRS:
            self._simple[addr] = value & _SIMPLE_CSRS[addr][1]
        elif addr in self.config.vendor_csrs:
            self._simple[addr] = value
        elif addr in _H_CSRS:
            _reset, mask = _H_CSRS[addr]
            if addr in (c.CSR_HIP, c.CSR_VSIP, c.CSR_HVIP):
                self._simple[addr] = (self._simple[addr] & ~mask) | (value & mask)
            else:
                self._simple[addr] = value & mask if mask else self._simple[addr]
        elif addr in (c.CSR_MTINST, c.CSR_MTVAL2):
            self._simple[addr] = value
        else:
            raise KeyError(f"CSR {addr:#x} does not exist or is read-only")

    def _write_pmpcfg(self, first_entry: int, value: int) -> None:
        for i in range(8):
            index = first_entry + i
            if index >= self.config.pmp_count:
                break
            byte = (value >> (8 * i)) & 0xFF
            self.pmpcfg[index] = legalize_pmpcfg_byte(self.pmpcfg[index], byte)

    def _write_pmpaddr(self, index: int, value: int) -> None:
        if index >= self.config.pmp_count:
            return
        if self.pmpcfg[index] & c.PMP_L:
            return
        # A locked TOR entry also locks the preceding address register.
        if index + 1 < self.config.pmp_count:
            next_cfg = self.pmpcfg[index + 1]
            next_mode = get_field(next_cfg, c.PMP_A_MASK)
            if next_cfg & c.PMP_L and next_mode == c.PmpAddressMode.TOR:
                return
        self.pmpaddr[index] = value & c.PMP_ADDR_MASK

    # -- snapshots (used by the verification harness) --------------------

    def snapshot(self) -> dict:
        return {
            "mstatus": self.mstatus,
            "mtvec": self.mtvec,
            "stvec": self.stvec,
            "mepc": self.mepc,
            "sepc": self.sepc,
            "mcause": self.mcause,
            "scause": self.scause,
            "medeleg": self.medeleg,
            "mideleg": self.mideleg,
            "mie": self.mie,
            "mip_sw": self.mip_sw,
            "mip_hw": self.mip_hw,
            "satp": self.satp,
            "menvcfg": self.menvcfg,
            "stimecmp": self.stimecmp,
            "pmpcfg": list(self.pmpcfg),
            "pmpaddr": list(self.pmpaddr),
            "simple": dict(self._simple),
        }

    def restore(self, snap: dict) -> None:
        self.mstatus = snap["mstatus"]
        self.mtvec = snap["mtvec"]
        self.stvec = snap["stvec"]
        self.mepc = snap["mepc"]
        self.sepc = snap["sepc"]
        self.mcause = snap["mcause"]
        self.scause = snap["scause"]
        self.medeleg = snap["medeleg"]
        self.mideleg = snap["mideleg"]
        self.mie = snap["mie"]
        self.mip_sw = snap["mip_sw"]
        self.mip_hw = snap["mip_hw"]
        self.satp = snap["satp"]
        self.menvcfg = snap["menvcfg"]
        self.stimecmp = snap["stimecmp"]
        self.pmpcfg = list(snap["pmpcfg"])
        self.pmpaddr = list(snap["pmpaddr"])
        self._simple = dict(snap["simple"])


# Dispatch table for reads of individually-addressed CSRs.  Each entry is a
# pure view over the CsrFile instance it receives; the table replaces the
# long if-chain on the hot read path with a single dict lookup.  Range
# CSRs (pmp, hpm counters) and plain storage fall through to
# ``_read_ranged``.
_CSR_READERS: dict[int, Callable[[CsrFile], int]] = {
    c.CSR_MSTATUS: lambda f: f.mstatus,
    c.CSR_SSTATUS: lambda f: f.mstatus & c.SSTATUS_MASK,
    c.CSR_MISA: lambda f: f.config.misa,
    c.CSR_MEDELEG: lambda f: f.medeleg,
    c.CSR_MIDELEG: lambda f: f.mideleg,
    c.CSR_MIE: lambda f: f.mie,
    c.CSR_SIE: lambda f: f.mie & f.mideleg & c.SIP_MASK,
    c.CSR_MIP: lambda f: f.mip,
    c.CSR_SIP: lambda f: f.mip & f.mideleg & c.SIP_MASK,
    c.CSR_MTVEC: lambda f: f.mtvec,
    c.CSR_STVEC: lambda f: f.stvec,
    c.CSR_MEPC: lambda f: f.mepc,
    c.CSR_SEPC: lambda f: f.sepc,
    c.CSR_MCAUSE: lambda f: f.mcause,
    c.CSR_SCAUSE: lambda f: f.scause,
    c.CSR_MTVAL: lambda f: f._simple[c.CSR_MTVAL],
    c.CSR_STVAL: lambda f: f._simple[c.CSR_STVAL],
    c.CSR_SATP: lambda f: f.satp,
    c.CSR_MENVCFG: lambda f: f.menvcfg,
    c.CSR_STIMECMP: lambda f: f.stimecmp,
    c.CSR_MVENDORID: lambda f: f.config.mvendorid,
    c.CSR_MARCHID: lambda f: f.config.marchid,
    c.CSR_MIMPID: lambda f: f.config.mimpid,
    c.CSR_MHARTID: lambda f: f.hartid,
    c.CSR_MCONFIGPTR: lambda f: 0,
    c.CSR_CYCLE: lambda f: f._simple[c.CSR_MCYCLE],
    c.CSR_INSTRET: lambda f: f._simple[c.CSR_MINSTRET],
    c.CSR_TIME: lambda f: to_u64(f.time_source()),
    c.CSR_HGEIP: lambda f: 0,
}


def csr_reader(addr: int) -> Callable[[CsrFile], int]:
    """A bound-free reader for one CSR address.

    Callers that repeatedly read the same CSR (the verification harness
    compares the same field list on every check) can hoist the dispatch
    out of their loop.
    """
    reader = _CSR_READERS.get(addr)
    if reader is not None:
        return reader
    return lambda f: f._read_ranged(addr)


# Canonical list of non-range CSR addresses this model knows about.
_KNOWN_CSRS = frozenset(
    {
        c.CSR_MSTATUS, c.CSR_SSTATUS, c.CSR_MISA, c.CSR_MEDELEG, c.CSR_MIDELEG,
        c.CSR_MIE, c.CSR_SIE, c.CSR_MIP, c.CSR_SIP, c.CSR_MTVEC, c.CSR_STVEC,
        c.CSR_MEPC, c.CSR_SEPC, c.CSR_MCAUSE, c.CSR_SCAUSE, c.CSR_MTVAL,
        c.CSR_STVAL, c.CSR_MSCRATCH, c.CSR_SSCRATCH, c.CSR_SATP, c.CSR_MENVCFG,
        c.CSR_SENVCFG, c.CSR_MCOUNTEREN, c.CSR_SCOUNTEREN, c.CSR_MCOUNTINHIBIT,
        c.CSR_MCYCLE, c.CSR_MINSTRET, c.CSR_CYCLE, c.CSR_INSTRET,
        c.CSR_MVENDORID, c.CSR_MARCHID, c.CSR_MIMPID, c.CSR_MHARTID,
        c.CSR_MCONFIGPTR,
    }
)


def known_csr_addresses(config) -> list[int]:
    """All CSR addresses implemented on ``config`` (used by verification)."""
    file = CsrFile(config)
    addresses = sorted(_KNOWN_CSRS)
    addresses += [c.CSR_PMPCFG0 + 2 * i for i in range((config.pmp_count + 7) // 8)]
    addresses += [c.CSR_PMPADDR0 + i for i in range(config.pmp_count)]
    if config.has_sstc:
        addresses.append(c.CSR_STIMECMP)
    if config.has_hw_time_csr:
        addresses.append(c.CSR_TIME)
    if config.has_h_extension:
        addresses += sorted(_H_CSRS) + [c.CSR_MTINST, c.CSR_MTVAL2, c.CSR_HGEIP]
    addresses += list(config.vendor_csrs)
    return [addr for addr in sorted(set(addresses)) if file.exists(addr)]
