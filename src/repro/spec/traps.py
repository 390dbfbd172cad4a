"""Trap taking, delegation, and xRET semantics of the reference machine."""

from __future__ import annotations

import dataclasses

from repro.isa import constants as c
from repro.spec.state import MachineState

# mstatus arithmetic for trap entry and xRET, done with fixed masks
# instead of set_field/get_field.  Both trap entry and xRET rewrite all
# three of xPP/xPIE/xIE; xPIE sits four bits above xIE for M and S alike.
_M_FIELDS = c.MSTATUS_MPP | c.MSTATUS_MPIE | c.MSTATUS_MIE
_S_FIELDS = c.MSTATUS_SPP | c.MSTATUS_SPIE | c.MSTATUS_SIE
_IE_TO_PIE = 4
#: Privilege level by MPP/SPP encoding; 2 is reserved.
_MODE_BY_PP = (c.U_MODE, c.S_MODE, None, c.M_MODE)


@dataclasses.dataclass(frozen=True)
class Trap:
    """A trap about to be delivered."""

    cause: int  # exception code or interrupt number (without the bit 63 flag)
    is_interrupt: bool = False
    tval: int = 0

    @property
    def mcause_value(self) -> int:
        return (c.INTERRUPT_BIT | self.cause) if self.is_interrupt else self.cause

    def __str__(self) -> str:
        if self.is_interrupt:
            return f"interrupt {c.InterruptCause(self.cause).name}"
        try:
            return f"exception {c.TrapCause(self.cause).name}"
        except ValueError:
            return f"exception code {self.cause}"


def trap_target_mode(state: MachineState, trap: Trap) -> c.PrivilegeLevel:
    """Privilege mode a trap is taken to, honouring medeleg/mideleg.

    Traps from M-mode always go to M-mode; traps from S/U-mode go to S-mode
    when the corresponding delegation bit is set.
    """
    if state.mode == c.M_MODE:
        return c.M_MODE
    deleg = state.csr.mideleg if trap.is_interrupt else state.csr.medeleg
    if deleg & (1 << trap.cause):
        return c.S_MODE
    return c.M_MODE


def _vectored_target(tvec: int, trap: Trap) -> int:
    base = tvec & c.TVEC_BASE_MASK
    if trap.is_interrupt and (tvec & c.TVEC_MODE_MASK) == c.TvecMode.VECTORED:
        return base + 4 * trap.cause
    return base


def take_trap(state: MachineState, trap: Trap) -> c.PrivilegeLevel:
    """Deliver a trap: update xepc/xcause/xtval/mstatus, jump to the vector.

    Returns the privilege mode the trap was taken to.
    """
    target = trap_target_mode(state, trap)
    csr = state.csr
    mstatus = csr.mstatus
    if target == c.M_MODE:
        csr.mepc = state.pc & ~0x3
        csr.mcause = trap.mcause_value
        # mtval is plain storage with a full-width write mask.
        csr._simple[c.CSR_MTVAL] = trap.tval & c.XMASK
        mstatus = ((mstatus & ~_M_FIELDS)
                   | (state.mode << c.MSTATUS_MPP_SHIFT)
                   | ((mstatus & c.MSTATUS_MIE) << _IE_TO_PIE))
        state.pc = _vectored_target(csr.mtvec, trap)
    else:
        csr.sepc = state.pc & ~0x3
        csr.scause = trap.mcause_value
        csr._simple[c.CSR_STVAL] = trap.tval & c.XMASK
        mstatus = ((mstatus & ~_S_FIELDS)
                   | ((state.mode & 1) << c.MSTATUS_SPP_SHIFT)
                   | ((mstatus & c.MSTATUS_SIE) << _IE_TO_PIE))
        state.pc = _vectored_target(csr.stvec, trap)
    # Bypass legalization: trap delivery may set any MPP among supported.
    csr.mstatus = mstatus
    state.mode = target
    state.waiting_for_interrupt = False
    return target


def execute_mret(state: MachineState) -> None:
    """``mret`` semantics: return from an M-mode trap handler."""
    mstatus = state.csr.mstatus
    previous = _MODE_BY_PP[(mstatus & c.MSTATUS_MPP) >> c.MSTATUS_MPP_SHIFT]
    if previous is None:
        raise ValueError("mstatus.MPP holds the reserved encoding 2")
    mstatus = ((mstatus & ~_M_FIELDS)
               | ((mstatus & c.MSTATUS_MPIE) >> _IE_TO_PIE)
               | c.MSTATUS_MPIE)
    if previous != c.M_MODE:
        mstatus &= ~c.MSTATUS_MPRV
    state.csr.mstatus = mstatus
    state.mode = previous
    state.pc = state.csr.mepc


def execute_sret(state: MachineState) -> None:
    """``sret`` semantics: return from an S-mode trap handler."""
    mstatus = state.csr.mstatus
    previous = _MODE_BY_PP[(mstatus & c.MSTATUS_SPP) >> c.MSTATUS_SPP_SHIFT]
    mstatus = ((mstatus & ~_S_FIELDS)
               | ((mstatus & c.MSTATUS_SPIE) >> _IE_TO_PIE)
               | c.MSTATUS_SPIE)
    if previous != c.M_MODE:  # always true for sret; kept for symmetry
        mstatus &= ~c.MSTATUS_MPRV
    state.csr.mstatus = mstatus
    state.mode = previous
    state.pc = state.csr.sepc
