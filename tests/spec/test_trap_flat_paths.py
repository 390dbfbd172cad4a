"""Flat trap entry and xRET against the field-by-field formulation.

``take_trap``, ``execute_mret`` and ``execute_sret`` compute mstatus with
fixed masks, write xtval straight into CSR storage and map xPP through a
tuple.  The reference copies below are the ``set_field``/``get_field``
formulation they replaced, kept test-local; both must leave every bit of
architectural state identical over the whole input space that matters:
mode x MIE/SIE/MPIE/SPIE/MPP/SPP x interrupt/exception x delegated or not.
"""

import itertools

import pytest

from repro.isa import constants as c
from repro.isa.bits import get_field, set_field
from repro.spec.state import MachineState
from repro.spec.traps import (
    Trap,
    _vectored_target,
    execute_mret,
    execute_sret,
    take_trap,
    trap_target_mode,
)
from repro.spec.platform import VISIONFIVE2

MODES = (c.U_MODE, c.S_MODE, c.M_MODE)
#: Bits outside the trap fields that must pass through untouched.
BACKGROUNDS = (0, c.MSTATUS_MPRV | c.MSTATUS_SUM | (3 << 13))
BACKGROUND_IDS = ("plain", "mprv-sum-fs")


def reference_take_trap(state, trap):
    target = trap_target_mode(state, trap)
    mstatus = state.csr.mstatus
    if target == c.M_MODE:
        state.csr.mepc = state.pc & ~0x3
        state.csr.mcause = trap.mcause_value
        state.csr.write(c.CSR_MTVAL, trap.tval)
        mstatus = set_field(mstatus, c.MSTATUS_MPP, int(state.mode))
        mie = get_field(mstatus, c.MSTATUS_MIE)
        mstatus = set_field(mstatus, c.MSTATUS_MPIE, mie)
        mstatus = set_field(mstatus, c.MSTATUS_MIE, 0)
        state.pc = _vectored_target(state.csr.mtvec, trap)
    else:
        state.csr.sepc = state.pc & ~0x3
        state.csr.scause = trap.mcause_value
        state.csr.write(c.CSR_STVAL, trap.tval)
        mstatus = set_field(mstatus, c.MSTATUS_SPP, int(state.mode) & 1)
        sie = get_field(mstatus, c.MSTATUS_SIE)
        mstatus = set_field(mstatus, c.MSTATUS_SPIE, sie)
        mstatus = set_field(mstatus, c.MSTATUS_SIE, 0)
        state.pc = _vectored_target(state.csr.stvec, trap)
    state.csr.mstatus = mstatus
    state.mode = target
    state.waiting_for_interrupt = False
    return target


def reference_mret(state):
    mstatus = state.csr.mstatus
    previous = c.PrivilegeLevel(get_field(mstatus, c.MSTATUS_MPP))
    mpie = get_field(mstatus, c.MSTATUS_MPIE)
    mstatus = set_field(mstatus, c.MSTATUS_MIE, mpie)
    mstatus = set_field(mstatus, c.MSTATUS_MPIE, 1)
    mstatus = set_field(mstatus, c.MSTATUS_MPP, int(c.U_MODE))
    if previous != c.M_MODE:
        mstatus &= ~c.MSTATUS_MPRV
    state.csr.mstatus = mstatus
    state.mode = previous
    state.pc = state.csr.mepc


def reference_sret(state):
    mstatus = state.csr.mstatus
    previous = c.PrivilegeLevel(get_field(mstatus, c.MSTATUS_SPP))
    spie = get_field(mstatus, c.MSTATUS_SPIE)
    mstatus = set_field(mstatus, c.MSTATUS_SIE, spie)
    mstatus = set_field(mstatus, c.MSTATUS_SPIE, 1)
    mstatus = set_field(mstatus, c.MSTATUS_SPP, int(c.U_MODE))
    if previous != c.M_MODE:
        mstatus &= ~c.MSTATUS_MPRV
    state.csr.mstatus = mstatus
    state.mode = previous
    state.pc = state.csr.sepc


def mstatus_values(background):
    """Every MIE/SIE/MPIE/SPIE/MPP/SPP combination over ``background``."""
    for mie, sie, mpie, spie, mpp, spp in itertools.product(
            (0, 1), (0, 1), (0, 1), (0, 1), (0, 1, 3), (0, 1)):
        value = c.XL_64 << 32 | c.XL_64 << 34 | background
        value = set_field(value, c.MSTATUS_MIE, mie)
        value = set_field(value, c.MSTATUS_SIE, sie)
        value = set_field(value, c.MSTATUS_MPIE, mpie)
        value = set_field(value, c.MSTATUS_SPIE, spie)
        value = set_field(value, c.MSTATUS_MPP, mpp)
        yield set_field(value, c.MSTATUS_SPP, spp)


def make_state(mode, mstatus):
    state = MachineState(VISIONFIVE2)
    state.pc = 0x8400_1236
    state.mode = mode
    state.csr.mstatus = mstatus
    state.csr.mtvec = 0x8020_0001  # vectored
    state.csr.stvec = 0x8400_0100  # direct
    state.csr.mepc = 0x8000_0040
    state.csr.sepc = 0x8400_2000
    return state


def observable(state, result=None):
    return (result, state.pc, state.mode, type(state.mode),
            state.waiting_for_interrupt, state.snapshot())


TRAPS = (
    # (trap, delegation bit it uses)
    (Trap(c.IRQ_MTI, is_interrupt=True), ("mideleg", c.IRQ_MTI)),
    (Trap(c.IRQ_SSI, is_interrupt=True), ("mideleg", c.IRQ_SSI)),
    (Trap(c.TrapCause.ILLEGAL_INSTRUCTION, tval=0x1234_5073),
     ("medeleg", c.TrapCause.ILLEGAL_INSTRUCTION)),
    (Trap(c.TrapCause.ECALL_FROM_S), ("medeleg", c.TrapCause.ECALL_FROM_S)),
    (Trap(c.TrapCause.LOAD_ACCESS_FAULT, tval=(1 << 64) - 8),
     ("medeleg", c.TrapCause.LOAD_ACCESS_FAULT)),
    (Trap(c.TrapCause.BREAKPOINT, tval=-1),
     ("medeleg", c.TrapCause.BREAKPOINT)),
)
TRAP_IDS = ("irq-mti", "irq-ssi", "illegal", "ecall-s", "load-fault",
            "breakpoint")


@pytest.mark.parametrize("background", BACKGROUNDS, ids=BACKGROUND_IDS)
@pytest.mark.parametrize("trap,deleg", TRAPS, ids=TRAP_IDS)
def test_take_trap_matches_field_formulation(trap, deleg, background):
    register, cause = deleg
    checked = 0
    for mode, mstatus, delegated in itertools.product(
            MODES, mstatus_values(background), (False, True)):
        states = []
        for deliver in (take_trap, reference_take_trap):
            state = make_state(mode, mstatus)
            setattr(state.csr, register, (1 << cause) if delegated else 0)
            states.append(observable(state, deliver(state, trap)))
        assert states[0] == states[1], (mode, hex(mstatus), delegated)
        checked += 1
    assert checked == 3 * 96 * 2


@pytest.mark.parametrize("background", BACKGROUNDS, ids=BACKGROUND_IDS)
@pytest.mark.parametrize("xret,reference", [
    (execute_mret, reference_mret), (execute_sret, reference_sret),
], ids=["mret", "sret"])
def test_xret_matches_field_formulation(xret, reference, background):
    for mode, mstatus in itertools.product(
            (c.S_MODE, c.M_MODE), mstatus_values(background)):
        results = []
        for run in (xret, reference):
            state = make_state(mode, mstatus)
            run(state)
            results.append(observable(state))
        assert results[0] == results[1], (mode, hex(mstatus))


def test_mret_rejects_the_reserved_mpp_encoding_like_the_reference():
    mstatus = set_field(0, c.MSTATUS_MPP, 2)
    for run in (execute_mret, reference_mret):
        with pytest.raises(ValueError):
            run(make_state(c.M_MODE, mstatus))
