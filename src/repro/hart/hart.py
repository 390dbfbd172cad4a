"""A hart: architectural state plus the execute/trap/charge glue."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.hart.cycles import mnemonic_cost_table
from repro.isa import constants as c
from repro.isa.instructions import Instruction
from repro.spec.interrupts import pending_interrupt
from repro.spec.state import MachineState
from repro.spec.step import Outcome, execute_instruction
from repro.spec.traps import take_trap

if TYPE_CHECKING:
    from repro.hart.machine import Machine


class Hart:
    """One hardware thread of the simulated machine."""

    def __init__(self, machine: "Machine", hartid: int):
        self.machine = machine
        self.hartid = hartid
        self.state = MachineState(
            machine.config, hartid=hartid, time_source=machine.read_mtime
        )
        self.cycle_model = machine.cycle_model
        self._cost_table = mnemonic_cost_table(machine.cycle_model)
        self.cycles = 0.0
        self.instret = 0
        #: When parked (idle in wfi), the pc handlers must return to so the
        #: machine can service interrupts on this hart from another hart's
        #: execution context (IPIs).
        self.parked_pc: Optional[int] = None

    # -- cycle accounting ---------------------------------------------

    def charge(self, cycles: float) -> None:
        # Inlines ``Machine.charge``; the two float additions keep their
        # order.
        self.cycles += cycles
        self.machine.cycles += cycles

    # -- execution ------------------------------------------------------

    def execute(self, instr: Instruction) -> Outcome:
        """Execute one instruction via the reference spec and charge cycles."""
        model = self.cycle_model
        outcome = execute_instruction(self.state, instr, self.machine.spec_bus)
        cost = self._cost_table.get(instr.mnemonic)
        if cost is None:
            cost = model.instruction
        if outcome.memory_access is not None:
            if self.machine.is_mmio(outcome.memory_access.address):
                cost += model.mmio_access
        trap = outcome.trap
        if trap is not None:
            cost += (
                model.trap_entry
                if self.state.mode == c.M_MODE
                else model.trap_entry_s
            )
            # from_mode None: the mode before the trap is folded into cause.
            self.machine.stats.record_trap(
                self.hartid, trap.cause, trap.is_interrupt, None,
                self.machine.read_mtime(),
            )
        self.charge(cost)
        self.instret += 1
        self.state.csr._simple[c.CSR_MINSTRET] = self.instret
        self.state.csr._simple[c.CSR_MCYCLE] = int(self.cycles)
        return outcome

    def check_interrupts(self) -> bool:
        """Deliver a pending interrupt if any.  Returns True if one was taken."""
        machine = self.machine
        clint = machine.clint
        if machine.read_mtime() >= clint.next_rise:
            # Below the next rise no timer line can change: skip the call.
            clint.tick()
        csr = self.state.csr
        if not csr.mip & csr.mie:
            # Nothing pending and enabled: interrupt selection would
            # return None, whatever the mode and global enables.
            return False
        trap = pending_interrupt(self.state)
        if trap is None:
            return False
        from_mode = self.state.mode
        target = take_trap(self.state, trap)
        self.state.waiting_for_interrupt = False
        self.charge(
            self.cycle_model.trap_entry
            if target == c.M_MODE
            else self.cycle_model.trap_entry_s
        )
        machine.stats.record_trap(
            self.hartid, trap.cause, True, from_mode, machine.read_mtime()
        )
        return True

    def __repr__(self) -> str:
        return f"<Hart {self.hartid} pc={self.state.pc:#x} mode={self.state.mode.short_name}>"
