"""Guest-program framework.

Guest software (vendor firmware, the OS kernel, enclave runtimes) is
modelled as Python objects that issue *real architectural operations*
through a :class:`GuestContext`.  Every operation is a genuine decoded
RV64 instruction executed through the reference specification at the
hart's **current privilege level** — so the very same firmware code runs
in M-mode on a native machine and in vM-mode (physical U-mode) under
Miralis, where each privileged operation raises a real illegal-instruction
trap.  This is the property the paper's whole design rests on: unmodified
firmware cannot tell it has been deprivileged.

Control transfers mirror hardware: a trap suspends the current program
mid-operation (the Python call stack stays alive, like a core's return
stack), the machine dispatches the handler that owns the new PC, and when
the handler eventually returns control (xRET) to the interrupted
instruction stream the suspended operation completes and the program
continues.  Trap handlers therefore run to completion, exactly the
execution model §4.1 describes for Miralis.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Optional

from repro.isa import constants as c
from repro.isa.encoding import encode
from repro.isa.instructions import Instruction, make_instruction

if TYPE_CHECKING:
    from repro.hart.hart import Hart
    from repro.hart.machine import Machine


class MachineHalted(Exception):
    """Raised to unwind all guest programs when the machine halts."""

    def __init__(self, reason: str = "halt"):
        self.reason = reason
        super().__init__(reason)


class ProtocolError(Exception):
    """A guest program or handler violated the control-transfer protocol."""


class FirmwareRecovered(Exception):
    """The watchdog recovered (or quarantined) a failed firmware activation.

    Raised by the monitor's watchdog to abandon the Python frames of a
    wedged firmware instruction stream, exactly as a hardware reset of the
    vM-mode context abandons its architectural state.  The machine's
    dispatch loops catch it and continue from the recovered pc.
    """

    def __init__(self, reason: str = "recovered"):
        self.reason = reason
        super().__init__(reason)


@dataclasses.dataclass(frozen=True)
class Region:
    """A named physical address range owned by a program or host handler."""

    name: str
    base: int
    size: int

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, address: int) -> bool:
        return self.base <= address < self.end

    def __str__(self) -> str:
        return f"{self.name}[{self.base:#x}..{self.end:#x})"


class GuestProgram:
    """Base class for guest software.

    Subclasses implement :meth:`boot` (entered at the region base on
    reset or first jump) and :meth:`handle_trap` (entered at
    ``trap_vector``).  The machine calls :meth:`dispatch` whenever control
    enters this program's region at one of those two addresses.
    """

    #: Offset of the trap vector within the region.
    TRAP_VECTOR_OFFSET = 0x100
    #: Offset ctx operations wrap back to when nearing the region end.
    CODE_LOOP_OFFSET = 0x1000
    #: Whether the program supports re-entry at an arbitrary pc after a
    #: forced context switch (see :meth:`resume`).
    resumable = False

    def __init__(self, name: str, region: Region):
        self.name = name
        self.region = region
        #: Additional entry points: address -> callable(ctx).
        self._extra_entries: dict[int, object] = {}

    @property
    def entry_point(self) -> int:
        return self.region.base

    @property
    def trap_vector(self) -> int:
        return self.region.base + self.TRAP_VECTOR_OFFSET

    def add_entry(self, address: int, handler) -> None:
        """Register an additional entry point (e.g. a secondary-hart entry)."""
        if not self.region.contains(address):
            raise ValueError(f"entry {address:#x} outside {self.region}")
        self._extra_entries[address] = handler

    # -- checkpoint hooks (see :mod:`repro.snapshot`) --------------------

    def snapshot_state(self) -> dict:
        """Model-level state a checkpoint must carry for this program.

        Guest programs are Python objects, so besides the architectural
        state (registers, CSRs, RAM — captured by the machine layers)
        they hold *model* state: counters, protocol progress, logs.
        Subclasses override both hooks to round-trip it; the values must
        survive :func:`repro.snapshot.checkpoint._to_jsonable`.
        """
        return {}

    def restore_state(self, state: dict) -> None:
        """Invert :meth:`snapshot_state` (no-op by default)."""

    def dispatch(self, machine: "Machine", hart: "Hart") -> None:
        ctx = GuestContext(machine, hart, self)
        pc = hart.state.pc
        if pc == self.entry_point:
            self.boot(ctx)
        elif self.trap_vector <= pc < self.trap_vector + 4 * 64:
            # Direct or vectored entry (vectored: base + 4 * cause).
            ctx.enter_trap_frame()
            self.handle_trap(ctx)
        elif pc in self._extra_entries:
            self._extra_entries[pc](ctx)
        elif self.resumable and self.region.contains(pc):
            # Resumable programs (TEE enclaves / confidential VMs) can be
            # re-entered at an arbitrary point after a forced context
            # switch; they continue from their own recorded progress.
            self.resume(ctx)
        else:
            raise ProtocolError(
                f"program {self.name} re-entered at unexpected pc {pc:#x}"
            )

    # -- to be implemented by subclasses ---------------------------------

    def boot(self, ctx: "GuestContext") -> None:
        raise NotImplementedError

    def handle_trap(self, ctx: "GuestContext") -> None:
        raise NotImplementedError

    def resume(self, ctx: "GuestContext") -> None:
        """Continue after a forced context switch (resumable programs)."""
        raise NotImplementedError


class GuestContext:
    """Architectural operation interface handed to guest program code.

    Each method executes one decoded instruction through the reference
    spec.  If the instruction traps, handlers run (possibly nested, and
    possibly including a full world switch through the VFM) before the
    method returns.
    """

    def __init__(self, machine: "Machine", hart: "Hart", program: GuestProgram):
        self.machine = machine
        self.hart = hart
        self.program = program
        #: Saved GPRs of the interrupted context (trap handlers only).
        #: Real firmware saves all registers in its trap prologue and
        #: restores them before xRET; results are written into the saved
        #: frame.  Handler-local scratch usage thus never leaks into the
        #: interrupted context.
        self.trap_frame: Optional[list[int]] = None

    # -- trap frame -------------------------------------------------------

    def enter_trap_frame(self) -> None:
        self.trap_frame = self.hart.state.xregs

    def trap_reg(self, index: int) -> int:
        """Read a register of the *interrupted* context."""
        if self.trap_frame is None:
            return self.hart.state.get_xreg(index)
        return self.trap_frame[index]

    def set_trap_reg(self, index: int, value: int) -> None:
        """Write a register of the interrupted context (e.g. SBI results)."""
        if self.trap_frame is None:
            self.hart.state.set_xreg(index, value)
        elif index != 0:
            self.trap_frame[index] = value & ((1 << 64) - 1)

    def _restore_trap_frame(self) -> None:
        if self.trap_frame is not None:
            self.hart.state.load_xregs(self.trap_frame)
            self.trap_frame = None

    # -- core execution loop ---------------------------------------------

    def _wrap_pc(self) -> None:
        region = self.program.region
        if self.hart.state.pc >= region.end - 16:
            # Architectural backward jump keeping the instruction stream
            # inside the program's region (models the program's code loop).
            self.hart.state.pc = region.base + self.program.CODE_LOOP_OFFSET
            self.hart.charge(self.hart.cycle_model.instruction)

    def _materialize(self, instr: Instruction) -> None:
        """Write the instruction's encoding into RAM at the current pc.

        Guest programs are Python objects, but trap handlers (firmware and
        the VFM) fetch the *instruction word at mepc* from memory when
        emulating — e.g. misaligned loads.  Materializing each executed
        instruction keeps the in-memory instruction stream consistent with
        what actually executed.
        """
        pc = self.hart.state.pc
        ram = self.machine.ram
        if ram.base <= pc and pc + 4 <= ram.base + ram.size:
            ram.write(pc, 4, encode(instr))

    def exec(self, instr: Instruction):
        """Execute one instruction; run trap handlers to completion.

        Returns the :class:`~repro.spec.step.Outcome` of the (final,
        committed or emulated) execution of the instruction.
        """
        scheduler = self.machine.scheduler
        if scheduler is not None:
            # SMP preemption point: one checkpoint per architectural
            # operation.  Costs one attribute load and one branch when
            # disabled, same budget as the tracer hook.
            scheduler.checkpoint(self.hart)
        self._wrap_pc()
        self._materialize(instr)
        while True:
            if self.machine.halted:
                raise MachineHalted(self.machine.halt_reason or "halted")
            op_pc = self.hart.state.pc
            # Deliver any pending interrupt before issuing the instruction.
            if self.hart.check_interrupts():
                self.machine.run_until(self.hart, {op_pc})
                continue
            outcome = self.hart.execute(instr)
            if outcome.trap is None:
                return outcome
            if instr.mnemonic in ("mret", "sret"):
                # An xRET that trapped is being emulated by a more
                # privileged handler (the VFM).  Control transfers away by
                # design: run that handler once and unwind — the calling
                # program's handler function must treat xRET as its final
                # action, mirroring real trap-handler code.
                try:
                    self.machine.dispatch_current(self.hart)
                except FirmwareRecovered:
                    pass
                return outcome
            # The trap has been delivered architecturally; dispatch handlers
            # until control returns either to this very instruction
            # (re-execute, e.g. after an interrupt-style handler) or just
            # past it (the handler emulated the instruction, the common
            # Miralis case).
            self.machine.run_until(self.hart, {op_pc, op_pc + 4})
            if self.hart.state.pc == op_pc + 4:
                return outcome
            # pc == op_pc: retry the instruction.

    # -- register access ---------------------------------------------------

    def get_reg(self, index: int) -> int:
        return self.hart.state.get_xreg(index)

    def set_reg(self, index: int, value: int) -> None:
        """Place a value in a register (modelled as a materialization).

        Charged as two instructions, approximating an ``li`` sequence.
        """
        self.hart.state.set_xreg(index, value)
        self.hart.charge(2 * self.hart.cycle_model.instruction)

    # -- CSR operations ----------------------------------------------------

    _SCRATCH_A = 31  # t6: address / CSR operand scratch
    _SCRATCH_B = 30  # t5: data scratch
    _SCRATCH_C = 29  # t4: result scratch

    def csrrw(self, csr: int, value: int) -> int:
        self.set_reg(self._SCRATCH_A, value)
        self.exec(make_instruction("csrrw", rd=self._SCRATCH_C, rs1=self._SCRATCH_A, csr=csr))
        return self.get_reg(self._SCRATCH_C)

    def csrr(self, csr: int) -> int:
        self.exec(make_instruction("csrrs", rd=self._SCRATCH_C, rs1=0, csr=csr))
        return self.get_reg(self._SCRATCH_C)

    def csrw(self, csr: int, value: int) -> None:
        self.set_reg(self._SCRATCH_A, value)
        self.exec(make_instruction("csrrw", rd=0, rs1=self._SCRATCH_A, csr=csr))

    def csrs(self, csr: int, mask: int) -> int:
        self.set_reg(self._SCRATCH_A, mask)
        self.exec(make_instruction("csrrs", rd=self._SCRATCH_C, rs1=self._SCRATCH_A, csr=csr))
        return self.get_reg(self._SCRATCH_C)

    def csrc(self, csr: int, mask: int) -> int:
        self.set_reg(self._SCRATCH_A, mask)
        self.exec(make_instruction("csrrc", rd=self._SCRATCH_C, rs1=self._SCRATCH_A, csr=csr))
        return self.get_reg(self._SCRATCH_C)

    def csrrwi(self, csr: int, zimm: int) -> int:
        self.exec(make_instruction("csrrwi", rd=self._SCRATCH_C, rs1=zimm, csr=csr))
        return self.get_reg(self._SCRATCH_C)

    # -- memory --------------------------------------------------------

    _LOAD_FOR_SIZE = {1: "lbu", 2: "lhu", 4: "lwu", 8: "ld"}
    _SIGNED_LOAD_FOR_SIZE = {1: "lb", 2: "lh", 4: "lw", 8: "ld"}
    _STORE_FOR_SIZE = {1: "sb", 2: "sh", 4: "sw", 8: "sd"}

    def load(self, address: int, size: int = 8, signed: bool = False) -> int:
        table = self._SIGNED_LOAD_FOR_SIZE if signed else self._LOAD_FOR_SIZE
        self.set_reg(self._SCRATCH_A, address)
        self.exec(make_instruction(table[size], rd=self._SCRATCH_C, rs1=self._SCRATCH_A))
        return self.get_reg(self._SCRATCH_C)

    def store(self, address: int, value: int, size: int = 8) -> None:
        self.set_reg(self._SCRATCH_A, address)
        self.set_reg(self._SCRATCH_B, value)
        self.exec(
            make_instruction(self._STORE_FOR_SIZE[size], rs1=self._SCRATCH_A, rs2=self._SCRATCH_B)
        )

    # -- system instructions ------------------------------------------

    def ecall(self, *args: int, a7: Optional[int] = None, a6: Optional[int] = None):
        """Execute ``ecall`` with SBI-style arguments.

        Positional args fill a0..a5; ``a6``/``a7`` carry the SBI function
        and extension IDs.  Returns ``(a0, a1)`` after the call completes.
        """
        if len(args) > 6:
            raise ValueError("at most 6 positional ecall arguments (a0-a5)")
        for index, value in enumerate(args):
            self.set_reg(10 + index, value)
        if a6 is not None:
            self.set_reg(16, a6)
        if a7 is not None:
            self.set_reg(17, a7)
        self.exec(make_instruction("ecall"))
        return self.get_reg(10), self.get_reg(11)

    def mret(self) -> None:
        self._restore_trap_frame()
        self.exec(make_instruction("mret"))

    def sret(self) -> None:
        self._restore_trap_frame()
        self.exec(make_instruction("sret"))

    def wfi(self) -> None:
        """Wait for interrupt: stalls simulated time until one is pending.

        On wakeup, an enabled pending interrupt is delivered immediately
        (its handler runs to completion before this call returns), as on
        real hardware where execution vectors straight from the stalled
        wfi into the trap handler.
        """
        self.exec(make_instruction("wfi"))
        if self.hart.state.waiting_for_interrupt:
            self.machine.advance_until_interrupt(self.hart)
            resume_pc = self.hart.state.pc
            if self.hart.check_interrupts():
                self.machine.run_until(self.hart, {resume_pc})

    def fence(self) -> None:
        self.exec(make_instruction("fence"))

    def fence_i(self) -> None:
        self.exec(make_instruction("fence.i"))

    def sfence_vma(self) -> None:
        self.exec(make_instruction("sfence.vma"))

    # -- modelling helpers ----------------------------------------------

    def compute(self, instructions: int) -> None:
        """Model a block of ordinary computation.

        Charges cycle cost and advances simulated time without emitting
        each ALU instruction individually; used by workload generators.
        Privileged behaviour is never hidden in ``compute``.  Like real
        straight-line code, the block is interruptible: a timer expiring
        during it is delivered at its end.
        """
        scheduler = self.machine.scheduler
        if scheduler is not None:
            # SMP preemption point: a compute block is a slab of real
            # instructions, so it must consume quantum like any other
            # architectural operation — otherwise a busy-wait loop built
            # from compute() (spin-until-IPI) never yields its slice.
            scheduler.checkpoint(self.hart)
        self.hart.charge(instructions * self.hart.cycle_model.instruction)
        resume_pc = self.hart.state.pc
        # Deliver interrupt chains (e.g. an IPI whose handler raises a
        # supervisor software interrupt) to completion.
        for _ in range(8):
            if not self.hart.check_interrupts():
                break
            self.machine.run_until(self.hart, {resume_pc})

    @property
    def mode(self) -> c.PrivilegeLevel:
        return self.hart.state.mode
