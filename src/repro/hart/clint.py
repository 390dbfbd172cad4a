"""CLINT — Core Local INTerruptor.

The CLINT provides the machine timer (``mtime``, one ``mtimecmp`` per hart)
and software interrupts (one ``msip`` word per hart).  Per §4.3 of the
paper, this is the only MMIO device the VFM needs to emulate; Miralis's
virtual CLINT (:mod:`repro.core.vclint`) re-implements this register layout
on top of shadow state.

Register map (standard SiFive layout):

====================  ==========================================
offset                register
====================  ==========================================
0x0000 + 4*hart       msip[hart]      (bit 0 = software interrupt)
0x4000 + 8*hart       mtimecmp[hart]
0xBFF8                mtime
====================  ==========================================
"""

from __future__ import annotations

from typing import Callable

from repro.spec.step import BusError

MSIP_BASE = 0x0000
MTIMECMP_BASE = 0x4000
MTIME_OFFSET = 0xBFF8
CLINT_SIZE = 0xC000
#: Larger than any mtime: the next rise when no comparator can fire.
NEVER = 1 << 64


class Clint:
    """The physical CLINT device.

    ``time_source`` supplies the current mtime value (owned by the
    machine's clock); interrupt level changes are pushed through the
    ``set_msip``/``set_mtip`` callbacks so CSR ``mip`` bits track device
    state, as wired lines do on hardware.
    """

    def __init__(
        self,
        base: int,
        num_harts: int,
        time_source: Callable[[], int],
        set_msip: Callable[[int, bool], None],
        set_mtip: Callable[[int, bool], None],
    ):
        self.base = base
        self.size = CLINT_SIZE
        self.num_harts = num_harts
        self.time_source = time_source
        self._set_msip = set_msip
        self._set_mtip = set_mtip
        self.msip = [0] * num_harts
        self.mtimecmp = [(1 << 64) - 1] * num_harts
        # Last level pushed through ``set_mtip`` per hart.  mtip is a level
        # (an idempotent CSR bit), so suppressing same-level callbacks is
        # exact, not an approximation — unlike msip, whose rising edge also
        # triggers remote-hart servicing and must never be filtered.
        self._mtip_level: list[bool | None] = [None] * num_harts
        #: Earliest mtimecmp whose MTIP level is low (0 while a level is
        #: still unknown).  Time only moves forward between restores, so
        #: a low level can only rise once mtime reaches its comparator and
        #: a high level only falls on an mtimecmp write: below this value
        #: a re-evaluation changes nothing.  Every write and restore
        #: recomputes it.
        self.next_rise = 0
        #: Fault-injection hook: ``hook(kind, offset, size) -> bool``;
        #: True makes the access fail with a transient bus error.
        self.fault_hook = None

    # -- device interface ----------------------------------------------

    def read(self, offset: int, size: int) -> int:
        if self.fault_hook is not None and self.fault_hook("read", offset, size):
            raise BusError(f"clint: transient bus fault reading offset {offset:#x}")
        register_base, hart, byte = self._locate(offset, size)
        if register_base == MTIME_OFFSET:
            register = self.time_source()
        elif register_base == MSIP_BASE:
            register = self.msip[hart]
        else:
            register = self.mtimecmp[hart]
        return (register >> (8 * byte)) & ((1 << (8 * size)) - 1)

    def write(self, offset: int, size: int, value: int) -> None:
        if self.fault_hook is not None and self.fault_hook("write", offset, size):
            raise BusError(f"clint: transient bus fault writing offset {offset:#x}")
        register_base, hart, byte = self._locate(offset, size)
        if register_base == MTIME_OFFSET:
            # mtime is writable on real CLINTs; the simulated clock is
            # monotonic and owned by the machine, so writes are ignored.
            return
        if register_base == MSIP_BASE:
            self.msip[hart] = value & 1
            self._set_msip(hart, bool(value & 1))
            return
        mask = ((1 << (8 * size)) - 1) << (8 * byte)
        self.mtimecmp[hart] = (
            (self.mtimecmp[hart] & ~mask) | ((value << (8 * byte)) & mask)
        )
        self._update_mtip(hart)

    # -- timer logic ------------------------------------------------------

    def _locate(self, offset: int, size: int) -> tuple[int, int, int]:
        """Map an access onto one register: (register base, hart, byte).

        ``mtime``/``mtimecmp`` accept byte-granular accesses contained in
        one register; ``msip`` is 32-bit only, as on SiFive hardware.
        """
        if MTIME_OFFSET <= offset < MTIME_OFFSET + 8:
            byte = offset - MTIME_OFFSET
            if byte + size <= 8:
                return MTIME_OFFSET, 0, byte
        elif (
            MSIP_BASE <= offset < MSIP_BASE + 4 * self.num_harts
            and size == 4 and offset % 4 == 0
        ):
            return MSIP_BASE, (offset - MSIP_BASE) // 4, 0
        elif MTIMECMP_BASE <= offset < MTIMECMP_BASE + 8 * self.num_harts:
            byte = (offset - MTIMECMP_BASE) % 8
            if byte + size <= 8:
                return MTIMECMP_BASE, (offset - MTIMECMP_BASE) // 8, byte
        raise BusError(f"bad CLINT access: {size}B at offset {offset:#x}")

    def _update_mtip(self, hart: int) -> None:
        level = self.time_source() >= self.mtimecmp[hart]
        if level != self._mtip_level[hart]:
            self._mtip_level[hart] = level
            self._set_mtip(hart, level)
        self._reset_next_rise()

    def _reset_next_rise(self) -> None:
        levels = self._mtip_level
        if None in levels:
            self.next_rise = 0
            return
        self.next_rise = min(
            (deadline for deadline, level in zip(self.mtimecmp, levels)
             if not level),
            default=NEVER,
        )

    def tick(self) -> None:
        """Re-evaluate all timer comparators (called when time advances).

        Returns at once while mtime is below :attr:`next_rise`: no level
        can change before then.
        """
        now = self.time_source()
        if now < self.next_rise:
            return
        levels = self._mtip_level
        for hart, deadline in enumerate(self.mtimecmp):
            level = now >= deadline
            if level != levels[hart]:
                levels[hart] = level
                self._set_mtip(hart, level)
        self._reset_next_rise()

    def restore(self, msip: list[int], mtimecmp: list[int],
                mtip_level: list[bool | None]) -> None:
        """Load register and line state captured by a checkpoint."""
        self.msip[:] = msip
        self.mtimecmp[:] = mtimecmp
        self._mtip_level[:] = mtip_level
        self._reset_next_rise()

    # -- convenience used by firmware and the VFM fast path ---------------

    def mtimecmp_address(self, hart: int) -> int:
        return self.base + MTIMECMP_BASE + 8 * hart

    def msip_address(self, hart: int) -> int:
        return self.base + MSIP_BASE + 4 * hart

    @property
    def mtime_address(self) -> int:
        return self.base + MTIME_OFFSET
