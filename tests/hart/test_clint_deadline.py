"""The deadline-gated ``Clint.tick`` against full re-evaluation.

``tick`` returns at once while mtime is below the CLINT's next rise (the
earliest mtimecmp whose MTIP line is low).  The property: over any
interleaving of byte-granular mtimecmp writes, time advances and
checkpoint restores, every tick leaves the MTIP lines — and the sequence
of line callbacks — exactly where a reference that re-evaluates every
comparator on every tick leaves them.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hart.clint import MTIMECMP_BASE, NEVER, Clint

U64 = (1 << 64) - 1


class ReferenceTimer:
    """mtimecmp plus MTIP levels, every comparator re-evaluated per tick."""

    def __init__(self, num_harts):
        self.mtimecmp = [U64] * num_harts
        self.level = [None] * num_harts
        self.log = []

    def _evaluate(self, hart, now):
        level = now >= self.mtimecmp[hart]
        if level != self.level[hart]:
            self.level[hart] = level
            self.log.append((hart, level))

    def write(self, hart, byte, size, value, now):
        mask = ((1 << (8 * size)) - 1) << (8 * byte)
        self.mtimecmp[hart] = (
            (self.mtimecmp[hart] & ~mask) | ((value << (8 * byte)) & mask))
        self._evaluate(hart, now)

    def tick(self, now):
        for hart in range(len(self.mtimecmp)):
            self._evaluate(hart, now)


SIZES = st.sampled_from([(0, 8), (0, 4), (4, 4), (0, 2), (2, 2), (6, 2),
                         (0, 1), (1, 1), (3, 1), (7, 1), (1, 4)])

OPS = st.one_of(
    # An mtimecmp write of ``size`` bytes at ``byte``, cut from a 64-bit
    # value a few ticks from now ("near") or anywhere ("any").
    st.tuples(st.just("write"), st.integers(0, 2), SIZES,
              st.one_of(st.integers(-64, 64).map(lambda d: ("near", d)),
                        st.integers(0, U64).map(lambda v: ("any", v)))),
    st.tuples(st.just("advance"),
              st.one_of(st.integers(0, 8), st.integers(0, 1 << 20))),
    st.tuples(st.just("checkpoint")),
    st.tuples(st.just("restore")),
)


@settings(max_examples=300, deadline=None)
@given(num_harts=st.integers(1, 3), start=st.integers(0, 1 << 40),
       ops=st.lists(OPS, max_size=40))
def test_gated_tick_matches_full_reevaluation(num_harts, start, ops):
    now = [start]
    log = []
    clint = Clint(0x200_0000, num_harts, lambda: now[0],
                  set_msip=lambda hart, level: None,
                  set_mtip=lambda hart, level: log.append((hart, level)))
    reference = ReferenceTimer(num_harts)
    saved = None

    def check():
        clint.tick()
        reference.tick(now[0])
        assert log == reference.log
        assert clint._mtip_level == reference.level
        # The gate is tight: the next rise is exactly the earliest low
        # comparator, so a tick at that mtime must do work.
        low = [deadline for deadline, level
               in zip(reference.mtimecmp, reference.level) if not level]
        assert clint.next_rise == min(low, default=NEVER)

    check()
    for op in ops:
        kind = op[0]
        if kind == "write":
            _, hart, (byte, size), (how, amount) = op
            hart %= num_harts
            value = (now[0] + amount) & U64 if how == "near" else amount
            part = (value >> (8 * byte)) & ((1 << (8 * size)) - 1)
            clint.write(MTIMECMP_BASE + 8 * hart + byte, size, part)
            reference.write(hart, byte, size, part, now[0])
        elif kind == "advance":
            now[0] += op[1]
        elif kind == "checkpoint":
            saved = (now[0], list(clint.msip), list(clint.mtimecmp),
                     list(clint._mtip_level), len(log))
        elif saved is not None:  # restore: time may move backwards
            now[0], msip, mtimecmp, levels, logged = saved
            clint.restore(msip, mtimecmp, levels)
            reference.mtimecmp = list(mtimecmp)
            reference.level = list(levels)
            del log[logged:]
            del reference.log[logged:]
        check()


def test_restore_before_the_first_tick_forces_an_evaluation():
    now = [100]
    log = []
    clint = Clint(0, 1, lambda: now[0], lambda hart, level: None,
                  lambda hart, level: log.append((hart, level)))
    clint.restore([0], [50], [None])
    assert clint.next_rise == 0
    clint.tick()
    assert log == [(0, True)]
    assert clint.next_rise == NEVER
