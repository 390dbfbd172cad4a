"""Span self-time arithmetic and wrapper removal."""

import threading

from perfbench import spans


def _recorder(times, names=("a", "b", "c")):
    ticks = iter(times)
    return spans.SpanRecorder(names, clock=lambda: next(ticks))


def test_nested_span_self_time():
    # a: [0, 10), b nested in a: [2, 5)
    rec = _recorder([0, 0, 2, 5, 10])
    rec.enter(0)
    rec.enter(1)
    rec.exit()
    rec.exit()
    assert rec.self_s[:2] == [7, 3]
    assert rec.inclusive_s[:2] == [10, 3]
    assert rec.calls[:2] == [1, 1]


def test_children_covering_the_parent_leave_it_no_self_time():
    # a: [1, 9); b: [1, 4) and c: [4, 9) cover it whole.
    rec = _recorder([0, 1, 1, 4, 4, 9, 9])
    rec.enter(0)
    rec.enter(1)
    rec.exit()
    rec.enter(2)
    rec.exit()
    rec.exit()
    assert rec.self_s == [0, 3, 5]
    assert rec.inclusive_s[0] == 8
    assert rec.outside_s == 1


def test_self_times_sum_to_covered_wall_time():
    rec = _recorder([0, 2, 3, 4, 6, 7, 11, 12, 20])
    rec.enter(0)      # 2
    rec.enter(1)      # 3
    rec.enter(2)      # 4
    rec.exit()        # 6
    rec.exit()        # 7
    rec.exit()        # 11
    snap = rec.snapshot()  # 12
    assert sum(snap["self_s"].values()) == 11 - 2
    assert snap["outside_s"] == 2 + 1
    assert snap["self_s"] == {"a": 5, "b": 2, "c": 2}


def test_recursive_span_counts_every_call():
    rec = _recorder([0, 0, 1, 3, 4])
    rec.enter(0)
    rec.enter(0)
    rec.exit()
    rec.exit()
    assert rec.calls[0] == 2
    assert rec.self_s[0] == 4


def test_blocked_thread_time_is_charged_to_the_thread_that_ran():
    # Thread T1 opens a, then blocks inside b (a hand-over point) while
    # T2 runs c; the wait is charged to c, not double counted.  The gap
    # after T2's last span closes, before T1 resumes, is outside spans.
    rec = _recorder([0, 0, 1, 2, 6, 7, 8])
    rec.enter(0)            # T1: a at 0
    rec.enter(1)            # T1: b at 1 (blocks)
    worker = threading.Thread(target=lambda: (rec.enter(2), rec.exit()))
    worker.start()          # T2: c from 2 to 6
    worker.join(timeout=10)
    assert not worker.is_alive()
    rec.exit()              # T1: b ends at 7
    rec.exit()              # T1: a ends at 8
    assert rec.self_s == [2, 1, 4]
    assert rec.outside_s == 1
    assert rec.inclusive_s[1] == 6  # b waited from 1 to 7
    assert sum(rec.self_s) + rec.outside_s == 8


def test_wrappers_count_calls_and_are_removed_afterwards():
    from repro.hart import hart as hart_module
    from repro.isa import decoder
    from repro.spec import step

    originals = (hart_module.Hart.execute, step.execute_instruction,
                 hart_module.execute_instruction, decoder.decode)
    assert spans.wrapped_targets() == []
    with spans.installed() as rec:
        assert hart_module.Hart.execute is not originals[0]
        assert hart_module.execute_instruction is not originals[2]
        assert "repro.hart.hart:Hart.execute" in spans.wrapped_targets()
        from perfbench import workloads

        episode = workloads.run_mix_episode(workloads.mix_ops(3, 20), True)
        counted = dict(zip(rec.names, rec.calls))
    assert episode.failed == 0
    assert counted["hart.execute"] > 0
    assert counted["core.miralis.handle"] > 0
    assert spans.wrapped_targets() == []
    assert (hart_module.Hart.execute, step.execute_instruction,
            hart_module.execute_instruction, decoder.decode) == originals
    # An untraced run after removal reaches no wrapper.
    workloads.run_mix_episode(workloads.mix_ops(3, 20), True)
    assert dict(zip(rec.names, rec.calls)) == counted


def test_inherited_method_wrapper_is_deleted_not_left_behind():
    from repro.firmware.base import BaseFirmware
    from repro.hart.program import GuestProgram
    from repro.os_model.kernel import KernelProgram

    assert "dispatch" not in vars(BaseFirmware)
    with spans.installed():
        assert "dispatch" in vars(BaseFirmware)
        assert "dispatch" in vars(KernelProgram)
    assert "dispatch" not in vars(BaseFirmware)
    assert "dispatch" not in vars(KernelProgram)
    assert KernelProgram.dispatch is GuestProgram.dispatch
