"""Workload inputs come from the seed alone; episodes repeat exactly."""

from perfbench import workloads


def test_mix_ops_are_a_function_of_the_seed():
    assert workloads.mix_ops(7) == workloads.mix_ops(7)
    assert workloads.mix_ops(7) != workloads.mix_ops(8)
    kinds = {kind for kind, _, _ in workloads.mix_ops(7)}
    assert kinds == {"time", "timer", "ipi", "rfence", "misaligned"}


def test_every_seed_runs_the_same_mix_in_another_order():
    def multiset(seed, count):
        ops = workloads.mix_ops(seed, count)
        return sorted(kind for kind, _, _ in ops), sorted(g for _, g, _ in ops)

    assert multiset(7, 1_000) == multiset(8, 1_000)
    assert multiset(7, 20) == multiset(9, 20)
    counts = workloads.mix_counts(1_000)
    assert sum(counts.values()) == 1_000
    assert counts == {"time": 874, "timer": 87, "ipi": 26, "rfence": 7,
                      "misaligned": 6}


def test_blob_inputs_are_a_function_of_the_seed():
    assert workloads.blob_inputs(4) == workloads.blob_inputs(4)
    assert workloads.blob_inputs(4) != workloads.blob_inputs(5)


def test_chaos_seeds_are_contiguous_and_ordered_by_the_seed():
    window = workloads.chaos_seeds(2)
    assert sorted(window) == list(range(workloads.CHAOS_SEEDS))
    assert workloads.chaos_seeds(2) == window
    assert any(workloads.chaos_seeds(n) != window for n in range(3, 8))
    # Consecutive passes run both hart counts.
    assert all(a % 2 != b % 2 for a, b in zip(window, window[1:]))
    cells = workloads.chaos_matrix(window[0])
    assert len(cells) == (len(workloads.CHAOS_FIRMWARES)
                          * len(workloads.CHAOS_PLANS))
    assert len({cell.key for cell in cells}) == len(cells)
    assert ({cell.param_dict()["harts"] for cell in workloads.chaos_matrix(0)}
            != {cell.param_dict()["harts"] for cell in workloads.chaos_matrix(1)})


def test_only_the_documented_chaos_cells_are_known_defects():
    plans = workloads.CHAOS_PLANS
    known = {(firmware, plan, seed)
             for firmware in workloads.CHAOS_FIRMWARES for plan in plans
             for seed in range(workloads.CHAOS_SEEDS)
             if workloads.known_defect(firmware, plan, seed)}
    assert {plan for _, plan, _ in known} == {"transient-mmio", "csr-chaos"}
    assert not any(workloads.known_defect(firmware, "none", seed)
                   for firmware in workloads.CHAOS_FIRMWARES
                   for seed in range(workloads.CHAOS_SEEDS))
    assert len(known) == 12


def test_a_chaos_cell_that_raises_fails_the_checks(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("runner bug")

    monkeypatch.setattr(workloads, "run_chaos", broken)
    episode = workloads.run_chaos_pass(1, limit=2)
    assert episode.ops == 2
    assert episode.failed == episode.check_failures == 2


def test_workload_inputs_follow_the_seed():
    for name in workloads.WORKLOADS:
        assert (workloads.Workload(name, 11).inputs
                == workloads.Workload(name, 11).inputs)


def test_mix_episodes_repeat_their_digest_and_pass_checks():
    ops = workloads.mix_ops(5, 60)
    for offload in (True, False):
        first = workloads.run_mix_episode(ops, offload)
        second = workloads.run_mix_episode(ops, offload)
        assert first.failed == second.failed == 0
        assert first.ops == 60
        assert first.digest == second.digest


def test_blob_episode_checks_the_constant_and_is_engine_invariant():
    from repro.hart.blocks import blocks_disabled

    inputs = workloads.blob_inputs(2)
    engine_on = workloads.run_blob_episode(inputs, count=5)
    with blocks_disabled():
        engine_off = workloads.run_blob_episode(inputs, count=5)
    assert engine_on.failed == engine_off.failed == 0
    assert engine_on.blocks_hits > 0 and engine_off.blocks_hits == 0
    assert engine_on.digest == engine_off.digest

