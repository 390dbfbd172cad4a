"""Red-first regression tests for the three accounting fixes (ISSUE 6).

Each test here fails on the pre-fix code:

* S1 — ``run_fuzz_campaign`` did not exist and ``fuzz_campaign`` had no
  campaign-level deadline: an expired budget silently truncated the seed
  list and reported success.
* S2 — ``ChaosResult.trap_log`` grew unboundedly (one tuple per trap for
  the whole boot) and there was no ``trap_log_total``.
* S3 — ``merge_reports`` did not exist: sharded ``CheckReport``\\ s could
  not be combined, and divergence order depended on arrival order.
"""

import time

import pytest

from repro.core import bugs
from repro.spec.platform import VISIONFIVE2
from repro.verif import run_fuzz_campaign
from repro.verif.fuzz import FuzzCampaignResult
from repro.verif.report import CheckReport, Divergence, merge_reports


class TestFuzzCampaignDeadline:
    """S1: the campaign-level deadline aborts cleanly and reports
    un-run seeds as skipped instead of silently dropping them."""

    def test_expired_budget_reports_skipped_seeds(self):
        result = run_fuzz_campaign(range(50, 58), length=20,
                                   campaign_seconds=0.0)
        assert isinstance(result, FuzzCampaignResult)
        assert result.deadline_hit
        assert result.seeds_run == []
        assert result.seeds_skipped == list(range(50, 58))
        assert not result.complete

    def test_partial_budget_accounts_for_every_seed(self):
        # Enough budget for some seeds but not all: run + skipped must
        # partition the input exactly, in order, with nothing dropped.
        start = time.monotonic()
        probe = run_fuzz_campaign(range(50, 51), length=20)
        per_seed = max(time.monotonic() - start, probe.elapsed_seconds)
        result = run_fuzz_campaign(range(50, 58), length=20,
                                   campaign_seconds=per_seed * 2.5)
        assert result.seeds_run + result.seeds_skipped == list(range(50, 58))
        if result.seeds_skipped:
            assert result.deadline_hit

    def test_no_budget_runs_everything(self):
        result = run_fuzz_campaign(range(50, 54), length=20)
        assert result.complete and result.clean
        assert result.seeds_run == list(range(50, 54))
        assert not result.deadline_hit

    def test_compat_shim_returns_findings_list(self):
        # Callers that only want the findings read the bare list.
        assert run_fuzz_campaign(range(50, 53), length=20).findings == []


class TestTrapLogCap:
    """S2: the chaos trap log is a bounded flight recorder — last K
    events plus a total count — not an unbounded transcript."""

    def test_trap_log_is_capped(self):
        from repro.faults.chaos import TRAP_LOG_LIMIT, run_chaos

        # opensbi under plan=random seed=1 traps a few hundred times —
        # comfortably past the cap, cheap to run.
        result = run_chaos("opensbi", plan="random", seed=1)
        assert result.trap_log_total > TRAP_LOG_LIMIT
        assert len(result.trap_log) == TRAP_LOG_LIMIT

    def test_total_counts_every_event(self):
        from repro.faults.chaos import TRAP_LOG_LIMIT, run_chaos

        # A short boot stays under the cap: the log holds everything
        # and the total equals its length.
        result = run_chaos("zephyr", plan="none", seed=0)
        assert result.trap_log_total == len(result.trap_log)
        assert len(result.trap_log) <= TRAP_LOG_LIMIT

    def test_recorder_keeps_the_tail(self, monkeypatch):
        # Flight-recorder semantics: what survives is the *last* K
        # events (the interesting ones when diagnosing a late failure),
        # identical to the tail of an uncapped replay of the same seed.
        import repro.faults.chaos as chaos_mod

        limit = chaos_mod.TRAP_LOG_LIMIT
        capped = chaos_mod.run_chaos("opensbi", plan="random", seed=1)
        monkeypatch.setattr(chaos_mod, "TRAP_LOG_LIMIT", 10**9)
        full = chaos_mod.run_chaos("opensbi", plan="random", seed=1)
        assert len(full.trap_log) == full.trap_log_total
        assert capped.trap_log == full.trap_log[-limit:]


def _report(task, divergences, inputs=10, elapsed=1.0):
    report = CheckReport(task=task, inputs_checked=inputs,
                         elapsed_seconds=elapsed)
    report.divergences = list(divergences)
    return report


def _div(check, context, field="pc"):
    return Divergence(check=check, context=context, field=field,
                      expected=1, actual=2)


class TestMergeReports:
    """S3: shard merging sums counters and orders divergences by input
    key, independent of shard arrival order."""

    def test_counters_sum_across_shards(self):
        merged = merge_reports([
            _report("faithful-emulation", [], inputs=100, elapsed=1.5),
            _report("faithful-emulation", [], inputs=40, elapsed=0.5),
            _report("virtual-interrupt", [], inputs=7, elapsed=0.25),
        ])
        by_task = {r.task: r for r in merged}
        assert by_task["faithful-emulation"].inputs_checked == 140
        assert by_task["faithful-emulation"].elapsed_seconds == 2.0
        assert by_task["virtual-interrupt"].inputs_checked == 7

    def test_divergence_order_is_arrival_independent(self):
        divs = [_div("emul", f"input-{index:02d}") for index in range(6)]
        forward = merge_reports([
            _report("t", divs[:3]), _report("t", divs[3:]),
        ])[0]
        backward = merge_reports([
            _report("t", reversed(divs[3:])), _report("t", reversed(divs[:3])),
        ])[0]
        assert forward.divergences == backward.divergences
        assert [d.context for d in forward.divergences] == \
            [f"input-{index:02d}" for index in range(6)]

    def test_merge_handles_unhashable_values(self):
        # Divergence expected/actual may be lists (e.g. PMP register
        # dumps); ordering must not blow up on them.
        odd = Divergence(check="emul", context="c", field="pmpcfg",
                         expected=[1, 2], actual=[3, 4])
        merged = merge_reports([_report("t", [odd]), _report("t", [])])
        assert merged[0].divergences == [odd]

    def test_empty_merge(self):
        assert merge_reports([]) == []


class TestVerifyExitsNonzeroOnMergedDivergences:
    """S3 end-to-end: a divergence found in any shard must fail the
    whole ``repro verify`` run, even when shards are merged across
    worker processes."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_seeded_bug_fails_verify(self, workers, capsys):
        from repro.cli import main

        # fork workers inherit the seeded-bug set, so the divergence is
        # produced inside a worker process and must survive the merge.
        with bugs.seeded("mret_mpp_not_cleared"):
            code = main(["verify", "--states", "2",
                         "--workers", str(workers)])
        assert code != 0
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_clean_verify_passes(self, capsys):
        from repro.cli import main

        assert main(["verify", "--states", "2", "--workers", "2"]) == 0
        assert "PASS" in capsys.readouterr().out


# Module self-check: these imports are the red-first tripwire — on the
# pre-fix tree, FuzzCampaignResult / merge_reports / TRAP_LOG_LIMIT do
# not exist and this whole module fails at collection time.
assert VISIONFIVE2 is not None
