#!/usr/bin/env python3
"""The Miralis performance ledger.

One workload per invocation, as ``BENCHMARK.json``'s command runs it::

    python3 perfbench/run.py --workload fastpath --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` is the separate traced run: it measures the workload
untraced, then with a span around every layer boundary, then untraced
with the block engine off, and prints the per-layer metrics.  The last
line of standard output is always one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is a JSON ``detail`` record (host, spreads, sample counts, digest).

Every workload, untraced and traced, in one command::

    python3 perfbench/run.py --workload all --seconds 15

See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("fastpath", "reinject", "chaos", "closed-blob")
#: Set-up probes run in fresh processes, so imports are measured too;
#: half before the timed phase and half after it, so that the median
#: spans the run's host conditions.
SETUP_PROBES = 12
#: Chaos passes (seeds) per phase of a traced run.
TRACE_CHAOS_PASSES = 2
#: ``peak_rss_mb`` is read after this many timed episodes (or at the end
#: of a shorter phase), so it measures a fixed amount of work: every
#: ``Machine`` built stays alive (README.md, "Known defects"), and a
#: reading at the end of the run would grow with the host's speed.
RSS_EPISODES = 10


def _require_sources() -> None:
    """Put the checkout's sources first on the path, or exit nonzero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: simulator sources not found under {SRC}; "
              "run from the root of a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(ROOT)]


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Phases: a run of episodes with one configuration
# ---------------------------------------------------------------------------

def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Phase:
    """Episodes measured back to back under one configuration."""

    def __init__(self, workload, seconds: float, passes=None):
        self.episodes = []
        self.rss_mb = None
        start = perf_counter()
        if passes is not None:
            for index in range(passes):
                self._add(workload.episode(index))
        else:
            while not self.episodes or perf_counter() - start < seconds:
                self._add(workload.episode())
        self.wall_s = perf_counter() - start
        if self.rss_mb is None:
            self.rss_mb = _peak_rss_mb()

    def _add(self, episode) -> None:
        self.episodes.append(episode)
        if len(self.episodes) == RSS_EPISODES:
            self.rss_mb = _peak_rss_mb()

    @property
    def ops(self) -> int:
        return sum(episode.ops for episode in self.episodes)

    @property
    def failed(self) -> int:
        return sum(episode.failed for episode in self.episodes)

    @property
    def check_failures(self) -> int:
        return sum(episode.check_failures for episode in self.episodes)

    @property
    def digests(self) -> list[str]:
        return [episode.digest for episode in self.episodes]

    def sim_per_op(self, key: str) -> float:
        return (sum(episode.sim[key] for episode in self.episodes)
                / max(1, self.ops))

    @property
    def ops_per_s(self) -> float:
        """Total ops over the total host seconds the ops took."""
        return self.ops / sum(e.op_s for e in self.episodes)

    @property
    def steps_per_s(self) -> float:
        return (sum(e.instret for e in self.episodes)
                / sum(e.op_s for e in self.episodes))

    def timings(self, pooled: bool) -> dict:
        """Host-time metrics of the phase, plus their per-episode spread.

        When episodes repeat the same inputs, each metric is taken per
        episode and the run reports the median over episodes, so that a
        spell of host noise shorter than half the run does not move it:
        rates are an episode's ops (or retired instructions) over the
        host seconds its ops took, and latency samples give their
        smoothed median and smoothed highest percentile with at least 10
        samples beyond it.  Chaos passes are all different work
        (``pooled``): rates are totals over the phase and the
        percentiles are taken over every cell of the phase.
        """
        from perfbench.summary import (smoothed_percentile, spread,
                                       tail_percentile)

        groups = ([[x for e in self.episodes for x in e.latencies]] if pooled
                  else [list(e.latencies) for e in self.episodes])
        p50s, tails, tail_ps = [], [], []
        for group in groups:
            group.sort()
            tail_p = tail_percentile(len(group))
            p50s.append(smoothed_percentile(group, 50.0) * 1e6)
            tails.append(smoothed_percentile(group, tail_p) * 1e6)
            tail_ps.append(tail_p)
        if pooled:
            ops_per_s, steps_per_s = self.ops_per_s, self.steps_per_s
        else:
            ops_per_s = statistics.median(e.ops / e.op_s
                                          for e in self.episodes)
            steps_per_s = statistics.median(e.instret / e.op_s
                                            for e in self.episodes)
        return {
            "ops_per_s": ops_per_s,
            "steps_per_s": steps_per_s,
            "op_p50_us": statistics.median(p50s),
            "op_tail_us": statistics.median(tails),
            "tail_percentile": min(tail_ps),
            "latency_samples": sum(len(group) for group in groups),
            "spread": {
                "ops_per_s": spread(e.ops / e.op_s for e in self.episodes),
                "op_p50_us": spread(p50s),
                "op_tail_us": spread(tails),
            },
        }


def _consistent(workload, *phases) -> bool:
    """Simulated statistics agree across every repetition of the inputs."""
    if workload.repeats_inputs:
        return len({d for phase in phases for d in phase.digests}) == 1
    return all(phase.digests == phases[0].digests for phase in phases)


# ---------------------------------------------------------------------------
# Set-up time
# ---------------------------------------------------------------------------

def _setup_probe(args, started: float) -> int:
    """Child process: imports, build and boot up to the first op."""
    from perfbench import workloads

    reached = {}

    def first_op():
        reached["at"] = perf_counter()
        raise workloads.FirstOp

    workload = workloads.Workload(args.workload, args.seed)
    try:
        workload.episode(0, on_first_op=first_op, limit=1)
    except workloads.FirstOp:
        pass
    if "at" not in reached:
        return 1
    print(json.dumps({"setup_s": reached["at"] - started}))
    return 0


def _probe_setups(args, count: int) -> list[float]:
    command = [sys.executable, str(Path(__file__).resolve()),
               "--setup-probe", "--workload", args.workload,
               "--seed", str(args.seed)]
    samples = []
    for _ in range(count):
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=120, cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr[-2000:]}")
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ---------------------------------------------------------------------------

def _end_to_end(args, workload, host: dict) -> dict:
    setups = _probe_setups(args, SETUP_PROBES // 2)
    # Warm-up episode: fills the decode/encode caches and finishes lazy
    # imports before timing.  Chaos passes are all different work, so it
    # has none.
    warm = workload.episode(0) if workload.repeats_inputs else None
    phase = Phase(workload, args.seconds, workload.passes)
    consistent = _consistent(workload, phase) and (
        warm is None or warm.digest == phase.digests[0])
    setups += _probe_setups(args, SETUP_PROBES - SETUP_PROBES // 2)
    timings = phase.timings(pooled=not workload.repeats_inputs)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (timings["ops_per_s"], "1/s"),
        "steps_per_s": (timings["steps_per_s"], "1/s"),
        "op_p50_us": (timings["op_p50_us"], "us"),
        "op_tail_us": (timings["op_tail_us"], "us"),
        "peak_rss_mb": (phase.rss_mb, "MB"),
        "sim_cycles_per_op": (phase.sim_per_op("cycles"), "cycles"),
        "world_switches_per_op": (phase.sim_per_op("world_switches"),
                                  "count"),
    }
    checks_failed = phase.check_failures
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "host": host,
        "episodes": len(phase.episodes),
        "ops": phase.ops,
        "fail_frac": phase.failed / max(1, phase.ops),
        "check_failures": checks_failed,
        "op_tail_percentile": timings["tail_percentile"],
        "op_latency_samples": timings["latency_samples"],
        "per_episode": timings["spread"],
        "ops_per_s_per_calibration_mops": (
            timings["ops_per_s"] / (host["calibration_ops_per_s"] / 1e6)),
        "setup_s_samples": setups,
        "digest": _digest(phase),
        "digest_consistent": consistent,
    }
    return {
        "correct": consistent and checks_failed == 0 and phase.ops > 0,
        "attempted": phase.ops,
        "failed": phase.failed,
        "metrics": metrics,
        "detail": detail,
    }


def _digest(phase) -> str:
    return ",".join(dict.fromkeys(phase.digests))


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------

def _per_layer(args, workload, host: dict) -> dict:
    from repro import perf
    from repro.hart.blocks import blocks_disabled

    from perfbench import spans

    passes = None if workload.repeats_inputs else TRACE_CHAOS_PASSES
    third = args.seconds / 3.0
    if workload.repeats_inputs:
        workload.episode(0)  # warm-up, as in the untraced run
    untraced = Phase(workload, third, passes)
    caches_before = perf.cache_stats()
    with spans.installed() as recorder:
        before = recorder.snapshot()
        traced = Phase(workload, third, passes)
        after = recorder.snapshot()
    caches_after = perf.cache_stats()
    with blocks_disabled():
        engine_off = Phase(workload, third, passes)
    leaked = spans.wrapped_targets()

    ops = max(1, traced.ops)
    metrics = {}
    self_sum = 0.0
    for name in recorder.names:
        calls = after["calls"][name] - before["calls"][name]
        self_s = after["self_s"][name] - before["self_s"][name]
        self_sum += self_s
        metrics[f"{name}.calls_per_op"] = (calls / ops, "count")
        metrics[f"{name}.self_us_per_op"] = (self_s / ops * 1e6, "us")

    def calls(name):
        return after["calls"][name] - before["calls"][name]

    def ratio(hits, total):
        return hits / total if total else 0.0

    offload_calls = (calls("core.offload.try_handle_exception")
                     + calls("core.offload.try_handle_interrupt"))
    fastpath_hits = sum(e.sim["fastpath_hits"] for e in traced.episodes)
    blocks_hits = sum(e.blocks_hits for e in traced.episodes)
    blocks_lookups = blocks_hits + sum(e.blocks_misses
                                       for e in traced.episodes)
    metrics["core.offload.hit_ratio"] = (
        ratio(fastpath_hits, offload_calls), "ratio")
    metrics["hart.blocks.hit_ratio"] = (ratio(blocks_hits, blocks_lookups),
                                        "ratio")
    for cache, key in (("isa.decode", "isa.decode_cache.hit_ratio"),
                       ("isa.encode", "isa.encode_cache.hit_ratio")):
        hits = (caches_after[cache]["hits"]
                - caches_before[cache]["hits"])
        misses = (caches_after[cache]["misses"]
                  - caches_before[cache]["misses"])
        metrics[key] = (ratio(hits, hits + misses), "ratio")
    wait_s = (after["inclusive_s"]["smp.checkpoint"]
              - before["inclusive_s"]["smp.checkpoint"])
    metrics["smp.checkpoint.wait_us_per_op"] = (wait_s / ops * 1e6, "us")
    metrics["faults.injections_per_op"] = (
        sum(e.injections for e in traced.episodes) / ops, "count")
    metrics["core.watchdog.recoveries_per_op"] = (
        calls("core.watchdog.recover") / ops, "count")

    # Totals, like the traced wall time per op they are compared with.
    untraced_rate = untraced.ops_per_s
    traced_rate = traced.ops_per_s
    overhead = untraced_rate / traced_rate - 1.0
    wall_per_op = traced.wall_s / ops
    unattributed = 1.0 - self_sum / ops / wall_per_op
    metrics["trace.overhead"] = (overhead, "ratio")
    metrics["trace.wall_us_per_op"] = (wall_per_op * 1e6, "us")
    metrics["trace.unattributed_frac"] = (unattributed, "ratio")
    metrics["hart.blocks.speedup_same_binary"] = (
        untraced.steps_per_s / engine_off.steps_per_s,
        "ratio")

    consistent = _consistent(workload, untraced, traced, engine_off)
    checks_failed = (untraced.check_failures + traced.check_failures
                     + engine_off.check_failures)
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "host": host,
        "episodes": {"untraced": len(untraced.episodes),
                     "traced": len(traced.episodes),
                     "blocks_off": len(engine_off.episodes)},
        "ops_per_s": {"untraced": untraced_rate, "traced": traced_rate,
                      "blocks_off": engine_off.ops_per_s},
        "check_failures": checks_failed,
        "self_sum_us_per_op": self_sum / ops * 1e6,
        "outside_spans_s": after["outside_s"] - before["outside_s"],
        "attribution_within_overhead": abs(unattributed) <= overhead,
        "wrappers_left": leaked,
        "digest": _digest(traced),
        "digest_consistent": consistent,
    }
    return {
        "correct": (consistent and checks_failed == 0 and not leaked
                    and abs(unattributed) <= overhead),
        "attempted": traced.ops,
        "failed": traced.failed,
        "metrics": metrics,
        "detail": detail,
    }


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def _emit(result: dict) -> None:
    for name, (value, unit) in result["metrics"].items():
        print(f"{result['detail']['workload']:<12} {name:<48} "
              f"{value:>16.6g} {unit}")
    print(f"{result['detail']['workload']:<12} {'fail_frac':<48} "
          f"{result['failed'] / max(1, result['attempted']):>16.6g} ratio")
    print(json.dumps({"detail": result["detail"]}, sort_keys=True))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))


def _run_all(args) -> int:
    """Every workload untraced, then traced, each in its own process."""
    failed = False
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
            sys.stdout.flush()
            done = subprocess.run(command, timeout=900, cwd=ROOT)
            failed = failed or done.returncode != 0
    return 1 if failed else 0


def main(argv=None) -> int:
    started = perf_counter()  # before any simulator import
    args = _parse(argv)
    _require_sources()
    if args.setup_probe:
        return _setup_probe(args, started)
    if args.workload == "all":
        return _run_all(args)
    from perfbench import workloads
    from perfbench.summary import calibration_ops_per_s, host_record

    workload = workloads.Workload(args.workload, args.seed)
    host = host_record()
    if args.trace:
        result = _per_layer(args, workload, host)
    else:
        result = _end_to_end(args, workload, host)
    # Host speed again after the run: a drift between the two readings
    # flags a run the neighbours slowed down.
    host["calibration_ops_per_s_after"] = calibration_ops_per_s()
    _emit(result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
