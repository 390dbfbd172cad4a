"""Cache statistics aggregation, the steps/sec meter, and the profile report."""

from __future__ import annotations

import time
import weakref
from typing import Callable, Optional

#: Registered providers, keyed by (name, id(owner)).  Module-lifetime
#: providers (the isa decode/encode LRUs) register with no owner and key
#: ``(name, None)``; per-instance providers (a machine's bus counters)
#: key per owner, so two live machines never shadow each other and a
#: dead machine's entry is dropped by its weakref callback instead of
#: lingering as a stale stats source for the next run.
_providers: dict[tuple[str, Optional[int]], tuple[Callable[[], dict],
                                                  Optional[weakref.ref]]] = {}


def register_stats_provider(
    name: str, provider: Callable[[], dict], owner: Optional[object] = None,
) -> None:
    """Register a named statistics source (e.g. ``isa.decode``).

    Providers return a flat dict of counters — for ``functools.lru_cache``
    wrappers, ``cache_info()._asdict()`` works directly.  Pass ``owner``
    for per-instance sources: the entry is keyed per owner and removed
    automatically when the owner is garbage-collected.
    """
    if owner is None:
        _providers[(name, None)] = (provider, None)
        return
    key = (name, id(owner))
    reference = weakref.ref(owner, lambda _ref, key=key: _providers.pop(key, None))
    _providers[key] = (provider, reference)


def unregister_stats_provider(
    name: str, owner: Optional[object] = None,
) -> None:
    """Remove a provider registered under ``name`` (and ``owner``, if any)."""
    _providers.pop((name, None if owner is None else id(owner)), None)


def reset_stats_providers() -> None:
    """Drop every *owned* provider (module-lifetime sources survive)."""
    for key, (_, ref) in _providers.copy().items():
        if ref is not None:
            _providers.pop(key, None)


def cache_stats(owner: Optional[object] = None) -> dict[str, dict]:
    """Snapshot of registered counters.

    With no ``owner``: the module-lifetime (global) providers only.
    With an ``owner``: that owner's providers only — callers merge the
    two views, which keeps two live owners' same-named sources apart.
    """
    stats: dict[str, dict] = {}
    # Iterate a copy: a collection triggered while iterating may run a
    # dead owner's weakref callback, which removes its entry.
    for (name, _), (provider, reference) in sorted(_providers.copy().items()):
        if reference is None:
            if owner is None:
                stats[name] = dict(provider())
            continue
        bound = reference()
        if bound is None:
            continue  # owner died; callback removal is pending
        if owner is not None and bound is owner:
            stats[name] = dict(provider())
    return stats


def stats_delta(
    current: dict[str, dict], baseline: Optional[dict[str, dict]],
) -> dict[str, dict]:
    """Subtract a baseline snapshot from ``current``, per provider.

    Only monotonically-increasing numeric keys are adjusted; structural
    keys (``maxsize``, ``currsize``) pass through.  Providers absent from
    the baseline pass through whole.
    """
    if not baseline:
        return current
    monotonic = ("hits", "misses")
    result: dict[str, dict] = {}
    for name, counters in current.items():
        before = baseline.get(name)
        if before is None:
            result[name] = counters
            continue
        result[name] = {
            key: (value - before.get(key, 0)
                  if key in monotonic and isinstance(value, int) else value)
            for key, value in counters.items()
        }
    return result


class StepMeter:
    """Wall-clock meter for interpreter throughput (steps/sec).

    A *step* is one retired guest instruction; callers add the executed
    count after the measured region (e.g. from ``hart.instret``).
    Intervals must be properly bracketed: starting a running meter
    raises (a silent restart would discard the open interval and
    under-report elapsed time).
    """

    def __init__(self):
        self.steps = 0
        self.elapsed = 0.0
        self._started: Optional[float] = None

    def __enter__(self) -> "StepMeter":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def start(self) -> None:
        if self._started is not None:
            raise RuntimeError(
                "StepMeter is already running; stop() it before restarting"
            )
        self._started = time.perf_counter()

    def stop(self) -> None:
        if self._started is not None:
            self.elapsed += time.perf_counter() - self._started
            self._started = None

    def add_steps(self, count: int) -> None:
        self.steps += count

    @property
    def steps_per_second(self) -> float:
        if self.elapsed <= 0.0:
            return 0.0
        return self.steps / self.elapsed


def _hit_rate(stats: dict) -> Optional[float]:
    hits, misses = stats.get("hits"), stats.get("misses")
    if hits is None or misses is None or hits + misses == 0:
        return None
    return hits / (hits + misses)


def profile_report(
    machine,
    meter: Optional[StepMeter] = None,
    baseline: Optional[dict[str, dict]] = None,
) -> str:
    """Human-readable hot-path breakdown for ``--profile``.

    ``machine`` is duck-typed (needs ``harts``, ``stats``, ``dispatches``,
    ``cycles``) so this module stays import-free of the simulator.
    ``baseline`` is a ``cache_stats()`` snapshot taken before the run;
    the global caches outlive runs, so without it a second boot in the
    same process reports the first boot's hits too.
    """
    instructions = sum(hart.instret for hart in machine.harts)
    stats = machine.stats
    lines = [
        "-- hot-path profile " + "-" * 40,
        f"guest instructions:   {instructions}",
        f"dispatches:           {machine.dispatches}",
        f"traps to M-mode:      {stats.total_traps}",
        f"world switches:       {stats.world_switches}",
        f"fast-path hits:       {stats.fastpath_hits}",
        f"simulated cycles:     {machine.cycles:.0f}",
    ]
    if meter is not None and meter.elapsed > 0:
        lines.append(f"wall seconds:         {meter.elapsed:.3f}")
        lines.append(f"steps/sec:            {meter.steps_per_second:,.0f}")
    recovery = getattr(machine, "recovery_stats", None)
    if recovery:
        lines.append("-- firmware recovery " + "-" * 39)
        for name in sorted(recovery):
            lines.append(f"{name:<22}{recovery[name]}")
    lines.append("-- caches " + "-" * 50)
    merged = stats_delta(cache_stats(), baseline)
    merged.update(cache_stats(owner=machine))  # per-run by construction
    for name, stats_dict in sorted(merged.items()):
        rate = _hit_rate(stats_dict)
        rate_text = f"{rate * 100:5.1f}% hit" if rate is not None else "     -    "
        detail = " ".join(f"{k}={v}" for k, v in stats_dict.items())
        lines.append(f"{name:<22}{rate_text}  ({detail})")
    return "\n".join(lines)
