"""A dropped system must free its machine.

The stats registry (:mod:`repro.perf.counters`) keys per-machine
providers on a weakref to the machine, so an entry disappears when its
machine dies.  That only works if no provider holds the machine strongly
itself; a provider that did kept every machine ever built alive, along
with its RAM pages and trap log.
"""

import gc
import weakref

import pytest

from repro.perf import cache_stats
from repro.system import build_native, build_virtualized


@pytest.mark.parametrize("build", [build_native, build_virtualized],
                         ids=["native", "virtualized"])
def test_dropped_system_frees_its_machine(build):
    system = build()
    system.run()
    machine = weakref.ref(system.machine)
    assert "hart.blocks" in cache_stats(owner=machine())
    del system
    gc.collect()
    assert machine() is None


def test_stats_of_a_live_machine_survive_collection():
    system = build_virtualized()
    system.run()
    gc.collect()
    stats = cache_stats(owner=system.machine)
    assert stats["hart.blocks"]["hits"] == system.machine.blocks.hits
    assert stats["bus.devices"]["hits"] == (
        system.machine.spec_bus.device_lookup_hits)
