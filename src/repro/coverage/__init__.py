"""Deterministic trap-path coverage for the differential fuzzer.

The fuzzer's feedback signal: every trap the machine records is folded
into a fixed-size edge bitmap keyed on (pc-block, trap cause, world,
hart), plus an exact set of the trap-path tuples for reporting.  The
map attaches to a :class:`~repro.hart.machine.Machine` like the tracer
(``machine.coverage`` is ``None`` by default) and is fed by the
trap-event stream, so the disabled hot path costs a single branch.

Everything here is deterministic: slot indices come from fixed
multiply-xor mixing (no salted ``hash()``), serialization is canonical
JSON, and unions are order-independent — merging shards in any order
yields byte-identical aggregates.
"""

from repro.coverage.corpus import (
    CORPUS_SCHEMA,
    Corpus,
    entry_digest,
    entry_json,
    make_entry,
)
from repro.coverage.guided import (
    GuidedFuzzResult,
    mutate_steps,
    run_guided_fuzz,
)
from repro.coverage.map import (
    BLOCK_BITS,
    COVERAGE_SCHEMA,
    MAP_BITS,
    MAP_SIZE,
    CoverageMap,
    trap_path_space,
)

__all__ = [
    "BLOCK_BITS",
    "CORPUS_SCHEMA",
    "COVERAGE_SCHEMA",
    "Corpus",
    "CoverageMap",
    "GuidedFuzzResult",
    "MAP_BITS",
    "MAP_SIZE",
    "entry_digest",
    "entry_json",
    "make_entry",
    "mutate_steps",
    "run_guided_fuzz",
    "trap_path_space",
]
