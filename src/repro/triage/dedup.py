"""Signature-based failure deduplication for campaign aggregates.

A 1000-cell campaign hitting one systematic bug used to report 1000
failures; the interesting number is "1 distinct failure × 1000
occurrences".  :func:`group_failures` folds non-ok cells into groups
keyed by failure-signature digest: cells that captured a repro bundle
group by the bundle's signature, bundle-less failures (timeouts,
worker deaths, runner exceptions) group by a fallback signature over
(family, status, normalized error).

Grouping is deterministic: groups sort by digest, member keys sort
lexicographically, so the deduped section of the aggregate is
byte-identical at any worker count.
"""

from __future__ import annotations

from typing import Iterable

from repro.triage.signature import (
    cell_fallback_material,
    signature_from_material,
)


def _cell_signatures(result) -> list[dict]:
    """Every failure signature a cell contributes (fuzz cells can carry
    several distinct divergences)."""
    payload = result.payload if isinstance(result.payload, dict) else {}
    signatures = []
    bundle = payload.get("bundle")
    if bundle is not None and "signature" in bundle:
        signatures.append(bundle["signature"])
    for finding in payload.get("findings", ()):
        candidate = finding.get("bundle")
        if candidate is not None and "signature" in candidate:
            signatures.append(candidate["signature"])
    if not signatures:
        signatures.append(signature_from_material(
            cell_fallback_material(result.family, result.status,
                                   result.error)
        ))
    return signatures


def group_failures(results: Iterable) -> list[dict]:
    """Group failed cells (``status != "ok"``) by signature digest.

    ``results`` is an iterable of
    :class:`~repro.campaign.runner.CellResult`.  Returns one group per
    distinct digest, sorted by digest: ``{"signature", "material",
    "count", "cells"}`` where ``count`` is the number of occurrences
    (a fuzz cell with three same-signature findings counts three) and
    ``cells`` the sorted keys of the contributing cells.
    """
    groups: dict[str, dict] = {}
    for result in results:
        if result.status == "ok":
            continue
        for signature in _cell_signatures(result):
            digest = signature.get("digest", "")
            group = groups.setdefault(digest, {
                "signature": digest,
                "algo": signature.get("algo"),
                "material": signature.get("material"),
                "count": 0,
                "cells": set(),
            })
            group["count"] += 1
            group["cells"].add(result.key)
    ordered = []
    for digest in sorted(groups):
        group = groups[digest]
        group["cells"] = sorted(group["cells"])
        ordered.append(group)
    return ordered


def summarize_groups(groups: list[dict]) -> str:
    """One-line human summary: ``3 distinct failures x 17 occurrences``."""
    total = sum(group["count"] for group in groups)
    if not groups:
        return "no failures"
    plural = "s" if len(groups) != 1 else ""
    return (f"{len(groups)} distinct failure{plural} x "
            f"{total} occurrence{'s' if total != 1 else ''}")
