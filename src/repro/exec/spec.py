"""Workload names and canonical JSON: what a cell is built from.

A grid cell (:class:`~repro.exec.runner.Cell`) binds its workload as a
factory, so the factory must cross process boundaries:
:func:`resolve_workload` maps a benchmark name to a picklable
``functools.partial`` over the workload family's constructor.
:func:`canonical_json` is the deterministic encoding digests are taken
over.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from enum import Enum
from functools import partial
from typing import Callable, Optional

__all__ = ["canonical_json", "resolve_workload"]


def _plain(value):
    """Recursively reduce configs/plans to canonical JSON-safe values."""
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in sorted(value.items())}
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise TypeError(f"cannot canonicalise {type(value).__name__}")


def canonical_json(value) -> str:
    """Deterministic JSON: sorted keys, no whitespace, enums by value."""
    return json.dumps(_plain(value), sort_keys=True, separators=(",", ":"))


def resolve_workload(
    name: str,
    ops: int = 0,
    iterations: int = 0,
    seed: Optional[int] = None,
) -> Callable[[], object]:
    """A zero-argument, picklable factory for a fresh workload by
    benchmark name.

    Covers every family the figures run: ``DAX-*`` micros, the Whisper
    set (YCSB/Hashmap/CTree), PMEMKV patterns and ``ManyFiles@N``.
    Zero / ``None`` arguments fall through to the factory defaults.
    """
    from ..workloads import (
        WHISPER_BENCHMARKS,
        ManyFilesWorkload,
        make_dax_micro,
        make_pmemkv_workload,
        make_whisper_workload,
    )

    kwargs = {} if seed is None else {"seed": seed}
    if name.split("@", 1)[0] == "ManyFiles":
        # "ManyFiles@10" = 10% of files re-opened per round (the
        # multi-tenant churn knob); ops maps onto the file count.
        churn_part = name.partition("@")[2]
        if churn_part:
            kwargs["churn"] = int(churn_part) / 100.0
        if ops:
            kwargs["num_files"] = ops
        return partial(ManyFilesWorkload, **kwargs)
    if name.upper().startswith("DAX"):
        if iterations:
            kwargs["iterations"] = iterations
        return partial(make_dax_micro, name, **kwargs)
    if ops:
        kwargs["ops"] = ops
    if name in {bench_name for bench_name, _cls in WHISPER_BENCHMARKS}:
        return partial(make_whisper_workload, name, **kwargs)
    return partial(make_pmemkv_workload, name, **kwargs)
