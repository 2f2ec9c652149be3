"""Workloads: Table II's benchmark suite, built from scratch.

Persistent data structures (B+Tree, chained hashmap, crit-bit tree) over
a PMDK-style pool allocator, driven by the PMEMKV, Whisper, and in-house
micro-benchmark patterns the paper evaluates.
"""

from .base import (
    StreamSpec,
    Workload,
    WorkloadComparison,
    compare_schemes,
    parse_stream_mix,
    run_workload,
    stream_factories,
)
from .btree import PersistentBTree
from .ctree import PersistentCritbitTree
from .dax_micro import (
    DAX_MICRO_BENCHMARKS,
    DaxMicro1,
    DaxMicro2,
    DaxMicro3,
    DaxMicro4,
    make_dax_micro,
)
from .hashmap import PersistentHashmap
from .many_files import ManyFilesWorkload
from .palloc import PersistentAllocator, PoolExhausted
from .pmemkv import (
    LARGE_VALUE,
    PMEMKV_BENCHMARKS,
    SMALL_VALUE,
    Fillrandom,
    Fillseq,
    Overwrite,
    PmemkvWorkload,
    Readrandom,
    Readseq,
    make_pmemkv_workload,
)
from .whisper import (
    WHISPER_BENCHMARKS,
    CtreeWorkload,
    HashmapWorkload,
    YcsbWorkload,
    make_whisper_workload,
)

__all__ = [
    "Workload",
    "WorkloadComparison",
    "run_workload",
    "compare_schemes",
    "StreamSpec",
    "parse_stream_mix",
    "stream_factories",
    "PersistentAllocator",
    "PoolExhausted",
    "PersistentBTree",
    "PersistentHashmap",
    "ManyFilesWorkload",
    "PersistentCritbitTree",
    "PmemkvWorkload",
    "Fillseq",
    "Fillrandom",
    "Overwrite",
    "Readrandom",
    "Readseq",
    "PMEMKV_BENCHMARKS",
    "SMALL_VALUE",
    "LARGE_VALUE",
    "make_pmemkv_workload",
    "YcsbWorkload",
    "HashmapWorkload",
    "CtreeWorkload",
    "WHISPER_BENCHMARKS",
    "make_whisper_workload",
    "DaxMicro1",
    "DaxMicro2",
    "DaxMicro3",
    "DaxMicro4",
    "DAX_MICRO_BENCHMARKS",
    "make_dax_micro",
]
