"""Simulation layer: machine model, configuration, and run records."""

from .config import MachineConfig, Scheme
from .histograms import LatencyHistogram
from .machine import Machine, MappedRegion
from .results import Comparison, ResultTable, RunResult, run_provenance
from .schemes import (
    SchemeSpec,
    canonical_scheme_name,
    get_scheme,
    scheme_names,
)
from .batch import (
    BatchRunner,
    CompiledTrace,
    capture_workload,
    compile_trace,
    execute_compiled,
)
from .trace import Trace, TraceOp, TraceRecorder, replay

__all__ = [
    "MachineConfig",
    "Scheme",
    "SchemeSpec",
    "canonical_scheme_name",
    "get_scheme",
    "scheme_names",
    "Machine",
    "MappedRegion",
    "LatencyHistogram",
    "RunResult",
    "Comparison",
    "ResultTable",
    "run_provenance",
    "Trace",
    "TraceOp",
    "TraceRecorder",
    "replay",
    "BatchRunner",
    "CompiledTrace",
    "capture_workload",
    "compile_trace",
    "execute_compiled",
]
