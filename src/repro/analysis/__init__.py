"""Analysis: per-figure experiment harnesses and the Table I security demo."""

from .experiments import (
    DEFAULT_MICRO_ITERS,
    DEFAULT_PMEMKV_OPS,
    DEFAULT_WHISPER_OPS,
    FIG15_CACHE_SIZES,
    FIG15_WORKLOADS,
    figure3_software_encryption,
    figure8_to_10_pmemkv,
    figure11_whisper,
    figure12_to_14_micro,
    figure15_cache_sensitivity,
    render_sensitivity,
    sensitivity_payload,
)
from .report import aggregate_report, bar_chart
from .tails import (
    load_curve,
    p99_monotone,
    percentile_summary,
    render_load_curve,
    render_tails,
    strict_percentile,
    tail_latency_comparison,
)
from .security import (
    SCENARIOS,
    Scenario,
    SystemDesign,
    attacker_decrypt,
    render_table1,
    table1_matrix,
)

__all__ = [
    "figure3_software_encryption",
    "figure8_to_10_pmemkv",
    "figure11_whisper",
    "figure12_to_14_micro",
    "figure15_cache_sensitivity",
    "render_sensitivity",
    "sensitivity_payload",
    "FIG15_CACHE_SIZES",
    "FIG15_WORKLOADS",
    "DEFAULT_PMEMKV_OPS",
    "DEFAULT_WHISPER_OPS",
    "DEFAULT_MICRO_ITERS",
    "Scenario",
    "SCENARIOS",
    "SystemDesign",
    "attacker_decrypt",
    "table1_matrix",
    "render_table1",
    "aggregate_report",
    "bar_chart",
    "tail_latency_comparison",
    "render_tails",
    "strict_percentile",
    "percentile_summary",
    "load_curve",
    "p99_monotone",
    "render_load_curve",
]
