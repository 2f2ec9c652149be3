"""Figure 15: FsEncr slowdown vs metadata-cache size.

Paper: sweeping the metadata cache from 128 KB to 2 MB (here 2 KB to
32 KB — spanning the same "smaller than the hot metadata" to "holds it
all" range for the scaled workloads), the real workloads (Fillrandom-L, Hashmap)
improve markedly with cache size — "natural utilisation in real
workloads" — while the synthetic DAX-2 improves only slightly, having
almost no metadata reuse for any cache to capture.
"""

import json

from repro.analysis import figure15_cache_sensitivity
from repro.analysis.experiments import render_sensitivity, sensitivity_payload


def test_fig15_metadata_cache_sensitivity(benchmark, results_dir):
    curves = benchmark.pedantic(figure15_cache_sensitivity, rounds=1, iterations=1)
    print()
    print(render_sensitivity(curves))
    (results_dir / "fig15.json").write_text(json.dumps(sensitivity_payload(curves), indent=2))

    for name, curve in curves.items():
        sizes = sorted(curve)
        # Largest cache should not be worse than the smallest.
        assert curve[sizes[-1]] <= curve[sizes[0]] + 1.0, f"{name}: no cache benefit"

    # Paper: "real persistent benchmarks perform significantly better
    # with larger cache ... the synthetic benchmark only improves
    # slightly" — compare *relative* overhead reduction across the sweep.
    def relative_improvement(curve):
        sizes = sorted(curve)
        start = max(curve[sizes[0]], 1e-9)
        return (curve[sizes[0]] - curve[sizes[-1]]) / start

    real_best = max(
        relative_improvement(curves["Fillrandom-L"]),
        relative_improvement(curves["Hashmap"]),
    )
    assert real_best > relative_improvement(curves["DAX-2"]), (
        "real workloads should respond to metadata-cache size more than DAX-2"
    )
    assert relative_improvement(curves["DAX-2"]) < 0.3, "DAX-2 should improve only slightly"

    benchmark.extra_info["curves"] = {
        name: {str(size): round(v, 3) for size, v in curve.items()}
        for name, curve in curves.items()
    }
