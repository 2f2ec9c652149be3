"""Figure 11 (a/b/c): Whisper benchmarks under FsEncr.

Paper: ~3.8% average slowdown over all persistent benchmarks; the
Whisper trio lands in single-digit percent, a ~98% reduction of the
software-encryption overhead of Figure 3.
"""


def test_fig11_whisper_all_series(benchmark, results_dir, whisper_table):
    table = benchmark.pedantic(lambda: whisper_table, rounds=1, iterations=1)
    print()
    print(table.render())
    table.save_json(results_dir / "fig11.json")

    for row in table.rows:
        assert 0.97 < row.slowdown < 1.25, f"{row.workload}: out of band"
    assert table.mean("slowdown") < 1.15

    benchmark.extra_info["mean_slowdown"] = table.mean("slowdown")
    benchmark.extra_info["paper_mean"] = 1.038


def test_fig11_vs_fig3_overhead_reduction(benchmark, whisper_table, software_table):
    """The paper's headline comparison: FsEncr removes ~98.33% of the
    software-encryption overhead on the Whisper workloads."""
    fsencr_table, sw_table = benchmark.pedantic(
        lambda: (whisper_table, software_table), rounds=1, iterations=1
    )
    sw_overhead = sw_table.mean("slowdown") - 1.0
    hw_overhead = fsencr_table.mean("slowdown") - 1.0
    reduction = 1.0 - hw_overhead / sw_overhead
    print(f"\noverhead reduction vs software encryption: {reduction:.2%} "
          f"(paper: 98.33%)")
    assert reduction > 0.9

    benchmark.extra_info["overhead_reduction"] = reduction
    benchmark.extra_info["paper_reduction"] = 0.9833
