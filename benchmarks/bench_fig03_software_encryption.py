"""Figure 3: the motivation — software filesystem encryption vs ext4-dax.

Paper: eCryptfs over emulated PMEM incurs ~2.7x average slowdown across
the Whisper benchmarks, with YCSB around 5x, versus plain ext4-dax.

Shape expectations checked here:
* every workload slows down under software encryption (ratio > 1.3);
* YCSB is the worst case by a clear margin;
* the average lands in "multiples", not "percent".
"""


def test_fig03_software_encryption_overhead(benchmark, results_dir, software_table):
    table = benchmark.pedantic(lambda: software_table, rounds=1, iterations=1)
    print()
    print(table.render())
    table.save_json(results_dir / "fig03.json")

    by_name = {row.workload: row for row in table.rows}
    for row in table.rows:
        assert row.slowdown > 1.3, f"{row.workload}: software encryption too cheap"
    assert by_name["YCSB"].slowdown == max(r.slowdown for r in table.rows)
    assert table.mean("slowdown") > 2.0  # "multiples" territory

    benchmark.extra_info["mean_slowdown"] = table.mean("slowdown")
    benchmark.extra_info["ycsb_slowdown"] = by_name["YCSB"].slowdown
    benchmark.extra_info["paper_mean"] = 2.7
    benchmark.extra_info["paper_ycsb"] = 5.0
