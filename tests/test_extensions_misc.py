"""The report module: bar charts, aggregate reports and the report CLI."""


class TestReport:
    def test_bar_chart_renders(self):
        from repro.analysis import bar_chart

        text = bar_chart({"YCSB": 4.9, "CTree": 2.8}, title="t", baseline=1.0)
        assert "YCSB" in text and "4.900x" in text and "#" in text

    def test_bar_chart_empty(self):
        from repro.analysis import bar_chart

        assert "(no data)" in bar_chart({}, title="t")

    def test_aggregate_report_without_results(self, tmp_path):
        from repro.analysis import aggregate_report

        text = aggregate_report(tmp_path)
        assert "no results found" in text

    def test_aggregate_report_with_one_figure(self, tmp_path):
        import json

        from repro.analysis import aggregate_report

        (tmp_path / "fig11.json").write_text(json.dumps({
            "title": "Figure 11",
            "rows": [{"workload": "YCSB", "scheme": "fsencr", "slowdown": 1.02,
                      "normalized_writes": 1.1, "normalized_reads": 1.0}],
            "mean_slowdown": 1.02,
        }))
        text = aggregate_report(tmp_path)
        assert "Figure 11" in text and "YCSB" in text

    def test_report_cli(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["report", str(tmp_path)]) == 0
        assert "aggregate results" in capsys.readouterr().out

    def test_report_reads_the_cli_json_output(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["fig15", "--ops", "20", "--iters", "20",
                     "--json", str(tmp_path / "fig15.json")]) == 0
        assert main(["fig12", "--iters", "40",
                     "--json", str(tmp_path / "fig12_13_14.json")]) == 0
        capsys.readouterr()
        assert main(["report", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Figure 15" in out and "Fillrandom-L" in out and "32KB" in out
        assert "Figures 12-14" in out and "DAX-4" in out
