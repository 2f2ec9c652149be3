"""The CLI's parser: one subparser per command, each accepting exactly
the flags its handler reads, and every documented invocation parsing."""

from __future__ import annotations

import ast
import json
import os
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import _make_runner, build_parser, main

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["fig3", "--streams", "5"],
        ["table1", "--jobs", "2"],
        ["batchcheck", "--jobs", "2"],
        ["crashsweep", "--batch"],
        ["loadcurve", "--points", "3"],
        ["bench", "--json", "x"],
        ["all", "--json", "x"],
        ["fig12", "--reps", "2"],
        ["fig12", "--ops", "2"],
        ["fig3", "--iters", "2"],
        ["fig15", "--profile", "mixed"],
        ["quick", "--ops", "2"],
        ["report", "--jobs", "2"],
        ["report", "--json", "results"],
        ["batchcheck", "--no-cache"],
        ["fig12", "--no-cache"],
        ["fig12", "--clear-cache"],
        ["crashsweep", "--cache-dir", "x"],
        ["fig12", "--timeout", "5"],
        ["fig12", "--retries", "1"],
        ["fig12", "--backoff", "1"],
        ["fig12", "--failure-policy", "continue"],
        ["fig12", "--batch"],
    ],
    ids=" ".join,
)
def test_inapplicable_flag_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_flags_from_other_commands_do_not_pass_silently():
    with pytest.raises(SystemExit) as exc:
        main(["table1", "--streams", "5", "--jobs", "3", "--reps", "9", "--profile", "nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["fig12", "--jobs", "-1"],
        ["crashsweep", "--profile", "nonsense"],
        ["crashsweep", "--scheme", "nonsense"],
        # A crash sweep audits a secure controller's recovery; these
        # machines have none.
        ["crashsweep", "--scheme", "conventional"],
        ["crashsweep", "--scheme", "ext4dax_plain"],
        ["crashsweep", "--scheme", "software_encryption"],
        ["fig15", "--scheme", "nonsense"],
        # Figure 15 measures FsEncr's metadata cache: other columns
        # have no curve to plot.
        ["fig15", "--scheme", "baseline_secure"],
        ["fig15", "--scheme", "conventional"],
        ["fig12", "--iter", "10"],  # no abbreviations of long flags
        ["cache", "stats"],  # the result cache and its command are gone
        # Sizes, repetitions, windows and loads are positive and stream
        # names resolve: never a traceback from inside a cell or a table
        # of zero slowdowns.
        ["fig3", "--ops", "-1"],
        ["fig12", "--iters", "0"],
        ["batchcheck", "--reps", "0"],
        ["loadcurve", "--loads", "0"],
        ["loadcurve", "--loads", "abc"],
        ["loadcurve", "--window", "0"],
        ["loadcurve", "--streams", "3xNope"],
        ["crashsweep", "--workload", "Bogus"],
        ["crashsweep", "--workload", "DAX-9"],
        ["crashsweep", "--workload", "ManyFiles@abc"],
        ["crashsweep", "--workload", "Deleterandom-S"],  # a removed workload
        # A custom fault plan's flags are range-checked by FaultPlan itself.
        ["crashsweep", "--profile", "custom", "--drain-fraction", "1.5"],
        ["crashsweep", "--profile", "custom", "--torn-prob", "nan"],
        ["crashsweep", "--profile", "custom", "--torn-burst", "0"],
        ["crashsweep", "--profile", "custom", "--bit-flips", "-3"],
        ["crashsweep", "--profile", "custom", "--counter-flips", "-1"],
        # Scheme columns are registered, present and distinct.
        ["loadcurve", "--schemes", "nope"],
        ["loadcurve", "--schemes", ","],
        ["loadcurve", "--schemes", "fsencr,FSENCR"],
    ],
    ids=" ".join,
)
def test_invalid_values_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert captured.out == ""


def test_fig15_passes_a_size_only_when_given(monkeypatch, capsys):
    # Without --ops/--iters the driver's defaults (the committed
    # figure's sizes) apply; with them, the flags pass through.
    calls = []

    def driver(**kwargs):
        calls.append({k: v for k, v in kwargs.items() if k not in ("scheme", "runner")})
        return {"Hashmap": {2048: 1.0}}

    monkeypatch.setattr("repro.cli.figure15_cache_sensitivity", driver)
    assert main(["fig15"]) == 0
    assert main(["fig15", "--ops", "20", "--iters", "30"]) == 0
    assert calls == [{}, {"pmemkv_ops": 20, "whisper_ops": 60, "micro_iters": 30}]


def test_jobs_zero_means_one_worker_per_cpu():
    args = build_parser().parse_args(["fig12", "--jobs", "0"])
    assert _make_runner(args).jobs == os.cpu_count()


def test_jobs_defaults_to_serial():
    args = build_parser().parse_args(["crashsweep"])
    assert _make_runner(args).jobs == 1


def test_plan_flags_with_a_named_profile_are_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["crashsweep", "--profile", "mixed", "--torn-burst", "4"])
    assert exc.value.code == 2


def test_crashsweep_without_persist_boundaries_is_a_usage_error(capsys):
    # DAX-1 only loads: no crash point exists, so "OK" would be vacuous.
    with pytest.raises(SystemExit) as exc:
        main(["crashsweep", "--workload", "DAX-1", "--iters", "20", "--points", "2",
              "--seed", "7", "--scheme", "fsencr", "--profile", "mixed"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "'DAX-1' has no persist boundary" in captured.err
    assert "OK:" not in captured.out


def test_crashsweep_json_records_each_cell_seed(tmp_path):
    # A worker that swept under another seed must change the payload.
    path = tmp_path / "sweep.json"
    assert main(["crashsweep", "--workload", "Fillseq-S", "--ops", "12", "--points", "1",
                 "--seed", "11", "--scheme", "fsencr", "--json", str(path)]) == 0
    payload = json.loads(path.read_text())
    assert len(payload["cells"]) == 3  # one per fault profile
    assert {cell["seed"] for cell in payload["cells"]} == {payload["seed"]} == {11}


@pytest.mark.parametrize(
    "argv",
    [
        ["fig12", "--iters", "20"],  # a result table
        ["crashsweep", "--workload", "Fillseq-S", "--ops", "12", "--points", "1",
         "--scheme", "fsencr", "--profile", "mixed"],  # a plain payload
    ],
    ids=lambda argv: argv[0],
)
def test_json_creates_missing_parent_directories(argv, tmp_path):
    path = tmp_path / "a" / "b" / "x.json"
    assert main([*argv, "--json", str(path)]) == 0
    assert json.loads(path.read_text())


@pytest.mark.parametrize("points", ["0", "-2"])
def test_crashsweep_needs_a_positive_point_count(points, capsys):
    # 0 would divide by zero in the boundary sampler; a negative bound
    # would sample no crash point and still print OK.
    with pytest.raises(SystemExit) as exc:
        main(["crashsweep", "--workload", "Fillseq-S", "--ops", "12", "--points", points])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "argument --points: must be >= 1" in captured.err
    assert "OK:" not in captured.out


def test_figure_aliases_share_one_handler():
    parser = build_parser()
    fig8 = parser.parse_args(["fig8"]).func
    assert parser.parse_args(["fig9"]).func == fig8
    assert parser.parse_args(["fig10"]).func == fig8
    assert parser.parse_args(["fig13", "--iters", "5"]).iters == 5


def test_report_reads_a_positional_directory():
    parser = build_parser()
    assert parser.parse_args(["report"]).results == "benchmarks/results"
    assert parser.parse_args(["report", "out"]).results == "out"


def test_loadcurve_schemes_are_canonical_columns():
    args = build_parser().parse_args(["loadcurve", "--schemes", " FSENCR ,baseline_secure"])
    assert args.schemes == ("fsencr", "baseline_secure")


@pytest.mark.parametrize("name", ["nonexistent", "file.json"])
def test_report_needs_a_results_directory(tmp_path, name, capsys):
    path = tmp_path / name
    if name == "file.json":
        path.write_text("{}")
    with pytest.raises(SystemExit) as exc:
        main(["report", str(path)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"{path} is not a directory" in captured.err
    assert captured.out == ""


def _documented_commands():
    """Every ``python -m repro <cmd> ...`` invocation in the README,
    docs/ and the CI workflow, backslash continuations joined, shell
    comments and anything after a shell operator dropped."""
    paths = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
    paths.append(ROOT / ".github" / "workflows" / "ci.yml")
    commands = []
    for path in paths:
        text = re.sub(r"\\\n\s*", " ", path.read_text(encoding="utf-8"))
        for match in re.finditer(r"python -m repro +([^`\n]*)", text):
            argv = []
            for token in shlex.split(match.group(1), comments=True):
                if token in {"|", "||", "&&", ";", ">", ">>"}:
                    break
                argv.append(token)
            commands.append(pytest.param(argv, id=f"{path.name}: {' '.join(argv)}"))
    return commands


def test_the_docs_have_commands():
    assert len(_documented_commands()) >= 30


@pytest.mark.parametrize("argv", _documented_commands())
def test_documented_command_parses(argv):
    args = build_parser().parse_args(argv)
    assert callable(args.func)


def _documented_py_paths():
    """Every backticked ``*.py`` path in the README, EXPERIMENTS.md,
    DESIGN.md and docs/ with the ``::name`` or ``:line`` suffixes cited
    after it, plus every backticked dotted ``repro.*`` name; globs and
    ``<name>`` placeholders skipped."""
    refs = {}
    docs = [ROOT / "README.md", ROOT / "EXPERIMENTS.md", ROOT / "DESIGN.md"]
    for path in [*docs, *sorted((ROOT / "docs").glob("*.md"))]:
        text = path.read_text(encoding="utf-8")
        for match in re.finditer(r"`([\w./<>*-]+\.py)(?::([^`]*))?`", text):
            ref, suffix = match.groups()
            if "*" not in ref and "<" not in ref:
                suffixes = refs.setdefault(f"{path.name}: {ref}", (ref, []))[1]
                if suffix:
                    suffixes.append(suffix)
        for match in re.finditer(r"`(repro(?:\.\w+)+)", text):
            refs.setdefault(f"{path.name}: {match.group(1)}", (match.group(1), []))
    return [pytest.param(ref, suffixes, id=key) for key, (ref, suffixes) in refs.items()]


def _defines(tree: ast.AST, chain) -> bool:
    """Whether ``chain`` (``["Class", "method"]``) names a definition,
    assignment or import in the parsed module ``tree``, one nesting
    level per link."""
    if not chain:
        return True
    for node in getattr(tree, "body", []):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        else:
            continue
        if chain[0] in names and _defines(node, chain[1:]):
            return True
    return False


def _module_and_chain(dotted: str):
    """The file of the longest module prefix of a dotted ``repro.*``
    name, and the attribute chain left after it."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        base = ROOT / "src" / Path(*parts[:cut])
        for path in (base.with_suffix(".py"), base / "__init__.py"):
            if path.is_file():
                return path, parts[cut:]
    raise AssertionError(f"no module for {dotted}")


def test_the_docs_have_py_paths():
    assert len(_documented_py_paths()) >= 30


@pytest.mark.parametrize("ref, suffixes", _documented_py_paths())
def test_documented_py_path_exists(ref, suffixes):
    """A deleted module or symbol must not linger in the docs.  Paths
    resolve from the repo root, from ``src/`` (``repro/...``), from
    ``src/repro/`` (``sim/trace.py``), or from ``benchmarks/`` and
    ``examples/`` (bare script names); a ``::name`` suffix and a dotted
    ``repro.*`` name resolve by an ``ast`` walk, and a ``:line``
    citation must fall inside its file."""
    if not ref.endswith(".py"):
        module, chain = _module_and_chain(ref)
        assert _defines(ast.parse(module.read_text(encoding="utf-8")), chain), ref
        return
    bases = (ROOT, ROOT / "src", ROOT / "src" / "repro", ROOT / "benchmarks", ROOT / "examples")
    files = [base / ref for base in bases if (base / ref).is_file()]
    assert files, ref
    source = files[0].read_text(encoding="utf-8")
    for suffix in suffixes:
        if suffix.isdigit():
            assert 1 <= int(suffix) <= len(source.splitlines()), f"{ref}:{suffix}"
        else:
            chain = suffix.lstrip(":").split("::")
            assert _defines(ast.parse(source), chain), f"{ref}:{suffix}"


def test_all_runs_every_grid_on_one_runner(capsys):
    # bench's fig15 grid runs at its default column: neither bench nor
    # all has a --scheme for it to read.
    argv = ["all", "--ops", "10", "--iters", "50"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "Figure 15" in out and "System A" in out
    assert out.count("exec: ") == 6  # five grids, then the shared runner's lifetime
