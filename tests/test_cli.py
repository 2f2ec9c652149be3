"""The CLI's parser: one subparser per command, each accepting exactly
the flags its handler reads, and every documented invocation parsing."""

from __future__ import annotations

import os
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import _make_runner, build_parser, main
from repro.lint.cli import build_parser as build_lint_parser

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
        ["fig15", "--scheme", "nonsense"],
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


#: ``python -m repro <cmd> ...`` and ``python -m repro.lint ...``.
_REPRO_COMMAND = r"python -m repro +([^`\n]*)"
_LINT_COMMAND = r"python -m repro\.lint\b([^`\n]*)"


def _documented_commands(pattern=_REPRO_COMMAND):
    """Every invocation matching ``pattern`` in the README, docs/ and
    the CI workflow, backslash continuations joined, shell comments and
    anything after a shell operator dropped."""
    paths = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
    paths.append(ROOT / ".github" / "workflows" / "ci.yml")
    commands = []
    for path in paths:
        text = re.sub(r"\\\n\s*", " ", path.read_text(encoding="utf-8"))
        for match in re.finditer(pattern, text):
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


def test_the_docs_have_lint_commands():
    assert len(_documented_commands(_LINT_COMMAND)) >= 5


@pytest.mark.parametrize("argv", _documented_commands(_LINT_COMMAND))
def test_documented_lint_command_parses(argv):
    # A doc still showing a removed linter flag (--strict, --changed,
    # --baseline, --format sarif, ...) makes argparse exit 2 here.
    build_lint_parser().parse_args(argv)


def _documented_py_paths():
    """Every backticked ``*.py`` path in DESIGN.md and docs/, any
    ``::test`` or ``:NAME`` suffix dropped; globs and ``<name>``
    placeholders skipped."""
    refs = {}
    for path in [ROOT / "DESIGN.md", *sorted((ROOT / "docs").glob("*.md"))]:
        text = path.read_text(encoding="utf-8")
        for match in re.finditer(r"`([\w./<>*-]+\.py)(?::[^`]*)?`", text):
            ref = match.group(1)
            if "*" not in ref and "<" not in ref:
                refs.setdefault(f"{path.name}: {ref}", ref)
    return [pytest.param(ref, id=key) for key, ref in refs.items()]


def test_the_docs_have_py_paths():
    assert len(_documented_py_paths()) >= 30


@pytest.mark.parametrize("ref", _documented_py_paths())
def test_documented_py_path_exists(ref):
    """A deleted module must not linger in the docs.  Paths resolve
    from the repo root, from ``src/`` (``repro/...``) or from
    ``src/repro/`` (``sim/trace.py``)."""
    bases = (ROOT, ROOT / "src", ROOT / "src" / "repro")
    assert any((base / ref).is_file() for base in bases), ref


def test_all_runs_every_grid_on_one_runner(capsys):
    # bench's fig15 grid runs at its default column: neither bench nor
    # all has a --scheme for it to read.
    argv = ["all", "--ops", "10", "--iters", "50"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "Figure 15" in out and "System A" in out
    assert out.count("exec: ") == 6  # five grids, then the shared runner's lifetime
