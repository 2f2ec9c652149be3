"""Command-line front end: ``python -m repro.lint`` / ``repro-lint``.

Exit codes:

* 0 — clean (every finding suppressed inline or matched by the baseline;
  with ``--strict``, additionally no stale baseline entries)
* 1 — new findings (or, under ``--strict``, stale baseline entries)
* 2 — usage, configuration, or parse error
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

from .baseline import Baseline, split_findings
from .config import load_config
from .engine import LintError, Project, SourceFile, collect_files, lint_sources
from .rules import RULES
from .sarif import to_sarif

__all__ = ["main", "run"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="AST-based invariant linter for the FsEncr simulator "
        "(see docs/LINT.md for the rule catalogue).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: [tool.repro-lint] paths)",
    )
    parser.add_argument(
        "--root",
        default=".",
        help="repository root (pyproject.toml and baseline live here; default: cwd)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (json for scripts, sarif for code-scanning upload)",
    )
    parser.add_argument(
        "--changed",
        action="store_true",
        help="lint only files changed per git (plus their reverse-import "
        "dependents via the flow graph); analysis stays whole-program",
    )
    parser.add_argument(
        "--prune-baseline",
        action="store_true",
        help="rewrite the baseline file without stale (paid-off) entries and exit",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="also fail on stale baseline entries (debt that has been paid off)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="baseline file (default: [tool.repro-lint] baseline; '-' disables)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="accept all current findings into the baseline file and exit 0",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule names to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        default=None,
        help="comma-separated rule names to skip",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _pick_rules(select: Optional[str], ignore: Optional[str]) -> List[object]:
    names = list(RULES)
    if select:
        wanted = [part.strip() for part in select.split(",") if part.strip()]
        unknown = [name for name in wanted if name not in RULES]
        if unknown:
            raise LintError(f"unknown rule(s): {', '.join(unknown)}")
        names = [name for name in names if name in wanted]
    if ignore:
        dropped = {part.strip() for part in ignore.split(",") if part.strip()}
        unknown = [name for name in dropped if name not in RULES]
        if unknown:
            raise LintError(f"unknown rule(s): {', '.join(unknown)}")
        names = [name for name in names if name not in dropped]
    return [RULES[name] for name in names]


def _list_rules(fmt: str) -> int:
    if fmt == "json":
        payload = {
            name: {"summary": rule.summary, "contract": rule.contract}
            for name, rule in sorted(RULES.items())
        }
        print(json.dumps(payload, indent=2))
    else:
        for name, rule in sorted(RULES.items()):
            print(f"{name}: {rule.summary}")
            if rule.contract:
                print(f"    protects: {rule.contract}")
    return 0


def _git_changed_rels(root: Path) -> List[str]:
    """Repo-relative paths git considers changed: worktree + staged +
    untracked (the files a developer is about to commit)."""
    import subprocess

    rels: List[str] = []
    commands = [
        ["git", "diff", "--name-only", "HEAD"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ]
    for command in commands:
        try:
            proc = subprocess.run(
                command,
                cwd=root,
                capture_output=True,
                text=True,
                check=True,
            )
        except (OSError, subprocess.CalledProcessError) as exc:
            raise LintError(f"--changed needs a git checkout: {exc}")
        rels.extend(line.strip() for line in proc.stdout.splitlines() if line.strip())
    return sorted(set(rels))


def run(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        return _list_rules(args.format)

    root = Path(args.root)
    if not root.exists():
        raise LintError(f"root does not exist: {root}")
    options = load_config(root)
    rules = _pick_rules(args.select, args.ignore)

    raw_paths = args.paths or options.get("paths", ["."])
    paths = [Path(p) if Path(p).is_absolute() else root / p for p in raw_paths]
    files = collect_files(paths, root)
    sources = [SourceFile.parse(path, root) for path in files]
    project = Project(root=root, files=sources)
    project.index()

    only: Optional[set] = None
    if args.changed:
        changed = set(_git_changed_rels(root))
        known = {src.rel for src in sources}
        changed &= known
        if changed:
            # Expand to reverse-import dependents so a touched leaf
            # re-checks whoever depends on it; any flow failure falls
            # back to the changed files alone.
            try:
                flow = project.flow(options)
                only = set(flow.graph.dependents_of(sorted(changed))) & known
                only |= changed
            except LintError:
                only = changed
        else:
            only = set()

    findings, suppressed = lint_sources(
        sources, root, rules, options, only=only, project=project
    )
    file_count = len(sources) if only is None else len(only)

    baseline_arg = args.baseline if args.baseline is not None else str(options.get("baseline", ""))
    baseline_path: Optional[Path] = None
    if baseline_arg and baseline_arg != "-":
        candidate = Path(baseline_arg)
        baseline_path = candidate if candidate.is_absolute() else root / candidate

    if args.write_baseline or args.prune_baseline:
        if baseline_path is None:
            raise LintError(
                "--write-baseline/--prune-baseline need a baseline path "
                "(config or --baseline)"
            )
        if only is not None:
            raise LintError("--changed cannot rewrite the baseline (partial view)")
        previous = Baseline.load(baseline_path)
        if args.write_baseline:
            Baseline.from_findings(findings, previous).write(baseline_path)
            print(f"repro-lint: wrote {len(findings)} finding(s) to {baseline_path}")
            return 0
        pruned = previous.pruned(findings)
        dropped = sum(previous.entries.values()) - sum(pruned.entries.values())
        pruned.write(baseline_path)
        print(
            f"repro-lint: pruned {dropped} stale entr"
            f"{'y' if dropped == 1 else 'ies'} from {baseline_path}"
        )
        return 0

    baseline = Baseline.load(baseline_path) if baseline_path is not None else Baseline()
    new, baselined, stale = split_findings(findings, baseline)
    if only is not None:
        # A partial lint cannot tell paid-off debt from unvisited files.
        stale = []

    exit_code = 1 if new or (args.strict and stale) else 0
    summary = {
        "new": len(new),
        "baselined": len(baselined),
        "suppressed": suppressed,
        "stale_baseline": len(stale),
        "files": file_count,
    }
    if project._flow is not None:
        summary["flow"] = project._flow.summary_stats()

    if args.format == "sarif":
        print(json.dumps(to_sarif(new, baselined), indent=2))
        return exit_code

    if args.format == "json":
        payload = {
            "version": 1,
            "findings": [dict(f.to_dict(), status="new") for f in new]
            + [dict(f.to_dict(), status="baselined") for f in baselined],
            "stale_baseline": stale,
            "summary": summary,
            "exit_code": exit_code,
        }
        print(json.dumps(payload, indent=2))
        return exit_code

    for finding in new:
        print(finding.render())
    if stale:
        for entry in stale:
            print(
                f"warning: stale-baseline: {entry['rule']} in {entry['path']} "
                f"(x{entry['count']}) no longer occurs — run --prune-baseline"
            )
    status = "FAILED" if exit_code else "ok"
    print(
        f"repro-lint: {status} — {summary['new']} new, {summary['baselined']} baselined, "
        f"{summary['suppressed']} suppressed, {summary['stale_baseline']} stale baseline "
        f"entr{'y' if summary['stale_baseline'] == 1 else 'ies'} across {file_count} files"
    )
    return exit_code


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return run(argv)
    except LintError as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
