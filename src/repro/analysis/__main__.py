"""The repro-lint command line.

::

    python -m repro.analysis [paths ...]
                             [--format text|json|sarif]
                             [--select RJ001,RJ002] [--ignore RJ005]
                             [--jobs N]
                             [--baseline FILE | --no-baseline]
                             [--update-baseline]
                             [--changed-only [--diff-base REF]]
                             [--list-rules]

Exit codes: 0 clean (warning-severity findings are advisory and do
not gate), 1 error-severity findings reported, 2 usage error.  With
no paths, ``src`` is scanned when it exists, else the current
directory.

``--baseline`` defaults to ``.repro-lint-baseline.json`` when that
file exists; baselined findings are swallowed up to the recorded
per-``RULE::path`` count (the ratchet), and ``--update-baseline``
rewrites the file from the current findings.  ``--changed-only``
restricts the per-file rule phase to files changed against
``--diff-base`` (default ``HEAD``) while the whole-program index
still covers the full source roots.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

from repro.analysis.baseline import (
    DEFAULT_BASELINE_NAME,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.analysis.engine import analyze_paths, default_jobs, resolve_rules
from repro.analysis.findings import Severity
from repro.analysis.reporters import render_json, render_sarif, render_text

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def _split_codes(raw: list[str]) -> list[str]:
    codes: list[str] = []
    for chunk in raw:
        codes.extend(code.strip() for code in chunk.split(",") if code.strip())
    return codes


def changed_python_files(diff_base: str,
                         scope: list[str]) -> list[str] | None:
    """Python files changed against ``diff_base``, untracked included.

    Returns None when git is unavailable or the diff fails (not a
    repository, unknown ref) — the caller falls back to a full scan
    rather than silently linting nothing.  ``scope`` limits the result
    to files under the requested paths.
    """
    commands = (
        ["git", "diff", "--name-only", "--diff-filter=ACMR", diff_base],
        ["git", "ls-files", "--others", "--exclude-standard"],
    )
    names: list[str] = []
    for command in commands:
        try:
            proc = subprocess.run(command, capture_output=True,
                                  text=True, check=True)
        except (OSError, subprocess.CalledProcessError):
            return None
        names.extend(line.strip() for line in proc.stdout.splitlines()
                     if line.strip())
    scope_paths = [Path(p).resolve() for p in scope]

    def in_scope(path: Path) -> bool:
        resolved = path.resolve()
        return any(resolved == root or root in resolved.parents
                   for root in scope_paths)

    out: list[str] = []
    seen: set[str] = set()
    for name in names:
        path = Path(name)
        if path.suffix != ".py" or not path.exists():
            continue
        if name in seen or not in_scope(path):
            continue
        seen.add(name)
        out.append(name)
    return sorted(out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Project-aware static analysis for the reactive-jamming "
                    "reproduction (register-map, fixed-point, dtype-flow, "
                    "and determinism invariants).",
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to scan (default: src if present, else .)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select", action="append", default=[], metavar="CODES",
        help="comma-separated rule codes to run exclusively",
    )
    parser.add_argument(
        "--ignore", action="append", default=[], metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="parse-pool width (default: min(8, cpu count))",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help=f"ratchet baseline file (default: {DEFAULT_BASELINE_NAME} "
             "when it exists)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file; report every finding",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline file from current findings and exit 0",
    )
    parser.add_argument(
        "--changed-only", action="store_true",
        help="lint only files changed against --diff-base; the project "
             "index still covers the full scan roots",
    )
    parser.add_argument(
        "--diff-base", default="HEAD", metavar="REF",
        help="git ref --changed-only diffs against (default: HEAD)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        rules = resolve_rules(_split_codes(args.select),
                              _split_codes(args.ignore))
    except ValueError as exc:
        parser.error(str(exc))  # exits with code 2

    if args.list_rules:
        for rule in rules:
            print(f"{rule.code}  {rule.name}")
            print(f"       {rule.description}")
        return EXIT_CLEAN

    if args.no_baseline and (args.baseline or args.update_baseline):
        parser.error("--no-baseline conflicts with "
                     "--baseline/--update-baseline")

    paths = args.paths or (["src"] if Path("src").is_dir() else ["."])
    missing = [path for path in paths if not Path(path).exists()]
    if missing:
        parser.error(f"path(s) do not exist: {', '.join(missing)}")

    jobs = args.jobs if args.jobs is not None else default_jobs()
    if jobs < 1:
        parser.error("--jobs must be >= 1")

    scan_paths: list[str | Path] = list(paths)
    project_paths: list[str | Path] | None = None
    if args.changed_only:
        changed = changed_python_files(args.diff_base, paths)
        if changed is None:
            print("repro-lint: git diff unavailable; scanning all paths",
                  file=sys.stderr)
        elif not changed:
            print("repro-lint: no changed Python files under "
                  f"{', '.join(paths)}")
            return EXIT_CLEAN
        else:
            scan_paths = list(changed)
            project_paths = list(paths)

    findings = analyze_paths(scan_paths, rules, jobs=jobs,
                             project_paths=project_paths)

    baseline_path = args.baseline
    if baseline_path is None and not args.no_baseline \
            and Path(DEFAULT_BASELINE_NAME).exists():
        baseline_path = DEFAULT_BASELINE_NAME

    if args.update_baseline:
        target = args.baseline or DEFAULT_BASELINE_NAME
        counts = write_baseline(target, findings)
        print(f"repro-lint: baseline {target} updated "
              f"({sum(counts.values())} finding(s) over "
              f"{len(counts)} key(s))")
        return EXIT_CLEAN

    suppressed = 0
    if baseline_path is not None and not args.no_baseline:
        try:
            baseline = load_baseline(baseline_path)
        except ValueError as exc:
            parser.error(str(exc))
        findings, suppressed = apply_baseline(findings, baseline)

    if args.format == "json":
        print(render_json(findings, [rule.code for rule in rules]))
    elif args.format == "sarif":
        print(render_sarif(findings, rules))
    else:
        print(render_text(findings))
        if suppressed:
            print(f"repro-lint: {suppressed} baselined finding(s) "
                  f"suppressed by {baseline_path}")

    gating = [f for f in findings if f.severity is Severity.ERROR]
    return EXIT_FINDINGS if gating else EXIT_CLEAN


if __name__ == "__main__":
    sys.exit(main())
