"""The rule engine: discovery, parsing, dispatch, suppression.

Analysis runs in two phases.  The **index phase** parses every file
and builds the :class:`~repro.analysis.project.ProjectContext`:
module/import graph, symbol table, approximate call graph,
per-function dtype summaries.  The **rule phase** walks each file once
more, handing per-file rules the :class:`FileContext` and
whole-program rules (:class:`ProjectRule`) the project context
alongside it.  All domain knowledge lives in the rules
(:mod:`repro.analysis.rules`); the engine stays deliberately boring.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.findings import Finding, Severity
from repro.analysis.suppressions import Suppressions, collect_suppressions

#: Rule code reserved for files the parser rejects.
PARSE_ERROR_CODE = "RJ000"

#: Directories never descended into during discovery.
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache",
              "build", "dist"}


class FileContext:
    """Everything a per-file rule needs to know about one file."""

    def __init__(self, path: str, source: str, tree: ast.Module,
                 suppressions: Suppressions) -> None:
        self.path = path
        #: Forward-slash path, for suffix matching regardless of OS.
        self.posix_path = path.replace("\\", "/")
        self.source = source
        self.tree = tree
        self.suppressions = suppressions

    @property
    def is_src(self) -> bool:
        """Whether the file lives under the ``src/`` package tree."""
        parts = Path(self.posix_path).parts
        return "src" in parts

    def path_endswith(self, *suffixes: str) -> bool:
        """Suffix match against the normalized path."""
        return any(self.posix_path.endswith(suffix) for suffix in suffixes)


class Rule:
    """Base class for per-file repro-lint rules.

    Subclasses set ``code`` (``RJ0xx``), ``name`` (short slug),
    ``description``, optionally ``severity``, and implement
    :meth:`check` yielding findings.  Rules must not mutate the
    context.
    """

    code: str = ""
    name: str = ""
    description: str = ""
    #: Findings default to this severity; ERROR findings gate CI.
    severity: Severity = Severity.ERROR

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str,
                severity: Severity | None = None) -> Finding:
        """Build a finding anchored at ``node``."""
        return Finding(
            rule=self.code,
            message=message,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            severity=severity if severity is not None else self.severity,
        )


class ProjectRule(Rule):
    """Base class for whole-program rules.

    The engine calls :meth:`check_project` with the shared
    :class:`~repro.analysis.project.ProjectContext` built in the index
    phase.  The rule is still invoked once per file and must anchor
    its findings in ``ctx`` — that keeps suppressions, baselines, and
    reporting identical across both rule families.
    """

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        # Without a project index there is nothing to verify.
        return iter(())

    def check_project(self, ctx: FileContext,
                      project: "ProjectContext") -> Iterator[Finding]:
        raise NotImplementedError


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Expand files and directories into a stream of unique ``.py`` files.

    Overlapping arguments (a file plus its parent directory, the same
    directory twice) are deduplicated by resolved path so findings are
    never double-reported.
    """
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if _SKIP_DIRS.intersection(candidate.parts):
                    continue
                resolved = candidate.resolve()
                if resolved not in seen:
                    seen.add(resolved)
                    yield candidate
        elif path.suffix == ".py":
            resolved = path.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield path


def resolve_rules(select: Iterable[str] | None = None,
                  ignore: Iterable[str] | None = None) -> list[Rule]:
    """Turn ``--select`` / ``--ignore`` code lists into rule instances.

    Unknown codes raise in **both** lists: a typo'd ``--ignore`` that
    silently ignores nothing is exactly as wrong as a typo'd
    ``--select``.
    """
    from repro.analysis.rules import ALL_RULES

    known = {rule.code for rule in ALL_RULES}
    rules = list(ALL_RULES)
    if select:
        wanted = {code.upper() for code in select}
        unknown = wanted - known
        if unknown:
            raise ValueError(f"unknown rule code(s): {', '.join(sorted(unknown))}")
        rules = [rule for rule in rules if rule.code in wanted]
    if ignore:
        dropped = {code.upper() for code in ignore}
        unknown = dropped - known
        if unknown:
            raise ValueError(f"unknown rule code(s): {', '.join(sorted(unknown))}")
        rules = [rule for rule in rules if rule.code not in dropped]
    return rules


# -- parsing ------------------------------------------------------------


@dataclass
class ParsedFile:
    """One file after the parse step (tree is None on errors)."""

    path: str
    source: str
    tree: ast.Module | None
    suppressions: Suppressions
    error: Finding | None = None


def _parse_one(path_str: str) -> ParsedFile:
    """Read + parse + collect suppressions for one file."""
    try:
        source = Path(path_str).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return ParsedFile(
            path=path_str, source="", tree=None,
            suppressions=Suppressions(),
            error=Finding(rule=PARSE_ERROR_CODE,
                          message=f"file is unreadable: {exc}",
                          path=path_str, line=1, col=0),
        )
    return parse_source(source, path_str)


def parse_source(source: str, path: str) -> ParsedFile:
    """Parse one in-memory source string."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return ParsedFile(
            path=path, source=source, tree=None,
            suppressions=collect_suppressions(source, None),
            error=Finding(rule=PARSE_ERROR_CODE,
                          message=f"file does not parse: {exc.msg}",
                          path=path, line=exc.lineno or 1,
                          col=exc.offset or 0),
        )
    return ParsedFile(path=path, source=source, tree=tree,
                      suppressions=collect_suppressions(source, tree))


def parse_files(paths: Iterable[str | Path]) -> list[ParsedFile]:
    """Parse every Python file under ``paths``, in discovery order."""
    return [_parse_one(str(path)) for path in iter_python_files(paths)]


# -- analysis -----------------------------------------------------------


def _check_file(parsed: ParsedFile, rules: Iterable[Rule],
                project: "ProjectContext | None") -> list[Finding]:
    if parsed.tree is None:
        return [parsed.error] if parsed.error is not None else []
    ctx = FileContext(parsed.path, parsed.source, parsed.tree,
                      parsed.suppressions)
    findings = []
    for rule in rules:
        if isinstance(rule, ProjectRule):
            if project is None:
                continue
            produced = rule.check_project(ctx, project)
        else:
            produced = rule.check(ctx)
        for finding in produced:
            if not ctx.suppressions.is_suppressed(finding.rule,
                                                  finding.line):
                findings.append(finding)
    return findings


def _build_project(parsed: Iterable[ParsedFile]) -> "ProjectContext":
    from repro.analysis.project import ProjectContext

    return ProjectContext.build([
        (p.path, p.tree) for p in parsed if p.tree is not None
    ])


def analyze_source(source: str, path: str,
                   rules: Iterable[Rule] | None = None,
                   project: "ProjectContext | None" = None
                   ) -> list[Finding]:
    """Analyze one source string as if it lived at ``path``.

    Without an explicit ``project`` a single-file index is built, so
    whole-program rules still run on snippets (seeing only this file).
    """
    if rules is None:
        rules = resolve_rules()
    parsed = parse_source(source, path)
    if project is None and parsed.tree is not None:
        project = _build_project([parsed])
    return sorted(_check_file(parsed, rules, project),
                  key=Finding.sort_key)


def analyze_sources(files: dict[str, str],
                    rules: Iterable[Rule] | None = None) -> list[Finding]:
    """Analyze several in-memory files as one project.

    ``files`` maps path -> source; the index phase sees all of them,
    so cross-file dataflow rules resolve calls between the entries.
    """
    if rules is None:
        rules = resolve_rules()
    parsed = [parse_source(source, path) for path, source in files.items()]
    project = _build_project(parsed)
    findings = [
        finding
        for one in parsed
        for finding in _check_file(one, rules, project)
    ]
    return sorted(findings, key=Finding.sort_key)


def analyze_file(path: str | Path,
                 rules: Iterable[Rule] | None = None) -> list[Finding]:
    """Analyze one file on disk (single-file project index)."""
    if rules is None:
        rules = resolve_rules()
    parsed = _parse_one(str(path))
    project = None
    if parsed.tree is not None:
        project = _build_project([parsed])
    return sorted(_check_file(parsed, rules, project),
                  key=Finding.sort_key)


def analyze_paths(paths: Iterable[str | Path],
                  rules: Iterable[Rule] | None = None,
                  project_paths: Iterable[str | Path] | None = None
                  ) -> list[Finding]:
    """Analyze every Python file under ``paths`` (the CLI entry point).

    ``project_paths`` widens the **index** beyond the analyzed files:
    ``--changed-only`` hands the changed files as ``paths`` and the
    full source roots here, so whole-program rules keep seeing the
    entire project while per-file work shrinks to the diff.
    """
    if rules is None:
        rules = resolve_rules()
    else:
        rules = list(rules)
    parsed = parse_files(paths)
    index_input = parsed
    if project_paths is not None:
        analyzed = {Path(p.path).resolve() for p in parsed}
        extra = parse_files(project_paths)
        index_input = parsed + [
            p for p in extra if Path(p.path).resolve() not in analyzed
        ]
    project = _build_project(index_input)
    findings: list[Finding] = []
    for one in parsed:
        findings.extend(_check_file(one, rules, project))
    return sorted(findings, key=Finding.sort_key)
