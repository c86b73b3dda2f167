"""RJ015: an import whose name the module never reads.

An unused import is dead weight on every import of the module, and in
this codebase a misleading one: a hot-path module that imports a
kernel it no longer calls reads as if it still did.  The check is
per-file and scope-blind: an imported name counts as used when the
module reads it anywhere — as a plain name, as the root of an
attribute chain, in a quoted annotation, or listed in ``__all__``.
``__init__.py`` files are skipped, since their imports are the
package's re-exports.  An import kept only for its side effect (a
module that registers or maps something when loaded) carries an
inline ``# repro-lint: disable=RJ015`` saying why.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.engine import FileContext, Finding, Rule


def _bound_names(node: ast.Import | ast.ImportFrom
                 ) -> Iterator[tuple[str, ast.alias]]:
    """The names an import statement binds, with their aliases."""
    for alias in node.names:
        if alias.name == "*":
            continue
        if alias.asname is not None:
            yield alias.asname, alias
        elif isinstance(node, ast.Import):
            yield alias.name.partition(".")[0], alias
        else:
            yield alias.name, alias


def _annotation_names(annotation: ast.expr | None) -> Iterator[str]:
    """Names read by quoted parts of an annotation (``"np.ndarray"``)."""
    if annotation is None:
        return
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            for inner in ast.walk(parsed):
                if isinstance(inner, ast.Name):
                    yield inner.id


def _annotations(tree: ast.Module) -> Iterator[ast.expr | None]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                        args.vararg, args.kwarg):
                if arg is not None:
                    yield arg.annotation
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _dunder_all(tree: ast.Module) -> Iterator[str]:
    """String entries of a module-level ``__all__`` list or tuple."""
    for stmt in tree.body:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            targets, value = [stmt.target], stmt.value
        if not any(isinstance(target, ast.Name) and target.id == "__all__"
                   for target in targets):
            continue
        if isinstance(value, (ast.List, ast.Tuple)):
            for element in value.elts:
                if isinstance(element, ast.Constant) \
                        and isinstance(element.value, str):
                    yield element.value


def _used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        used.update(_annotation_names(annotation))
    used.update(_dunder_all(tree))
    return used


class UnusedImportRule(Rule):
    """RJ015: an imported name the module never reads."""

    code = "RJ015"
    name = "unused-import"
    description = (
        "every imported name must be read somewhere in its module "
        "(names in __all__ count; __init__.py re-exports are exempt); "
        "a side-effect import carries an inline suppression saying why"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.path_endswith("__init__.py"):
            return
        used = _used_names(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) \
                    and node.module == "__future__":
                continue
            for bound, alias in _bound_names(node):
                if bound not in used:
                    yield self.finding(
                        ctx, alias,
                        f"'{bound}' is imported but never used; delete "
                        "the import (or suppress it inline, saying why, "
                        "if it is kept for a side effect)",
                    )
