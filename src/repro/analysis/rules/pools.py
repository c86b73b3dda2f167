"""RJ008: process pools are built only by the runtime sweep engine.

:mod:`repro.runtime.jobs` is the repo's single pool-policy choke
point: it owns the fork-context selection, the deterministic per-trial
seeding discipline, sharded submission, worker supervision, and the
serial ``workers=1`` reference path that parallel runs must match
byte-for-byte.  An ad-hoc ``ProcessPoolExecutor`` or
``multiprocessing.Pool`` elsewhere under ``src/`` escapes all of that
— its trials draw from whatever generator happens to be ambient,
results arrive in scheduling order, and the byte-identical
serial/parallel guarantee quietly disappears.

Code that needs fan-out should call
:func:`repro.runtime.jobs.resilient_sweep` instead.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.engine import FileContext, Finding, Rule

#: Path fragment allowed to build pools: the sweep engine itself.
ALLOWED_PATH_PARTS: tuple[str, ...] = ("/runtime/",)

#: Pool-spawning constructors on the ``multiprocessing`` module (and
#: its contexts) and in ``concurrent.futures``.
POOL_CONSTRUCTORS: frozenset[str] = frozenset({
    "ProcessPoolExecutor", "Pool", "Process",
})


def _collect_imports(tree: ast.Module) -> tuple[set[str], set[str]]:
    """Names under which pool constructors are reachable.

    Returns ``(module_aliases, direct_names)``: local names bound to
    the ``multiprocessing`` / ``concurrent.futures`` modules, and local
    names of from-imported pool constructors.
    """
    module_aliases: set[str] = set()
    direct_names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "multiprocessing" \
                        or alias.name.startswith("multiprocessing.") \
                        or alias.name.startswith("concurrent"):
                    module_aliases.add(
                        alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module == "multiprocessing" \
                    or module.startswith("multiprocessing.") \
                    or module.startswith("concurrent"):
                for alias in node.names:
                    if alias.name in POOL_CONSTRUCTORS:
                        direct_names.add(alias.asname or alias.name)
                    else:
                        # e.g. `from multiprocessing import pool`
                        module_aliases.add(alias.asname or alias.name)
    return module_aliases, direct_names


class PoolConstructionRule(Rule):
    """RJ008: process pools only inside repro.runtime."""

    code = "RJ008"
    name = "ad-hoc-process-pool"
    description = (
        "ProcessPoolExecutor / multiprocessing pools may only be "
        "constructed under repro.runtime; fan work out through "
        "repro.runtime.jobs.resilient_sweep so seeding stays "
        "deterministic and parallel runs match the serial reference "
        "byte-for-byte"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.is_src:
            return
        if any(part in ctx.posix_path for part in ALLOWED_PATH_PARTS):
            return
        module_aliases, direct_names = _collect_imports(ctx.tree)
        if not module_aliases and not direct_names:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            constructor: str | None = None
            if isinstance(func, ast.Name) and func.id in direct_names:
                constructor = func.id
            elif isinstance(func, ast.Attribute) \
                    and func.attr in POOL_CONSTRUCTORS:
                owner = func.value
                # multiprocessing.Pool(...), futures.ProcessPoolExecutor(...)
                if isinstance(owner, ast.Name) and owner.id in module_aliases:
                    constructor = f"{owner.id}.{func.attr}"
                # multiprocessing.get_context("fork").Pool(...)
                elif isinstance(owner, ast.Call) \
                        and isinstance(owner.func, ast.Attribute) \
                        and isinstance(owner.func.value, ast.Name) \
                        and owner.func.value.id in module_aliases:
                    constructor = f"...{func.attr}"
            if constructor is not None:
                yield self.finding(
                    ctx, node,
                    f"ad-hoc process pool {constructor}() outside "
                    "repro.runtime; use repro.runtime.jobs.resilient_sweep "
                    "so the per-trial seeding discipline and the serial "
                    "reference path still hold",
                )
