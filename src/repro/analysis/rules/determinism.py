"""RJ011: RNG/determinism discipline on the sweep-reachable graph.

The byte-identical serial/parallel guarantee of
:mod:`repro.runtime.jobs` and the reproducibility of every figure
rest on one discipline: randomness enters a trial **only** through the
per-trial ``numpy.random.Generator`` derived from an explicit seed.
An unseeded ``default_rng()``, a legacy ``np.random.<fn>`` call (the
process-global generator), or a stdlib ``random.<fn>`` call anywhere
on the call graph reachable from a sweep/trial/experiment entry point
silently re-ties results to scheduling order and import history.

Per-file analysis cannot see that a helper two modules away is called
from a trial; this rule walks the project call graph from the entry
points (every function under ``experiments/``, ``runtime/`` and
``defense/`` — detector training and policy-vs-detector tournaments
carry the same byte-identity guarantee as figure sweeps — plus any
function whose name mentions sweep/trial/experiment/tournament) and
flags violations in every reachable function.  Module-level RNG calls in
``src/`` are flagged unconditionally — import-time randomness is
nondeterministic for every consumer.

A ``default_rng(<constants only>)`` in reachable code is reported at
WARNING severity: it is deterministic, but the seed does not derive
from an explicit seed argument, so independent trials silently share
a stream.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.engine import FileContext, Finding, ProjectRule
from repro.analysis.findings import Severity
from repro.analysis.project import (
    MODULE_BODY,
    FunctionInfo,
    ModuleInfo,
    ProjectContext,
)

#: Path fragments whose functions are determinism entry points.
ENTRY_PATH_PARTS: tuple[str, ...] = ("/experiments/", "/runtime/",
                                     "/defense/")

#: Name fragments marking a function as an entry point anywhere.
ENTRY_NAME_PARTS: tuple[str, ...] = ("sweep", "trial", "experiment",
                                     "tournament")

#: Legacy ``numpy.random`` module functions (process-global state).
NUMPY_LEGACY: frozenset[str] = frozenset({
    "seed", "random", "rand", "randn", "randint", "random_integers",
    "random_sample", "ranf", "sample", "bytes", "normal", "uniform",
    "standard_normal", "choice", "shuffle", "permutation", "poisson",
    "exponential", "binomial", "beta", "gamma", "get_state", "set_state",
})

#: Stdlib ``random`` module functions (process-global state).
STDLIB_RANDOM: frozenset[str] = frozenset({
    "random", "randint", "randrange", "uniform", "gauss",
    "normalvariate", "lognormvariate", "expovariate", "betavariate",
    "gammavariate", "paretovariate", "weibullvariate",
    "vonmisesvariate", "triangular", "choice", "choices", "sample",
    "shuffle", "seed", "getrandbits", "randbytes",
})


def _canonical_call_name(func: ast.expr,
                         module: ModuleInfo) -> str | None:
    """Canonical dotted name of a call target, imports resolved.

    ``np.random.default_rng`` -> ``numpy.random.default_rng`` under
    ``import numpy as np``; a bare ``default_rng`` ->
    ``numpy.random.default_rng`` under the from-import.  Unresolvable
    targets (locals, attributes of objects) return None.
    """
    parts: list[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = node.id
    tail = list(reversed(parts))
    if root in module.from_imports:
        mod, attr = module.from_imports[root]
        prefix = f"{mod}.{attr}" if mod else attr
        return ".".join([prefix, *tail])
    if root in module.imports:
        return ".".join([module.imports[root], *tail])
    return None


def _all_constant_args(call: ast.Call) -> bool:
    if not call.args and not call.keywords:
        return False
    for arg in call.args:
        if isinstance(arg, ast.Starred):
            return False
        if not _constant_expr(arg):
            return False
    for keyword in call.keywords:
        if keyword.arg is None or not _constant_expr(keyword.value):
            return False
    return True


def _constant_expr(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, (ast.List, ast.Tuple)):
        return all(_constant_expr(elt) for elt in node.elts)
    if isinstance(node, ast.UnaryOp):
        return _constant_expr(node.operand)
    return False


class DeterminismRule(ProjectRule):
    """RJ011: no ambient RNG reachable from sweep/trial entry points."""

    code = "RJ011"
    name = "ambient-rng-on-sweep-path"
    description = (
        "functions reachable from sweep/trial/experiment entry points "
        "must not use unseeded default_rng(), legacy np.random.*, or "
        "stdlib random.* — randomness enters through the per-trial "
        "Generator derived from an explicit seed"
    )

    def check_project(self, ctx: FileContext,
                      project: ProjectContext) -> Iterator[Finding]:
        if not ctx.is_src:
            return
        module = project.module_for(ctx.posix_path)
        if module is None:
            return
        reachable = self._reachable(project)
        functions = list(module.functions.values())
        for klass in module.classes.values():
            functions.extend(klass.methods.values())
        for fn in functions:
            if fn.name == MODULE_BODY:
                yield from self._check_body(
                    ctx, module,
                    self._module_level_statements(module), fn,
                    module_level=True)
            elif fn.qualname in reachable:
                yield from self._check_body(ctx, module, fn.node.body,
                                            fn, module_level=False)

    # -- reachability --------------------------------------------------

    def _reachable(self, project: ProjectContext) -> set[str]:
        cached = project.cache.get("rj011.reachable")
        if cached is not None:
            return cached  # type: ignore[return-value]
        roots: set[str] = set()
        for qualname, fn in project.functions.items():
            module = project.modules.get(fn.module)
            if module is None or not module.is_src:
                continue
            if fn.name == MODULE_BODY:
                continue
            if any(part in module.posix_path
                   for part in ENTRY_PATH_PARTS):
                roots.add(qualname)
            elif any(part in fn.name.lower()
                     for part in ENTRY_NAME_PARTS):
                roots.add(qualname)
        reachable = project.reachable_from(roots)
        project.cache["rj011.reachable"] = reachable
        return reachable

    @staticmethod
    def _module_level_statements(module: ModuleInfo) -> list[ast.stmt]:
        return [stmt for stmt in module.tree.body
                if not isinstance(stmt, (ast.FunctionDef,
                                         ast.AsyncFunctionDef,
                                         ast.ClassDef))]

    # -- checks --------------------------------------------------------

    def _check_body(self, ctx: FileContext, module: ModuleInfo,
                    body: list[ast.stmt], fn: FunctionInfo,
                    module_level: bool) -> Iterator[Finding]:
        where = "at module level" if module_level \
            else f"in {fn.display}() (reachable from sweep/trial/" \
                 "experiment entry points)"
        for stmt in body:
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                canonical = _canonical_call_name(node.func, module)
                if canonical is None:
                    continue
                yield from self._check_call(ctx, node, canonical, where)

    def _check_call(self, ctx: FileContext, call: ast.Call,
                    canonical: str, where: str) -> Iterator[Finding]:
        if canonical == "numpy.random.default_rng":
            if not call.args and not call.keywords:
                yield self.finding(
                    ctx, call,
                    f"unseeded default_rng() {where}; derive the "
                    "generator from an explicit seed argument so "
                    "trials replay byte-identically",
                )
            elif _all_constant_args(call):
                yield self.finding(
                    ctx, call,
                    f"default_rng() with a hard-coded seed {where}; "
                    "derive the seed from an explicit seed argument "
                    "so independent trials do not share a stream",
                    severity=Severity.WARNING,
                )
            return
        prefix, _, leaf = canonical.rpartition(".")
        if prefix == "numpy.random" and leaf in NUMPY_LEGACY:
            yield self.finding(
                ctx, call,
                f"legacy global np.random.{leaf}() {where}; the "
                "process-global generator ties results to import and "
                "scheduling order — pass a seeded Generator instead",
            )
        elif canonical == "random.Random":
            if not call.args and not call.keywords:
                yield self.finding(
                    ctx, call,
                    f"unseeded random.Random() {where}; seed it from "
                    "an explicit seed argument",
                )
        elif prefix == "random" and leaf in STDLIB_RANDOM:
            yield self.finding(
                ctx, call,
                f"stdlib random.{leaf}() {where}; stdlib randomness "
                "is process-global and unseeded — use the per-trial "
                "numpy Generator",
            )
