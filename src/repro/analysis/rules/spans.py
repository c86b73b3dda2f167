"""RJ012: telemetry span pairing and NULL_TRACER tolerance.

Two whole-program facts keep the telemetry layer honest:

1. **Spans must actually span.**  A ``@contextmanager``-decorated
   project function (``repro.runtime.blas.one_blas_thread``, say)
   only opens and closes its scope when entered with ``with``.  A
   bare statement call — ``one_blas_thread()`` — builds the context
   manager, runs nothing of it, and closes nothing: the scope is
   opened in the author's head and never in the program.  The rule
   resolves calls through the project symbol table, so any project
   context manager discarded as a bare expression statement is
   caught; a ``.profile(...)`` call on a receiver it cannot resolve
   is treated as such a scope too.

2. **Probe points must tolerate ``NULL_TRACER``.**  Every tracer
   attribute the instrumented code touches must exist on the base
   :class:`repro.telemetry.tracer.Tracer` interface, because the
   default tracer everywhere is the disabled singleton.  Touching a
   ``RingTracer``-only member (``iter_category``, ``emitted``,
   ``dropped``, ...) on a value that is a tracer by name crashes every
   un-instrumented run.  The interface and the ring-only surplus are
   read from the project index, not hard-coded, so the rule tracks the
   tracer API as it grows.

The telemetry package itself (which legitimately manipulates concrete
tracers) and test code are exempt from the tolerance check.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.engine import FileContext, Finding, ProjectRule
from repro.analysis.project import (
    MODULE_BODY,
    ModuleInfo,
    ProjectContext,
)

#: Attribute-call names treated as span scopes even when the receiver
#: cannot be resolved (``<anything>.profile(...)``).
SPAN_SCOPE_METHODS: frozenset[str] = frozenset({"profile"})

#: Fallback Tracer interface when the telemetry package is outside the
#: analyzed project (single-file runs, fixtures).
_FALLBACK_TRACER_INTERFACE: frozenset[str] = frozenset({
    "enabled", "instant", "span", "host_span", "events", "clear",
})

_TRACER_CLASS = "repro.telemetry.tracer:Tracer"
_RING_TRACER_CLASS = "repro.telemetry.tracer:RingTracer"

#: Path fragment for the exempt telemetry package.
_TELEMETRY_PART = "/telemetry/"


def _tracer_surfaces(project: ProjectContext
                     ) -> tuple[frozenset[str], frozenset[str]]:
    """``(base_interface, ring_only_members)`` from the project index."""
    cached = project.cache.get("rj012.surfaces")
    if cached is not None:
        return cached  # type: ignore[return-value]
    base = project.classes.get(_TRACER_CLASS)
    ring = project.classes.get(_RING_TRACER_CLASS)
    if base is None:
        surfaces = (_FALLBACK_TRACER_INTERFACE, frozenset())
    else:
        interface = frozenset(base.methods) \
            | frozenset(base.class_attrs) | {"enabled"}
        ring_only: frozenset[str] = frozenset()
        if ring is not None:
            ring_members = frozenset(ring.methods) \
                | frozenset(ring.class_attrs) \
                | frozenset(ring.attr_dtypes)
            ring_only = ring_members - interface - {"__init__"}
        surfaces = (interface, ring_only)
    project.cache["rj012.surfaces"] = surfaces
    return surfaces


def _looks_like_tracer(node: ast.expr) -> bool:
    """Whether an attribute receiver is a tracer by naming convention."""
    if isinstance(node, ast.Name):
        return "tracer" in node.id.lower()
    if isinstance(node, ast.Attribute):
        return "tracer" in node.attr.lower()
    return False


class SpanPairingRule(ProjectRule):
    """RJ012: spans enter their scope; tracer use fits the interface."""

    code = "RJ012"
    name = "telemetry-span-pairing"
    description = (
        "contextmanager span scopes must be entered with "
        "'with' (a bare call opens nothing), and tracer probe points "
        "may only touch the base Tracer interface so NULL_TRACER "
        "always tolerates them"
    )

    def check_project(self, ctx: FileContext,
                      project: ProjectContext) -> Iterator[Finding]:
        module = project.module_for(ctx.posix_path)
        if module is None:
            return
        yield from self._check_discarded_scopes(ctx, project, module)
        if ctx.is_src and _TELEMETRY_PART not in ctx.posix_path:
            yield from self._check_tracer_surface(ctx, project, module)

    # -- span pairing --------------------------------------------------

    def _check_discarded_scopes(self, ctx: FileContext,
                                project: ProjectContext,
                                module: ModuleInfo) -> Iterator[Finding]:
        for fn in self._all_functions(module):
            body = fn.node.body if fn.name != MODULE_BODY else [
                stmt for stmt in module.tree.body
                if not isinstance(stmt, (ast.FunctionDef,
                                         ast.AsyncFunctionDef,
                                         ast.ClassDef))
            ]
            for stmt in body:
                for node in ast.walk(stmt):
                    if not isinstance(node, ast.Expr) \
                            or not isinstance(node.value, ast.Call):
                        continue
                    call = node.value
                    callee = project.resolve_call(module.name, call,
                                                  cls=fn.cls)
                    if callee is not None and callee.is_contextmanager:
                        yield self.finding(
                            ctx, call,
                            f"span scope {callee.display}() is created "
                            "and discarded; a context manager called "
                            "as a bare statement never enters — wrap "
                            "it in 'with'",
                        )
                    elif callee is None \
                            and isinstance(call.func, ast.Attribute) \
                            and call.func.attr in SPAN_SCOPE_METHODS:
                        yield self.finding(
                            ctx, call,
                            f".{call.func.attr}() span scope is "
                            "created and discarded; the span only "
                            "opens and closes inside 'with'",
                        )

    @staticmethod
    def _all_functions(module: ModuleInfo):
        functions = list(module.functions.values())
        for klass in module.classes.values():
            functions.extend(klass.methods.values())
        return functions

    # -- NULL_TRACER tolerance -----------------------------------------

    def _check_tracer_surface(self, ctx: FileContext,
                              project: ProjectContext,
                              module: ModuleInfo) -> Iterator[Finding]:
        interface, ring_only = _tracer_surfaces(project)
        if not ring_only:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Attribute):
                continue
            if node.attr not in ring_only:
                continue
            if _looks_like_tracer(node.value):
                yield self.finding(
                    ctx, node,
                    f"'.{node.attr}' is a RingTracer-only member; the "
                    "default tracer is NULL_TRACER, which lacks it — "
                    "keep probe points on the base Tracer interface "
                    f"({', '.join(sorted(interface))}) or isinstance-"
                    "guard the concrete tracer",
                )
