"""The whole-program index: phase one of the two-phase verifier.

Per-file AST analysis cannot see a float that leaks into the int64
xcorr path *across a call boundary*, or an unseeded RNG reached from a
sweep entry point two modules away.  This module builds the :class:`ProjectContext` those
rules need: a module/import graph over every analyzed file, a symbol
table of functions and classes, an approximate call graph, and
per-function summaries (parameter/return dtype abstractions, decorator
facts) computed by the abstract interpreter in
:mod:`repro.analysis.dtypes`.

The index is *approximate by construction* — calls through variables,
dynamic dispatch, and anything the resolver cannot pin down simply
produce no edge — and the dataflow rules are written so that every
unresolved edge degrades to silence, never to a false positive.

Summaries are computed in two passes: pass one interprets every
function with calls treated as unknown; pass two re-interprets with a
resolver backed by the pass-one summaries.  That propagates dtypes
through exactly one level of intra-project calls, which is the
contract RJ010 documents.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.dtypes import (
    UNKNOWN,
    DtypeInterpreter,
    dtype_of_annotation,
    merge,
)

#: Qualname separator between module and symbol: ``repro.hw.trigger:f``.
QUALSEP = ":"

#: Pseudo-function name holding a module's top-level statements.
MODULE_BODY = "<module>"

#: Decorator terminal names marking a generator as a context manager.
_CONTEXTMANAGER_DECORATORS = frozenset({
    "contextmanager", "asynccontextmanager",
})


def module_name_for_path(path: str) -> str:
    """Dotted module name for a file path.

    Files under a ``src/`` tree get their real import name
    (``src/repro/hw/trigger.py`` -> ``repro.hw.trigger``) so absolute
    imports resolve across the project.  Files outside ``src/`` (tests,
    examples, benchmarks) get a stable pseudo-name derived from the
    whole path; they still index, but nothing imports them by name.
    """
    posix = str(path).replace("\\", "/")
    parts = [part for part in Path(posix).parts if part not in ("/", "\\")]
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(part for part in parts if part) or "<root>"


def _dotted(node: ast.expr) -> str | None:
    """Flatten a Name / nested Attribute chain to ``a.b.c``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


@dataclass
class FunctionInfo:
    """Summary of one function or method."""

    qualname: str
    module: str
    name: str
    cls: str | None
    node: ast.FunctionDef | ast.AsyncFunctionDef
    lineno: int
    params: list[str]
    param_dtypes: dict[str, str]
    return_annotation_dtype: str
    decorators: list[str]
    is_contextmanager: bool
    #: Abstract dtype this function certainly returns (pass-two result).
    returns_dtype: str = UNKNOWN
    #: Resolved project callees (qualnames), pass-two result.
    calls: set[str] = field(default_factory=set)

    @property
    def display(self) -> str:
        return f"{self.cls}.{self.name}" if self.cls else self.name


@dataclass
class ClassInfo:
    """Summary of one class: bases, methods, simple class attributes."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    lineno: int
    #: Base expressions as written (``KernelBackend``, ``mod.Base``).
    bases_raw: list[str]
    methods: dict[str, FunctionInfo]
    #: Simple constant class attributes (``name = "numpy"``).
    class_attrs: dict[str, object]
    #: ``self.<attr>`` dtypes established in ``__init__``.
    attr_dtypes: dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One analyzed file in the project index."""

    name: str
    path: str
    posix_path: str
    tree: ast.Module
    #: local alias -> imported module (``np`` -> ``numpy``).
    imports: dict[str, str]
    #: local name -> (module, attr) for from-imports.
    from_imports: dict[str, tuple[str, str]]
    functions: dict[str, FunctionInfo]
    classes: dict[str, ClassInfo]

    @property
    def is_src(self) -> bool:
        return "src" in Path(self.posix_path).parts


class ProjectContext:
    """The whole-program view handed to :class:`ProjectRule` checks."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.modules_by_path: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: caller qualname -> resolved callee qualnames.
        self.call_graph: dict[str, set[str]] = {}
        #: module name -> project-internal imported module names.
        self.import_graph: dict[str, set[str]] = {}
        #: Scratch space for rules to memoize per-project work
        #: (e.g. RJ011 caches its reachability closure here).
        self.cache: dict[str, object] = {}

    # -- construction --------------------------------------------------

    @classmethod
    def build(cls, files: "list[tuple[str, ast.Module]]") -> "ProjectContext":
        """Index ``(path, tree)`` pairs into a project context."""
        project = cls()
        for path, tree in files:
            module = _index_module(path, tree)
            # First path wins on module-name collisions (dedup'd paths
            # make collisions rare; pseudo-names are path-unique).
            if module.name not in project.modules:
                project.modules[module.name] = module
            project.modules_by_path[module.posix_path] = module
        for module in project.modules.values():
            for fn in module.functions.values():
                project.functions[fn.qualname] = fn
            for klass in module.classes.values():
                project.classes[klass.qualname] = klass
                for method in klass.methods.values():
                    project.functions[method.qualname] = method
            project.import_graph[module.name] = {
                target for target in module.imports.values()
                if target in project.modules
            } | {
                mod for mod, _attr in module.from_imports.values()
                if mod in project.modules
            }
        project._summarize()
        return project

    def _summarize(self) -> None:
        # Pass one: calls are opaque.
        for fn in self.functions.values():
            self._interpret(fn, resolver=None)
        for klass in self.classes.values():
            self._class_attr_pass(klass, resolver=None)
        # Pass two: calls resolve through pass-one summaries, and the
        # resolved edges become the call graph.
        for fn in self.functions.values():
            edges: set[str] = set()
            self._interpret(fn, resolver=self._make_resolver(fn, edges))
            self._collect_call_edges(fn, edges)
            fn.calls = edges
            self.call_graph[fn.qualname] = edges
        for klass in self.classes.values():
            self._class_attr_pass(
                klass, resolver=self._make_resolver(None, set(),
                                                    module=klass.module))

    def _interpret(self, fn: FunctionInfo, resolver) -> None:
        module = self.modules.get(fn.module)
        self_attrs: dict[str, str] = {}
        if fn.cls is not None and module is not None:
            klass = module.classes.get(fn.cls)
            if klass is not None:
                self_attrs = dict(klass.attr_dtypes)
        interp = DtypeInterpreter(resolver=resolver,
                                  params=dict(fn.param_dtypes),
                                  self_attrs=self_attrs)
        if fn.name == MODULE_BODY:
            # Module bodies: skip nested defs (indexed separately).
            body = [stmt for stmt in fn.node.body
                    if not isinstance(stmt, (ast.FunctionDef,
                                             ast.AsyncFunctionDef,
                                             ast.ClassDef))]
        else:
            body = fn.node.body
        interp.run(body)
        returns = UNKNOWN
        if interp.return_dtypes:
            returns = interp.return_dtypes[0]
            for dtype in interp.return_dtypes[1:]:
                returns = merge(returns, dtype)
        if fn.return_annotation_dtype != UNKNOWN:
            returns = fn.return_annotation_dtype
        fn.returns_dtype = returns

    def _collect_call_edges(self, fn: FunctionInfo,
                            edges: set[str]) -> None:
        # The interpreter only visits expressions it understands; the
        # call graph must cover every call site (comprehensions,
        # decorators, nested closures), so walk the whole body too.
        if fn.name == MODULE_BODY:
            body = [stmt for stmt in fn.node.body
                    if not isinstance(stmt, (ast.FunctionDef,
                                             ast.AsyncFunctionDef,
                                             ast.ClassDef))]
        else:
            body = fn.node.body
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    callee = self.resolve_call(fn.module, node,
                                               cls=fn.cls)
                    if callee is not None:
                        edges.add(callee.qualname)

    def _class_attr_pass(self, klass: ClassInfo, resolver) -> None:
        init = klass.methods.get("__init__")
        if init is None:
            return
        interp = DtypeInterpreter(resolver=resolver,
                                  params=dict(init.param_dtypes))
        interp.run(init.node.body)
        klass.attr_dtypes = dict(interp.self_attrs)

    def _make_resolver(self, fn: FunctionInfo | None, edges: set[str],
                       module: str | None = None):
        module_name = module if module is not None else (
            fn.module if fn is not None else None)
        cls_name = fn.cls if fn is not None else None

        def resolver(call: ast.Call) -> str | None:
            callee = self.resolve_call(module_name, call, cls=cls_name)
            if callee is None:
                return None
            edges.add(callee.qualname)
            return callee.returns_dtype if callee.returns_dtype \
                else UNKNOWN

        return resolver

    # -- queries -------------------------------------------------------

    def module_for(self, posix_path: str) -> ModuleInfo | None:
        return self.modules_by_path.get(posix_path)

    def dtype_resolver(self, module_name: str, cls: str | None = None):
        """A :mod:`repro.analysis.dtypes` resolver answering call-site
        dtype queries from this project's function summaries."""
        def resolver(call: ast.Call) -> str | None:
            callee = self.resolve_call(module_name, call, cls=cls)
            return callee.returns_dtype if callee is not None else None
        return resolver

    def resolve_call(self, module_name: str | None, call: ast.Call,
                     cls: str | None = None) -> FunctionInfo | None:
        """Best-effort resolution of a call site to a project function.

        Unresolvable calls (locals, dynamic dispatch, externals) return
        None; rules must treat that as "no information".
        """
        module = self.modules.get(module_name) if module_name else None
        if module is None:
            return None
        func = call.func
        if isinstance(func, ast.Name):
            return self._resolve_name(module, func.id)
        if isinstance(func, ast.Attribute):
            owner = func.value
            if isinstance(owner, ast.Name):
                if owner.id == "self" and cls is not None:
                    return self._resolve_method(module, cls, func.attr)
                target = module.imports.get(owner.id)
                if target is None and owner.id in module.from_imports:
                    mod, attr = module.from_imports[owner.id]
                    candidate = f"{mod}.{attr}"
                    if candidate in self.modules:
                        target = candidate
                if target is not None:
                    return self._resolve_in_module(target, func.attr)
                return None
            dotted = _dotted(owner)
            if dotted is not None:
                root = dotted.split(".")[0]
                if root in module.imports:
                    resolved_root = module.imports[root]
                    target = resolved_root + dotted[len(root):]
                    return self._resolve_in_module(target, func.attr)
        return None

    def _resolve_name(self, module: ModuleInfo,
                      name: str) -> FunctionInfo | None:
        fn = module.functions.get(name)
        if fn is not None:
            return fn
        klass = module.classes.get(name)
        if klass is not None:
            return klass.methods.get("__init__")
        imported = module.from_imports.get(name)
        if imported is not None:
            mod, attr = imported
            return self._resolve_in_module(mod, attr)
        return None

    def _resolve_in_module(self, module_name: str,
                           attr: str) -> FunctionInfo | None:
        target = self.modules.get(module_name)
        if target is None:
            # ``from repro import kernels`` + ``kernels.ops.f`` style
            # chains land here with a dotted tail; give up quietly.
            return None
        fn = target.functions.get(attr)
        if fn is not None:
            return fn
        klass = target.classes.get(attr)
        if klass is not None:
            return klass.methods.get("__init__")
        return None

    def _resolve_method(self, module: ModuleInfo, cls: str,
                        attr: str) -> FunctionInfo | None:
        klass = module.classes.get(cls)
        seen = 0
        while klass is not None and seen < 4:
            method = klass.methods.get(attr)
            if method is not None:
                return method
            parent = None
            for base in klass.bases_raw:
                resolved = self.resolve_base(module, base)
                if resolved is not None:
                    parent = resolved
                    break
            klass = parent
            seen += 1
        return None

    def resolve_base(self, module: ModuleInfo,
                     base_raw: str) -> ClassInfo | None:
        """Resolve a base-class expression to a project class."""
        if "." not in base_raw:
            klass = module.classes.get(base_raw)
            if klass is not None:
                return klass
            imported = module.from_imports.get(base_raw)
            if imported is not None:
                mod, attr = imported
                target = self.modules.get(mod)
                if target is not None:
                    return target.classes.get(attr)
            return None
        root, _, tail = base_raw.partition(".")
        target_name = module.imports.get(root)
        if target_name is None:
            return None
        mod_name, _, cls_name = (target_name + "." + tail).rpartition(".")
        target = self.modules.get(mod_name)
        if target is not None:
            return target.classes.get(cls_name)
        return None

    def subclasses_of(self, base_qualname: str) -> list[ClassInfo]:
        """Project classes whose (transitive, indexed) bases include
        ``base_qualname``."""
        out = []
        for klass in self.classes.values():
            if self._inherits(klass, base_qualname, depth=0):
                out.append(klass)
        return out

    def _inherits(self, klass: ClassInfo, base_qualname: str,
                  depth: int) -> bool:
        if depth > 4:
            return False
        module = self.modules.get(klass.module)
        if module is None:
            return False
        for base_raw in klass.bases_raw:
            resolved = self.resolve_base(module, base_raw)
            if resolved is None:
                continue
            if resolved.qualname == base_qualname:
                return True
            if self._inherits(resolved, base_qualname, depth + 1):
                return True
        return False

    def reachable_from(self, roots: "set[str] | list[str]") -> set[str]:
        """Transitive closure of the call graph from ``roots``."""
        seen: set[str] = set()
        stack = [root for root in roots if root in self.functions]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self.call_graph.get(current, ()))
        return seen


# -- module indexing ----------------------------------------------------


def _index_module(path: str, tree: ast.Module) -> ModuleInfo:
    posix = str(path).replace("\\", "/")
    name = module_name_for_path(posix)
    imports: dict[str, str] = {}
    from_imports: dict[str, tuple[str, str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                imports[local] = alias.name if alias.asname \
                    else alias.name.split(".")[0]
                if alias.asname is None and "." in alias.name:
                    # ``import repro.kernels.ops`` binds ``repro`` but
                    # makes the dotted chain resolvable; remember it.
                    imports.setdefault(alias.name, alias.name)
        elif isinstance(node, ast.ImportFrom):
            target = node.module or ""
            if node.level:
                # Resolve relative imports against this module's
                # package (__init__ files are their own package).
                base_parts = name.split(".")
                keep = len(base_parts) - node.level
                if posix.endswith("/__init__.py"):
                    keep += 1
                base_parts = base_parts[:max(keep, 0)]
                target = ".".join(
                    part for part in [*base_parts, node.module or ""]
                    if part)
            for alias in node.names:
                if alias.name == "*":
                    continue
                from_imports[alias.asname or alias.name] = (
                    target, alias.name)

    functions: dict[str, FunctionInfo] = {}
    classes: dict[str, ClassInfo] = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions[stmt.name] = _function_info(name, None, stmt)
        elif isinstance(stmt, ast.ClassDef):
            classes[stmt.name] = _class_info(name, stmt)

    # The module body itself joins the call graph as a pseudo-function
    # so script-style entry points (examples, __main__ blocks) root
    # reachability queries.
    body_fn = ast.FunctionDef(
        name=MODULE_BODY,
        args=ast.arguments(posonlyargs=[], args=[], vararg=None,
                           kwonlyargs=[], kw_defaults=[], kwarg=None,
                           defaults=[]),
        body=tree.body or [ast.Pass()],
        decorator_list=[],
        returns=None,
    )
    ast.copy_location(body_fn, tree.body[0] if tree.body else ast.Pass())
    ast.fix_missing_locations(body_fn)
    functions[MODULE_BODY] = FunctionInfo(
        qualname=f"{name}{QUALSEP}{MODULE_BODY}",
        module=name, name=MODULE_BODY, cls=None, node=body_fn,
        lineno=1, params=[], param_dtypes={},
        return_annotation_dtype=UNKNOWN, decorators=[],
        is_contextmanager=False,
    )
    return ModuleInfo(name=name, path=str(path), posix_path=posix,
                      tree=tree, imports=imports,
                      from_imports=from_imports, functions=functions,
                      classes=classes)


def _function_info(module: str, cls: str | None,
                   node: ast.FunctionDef | ast.AsyncFunctionDef
                   ) -> FunctionInfo:
    args = node.args
    params = [arg.arg for arg in (*args.posonlyargs, *args.args,
                                  *args.kwonlyargs)]
    param_dtypes = {
        arg.arg: dtype_of_annotation(arg.annotation)
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs)
    }
    decorators = []
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        dotted = _dotted(target)
        if dotted is not None:
            decorators.append(dotted.rpartition(".")[2])
    scope = f"{cls}.{node.name}" if cls else node.name
    return FunctionInfo(
        qualname=f"{module}{QUALSEP}{scope}",
        module=module, name=node.name, cls=cls, node=node,
        lineno=node.lineno, params=params, param_dtypes=param_dtypes,
        return_annotation_dtype=dtype_of_annotation(node.returns),
        decorators=decorators,
        is_contextmanager=bool(
            _CONTEXTMANAGER_DECORATORS.intersection(decorators)),
    )


def _class_info(module: str, node: ast.ClassDef) -> ClassInfo:
    methods: dict[str, FunctionInfo] = {}
    class_attrs: dict[str, object] = {}
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods[stmt.name] = _function_info(module, node.name, stmt)
        elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name) \
                and isinstance(stmt.value, ast.Constant):
            class_attrs[stmt.targets[0].id] = stmt.value.value
        elif isinstance(stmt, ast.AnnAssign) \
                and isinstance(stmt.target, ast.Name) \
                and isinstance(stmt.value, ast.Constant):
            class_attrs[stmt.target.id] = stmt.value.value
    bases = []
    for base in node.bases:
        dotted = _dotted(base)
        if dotted is not None:
            bases.append(dotted)
    return ClassInfo(
        qualname=f"{module}{QUALSEP}{node.name}",
        module=module, name=node.name, node=node, lineno=node.lineno,
        bases_raw=bases, methods=methods, class_attrs=class_attrs,
    )
