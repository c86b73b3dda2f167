"""The index phase: ProjectContext, symbol table, call graph.

The wall-clock budget of a full scan is a host-dependent upper bound,
so it is enforced under ``-m perf`` in ``benchmarks/test_bench_lint.py``
rather than here.
"""

from __future__ import annotations

import ast

from repro.analysis.project import (
    MODULE_BODY,
    ProjectContext,
    module_name_for_path,
)


def _build(files: dict[str, str]) -> ProjectContext:
    return ProjectContext.build(
        [(path, ast.parse(source)) for path, source in files.items()])


class TestModuleNames:
    def test_src_files_get_import_names(self):
        assert module_name_for_path(
            "src/repro/hw/trigger.py") == "repro.hw.trigger"

    def test_package_init_names_the_package(self):
        assert module_name_for_path(
            "src/repro/kernels/__init__.py") == "repro.kernels"

    def test_out_of_tree_files_get_pseudo_names(self):
        name = module_name_for_path("tests/hw/test_trigger.py")
        assert name.endswith("test_trigger")


class TestSymbolTable:
    FILES = {
        "src/repro/dsp/a.py": (
            "from __future__ import annotations\n"
            "def top(x):\n"
            "    return helper(x)\n"
            "def helper(x):\n"
            "    return x\n"
            "class Filter:\n"
            "    taps = 4\n"
            "    def __init__(self):\n"
            "        self.acc = 0\n"
            "    def step(self, x):\n"
            "        return self._inner(x)\n"
            "    def _inner(self, x):\n"
            "        return x\n"
        ),
    }

    def test_functions_and_methods_indexed_by_qualname(self):
        project = _build(self.FILES)
        assert "repro.dsp.a:top" in project.functions
        assert "repro.dsp.a:helper" in project.functions
        assert "repro.dsp.a:Filter.step" in project.functions
        assert "repro.dsp.a:Filter" in project.classes

    def test_module_body_is_a_pseudo_function(self):
        project = _build(self.FILES)
        assert f"repro.dsp.a:{MODULE_BODY}" in project.functions

    def test_class_attrs_and_init_state_recorded(self):
        project = _build(self.FILES)
        klass = project.classes["repro.dsp.a:Filter"]
        assert "taps" in klass.class_attrs
        assert klass.attr_dtypes.get("acc") == "int"


class TestCallGraph:
    def test_local_call_edge(self):
        project = _build(TestSymbolTable.FILES)
        assert "repro.dsp.a:helper" in \
            project.functions["repro.dsp.a:top"].calls

    def test_self_method_edge(self):
        project = _build(TestSymbolTable.FILES)
        assert "repro.dsp.a:Filter._inner" in \
            project.functions["repro.dsp.a:Filter.step"].calls

    def test_cross_module_from_import_edge(self):
        project = _build({
            "src/repro/dsp/lib.py": (
                "def leaf(x):\n"
                "    return x\n"
            ),
            "src/repro/dsp/use.py": (
                "from repro.dsp.lib import leaf\n"
                "def caller(x):\n"
                "    return leaf(x)\n"
            ),
        })
        assert "repro.dsp.lib:leaf" in \
            project.functions["repro.dsp.use:caller"].calls

    def test_module_alias_attribute_edge(self):
        project = _build({
            "src/repro/dsp/lib.py": "def leaf(x):\n    return x\n",
            "src/repro/dsp/use.py": (
                "import repro.dsp.lib as lib\n"
                "def caller(x):\n"
                "    return lib.leaf(x)\n"
            ),
        })
        assert "repro.dsp.lib:leaf" in \
            project.functions["repro.dsp.use:caller"].calls

    def test_call_inside_comprehension_is_an_edge(self):
        project = _build({
            "src/repro/dsp/lib.py": "def leaf(x):\n    return x\n",
            "src/repro/dsp/use.py": (
                "from repro.dsp.lib import leaf\n"
                "def caller(xs):\n"
                "    return [leaf(x) for x in xs]\n"
            ),
        })
        assert "repro.dsp.lib:leaf" in \
            project.functions["repro.dsp.use:caller"].calls

    def test_unresolvable_call_produces_no_edge(self):
        project = _build({
            "src/repro/dsp/use.py": (
                "def caller(obj):\n"
                "    return obj.method()\n"
            ),
        })
        assert project.functions["repro.dsp.use:caller"].calls == set()

    def test_reachability_is_transitive(self):
        project = _build({
            "src/repro/dsp/a.py": (
                "from repro.dsp.b import mid\n"
                "def entry(x):\n"
                "    return mid(x)\n"
            ),
            "src/repro/dsp/b.py": (
                "from repro.dsp.c import leaf\n"
                "def mid(x):\n"
                "    return leaf(x)\n"
            ),
            "src/repro/dsp/c.py": "def leaf(x):\n    return x\n",
        })
        reachable = project.reachable_from({"repro.dsp.a:entry"})
        assert "repro.dsp.c:leaf" in reachable


class TestFunctionSummaries:
    def test_return_dtype_from_annotation(self):
        project = _build({
            "src/repro/dsp/a.py": (
                "def f(x) -> int:\n"
                "    return x\n"
            ),
        })
        assert project.functions["repro.dsp.a:f"].returns_dtype == "int"

    def test_return_dtype_inferred_from_body(self):
        project = _build({
            "src/repro/dsp/a.py": (
                "def f(x):\n"
                "    return x * 0.5\n"
            ),
        })
        assert project.functions["repro.dsp.a:f"].returns_dtype == "float"

    def test_second_pass_sees_one_call_level(self):
        project = _build({
            "src/repro/dsp/a.py": (
                "def inner(x):\n"
                "    return x * 0.5\n"
                "def outer(x):\n"
                "    return inner(x)\n"
            ),
        })
        assert project.functions[
            "repro.dsp.a:outer"].returns_dtype == "float"

    def test_contextmanager_decorator_detected(self):
        project = _build({
            "src/repro/dsp/a.py": (
                "from contextlib import contextmanager\n"
                "@contextmanager\n"
                "def scope():\n"
                "    yield\n"
            ),
        })
        assert project.functions["repro.dsp.a:scope"].is_contextmanager


class TestSubclassQuery:
    def test_subclasses_found_across_modules(self):
        project = _build({
            "src/repro/kernels/dispatch.py": (
                "class KernelBackend:\n"
                "    name = 'base'\n"
            ),
            "src/repro/kernels/np_b.py": (
                "from repro.kernels.dispatch import KernelBackend\n"
                "class NumpyB(KernelBackend):\n"
                "    name = 'numpy'\n"
            ),
        })
        subs = project.subclasses_of(
            "repro.kernels.dispatch:KernelBackend")
        assert [klass.name for klass in subs] == ["NumpyB"]
