"""The package attributes the benchmark under ``perfbench/`` wraps or reads.

``perfbench/layers.py`` replaces module attributes with timing wrappers and
``perfbench/child.py`` reaches into the package by attribute, so renaming or
dropping one breaks the benchmark, not the package. These tests read both
files, change nothing in them, and fail on such a refactor instead.
"""

import ast
import importlib
import importlib.util
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")


def _load_layers():
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", os.path.join(PERFBENCH, "layers.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _child_attributes() -> set:
    """Every ``module.attribute`` that child.py reads from the crgame modules
    it imports by name."""
    with open(os.path.join(PERFBENCH, "child.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    modules = {alias.asname or alias.name
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "crgame"
               for alias in node.names}
    return {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id in modules}


LAYERS = _load_layers()


@pytest.mark.parametrize("module, attr", sorted(
    {(mod, attr) for mod, attr, _ in LAYERS.SPANS + LAYERS.COUNTS}))
def test_traced_attribute_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"crgame.{module}"), attr))


def test_child_reads_only_attributes_that_exist():
    found = _child_attributes()
    # the parse sees the attributes child.py is known to use
    assert {("kernels", "backend"), ("kernels", "HAVE_NUMBA"),
            ("simharness", "run_replication"), ("simharness", "online_update"),
            ("cli", "run_experiment"), ("cli", "equilibrium_iteration"),
            ("cli", "main")} <= found
    missing = [f"{module}.{attr}" for module, attr in sorted(found)
               if not hasattr(importlib.import_module(f"crgame.{module}"), attr)]
    assert missing == []
