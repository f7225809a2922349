"""The package attributes the benchmark under ``perfbench/`` wraps or reads.

``perfbench/layers.py`` replaces module attributes with timing wrappers and
``perfbench/child.py`` reaches into the package by attribute, so renaming or
dropping one breaks the benchmark, not the package. These tests read both
files, run ``child.py`` as the benchmark does, change nothing in them, and
fail on such a refactor instead.
"""

import ast
import csv
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import time

import pytest

from crgame.policy import POLICIES

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


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


def test_make_refs_reads_only_equilibrium_defaults_that_exist():
    """``make_refs.py`` reads solver settings from ``cli.EQ_DEFAULTS``,
    directly or through a dict built from it."""
    from crgame import cli

    with open(os.path.join(PERFBENCH, "make_refs.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())

    def is_defaults(node):
        return (isinstance(node, ast.Attribute) and node.attr == "EQ_DEFAULTS"
                and isinstance(node.value, ast.Name) and node.value.id == "cli")

    # names bound to an expression that reads the defaults
    derived = {target.id for node in ast.walk(tree)
               if isinstance(node, ast.Assign)
               and any(is_defaults(n) for n in ast.walk(node.value))
               for target in node.targets if isinstance(target, ast.Name)}
    keys = {node.slice.value for node in ast.walk(tree)
            if isinstance(node, ast.Subscript)
            and isinstance(node.slice, ast.Constant)
            and (is_defaults(node.value) or (isinstance(node.value, ast.Name)
                                             and node.value.id in derived))}
    assert {"tol", "delta"} <= keys  # the parse sees the reads known today
    assert sorted(keys - set(cli.EQ_DEFAULTS)) == []


def _run_child(tmp_path, mode, *crgame_args):
    """Run ``perfbench/child.py`` in ``mode`` on one crgame invocation, as
    the benchmark does; return its sidecar."""
    sidecar = tmp_path / f"{mode}-{crgame_args[0]}.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               SOURCE_DATE_EPOCH="0", PERFBENCH_T0=repr(time.perf_counter()))
    proc = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "child.py"), str(sidecar),
         mode, "--", *crgame_args], env=env, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    with open(sidecar, encoding="utf-8") as fh:
        side = json.load(fh)
    assert side["rc"] == 0, proc.stderr
    return side


def _study_args(out):
    return ["simulate", "--out", str(out), "--replications", "1",
            "--horizon", "3", "--seed", "5", "--threads", "1"]


def test_traced_child_runs_a_study(tmp_path):
    side = _run_child(tmp_path, "trace", *_study_args(tmp_path / "sim"))
    assert sorted(p for p, _, _ in side["replications"]) == sorted(POLICIES)
    assert all(verdict is None for _, _, verdict in side["replications"])
    spans = side["trace"]["spans"]
    for layer in ("cli.config", "simharness.run_experiment",
                  "simharness.run_replication", "policy.select_action",
                  "market.step", "learning.online_update",
                  "simharness.rival_model", "learning.type_belief",
                  "kernels.grid", "rng.stream", "cli.bootstrap",
                  "cli.summarize", "cli.write_outputs", "cli.write"):
        assert spans.get(layer, {}).get("calls", 0) > 0, layer
    # 3 policies x 3 periods x 2 firms
    assert side["trace"]["counts"]["market.observations"] == 18


def _traced_solve_spans(run_dir, **settings):
    """The spans of a traced child solving a 2 x 2 x 2 grid in ``run_dir``."""
    run_dir.mkdir()
    config = run_dir / "eq.json"
    config.write_text(json.dumps({"equilibrium": {
        "inventory_axis": [0.0, 10.0], "intercept_axis": [30.0, 45.0],
        "belief_axis": [0.0, 1.0], **settings}}))
    side = _run_child(run_dir, "trace", "equilibrium", "--config",
                      str(config), "--out", str(run_dir / "eq"), "--seed", "3")
    assert side["replications"] == []
    return side["trace"]["spans"]


def test_traced_child_runs_a_solve(tmp_path):
    spans = _traced_solve_spans(tmp_path / "default")
    for layer in ("cli.config", "equilibrium.build_belief_grid",
                  "equilibrium.equilibrium_iteration",
                  "equilibrium.best_response", "equilibrium.build_dynamics",
                  "equilibrium.bellman", "cli.write"):
        assert spans.get(layer, {}).get("calls", 0) > 0, layer
    # only the hyperparameter refresh draws, so only it builds a stream
    assert spans.get("rng.stream", {}).get("calls", 0) == 0
    refresh = _traced_solve_spans(tmp_path / "refresh", refresh_trajectories=2)
    assert refresh.get("rng.stream", {}).get("calls", 0) >= 1


def test_child_without_learning_leaves_every_policy_at_the_prior(tmp_path):
    """With the posterior update cut, each learning policy's final MSE is
    the static policy's: every firm keeps its prior."""
    out = tmp_path / "sim"
    side = _run_child(tmp_path, "nolearn", *_study_args(out))
    assert all(verdict is None for _, _, verdict in side["replications"])
    with open(out / "replications.csv", encoding="utf-8") as fh:
        final_mse = {row["policy"]: row["final_mse"] for row in csv.DictReader(fh)}
    assert sorted(final_mse) == sorted(POLICIES)
    assert len(set(final_mse.values())) == 1
