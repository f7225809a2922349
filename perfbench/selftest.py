"""Fast self-test of the benchmark (about a minute and a half).

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, and fails unless
each prints exactly the metrics BENCHMARK.json names, with their units, and
unless a deliberately corrupted output tree counts as failed operations.
Then runs each study at full size with the posterior update cut, so every
policy keeps its prior, and fails unless the reference check rejects it.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import shutil
import sys
import tempfile

import run

ROOT = os.path.dirname(run.HERE)


def tiny(spec: dict) -> dict:
    spec = copy.deepcopy(spec)
    if spec["kind"] == "study":
        spec.update(reps=1, horizon=3)
    else:
        spec["config"]["equilibrium"].update(
            inventory_axis=[0.0, 20.0], intercept_axis=[30.0, 45.0],
            belief_axis=[0.0, 1.0], tol=1e-3)
    return spec


def corrupt(out: str, kind: str) -> None:
    """Damage a tree the way a broken writer could."""
    if kind == "study":
        os.remove(os.path.join(out, "curves", "dominance.csv"))
    else:
        path = os.path.join(out, "diagnostics.json")
        with open(path, encoding="utf-8") as fh:
            diag = json.load(fh)
        diag["converged"] = False
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(diag, fh)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    want = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    errors = []
    os.chdir(ROOT)
    for w in bench["workloads"]:
        name = w["name"]
        spec = tiny(run.WORKLOADS[name])
        for trace in (0, 1):
            with contextlib.redirect_stdout(io.StringIO()):  # invocation lines
                res = run.run(name, 1, 0, bool(trace), spec=spec, refs={}, probes=1)
            res = json.loads(json.dumps(res))
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want[trace]:
                errors.append(f"{name} trace={trace}: metrics {sorted(got)} "
                              f"differ from BENCHMARK.json")
            # at this size interpreter exit is a tenth of the traced wall, so
            # the coverage gate of traced runs is not asserted here
            if (not (res["correct"] or trace) or res["failed"]
                    or res["attempted"] < 1):
                errors.append(f"{name} trace={trace}: clean run not correct: {res}")

        os.makedirs(run.WORK_DIR, exist_ok=True)
        work = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK_DIR)
        try:
            runner = run.Runner(spec, 1, work, {})
            inv = runner.invoke("plain")
            corrupt(inv["out"], spec["kind"])
            res = runner.check(inv)
            if res["failed"] != runner.ops():
                errors.append(f"{name}: corrupted tree gave {res['failed']} of "
                              f"{runner.ops()} failed operations")
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"{name}: checked", flush=True)
    for w in bench["workloads"]:
        if run.WORKLOADS[w["name"]]["kind"] != "study":
            continue
        with contextlib.redirect_stdout(io.StringIO()):
            res = run.run(w["name"], 1, 0, False, probes=0, child_mode="nolearn")
        rejected = not res["correct"] and res["failed"] == res["attempted"]
        if not rejected:
            errors.append(f"{w['name']}: a run without learning passed: {res}")
        print(f"{w['name']}: run without learning "
              f"{'rejected' if rejected else 'passed'}", flush=True)
    for e in errors:
        print("FAIL " + e, file=sys.stderr)
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
