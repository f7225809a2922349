"""crgame benchmark: time to a correct result through the real CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``. Each
run is a closed loop with one caller: it starts one ``crgame`` CLI process
(``perfbench/child.py``), waits for it, checks its output tree, and starts
the next until ``--seconds`` have passed and the workload's least number of
invocations is reached. ``--seed`` is the crgame master seed of the first
invocation; study invocation i runs seed ``--seed + 1000 * i``, so the
replications pooled over a run are distinct and the same seed gives the
same inputs.

--trace 0 prints the end-to-end metrics: median invocation wall time, set-up
time (interpreter start to the first replication or solve; the median of
several probe processes and the invocations) and peak RSS. --trace 1 runs
one untraced invocation as in --trace 0, then an untraced and a traced
single-threaded one (spans from ``perfbench/layers.py``), and prints the
per-layer metrics. The last stdout line is the JSON result; earlier lines
record the environment and each invocation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402

THREADS = 2            # worker threads for the studies; this box has 2 cores
SETUP_PROBES = 3
SEED_STRIDE = 1000      # seed step between the study invocations of a run
WORK_DIR = ".perfbench_work"
RUN_LIMIT_S = 170       # a run must end within 180 s; children are killed here

POLICIES = ["proposed-credible-risk", "bayesian-risk-neutral",
            "classical-static-prior"]


def _axis(start: float, step: float, n: int) -> list[float]:
    return [start + step * i for i in range(n)]


# "invocations" is the least number of CLI processes per run; wall_s is
# their median. The studies pool 16 replications a run for the reference
# check (see checks.check_population).
WORKLOADS = {
    "study-gibbs": {
        "kind": "study", "reps": 8, "horizon": 30, "invocations": 2,
        "config": {},
    },
    "study-imputation": {
        "kind": "study", "reps": 4, "horizon": 30, "invocations": 4,
        "config": {"simulation": {"learning_mode": "single-imputation"}},
    },
    "equilibrium-fine": {
        "kind": "equilibrium", "invocations": 2,
        "config": {"equilibrium": {
            "inventory_axis": _axis(0.0, 5.0, 8),
            "intercept_axis": _axis(30.0, 3.75, 8),
            "belief_axis": [0.0, 0.5, 1.0]}},
    },
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "learning.gibbs_refresh_s": "s",
    "learning.gibbs_refreshes": "count",
    "learning.conjugate_updates": "count",
    "learning.truncnorm_calls": "count",
    "learning.type_belief_s": "s",
    "learning.online_update_s": "s",
    "learning.proposed_final_mse": "coef_sq",
    "simharness.rival_model_s": "s",
    "policy.closed_form_calls": "count",
    "policy.select_action_s": "s",
    "policy.select_action_calls": "count",
    "kernels.grid_s": "s",
    "kernels.grid_calls": "count",
    "kernels.grid_bytes_computed": "bytes",
    "simharness.run_experiment_s": "s",
    "simharness.run_replication_p50_s": "s",
    "simharness.run_replication_p75_s": "s",
    "simharness.parallel_efficiency": "ratio",
    "market.step_s": "s",
    "market.censored_frac": "ratio",
    "market.floored_frac": "ratio",
    "rng.streams": "count",
    "rng.stream_s": "s",
    "equilibrium.bellman_sweeps": "count",
    "equilibrium.bellman_s": "s",
    "equilibrium.build_dynamics_s": "s",
    "equilibrium.build_dynamics_calls": "count",
    "equilibrium.br_sweeps": "count",
    "equilibrium.vi_sweeps_per_br": "count",
    "equilibrium.contraction_check_s": "s",
    "equilibrium.value_max_err": "profit",
    "cli.bootstrap_s": "s",
    "cli.write_s": "s",
    "cli.output_bytes": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


def source_digest() -> str:
    """sha256 of the package's .py files, naming the code that was measured."""
    h = hashlib.sha256()
    root = os.path.join("src", "crgame")
    for rel in checks.list_files(root):
        if rel.endswith(".py"):
            with open(os.path.join(root, rel), "rb") as fh:
                h.update(rel.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def load_refs() -> dict:
    with open(os.path.join(HERE, "refs.json"), encoding="utf-8") as fh:
        return json.load(fh)


class Runner:
    """Spawns CLI invocations for one workload and checks their outputs."""

    def __init__(self, spec: dict, seed: int, work: str, refs: dict):
        self.spec, self.seed, self.work, self.refs = spec, seed, work, refs
        self.src = os.path.abspath("src")
        self.config_path = os.path.join(work, "config.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(spec["config"], fh)
        self.count = 0
        self.deadline = time.perf_counter() + RUN_LIMIT_S

    def cli_args(self, out: str, threads: int, seed: int) -> list[str]:
        args = [self.spec["kind"] if self.spec["kind"] == "equilibrium"
                else "simulate", "--config", self.config_path, "--out", out,
                "--seed", str(seed)]
        if self.spec["kind"] == "study":
            args += ["--replications", str(self.spec["reps"]),
                     "--horizon", str(self.spec["horizon"]),
                     "--threads", str(threads)]
        return args

    def invoke(self, mode: str, threads: int = THREADS,
               seed: int | None = None) -> dict:
        """One CLI process; returns wall time and the child's sidecar."""
        seed = self.seed if seed is None else seed
        self.count += 1
        tag = f"{mode}{self.count}"
        out = os.path.join(self.work, "out-" + tag)
        sidecar = os.path.join(self.work, tag + ".json")
        env = dict(os.environ, PYTHONPATH=self.src, SOURCE_DATE_EPOCH="0")
        cmd = [sys.executable, os.path.join(HERE, "child.py"), sidecar, mode,
               "--"] + self.cli_args(out, threads, seed)
        t0 = time.perf_counter()
        env["PERFBENCH_T0"] = repr(t0)
        try:
            proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE,
                                  timeout=max(1.0, self.deadline - t0))
            code, err = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            code, err = -9, b"killed at the run's time limit"
        wall = time.perf_counter() - t0
        try:
            with open(sidecar, encoding="utf-8") as fh:
                side = json.load(fh)
        except (OSError, ValueError):
            side = {}
        return {"mode": mode, "seed": seed, "out": out, "wall": wall, "exit": code,
                "stderr": err.decode(errors="replace")[-2000:], "side": side}

    def ops(self) -> int:
        if self.spec["kind"] == "study":
            return self.spec["reps"] * len(POLICIES)
        return 1

    def check(self, inv: dict) -> dict:
        """Correctness of one invocation: failed ops, problems, quality and
        its replication rows.

        A problem with the tree or the process fails every operation of the
        invocation; a bad replication record fails that replication only.
        """
        side = inv["side"]
        tree, quality, rows = [], {}, []
        if inv["exit"] != 0 or side.get("rc") != 0:
            last = inv["stderr"].strip().splitlines()[-1:]
            tree.append(f"exit {inv['exit']}, rc {side.get('rc')} {last}")
        reps = side.get("replications", [])
        bad = [f"{p} rep {k}: {why}" for p, k, why in reps if why]
        try:
            if self.spec["kind"] == "study":
                found, rows = checks.check_study(
                    inv["out"], self.spec["reps"], self.spec["horizon"],
                    POLICIES, self.refs.get("population", {}).get("prior_mse"))
                tree += found
                if len(reps) != self.ops():
                    tree.append(f"{len(reps)} of {self.ops()} replications checked")
                if rows and not found:
                    means = checks.study_means(rows)
                    quality["censored_observations"] = checks.censored_observations(
                        inv["out"], self.spec["reps"])
                    quality["proposed_final_mse"] = means[POLICIES[0]]["mean_final_mse"]
                    quality["means"] = means
            else:
                found, err = checks.check_equilibrium(inv["out"],
                                                      self.refs.get("solve"))
                tree += found
                if err != float("inf"):
                    quality["eq_value_max_err"] = err
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            tree.append(f"output check raised {exc!r}")
        if os.path.isdir(inv["out"]):
            quality["digest"] = checks.tree_digest(inv["out"])
        failed = self.ops() if tree else len(bad)
        return {"failed": failed, "problems": tree + bad, "quality": quality,
                "rows": [] if tree else rows}


def output_bytes(root: str) -> int:
    return sum(os.path.getsize(os.path.join(root, f))
               for f in checks.list_files(root))


def _op_wall(inv: dict) -> float:
    """Wall time of the experiment or solve inside one invocation."""
    side = inv["side"]
    return side.get("t_op_end", 0.0) - side.get("t_first_op", 0.0)


def layer_metrics(traced: dict, serial: dict, parallel: dict, spec: dict) -> dict:
    """Per-layer metrics of the traced invocation; ``serial`` is the same
    invocation untraced, ``parallel`` the untraced end-to-end one."""
    tr = traced["side"].get("trace", {"spans": {}, "counts": {}, "samples": {}})
    spans, counts = tr["spans"], tr["counts"]

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    reps = tr["samples"].get("run_replication_s", [])
    obs = counts.get("market.observations", 0)
    br_calls = calls("equilibrium.best_response")
    par_wall = _op_wall(parallel)
    covered = sum(s["top_level_s"] for s in spans.values())
    # time before cli.main runs (interpreter start, imports) is a span too
    covered += traced["side"].get("t_main", 0.0)
    n_br = 0
    if spec["kind"] == "equilibrium" and os.path.isdir(traced["out"]):
        with open(os.path.join(traced["out"], "diagnostics.json")) as fh:
            n_br = len(json.load(fh)["policy_change_counts"])
    return {
        "learning.gibbs_refresh_s": total("learning.gibbs_refresh"),
        "learning.gibbs_refreshes": calls("learning.gibbs_refresh"),
        "learning.conjugate_updates": calls("learning.conjugate_update"),
        "learning.truncnorm_calls": counts.get("learning.truncnorm", 0),
        "learning.type_belief_s": total("learning.type_belief"),
        "learning.online_update_s": total("learning.online_update"),
        "simharness.rival_model_s": total("simharness.rival_model"),
        "policy.closed_form_calls": counts.get("policy.closed_form", 0),
        "policy.select_action_s": total("policy.select_action"),
        "policy.select_action_calls": calls("policy.select_action"),
        "kernels.grid_s": total("kernels.grid"),
        "kernels.grid_calls": calls("kernels.grid"),
        "kernels.grid_bytes_computed": counts.get("kernels.grid_bytes", 0),
        "simharness.run_experiment_s": total("simharness.run_experiment"),
        "simharness.run_replication_p50_s": statistics.median(reps) if reps else 0.0,
        "simharness.run_replication_p75_s":
            statistics.quantiles(reps, n=4, method="inclusive")[2]
            if len(reps) > 1 else sum(reps),
        "simharness.parallel_efficiency":
            _op_wall(serial) / (THREADS * par_wall)
            if spec["kind"] == "study" and par_wall > 0 else 0.0,
        "market.step_s": total("market.step"),
        "market.censored_frac": counts.get("market.censored", 0) / obs if obs else 0.0,
        "market.floored_frac": counts.get("market.floored", 0) / obs if obs else 0.0,
        "rng.streams": calls("rng.stream"),
        "rng.stream_s": total("rng.stream"),
        "equilibrium.bellman_sweeps": calls("equilibrium.bellman"),
        "equilibrium.bellman_s": total("equilibrium.bellman"),
        "equilibrium.build_dynamics_s": total("equilibrium.build_dynamics"),
        "equilibrium.build_dynamics_calls": calls("equilibrium.build_dynamics"),
        "equilibrium.br_sweeps": n_br,
        "equilibrium.vi_sweeps_per_br":
            counts.get("equilibrium.br_bellman_sweeps", 0) / br_calls if br_calls else 0.0,
        "equilibrium.contraction_check_s": total("equilibrium.contraction_check"),
        "cli.bootstrap_s": total("cli.bootstrap"),
        "cli.write_s": total("cli.write"),
        "cli.output_bytes": output_bytes(traced["out"]) if os.path.isdir(traced["out"]) else 0,
        "trace.wall_s": traced["wall"],
        "trace.overhead_s": traced["wall"] - serial["wall"],
        "trace.coverage": covered / traced["wall"],
    }


def environment(side: dict) -> dict:
    nproc = os.cpu_count() or 1
    commit = "unknown (not a git checkout)"
    if os.path.isdir(".git"):  # git would otherwise search parent directories
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit,
        "source_sha256_16": source_digest(),
        "python": platform.python_version(),
        "numpy": side.get("numpy"), "scipy": side.get("scipy"),
        "numba_imports": side.get("have_numba"),
        "kernels_backend": side.get("backend"),
        "nproc": nproc,
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": THREADS,
        "scaling_limit": f"parallel figures use {THREADS} workers on "
                         f"{nproc} cores; no scaling beyond that is measured",
        "machine": platform.machine(),
    }


def emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True), flush=True)


def run(name: str, seed: int, seconds: float, trace: bool, spec=None,
        refs=None, probes: int = SETUP_PROBES, child_mode: str = "plain") -> dict:
    """One benchmark run. ``spec`` and ``refs`` default to the named workload
    and its recorded references; ``child_mode`` is the mode of the untraced
    invocations (see child.py)."""
    if spec is None:
        spec, refs = WORKLOADS[name], load_refs().get(name, {})
    refs = refs or {}
    recorded = refs.get("seeds", {})
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    try:
        runner = Runner(spec, seed, work, refs)
        invocations = []
        setup = []
        if trace:
            parallel = runner.invoke(child_mode)
            serial = runner.invoke("plain", threads=1) \
                if spec["kind"] == "study" else parallel
            traced = runner.invoke("trace", threads=1)
            invocations = [parallel, serial, traced] \
                if serial is not parallel else [parallel, traced]
        else:
            for _ in range(probes):
                probe = runner.invoke("probe")
                if "t_first_op" in probe["side"]:
                    setup.append(probe["side"]["t_first_op"])
            start = time.perf_counter()
            while (len(invocations) < spec.get("invocations", 1)
                   or time.perf_counter() - start < seconds):
                step = SEED_STRIDE * len(invocations) if spec["kind"] == "study" else 0
                invocations.append(runner.invoke(child_mode, seed=seed + step))

        attempted = failed = 0
        digests: dict[int, set] = {}
        pooled: dict[int, list] = {}
        problems = []
        for inv in invocations:
            res = runner.check(inv)
            attempted += runner.ops()
            failed += res["failed"]
            problems += res["problems"]
            if inv["mode"] == child_mode and "digest" in res["quality"]:
                digests.setdefault(inv["seed"], set()).add(res["quality"]["digest"])
            if res["rows"]:
                pooled.setdefault(inv["seed"], res["rows"])
            info = {"invocation": inv["mode"], "seed": inv["seed"], "wall_s": inv["wall"],
                    "cpu_s": inv["side"].get("cpu_s"),
                    "exit": inv["exit"], "failed": res["failed"],
                    "problems": res["problems"][:10]}
            info.update({k: v for k, v in res["quality"].items() if k != "means"})
            if str(inv["seed"]) in recorded and res["quality"].get("digest"):
                info["tree_identical_to_seed_commit"] = \
                    res["quality"]["digest"] == recorded[str(inv["seed"])].get("digest")
            if "means" in res["quality"]:
                info["policy_means"] = res["quality"]["means"]
            inv["quality"] = res["quality"]
            emit(info)
        if any(len(d) > 1 for d in digests.values()):
            problems.append("repeated invocations wrote different output trees")
            failed = attempted
        if "population" in refs:
            rows = [r for seed_rows in pooled.values() for r in seed_rows]
            found = checks.check_population(rows, refs["population"])
            emit({"population_check": {"replications": len(rows) // len(POLICIES),
                                       "z": checks.Z, "problems": found}})
            if found:
                problems += found
                failed = attempted
        emit({"environment": environment(invocations[0]["side"]),
              "workload": name, "seed": seed, "invocations": len(invocations),
              "setup_probes_s": setup})

        if trace:
            metrics = layer_metrics(traced, serial, parallel, spec)
            q = traced["quality"]
            metrics["learning.proposed_final_mse"] = q.get("proposed_final_mse", 0.0)
            metrics["equilibrium.value_max_err"] = q.get("eq_value_max_err", 0.0)
            units = PER_LAYER
            correct = failed == 0 and metrics["trace.coverage"] >= 0.9
        else:
            setup += [inv["side"]["t_first_op"] for inv in invocations
                      if "t_first_op" in inv["side"]]
            rss = [inv["side"].get("maxrss_kb", 0) / 1024.0 for inv in invocations]
            wall = statistics.median(inv["wall"] for inv in invocations)
            metrics = {"wall_s": wall,
                       "setup_s": statistics.median(setup) if setup else 0.0,
                       "peak_rss_mb": statistics.median(rss)}
            units = END_TO_END
            correct = failed == 0
        if problems:
            print("problems: " + "; ".join(problems[:10]), file=sys.stderr)
        return {"correct": correct, "attempted": attempted, "failed": failed,
                "metrics": {k: {"value": metrics[k], "unit": u}
                            for k, u in units.items()}}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "crgame", "cli.py")):
        print("perfbench: src/crgame not found; run from the repository root",
              file=sys.stderr)
        return 2
    emit(run(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
