"""Regenerate perfbench/refs.json from the current source tree.

    python3 perfbench/make_refs.py [--workload NAME ...]

Studies: one invocation per seed 1, 2, ... pools POOLED_REPS replications
per workload (seeds 1-8 for study-gibbs, 1-16 for study-imputation); they
give each policy's mean and per-replication standard deviation of the
statistics in ``checks.replication_stats``, from which
``checks.check_population`` derives a Monte Carlo tolerance. Each seed's
tree digest and policy means are recorded too. Equilibrium: a solve of the
same grid at a tolerance of 1e-10 is the reference for policies and values;
digests are recorded for SOLVE_SEEDS. Run it only on a commit whose outputs
are trusted.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import shutil
import statistics
import sys
import tempfile

import checks
import run

sys.path.insert(0, os.path.join(os.path.dirname(run.HERE), "src"))
from crgame import cli  # noqa: E402

POOLED_REPS = 64
SOLVE_SEEDS = range(1, 5)
REF_TOL = 1e-10


def study_refs(name: str, work: str) -> dict:
    spec = run.WORKLOADS[name]
    rows, per_seed = [], {}
    for seed in range(1, POOLED_REPS // spec["reps"] + 1):
        runner = run.Runner(spec, seed, work, {})
        inv = runner.invoke("plain")
        res = runner.check(inv)
        if res["problems"]:
            raise SystemExit(f"{name} seed {seed}: {res['problems']}")
        per_seed[str(seed)] = {"digest": res["quality"]["digest"],
                               "means": res["quality"]["means"]}
        rows += res["rows"]
    prior = {float(r["final_mse"]) for r in rows if r["policy"] == checks.STATIC}
    if len(prior) != 1:
        raise SystemExit(f"{name}: static prior MSE varies: {sorted(prior)}")
    population = {policy: {stat: [statistics.fmean(v), statistics.stdev(v)]
                           for stat, v in stats.items()}
                  for policy, stats in checks.replication_stats(rows).items()}
    return {"population": {"prior_mse": prior.pop(),
                           "replications_pooled": len(rows) // len(run.POLICIES),
                           "policies": population},
            "seeds": per_seed}


def solve_refs(name: str, work: str) -> dict:
    spec = run.WORKLOADS[name]
    tight = copy.deepcopy(spec)
    tight["config"]["equilibrium"].update({"tol": REF_TOL, "max_iter": 20000})
    runner = run.Runner(tight, SOLVE_SEEDS[0], work, {})
    inv = runner.invoke("plain")
    res = runner.check(inv)
    if res["problems"]:
        raise SystemExit(f"{name} reference solve: {res['problems']}")
    values = [[float(r["value_firm1"]), float(r["value_firm2"])]
              for r in checks.read_csv(os.path.join(inv["out"], "values.csv"))]
    policies = {f: [[float(r["price"]), float(r["quantity"])]
                    for r in checks.read_csv(os.path.join(inv["out"], f"policy_{f}.csv"))]
                for f in ("firm1", "firm2")}
    # value iteration stopped at a sup-norm step below `tol` is within
    # tol * delta / (1 - delta) of its fixed point; so is the reference at
    # its own tolerance
    eq = dict(cli.EQ_DEFAULTS, **spec["config"]["equilibrium"])
    tol, delta = float(eq["tol"]), float(eq["delta"])
    value_tol = (tol + REF_TOL) * delta / (1 - delta) + 1e-9
    solve = {"reference_tol": REF_TOL, "value_tol": value_tol,
             "values": values, "policies": policies}
    per_seed = {}
    for seed in SOLVE_SEEDS:
        runner = run.Runner(spec, seed, work, {"solve": solve})
        inv = runner.invoke("plain")
        res = runner.check(inv)
        if res["problems"]:
            raise SystemExit(f"{name} seed {seed}: {res['problems']}")
        per_seed[str(seed)] = {"digest": res["quality"]["digest"],
                               "eq_value_max_err": res["quality"]["eq_value_max_err"]}
    return {"solve": solve, "seeds": per_seed}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", nargs="+", default=sorted(run.WORKLOADS))
    args = ap.parse_args()
    path = os.path.join(run.HERE, "refs.json")
    refs = {}
    if os.path.isfile(path):
        refs = run.load_refs()
    os.makedirs(run.WORK_DIR, exist_ok=True)
    for name in args.workload:
        work = tempfile.mkdtemp(prefix="refs-", dir=run.WORK_DIR)
        try:
            if run.WORKLOADS[name]["kind"] == "study":
                refs[name] = study_refs(name, work)
            else:
                refs[name] = solve_refs(name, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(refs, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{name}: done", flush=True)


if __name__ == "__main__":
    main()
