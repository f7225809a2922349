"""Correctness checks on the output trees of CLI invocations.

Each check returns a list of problems; an empty list means the checked
operations (an invocation's replications or solve, or the replications
pooled over a run) are correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import statistics

STATIC = "classical-static-prior"


def tree_digest(root: str) -> str:
    """sha256 over (relative path, bytes) of every output file but the
    manifest, in sorted order."""
    h = hashlib.sha256()
    for rel in list_files(root):
        if rel == "manifest.json":
            continue
        h.update(rel.encode() + b"\0")
        with open(os.path.join(root, rel), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def list_files(root: str) -> list[str]:
    return sorted(os.path.relpath(os.path.join(d, f), root).replace(os.sep, "/")
                  for d, _, files in os.walk(root) for f in files)


def read_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# Two-sided false-alarm rate of one reference comparison. A study run makes
# six (3 policies x 2 statistics); across 50 study runs, ten seeds twice on
# both studies plus a few more, a correct program fails about once in 170.
FALSE_ALARM = 2e-5
Z = statistics.NormalDist().inv_cdf(1 - FALSE_ALARM / 2)   # 4.26


def replication_stats(rows: list[dict]) -> dict:
    """Per policy, the per-replication values the reference check compares.

    ``rel_rmse`` is the posterior's RMS error relative to the static prior's
    in the same replication, capped at 1: a policy that stops learning reads
    exactly 1. Final MSE itself is heavy-tailed (single replications reach
    50 times the median), and its logarithm has a long lower tail; the
    capped ratio is bounded, so the mean of 16 replications is close to
    normal.
    """
    prior = {r["rep"]: float(r["final_mse"]) for r in rows
             if r["policy"] == STATIC}
    out: dict[str, dict] = {}
    for r in rows:
        mse, base = float(r["final_mse"]), prior.get(r["rep"], math.nan)
        stats = out.setdefault(r["policy"], {"market_profit": [], "rel_rmse": []})
        stats["market_profit"].append(float(r["market_profit"]))
        stats["rel_rmse"].append(min(math.sqrt(mse / base), 1.0) if base > 0 else math.nan)
    return out


def study_means(rows: list[dict]) -> dict:
    """Per-policy means of replications.csv and of ``replication_stats``."""
    out = {}
    for policy, stats in sorted(replication_stats(rows).items()):
        mse = [float(r["final_mse"]) for r in rows if r["policy"] == policy]
        out[policy] = {"mean_final_mse": statistics.fmean(mse)}
        out[policy].update({"mean_" + k: statistics.fmean(v) for k, v in stats.items()})
    return out


def check_study(out_dir: str, reps: int, horizon: int, policies: list[str],
                prior_mse: float | None) -> tuple[list[str], list[dict]]:
    """Check one `crgame simulate` tree; returns (problems, replication rows).

    ``prior_mse`` is the static prior's final MSE, the same in every
    replication; None skips that comparison.
    """
    problems: list[str] = []
    try:
        with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        if sorted(manifest["outputs"]) != list_files(out_dir):
            problems.append("files on disk differ from manifest outputs")
        rows = read_csv(os.path.join(out_dir, "replications.csv"))
        with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        curves = {name: read_csv(os.path.join(out_dir, "curves", name + ".csv"))
                  for name in ("stockout_rate", "rival_high_cost_belief",
                               "posterior_mse")}
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable output tree: {exc}"], []

    seen = sorted((r["policy"], int(r["rep"])) for r in rows)
    if seen != sorted((p, k) for p in policies for k in range(reps)):
        problems.append("replications.csv does not hold one row per policy and rep")
    for r in rows:
        vals = [float(r[k]) for k in ("profit_firm1", "profit_firm2",
                                      "market_profit", "final_mse")]
        if not all(math.isfinite(v) for v in vals) or vals[3] < 0:
            problems.append(f"bad replication row {r['policy']} {r['rep']}")
        elif not _close(vals[0] + vals[1], vals[2]):
            problems.append(f"market profit != firm sum in {r['policy']} {r['rep']}")
        elif (r["policy"] == STATIC and prior_mse is not None
              and not _close(vals[3], prior_mse)):
            problems.append(f"static prior MSE {vals[3]} != {prior_mse} in rep {r['rep']}")
    for policy in {r["policy"] for r in rows}:
        s = summary["policies"].get(policy, {})
        mine = [r for r in rows if r["policy"] == policy]
        if s.get("replications") != reps or not (
                _close(s["mean_market_profit"],
                       statistics.fmean(float(r["market_profit"]) for r in mine))
                and _close(s["mean_final_mse"],
                           statistics.fmean(float(r["final_mse"]) for r in mine))):
            problems.append(f"summary.json disagrees with replications.csv for {policy}")
    for name, hi in (("stockout_rate", 1.0), ("rival_high_cost_belief", 1.0),
                     ("posterior_mse", math.inf)):
        if len(curves[name]) != len(policies) * horizon or any(
                not 0.0 <= float(r["value"]) <= hi for r in curves[name]):
            problems.append(f"curves/{name}.csv outside [0, {hi}] or wrong length")
    return problems, rows


def censored_observations(out_dir: str, reps: int) -> int:
    """Stockouts of the learning policies: each triggers a Gibbs refresh in
    gibbs-every-period mode, the work that varies most between seeds."""
    rows = read_csv(os.path.join(out_dir, "curves", "stockout_rate.csv"))
    return round(sum(2 * reps * float(r["value"]) for r in rows
                     if r["policy"] != STATIC))


def check_population(rows: list[dict], ref: dict) -> list[str]:
    """Monte Carlo check of the replications pooled over a run.

    ``ref`` holds, per policy and statistic of ``replication_stats``, a
    reference mean and per-replication standard deviation from many
    replications of a trusted commit. The pooled mean of the n replications
    must lie within ``Z * sd / sqrt(n)`` of it, so a change of draw order
    passes. At n = 16 the band of each learning policy's ``rel_rmse`` stays
    below 1, so a policy that stops learning fails.
    """
    problems = []
    stats = replication_stats(rows)
    for policy, refs in ref["policies"].items():
        for stat, (mean, sd) in refs.items():
            values = stats.get(policy, {}).get(stat, [])
            got = statistics.fmean(values) if values else math.nan
            tol = Z * sd / math.sqrt(max(len(values), 1)) + 1e-9 * max(1.0, abs(mean))
            if not abs(got - mean) <= tol:
                problems.append(f"{policy} mean {stat} = {got:.6g} outside "
                                f"{mean:.6g} +- {tol:.4g} (n = {len(values)})")
    return problems


def check_equilibrium(out_dir: str, ref: dict | None) -> tuple[list[str], float]:
    """Check a `crgame equilibrium` tree; returns (problems, max value error).

    ``ref`` is a tighter-tolerance solve of the same grid: policies must be
    identical and values within the solver's own error bound
    ``tol * delta / (1 - delta)``.
    """
    problems: list[str] = []
    try:
        with open(os.path.join(out_dir, "diagnostics.json"), encoding="utf-8") as fh:
            diag = json.load(fh)
        with open(os.path.join(out_dir, "contraction.json"), encoding="utf-8") as fh:
            contraction = json.load(fh)
        values = read_csv(os.path.join(out_dir, "values.csv"))
        policy_rows = {f: read_csv(os.path.join(out_dir, f"policy_{f}.csv"))
                       for f in ("firm1", "firm2")}
    except (OSError, ValueError) as exc:
        return [f"unreadable output tree: {exc}"], math.inf
    if diag.get("converged") is not True:
        problems.append("solver did not converge")
    if contraction.get("passed") is not True:
        problems.append("contraction check failed")
    got = [[float(r["value_firm1"]), float(r["value_firm2"])] for r in values]
    if not all(math.isfinite(v) for pair in got for v in pair):
        problems.append("non-finite values")
    if ref is None:
        return problems, math.inf
    err = math.inf
    if len(got) == len(ref["values"]):
        err = max(abs(a - b) for g, r in zip(got, ref["values"])
                  for a, b in zip(g, r))
    if not err <= ref["value_tol"]:
        problems.append(f"values differ from reference by {err:.3g} "
                        f"> {ref['value_tol']:.3g}")
    for firm, rows in policy_rows.items():
        actions = [[float(r["price"]), float(r["quantity"])] for r in rows]
        if actions != ref["policies"][firm]:
            problems.append(f"policy_{firm}.csv differs from the reference solve")
    return problems, err
