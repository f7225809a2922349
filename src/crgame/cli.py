"""Command-line surface: simulate | equilibrium | report.

Outputs are plain files (CSV + JSON) with full-precision shortest
round-trip decimal formatting, so re-running with the same seed produces
byte-identical trees. Exit codes: 0 success, 2 config error,
3 non-convergence, 4 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import sys
import tempfile
import time

import numpy as np

from . import __version__, rng as rngmod
from .learning import PosteriorHyper, TypeBelief
from .market import SALVAGE_MODES, DemandParams, FirmType
from .equilibrium import (EquilibriumConfig, EquilibriumModel,
                          NonConvergenceError, build_belief_grid,
                          contraction_check, equilibrium_iteration,
                          value_iterate)
from .policy import POLICIES, BeliefState, PolicyConfig, select_action
from .simharness import (SimConfig, bootstrap_diff, run_experiment,
                         summarize_relative)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGED = 3
EXIT_IO = 4

DEFAULT_SEED = 20240


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------- formatting

def fmt(value) -> str:
    """Shortest round-trip decimal for floats; plain str otherwise."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def write_json(path, obj):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def config_hash(config_dict: dict) -> str:
    canonical = json.dumps(config_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _timestamp() -> str:
    # honor SOURCE_DATE_EPOCH so byte-identical output trees are possible
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    t = int(epoch) if epoch else int(time.time())
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(t))


# ------------------------------------------------------------- configuration

SIM_DEFAULTS = {
    "horizon": 30,
    "replications": 150,
    "delta": 0.98,
    "true_params": {"beta0": 45.0, "beta1": -3.6, "beta2": 1.2,
                    "beta3": 7.5, "sigma": 4.5},
    "cost_low": 6.0,
    "cost_high": 10.0,
    "high_cost_prob": [0.5, 0.5],
    "holding": 0.8,
    "salvage": 1.5,
    "price_grid": [float(p) for p in range(8, 17)],
    "quantity_grid": [float(q) for q in range(20, 70, 5)],
    "prior_mean": [35.0, -2.0, 0.5, 3.0],
    "prior_sd": [10.0, 2.0, 2.0, 4.0],
    "prior_a": 3.0,
    "prior_b": 40.5,
    "kappa": 0.6,
    "predictive_samples": 500,
    "master_seed": DEFAULT_SEED,
    "salvage_mode": "per-period",
    "sigma_mode": "fixed",
    "learning_mode": "gibbs-every-period",
    "rival_forecast": "last-action",
    "type_likelihood_temperature": 1.0,
    "bootstrap_resamples": 10000,
    "bootstrap_level": 0.95,
    "policies": list(POLICIES),
}

EQ_DEFAULTS = {
    "inventory_axis": [0.0, 10.0, 20.0, 30.0],
    "intercept_axis": [30.0, 37.5, 45.0, 52.5],
    "belief_axis": [0.0, 0.5, 1.0],
    "delta": 0.98,
    "kappa": 0.6,
    "quad_points": 8,
    "tol": 1e-6,
    "max_iter": 5000,
    "sweep_cap": 25,
    "refresh_trajectories": 0,
    "refresh_horizon": 10,
    "contraction_trials": 100,
    "contraction_seed": 7,
}


def load_config(path: str | None, overrides: dict) -> dict:
    """Merge file config over defaults, then flag overrides over both."""
    merged = {"simulation": dict(SIM_DEFAULTS), "equilibrium": dict(EQ_DEFAULTS)}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        for key in raw:
            if key not in merged:
                raise ConfigError(f"unknown config field {key}")
        for section in ("simulation", "equilibrium"):
            part = raw.get(section, {})
            if not isinstance(part, dict):
                raise ConfigError(f"config section {section!r} must be an object")
            for key, value in part.items():
                if key not in merged[section]:
                    raise ConfigError(f"unknown config field {section}.{key}")
                merged[section][key] = value
    for key, value in overrides.items():
        if value is None:
            continue
        merged["simulation"][key] = value
    return merged


def build_sim_config(cfg: dict) -> SimConfig:
    sim = cfg["simulation"]
    try:
        tp = sim["true_params"]
        return SimConfig(
            horizon=int(sim["horizon"]),
            replications=int(sim["replications"]),
            delta=float(sim["delta"]),
            true_params=DemandParams(float(tp["beta0"]), float(tp["beta1"]),
                                     float(tp["beta2"]), float(tp["beta3"]),
                                     float(tp["sigma"])),
            cost_low=float(sim["cost_low"]),
            cost_high=float(sim["cost_high"]),
            high_cost_prob=tuple(float(v) for v in sim["high_cost_prob"]),
            holding=float(sim["holding"]),
            salvage=float(sim["salvage"]),
            price_grid=tuple(float(v) for v in sim["price_grid"]),
            quantity_grid=tuple(float(v) for v in sim["quantity_grid"]),
            prior_mean=tuple(float(v) for v in sim["prior_mean"]),
            prior_sd=tuple(float(v) for v in sim["prior_sd"]),
            prior_a=float(sim["prior_a"]),
            prior_b=float(sim["prior_b"]),
            kappa=float(sim["kappa"]),
            predictive_samples=int(sim["predictive_samples"]),
            master_seed=int(sim["master_seed"]),
            salvage_mode=str(sim["salvage_mode"]),
            sigma_mode=str(sim["sigma_mode"]),
            learning_mode=str(sim["learning_mode"]),
            rival_forecast=str(sim["rival_forecast"]),
            type_likelihood_temperature=float(sim["type_likelihood_temperature"]),
            bootstrap_resamples=int(sim["bootstrap_resamples"]),
            bootstrap_level=float(sim["bootstrap_level"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid simulation config: {exc}") from exc


def _requested_policies(cfg: dict) -> tuple:
    policies = tuple(cfg["simulation"]["policies"])
    for p in policies:
        if p not in POLICIES:
            raise ConfigError(
                f"unknown policy {p!r}; valid: {', '.join(POLICIES)}")
    if not policies:
        raise ConfigError("at least one policy must be requested")
    return policies


# ------------------------------------------------------------------ simulate

def _summary_payload(summary, relative) -> dict:
    payload = {"policies": {}, "relative_improvement": relative}
    for name, s in summary.policies.items():
        payload["policies"][name] = {
            "replications": s.replications,
            "mean_market_profit": s.mean_market_profit,
            "sd_market_profit": s.sd_market_profit,
            "median_market_profit": s.median_market_profit,
            "mean_final_mse": s.mean_final_mse,
            "sd_final_mse": s.sd_final_mse,
            "mean_firm_profit": list(s.mean_firm_profit),
        }
    return payload


def _objective_surface_rows(config: SimConfig):
    """Proposed-policy score surface over the action grid at the prior state."""
    pcfg = config.policy_config()
    state = BeliefState(
        inventory=0.0, own_type=config.firm_type(config.cost_low),
        demand_posterior=config.prior_hyper(),
        rival_type_belief=TypeBelief(np.array([0.5, 0.5])))
    surf_rng = rngmod.stream(config.master_seed, "objective-surface")
    _, (means, sds, scores) = select_action(state, pcfg, "proposed-credible-risk",
                                            surf_rng)
    actions = itertools.product(pcfg.price_grid, pcfg.quantity_grid)
    for (price, qty), mean, sd, score in zip(actions, means, sds, scores):
        yield (float(price), float(qty), mean, sd, score)


def cmd_simulate(args) -> int:
    try:
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        overrides = {
            "replications": args.replications,
            "horizon": args.horizon,
            "master_seed": args.seed,
            "kappa": args.kappa,
            "salvage_mode": args.salvage_mode,
        }
        cfg = load_config(args.config, overrides)
        if args.policy:
            cfg["simulation"]["policies"] = list(args.policy)
        sim_config = build_sim_config(cfg)
        policies = _requested_policies(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    summary = run_experiment(sim_config, policies=policies, threads=args.threads)
    relative = summarize_relative(summary) \
        if "proposed-credible-risk" in summary.policies and len(policies) > 1 else {}

    bootstrap = {}
    proposed = summary.records.get("proposed-credible-risk")
    if proposed is not None:
        boot_rng = rngmod.stream(sim_config.master_seed, "bootstrap")
        for baseline in policies:
            if baseline == "proposed-credible-risk":
                continue
            base = summary.records[baseline]
            report = bootstrap_diff(
                [r.market_profit for r in proposed],
                [r.market_profit for r in base],
                resamples=sim_config.bootstrap_resamples,
                level=sim_config.bootstrap_level, rng=boot_rng,
                a_mse=[r.final_mse for r in proposed],
                b_mse=[r.final_mse for r in base])
            bootstrap[baseline] = {
                "mean_diff_profit": report.mean_diff_profit,
                "profit_ci": list(report.profit_ci),
                "mean_diff_mse": report.mean_diff_mse,
                "mse_ci": list(report.mse_ci),
                "sample_mean_diff_profit": report.sample_mean_diff_profit,
                "sample_mean_diff_mse": report.sample_mean_diff_mse,
                "resamples": report.resamples,
                "level": report.level,
            }

    try:
        _write_simulate_outputs(args.out, cfg, sim_config, policies, summary,
                                relative, bootstrap)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _write_simulate_outputs(out_dir, cfg, sim_config, policies, summary,
                            relative, bootstrap):
    # stage into a temp dir so a failed run never leaves partial outputs
    parent = os.path.dirname(os.path.abspath(out_dir)) or "."
    os.makedirs(parent, exist_ok=True)
    stage = tempfile.mkdtemp(prefix=".crgame-stage-", dir=parent)
    try:
        curves_dir = os.path.join(stage, "curves")
        os.makedirs(curves_dir)

        rows = []
        for policy in policies:
            for r in summary.records[policy]:
                rows.append((policy, r.rep, r.firm_profit[0], r.firm_profit[1],
                             r.market_profit, r.final_mse))
        write_csv(os.path.join(stage, "replications.csv"),
                  ["policy", "rep", "profit_firm1", "profit_firm2",
                   "market_profit", "final_mse"], rows)

        write_json(os.path.join(stage, "summary.json"),
                   _summary_payload(summary, relative))
        write_json(os.path.join(stage, "bootstrap.json"), bootstrap)

        for metric in ("cumulative_market_profit", "stockout_rate",
                       "mean_price", "mean_quantity", "posterior_mse",
                       "rival_high_cost_belief"):
            rows = []
            for policy in policies:
                curve = summary.policies[policy].curves[metric]
                for t, v in enumerate(curve, start=1):
                    rows.append((policy, t, v))
            write_csv(os.path.join(curves_dir, f"{metric}.csv"),
                      ["policy", "period", "value"], rows)

        rows = []
        for baseline, curve in summary.dominance.items():
            for t, v in enumerate(curve, start=1):
                rows.append((baseline, t, v))
        write_csv(os.path.join(curves_dir, "dominance.csv"),
                  ["baseline", "period", "probability"], rows)

        rows = []
        for policy in policies:
            for r in summary.records[policy]:
                rows.append((policy, r.rep, r.market_profit, r.final_mse))
        write_csv(os.path.join(curves_dir, "profit_mse_scatter.csv"),
                  ["policy", "rep", "market_profit", "final_mse"], rows)

        write_csv(os.path.join(curves_dir, "objective_surface.csv"),
                  ["price", "quantity", "mean", "sd", "score"],
                  _objective_surface_rows(sim_config))

        outputs = sorted(
            os.path.relpath(os.path.join(root, f), stage)
            for root, _, files in os.walk(stage) for f in files)
        write_json(os.path.join(stage, "manifest.json"), {
            "artifact_version": __version__,
            "config_hash": config_hash(cfg),
            "master_seed": sim_config.master_seed,
            "timestamp": _timestamp(),
            "outputs": outputs + ["manifest.json"],
        })

        if os.path.isdir(out_dir):
            shutil.rmtree(out_dir)
        os.replace(stage, out_dir)
        stage = None
    finally:
        if stage is not None and os.path.isdir(stage):
            shutil.rmtree(stage, ignore_errors=True)


# --------------------------------------------------------------- equilibrium

def build_eq_inputs(cfg: dict):
    eq = cfg["equilibrium"]
    sim = build_sim_config(cfg)
    try:
        eq_config = EquilibriumConfig(
            inventory_axis=tuple(float(v) for v in eq["inventory_axis"]),
            intercept_axis=tuple(float(v) for v in eq["intercept_axis"]),
            belief_axis=tuple(float(v) for v in eq["belief_axis"]),
            price_grid=sim.price_grid,
            quantity_grid=sim.quantity_grid,
            delta=float(eq["delta"]),
            kappa=float(eq["kappa"]),
            quad_points=int(eq["quad_points"]),
            tol=float(eq["tol"]),
            max_iter=int(eq["max_iter"]),
            sweep_cap=int(eq["sweep_cap"]),
            refresh_trajectories=int(eq["refresh_trajectories"]),
            refresh_horizon=int(eq["refresh_horizon"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid equilibrium config: {exc}") from exc
    low = sim.firm_type(sim.cost_low)
    high = sim.firm_type(sim.cost_high)
    model = EquilibriumModel(
        firm_types=(low, high), rival_types=(low, high),
        hyper=sim.prior_hyper(),
        salvage_on=sim.salvage_mode == "per-period")
    return eq_config, model, sim


def cmd_equilibrium(args) -> int:
    try:
        cfg = load_config(args.config, {"master_seed": args.seed})
        eq_config, model, sim = build_eq_inputs(cfg)
        grid = build_belief_grid(eq_config)
    except ValueError as exc:  # a ConfigError, or axes build_belief_grid rejects
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    eq_rng = rngmod.stream(sim.master_seed, "equilibrium")
    try:
        (pol1, pol2), diag = equilibrium_iteration(eq_config, model, rng=eq_rng)
    except NonConvergenceError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED

    values = {}
    # each firm's best response is to the rival's policy pair
    for firm, rival_pols in (("firm1", pol2), ("firm2", pol1)):
        try:
            vf, _, _ = value_iterate(grid, rival_pols, eq_config, model,
                                     firm_type=model.firm_types[0 if firm == "firm1" else 1])
            values[firm] = vf.values
        except NonConvergenceError as exc:
            values[firm] = np.full(grid.n_nodes, np.nan)

    check_rng = rngmod.stream(sim.master_seed, "contraction")
    report = contraction_check(grid, model, pol2,
                               int(cfg["equilibrium"]["contraction_trials"]),
                               check_rng, eq_config)

    try:
        os.makedirs(args.out, exist_ok=True)
        type_names = ("low-cost", "high-cost")
        for firm, pols in (("firm1", pol1), ("firm2", pol2)):
            rows = []
            for k, pol in enumerate(pols):
                for n, (price, qty) in enumerate(pol.as_tuples(eq_config)):
                    inv, m0, mu = grid.nodes[n]
                    rows.append((type_names[k], inv, m0, mu, price, qty))
            write_csv(os.path.join(args.out, f"policy_{firm}.csv"),
                      ["own_type", "inventory", "intercept_mean",
                       "rival_high_cost_prob", "price", "quantity"], rows)
        rows = []
        for n in range(grid.n_nodes):
            inv, m0, mu = grid.nodes[n]
            rows.append((inv, m0, mu, values["firm1"][n], values["firm2"][n]))
        write_csv(os.path.join(args.out, "values.csv"),
                  ["inventory", "intercept_mean", "rival_high_cost_prob",
                   "value_firm1", "value_firm2"], rows)
        write_json(os.path.join(args.out, "diagnostics.json"), {
            "converged": diag.converged,
            "sup_norm_deltas": list(diag.sup_norm_deltas),
            "policy_change_counts": list(diag.policy_change_counts),
        })
        write_json(os.path.join(args.out, "contraction.json"), report)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK if diag.converged else EXIT_NONCONVERGED


# -------------------------------------------------------------------- report

def _md_table(header, rows) -> str:
    lines = ["| " + " | ".join(header) + " |",
             "| " + " | ".join("---" for _ in header) + " |"]
    for row in rows:
        lines.append("| " + " | ".join(str(v) for v in row) + " |")
    return "\n".join(lines)


def cmd_report(args) -> int:
    summary_path = os.path.join(args.results, "summary.json")
    bootstrap_path = os.path.join(args.results, "bootstrap.json")
    if not os.path.isfile(summary_path):
        print(f"missing {summary_path}; run `crgame simulate` first",
              file=sys.stderr)
        return EXIT_IO
    with open(summary_path, encoding="utf-8") as fh:
        summary = json.load(fh)
    bootstrap = {}
    if os.path.isfile(bootstrap_path):
        with open(bootstrap_path, encoding="utf-8") as fh:
            bootstrap = json.load(fh)

    def num(v, nd=4):
        return "n/a" if v is None else f"{v:.{nd}f}"

    parts = ["# Simulation report", "", "## Main results", ""]
    rows = []
    for name in sorted(summary["policies"]):
        s = summary["policies"][name]
        rows.append((name, num(s["mean_market_profit"], 2),
                     num(s["sd_market_profit"], 2),
                     num(s["median_market_profit"], 2),
                     num(s["mean_final_mse"]), num(s["sd_final_mse"]),
                     num(s["mean_firm_profit"][0], 2),
                     num(s["mean_firm_profit"][1], 2)))
    parts.append(_md_table(
        ["Policy", "Mean profit", "SD profit", "Median profit",
         "Mean final MSE", "SD final MSE", "Mean profit 1", "Mean profit 2"],
        rows))

    relative = summary.get("relative_improvement", {})
    if relative:
        parts += ["", "## Relative improvement of the proposed policy", ""]
        rows = [(name, num(rel["profit_gain_pct"]), num(rel["mse_reduction_pct"]))
                for name, rel in sorted(relative.items())]
        parts.append(_md_table(
            ["Against", "Profit gain (%)", "MSE reduction (%)"], rows))

    if bootstrap:
        parts += ["", "## Bootstrap comparisons (proposed minus baseline)", ""]
        rows = []
        for name in sorted(bootstrap):
            b = bootstrap[name]
            rows.append((name, num(b["mean_diff_profit"]),
                         num(b["profit_ci"][0]), num(b["profit_ci"][1]),
                         num(b["mean_diff_mse"]),
                         num(b["mse_ci"][0]), num(b["mse_ci"][1])))
        parts.append(_md_table(
            ["Baseline", "Mean diff profit", "CI low", "CI high",
             "Mean diff MSE", "CI low", "CI high"], rows))

    text = "\n".join(parts) + "\n"
    sys.stdout.write(text)
    try:
        with open(os.path.join(args.results, "report.md"), "w",
                  encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


# ---------------------------------------------------------------------- main

def _env_seed() -> int | None:
    raw = os.environ.get("CRGAME_SEED")
    return int(raw) if raw else None


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crgame",
        description="Two-firm inventory-pricing game: simulation and "
                    "equilibrium solver")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the Monte Carlo experiment")
    sim.add_argument("--config", metavar="PATH")
    sim.add_argument("--out", metavar="DIR", required=True)
    sim.add_argument("--seed", type=int, default=_env_seed())
    sim.add_argument("--replications", type=int)
    sim.add_argument("--horizon", type=int)
    sim.add_argument("--policy", action="append", choices=POLICIES)
    sim.add_argument("--kappa", type=float)
    sim.add_argument("--salvage-mode", choices=SALVAGE_MODES)
    sim.add_argument("--threads", type=int, default=1)
    sim.set_defaults(func=cmd_simulate)

    eq = sub.add_parser("equilibrium", help="solve the belief-grid game")
    eq.add_argument("--config", metavar="PATH")
    eq.add_argument("--out", metavar="DIR", required=True)
    eq.add_argument("--seed", type=int, default=_env_seed())
    eq.set_defaults(func=cmd_equilibrium)

    rep = sub.add_parser("report", help="render tables from simulate outputs")
    rep.add_argument("results", metavar="RESULTS_DIR")
    rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
