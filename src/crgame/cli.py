"""Command-line surface: simulate | equilibrium | report.

Outputs are plain files (CSV + JSON) with full-precision shortest
round-trip decimal formatting, so re-running with the same seed produces
byte-identical trees. Exit codes: 0 success, 2 config error,
3 non-convergence, 4 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import json
import math
import os
import shutil
import sys
import tempfile
import time

import numpy as np

from . import __version__, rng as rngmod
from .market import SALVAGE_MODES, DemandParams, salvage_credited
from .equilibrium import (FIRM_TYPES, EquilibriumConfig, EquilibriumModel,
                          NonConvergenceError, build_belief_grid,
                          equilibrium_iteration)
# perfbench traces cli.value_iterate and cli.contraction_check
from .equilibrium import contraction_check, value_iterate  # noqa: F401
from .policy import POLICIES, BeliefState, select_action
from .simharness import (SimConfig, bootstrap_diff, run_experiment,
                         summarize_relative)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGED = 3
EXIT_IO = 4


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
    """sha256 of the config's canonical JSON, for the simulate manifest.

    hashlib is imported here, its one use: it maps OpenSSL's libcrypto
    (about 3.5 MB of RSS), which ``crgame equilibrium`` never needs.
    """
    import hashlib

    canonical = json.dumps(config_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ------------------------------------------------------------- configuration

SIM_DEFAULTS = {**dataclasses.asdict(SimConfig()), "policies": list(POLICIES)}

# the action grid and kappa come from the simulation section; node_budget is
# a guard of the solver, not a setting of the study
EQ_DEFAULTS = {f.name: f.default for f in dataclasses.fields(EquilibriumConfig)
               if f.name not in ("actions", "kappa", "node_budget")}


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
        for section, part in raw.items():
            if section not in merged:
                raise ConfigError(f"unknown config field {section}")
            if not isinstance(part, dict):
                raise ConfigError(f"config section {section!r} must be an object")
            for key, value in part.items():
                if key not in merged[section]:
                    raise ConfigError(f"unknown config field {section}.{key}")
                merged[section][key] = value
    merged["simulation"].update(
        (key, value) for key, value in overrides.items() if value is not None)
    return merged


_KINDS = {"int": "an integer", "float": "a finite number", "str": "a string",
          "tuple": "a list of numbers", "DemandParams": "an object"}


def _coerce(name: str, kind: str, value):
    """The one coercion per field annotation of the config dataclasses."""
    if kind == "DemandParams" and isinstance(value, dict):
        known = {f.name for f in dataclasses.fields(DemandParams)}
        for key in value:
            if key not in known:
                raise ConfigError(f"unknown config field {name}.{key}")
        return _build(DemandParams, name, value)
    if kind == "tuple" and isinstance(value, (list, tuple)):
        return tuple(_coerce(f"{name}[{i}]", "float", v) for i, v in enumerate(value))
    if kind == "str" and isinstance(value, str):
        return value
    if kind == "int" and isinstance(value, int) and not isinstance(value, bool):
        return value
    if kind == "float" and isinstance(value, (int, float)) \
            and not isinstance(value, bool) and math.isfinite(value):
        return float(value)
    raise ConfigError(f"{name} must be {_KINDS[kind]}, got {value!r}")


def _build(cls, name: str, values: dict, **given):
    """Construct dataclass ``cls`` from a config section, field by field."""
    kwargs = {f.name: _coerce(f"{name}.{f.name}", f.type, values[f.name])
              for f in dataclasses.fields(cls) if f.name in values}
    try:
        return cls(**kwargs, **given)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {name} config: {exc}") from exc


def build_sim_config(cfg: dict) -> SimConfig:
    return _build(SimConfig, "simulation", cfg["simulation"])


def _requested_policies(cfg: dict) -> tuple:
    policies = cfg["simulation"]["policies"]
    if not (isinstance(policies, list) and policies
            and all(p in POLICIES for p in policies)
            and len(set(policies)) == len(policies)):
        raise ConfigError("simulation.policies must be a nonempty list of "
                          f"distinct names from {', '.join(POLICIES)}; "
                          f"got {policies!r}")
    return tuple(policies)


# ------------------------------------------------------------------ simulate

def _summary_payload(summary, relative) -> dict:
    policies = {}
    for name, s in summary.policies.items():
        policies[name] = dataclasses.asdict(s)
        del policies[name]["policy"], policies[name]["curves"]
    return {"policies": policies, "relative_improvement": relative}


def _objective_surface_rows(config: SimConfig):
    """Proposed-policy score surface over the action grid at firm 1's
    first-period state, as its low-cost type."""
    pcfg = config.policy_config()
    state = BeliefState(
        inventory=0.0, own_type=config.firm_type(config.cost_low),
        demand_posterior=config.prior_hyper(),
        rival_type_belief=config.initial_beliefs()[0])
    surf_rng = rngmod.stream(config.master_seed, "objective-surface")
    _, (means, sds, scores) = select_action(state, pcfg, "proposed-credible-risk",
                                            surf_rng)
    for k, (mean, sd, score) in enumerate(zip(means, sds, scores)):
        action = pcfg.actions.action(k)
        yield (action.price, action.quantity, mean, sd, score)


def cmd_simulate(args) -> int:
    try:
        if args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        cfg = load_config(args.config, {
            "replications": args.replications,
            "horizon": args.horizon,
            "master_seed": _seed(args),
            "kappa": args.kappa,
            "salvage_mode": args.salvage_mode,
            "policies": args.policy,
        })
        sim_config = build_sim_config(cfg)
        policies = _requested_policies(cfg)
        epoch = _env_int("SOURCE_DATE_EPOCH")
        try:  # before the study runs, so that it never fails at the end
            timestamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(epoch))
        except (OverflowError, OSError, ValueError) as exc:
            raise ConfigError(f"SOURCE_DATE_EPOCH {epoch} out of range: {exc}"
                              ) from None
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
            bootstrap[baseline] = dataclasses.asdict(report)

    try:
        _write_simulate_outputs(args.out, cfg, sim_config, policies, summary,
                                relative, bootstrap, timestamp)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


@contextlib.contextmanager
def _staged(out_dir):
    """Yield a fresh directory beside ``out_dir`` that replaces it whole when
    the block succeeds; a failed write leaves neither a partial tree nor the
    staging directory behind."""
    parent = os.path.dirname(os.path.abspath(out_dir)) or "."
    os.makedirs(parent, exist_ok=True)
    stage = tempfile.mkdtemp(prefix=".crgame-stage-", dir=parent)
    try:
        yield stage
        if os.path.isdir(out_dir):
            shutil.rmtree(out_dir)
        os.replace(stage, out_dir)
        stage = None
    finally:
        if stage is not None and os.path.isdir(stage):
            shutil.rmtree(stage, ignore_errors=True)


def _write_simulate_outputs(out_dir, cfg, sim_config, policies, summary,
                            relative, bootstrap, timestamp):
    with _staged(out_dir) as stage:
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
            # SOURCE_DATE_EPOCH when set, so byte-identical trees are possible
            "timestamp": timestamp,
            "outputs": outputs + ["manifest.json"],
        })


# --------------------------------------------------------------- equilibrium

def build_eq_inputs(cfg: dict):
    sim = build_sim_config(cfg)
    # the solve scores the study's action grid, kappa and rival types
    pcfg = sim.policy_config()
    eq_config = _build(EquilibriumConfig, "equilibrium", cfg["equilibrium"],
                       actions=pcfg.actions, kappa=pcfg.kappa)
    # build_dynamics follows the prior's noise convention; the solve is held
    # on normal-inverse-gamma (S a scale matrix) whatever the study's sigma_mode
    model = EquilibriumModel(
        rival_types=pcfg.rival_types,
        hyper=dataclasses.replace(sim.prior_hyper(), fixed_sd=None),
        salvage_on=salvage_credited(sim.salvage_mode))
    return eq_config, model, sim


def cmd_equilibrium(args) -> int:
    try:
        cfg = load_config(args.config, {"master_seed": _seed(args)})
        eq_config, model, sim = build_eq_inputs(cfg)
        grid = build_belief_grid(eq_config)
    except ValueError as exc:  # a ConfigError, or a grid over the node budget
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    # only the hyperparameter refresh draws; building a stream loads numpy.random
    eq_rng = (rngmod.stream(sim.master_seed, "equilibrium")
              if eq_config.refresh_trajectories > 0 else None)
    try:
        (pol1, pol2), values, _, diag = equilibrium_iteration(
            eq_config, model, rng=eq_rng)
    except NonConvergenceError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED
    # each firm's values as the type it plays, from the iteration's last round
    value1, value2 = (values[f][k] for f, k in enumerate(FIRM_TYPES))

    try:
        with _staged(args.out) as stage:
            # rows of Python floats, whose repr is fmt's of the numpy scalar
            type_names = ("low-cost", "high-cost")
            nodes = grid.nodes.tolist()
            actions = eq_config.actions
            for firm, pols in (("firm1", pol1), ("firm2", pol2)):
                rows = [(type_names[k], *node, price, quantity)
                        for k, pol in enumerate(pols)
                        for node, price, quantity in zip(
                            nodes, actions.price(pol).tolist(),
                            actions.quantity(pol).tolist())]
                write_csv(os.path.join(stage, f"policy_{firm}.csv"),
                          ["own_type", "inventory", "intercept_mean",
                           "rival_high_cost_prob", "price", "quantity"], rows)
            rows = [(*node, v1, v2) for node, v1, v2
                    in zip(nodes, value1.tolist(), value2.tolist())]
            write_csv(os.path.join(stage, "values.csv"),
                      ["inventory", "intercept_mean", "rival_high_cost_prob",
                       "value_firm1", "value_firm2"], rows)
            write_json(os.path.join(stage, "diagnostics.json"), {
                "converged": diag.converged,
                "sup_norm_deltas": list(diag.sup_norm_deltas),
                "policy_change_counts": list(diag.policy_change_counts),
                "dynamics_builds": list(diag.dynamics_builds),
                "matvec_products": list(diag.matvec_products),
            })
            # firm 1's Bellman operator in the last round, certified as the
            # solve built it: the one whose fixed point value_firm1 is
            write_json(os.path.join(stage, "contraction.json"), diag.contraction)
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


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # also a file that is not UTF-8
            raise ValueError(f"{path} is not valid JSON: {exc}") from exc


def _table_rows(path, entries, row) -> list:
    """``row(name, entry)`` for each entry in name order; an entry that lacks
    a field, or holds one of the wrong kind, is a ValueError naming ``path``."""
    try:
        return [row(name, entries[name]) for name in sorted(entries)]
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ValueError(f"{path} has an entry with missing or malformed fields: "
                         f"{exc!r}") from exc


def _num(v, nd=4):
    return "n/a" if v is None else f"{v:.{nd}f}"


def _summary_row(name, s):
    return (name, _num(s["mean_market_profit"], 2), _num(s["sd_market_profit"], 2),
            _num(s["median_market_profit"], 2), _num(s["mean_final_mse"]),
            _num(s["sd_final_mse"]), _num(s["mean_firm_profit"][0], 2),
            _num(s["mean_firm_profit"][1], 2))


def _relative_row(name, rel):
    return name, _num(rel["profit_gain_pct"]), _num(rel["mse_reduction_pct"])


def _bootstrap_row(name, b):
    return (name, _num(b["mean_diff_profit"]), _num(b["profit_ci"][0]),
            _num(b["profit_ci"][1]), _num(b["mean_diff_mse"]),
            _num(b["mse_ci"][0]), _num(b["mse_ci"][1]))


def cmd_report(args) -> int:
    summary_path = os.path.join(args.results, "summary.json")
    bootstrap_path = os.path.join(args.results, "bootstrap.json")
    if not os.path.isfile(summary_path):
        print(f"missing {summary_path}; run `crgame simulate` first",
              file=sys.stderr)
        return EXIT_IO
    try:
        summary = _read_json(summary_path)
        if not isinstance(summary, dict) \
                or not isinstance(summary.get("policies"), dict):
            raise ValueError(f"{summary_path} holds no policies object")
        bootstrap = _read_json(bootstrap_path) \
            if os.path.isfile(bootstrap_path) else {}
        main_rows = _table_rows(summary_path, summary["policies"], _summary_row)
        relative_rows = _table_rows(summary_path,
                                    summary.get("relative_improvement", {}),
                                    _relative_row)
        bootstrap_rows = _table_rows(bootstrap_path, bootstrap, _bootstrap_row)
    except (OSError, ValueError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO

    parts = ["# Simulation report", "", "## Main results", ""]
    parts.append(_md_table(
        ["Policy", "Mean profit", "SD profit", "Median profit",
         "Mean final MSE", "SD final MSE", "Mean profit 1", "Mean profit 2"],
        main_rows))
    if relative_rows:
        parts += ["", "## Relative improvement of the proposed policy", ""]
        parts.append(_md_table(
            ["Against", "Profit gain (%)", "MSE reduction (%)"], relative_rows))
    if bootstrap_rows:
        parts += ["", "## Bootstrap comparisons (proposed minus baseline)", ""]
        parts.append(_md_table(
            ["Baseline", "Mean diff profit", "CI low", "CI high",
             "Mean diff MSE", "CI low", "CI high"], bootstrap_rows))

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

def _env_int(name: str) -> int | None:
    """Environment variable ``name`` as an integer, or None when unset."""
    raw = os.environ.get(name)
    try:
        return int(raw) if raw else None
    except ValueError:
        raise ConfigError(f"{name} must be an integer, got {raw!r}") from None


def _seed(args) -> int | None:
    """``--seed``, else ``CRGAME_SEED``, else None (the config's seed)."""
    return args.seed if args.seed is not None else _env_int("CRGAME_SEED")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crgame",
        description="Two-firm inventory-pricing game: simulation and "
                    "equilibrium solver")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the Monte Carlo experiment")
    sim.add_argument("--config", metavar="PATH")
    sim.add_argument("--out", metavar="DIR", required=True)
    sim.add_argument("--seed", type=int)
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
    eq.add_argument("--seed", type=int)
    eq.set_defaults(func=cmd_equilibrium)

    rep = sub.add_parser("report", help="render tables from simulate outputs")
    rep.add_argument("results", metavar="RESULTS_DIR")
    rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    code = args.func(args)
    # Move every object still alive (numpy's, scipy's, the run's) out of the
    # collector's reach: the interpreter's exit collection then skips them,
    # and no output depends on that pass. An in-process caller that keeps
    # running can hand them back with gc.unfreeze().
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(main())
