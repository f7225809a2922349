"""Command-line surface: subcommands, exit codes, output tree contents."""

import dataclasses
import gc
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from crgame import cli, equilibrium, rng as rngmod
from crgame.equilibrium import (FIRM_TYPES, EquilibriumConfig,
                                NonConvergenceError)
from crgame.learning import TypeBelief
from crgame.market import ActionGrid
from crgame.policy import BeliefState, forecast_rival_action, select_action
from crgame.simharness import SimConfig

FAST_ARGS = ["--replications", "3", "--horizon", "5", "--seed", "11",
             "--threads", "2"]


def run_cli(argv):
    try:
        return cli.main(argv)
    finally:
        gc.unfreeze()  # main leaves what is alive frozen for the exit


@pytest.fixture()
def outdir(tmp_path):
    return str(tmp_path / "results")


# ----------------------------------------------------------------- simulate

def test_simulate_output_tree(outdir):
    assert run_cli(["simulate", "--out", outdir, *FAST_ARGS]) == 0
    for name in ("replications.csv", "summary.json", "bootstrap.json",
                 "manifest.json"):
        assert os.path.isfile(os.path.join(outdir, name)), name
    for curve in ("cumulative_market_profit", "stockout_rate", "mean_price",
                  "mean_quantity", "posterior_mse", "rival_high_cost_belief",
                  "dominance", "profit_mse_scatter", "objective_surface"):
        assert os.path.isfile(os.path.join(outdir, "curves", f"{curve}.csv"))

    with open(os.path.join(outdir, "summary.json")) as fh:
        summary = json.load(fh)
    assert set(summary["policies"]) == {"proposed-credible-risk",
                                        "bayesian-risk-neutral",
                                        "classical-static-prior"}
    static = summary["policies"]["classical-static-prior"]
    assert static["mean_final_mse"] == pytest.approx(30.8250, abs=1e-9)
    assert static["sd_final_mse"] == pytest.approx(0.0, abs=1e-12)

    with open(os.path.join(outdir, "manifest.json")) as fh:
        manifest = json.load(fh)
    assert manifest["master_seed"] == 11
    assert len(manifest["config_hash"]) == 64
    assert "replications.csv" in manifest["outputs"]


def test_objective_surface_scores_firm_1s_first_period_state(outdir,
                                                             tmp_path):
    """The surface is the proposed policy's select_action at firm 1's
    first-period state: its rival-type belief is firm 2's high_cost_prob,
    which the type-weighted forecast reads."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"simulation": {
        "rival_forecast": "type-weighted", "high_cost_prob": [0.5, 0.9],
        "prior_mean": [60.0, -2.0, 0.5, 3.0],
        "price_grid": list(range(8, 25))}}))
    assert run_cli(["simulate", "--config", str(cfg), "--out", outdir,
                    "--replications", "1", "--horizon", "2", "--seed", "11",
                    "--policy", "proposed-credible-risk"]) == 0
    sim = cli.build_sim_config(cli.load_config(str(cfg), {"master_seed": 11}))
    pcfg = sim.policy_config()
    state = BeliefState(inventory=0.0, own_type=sim.firm_type(sim.cost_low),
                        demand_posterior=sim.prior_hyper(),
                        rival_type_belief=TypeBelief(np.array([0.1, 0.9])))
    # the belief moves the forecast's price, so it moves the surface
    even = dataclasses.replace(state,
                               rival_type_belief=TypeBelief(np.array([0.5, 0.5])))
    assert forecast_rival_action(state, pcfg).price != \
        forecast_rival_action(even, pcfg).price
    _, (means, sds, scores) = select_action(
        state, pcfg, "proposed-credible-risk",
        rngmod.stream(11, "objective-surface"))
    rows = _read_rows(os.path.join(outdir, "curves", "objective_surface.csv"))
    assert [[float(v) for v in row] for row in rows] == [
        [a.price, a.quantity, m, sd, score]
        for a, m, sd, score in zip(map(pcfg.actions.action, range(len(means))),
                                   means, sds, scores)]


def test_simulate_replications_csv_full_precision(outdir):
    assert run_cli(["simulate", "--out", outdir, *FAST_ARGS]) == 0
    with open(os.path.join(outdir, "replications.csv"), "rb") as fh:
        raw = fh.read()
    assert b"\r" not in raw  # LF-only line endings
    lines = raw.decode().strip().split("\n")
    header = lines[0].split(",")
    assert header == ["policy", "rep", "profit_firm1", "profit_firm2",
                      "market_profit", "final_mse"]
    assert len(lines) == 1 + 3 * 3  # 3 policies x 3 replications
    # repr round-trip: market profit must equal firm1 + firm2 exactly as floats
    for line in lines[1:]:
        parts = line.split(",")
        f1, f2 = float(parts[2]), float(parts[3])
        assert float(parts[4]) == f1 + f2


def test_simulate_policy_filter(outdir):
    assert run_cli(["simulate", "--out", outdir, *FAST_ARGS,
                    "--policy", "classical-static-prior"]) == 0
    with open(os.path.join(outdir, "summary.json")) as fh:
        summary = json.load(fh)
    assert list(summary["policies"]) == ["classical-static-prior"]


def test_simulate_config_file_and_overrides(outdir, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"simulation": {"replications": 2,
                                              "kappa": 0.3}}))
    assert run_cli(["simulate", "--config", str(cfg), "--out", outdir,
                    "--horizon", "4", "--seed", "5", "--threads", "1"]) == 0
    with open(os.path.join(outdir, "summary.json")) as fh:
        summary = json.load(fh)
    assert summary["policies"]["classical-static-prior"]["replications"] == 2


def test_env_seed_fallback(outdir, monkeypatch):
    monkeypatch.setenv("CRGAME_SEED", "4242")
    assert run_cli(["simulate", "--out", outdir, "--replications", "2",
                    "--horizon", "3"]) == 0
    with open(os.path.join(outdir, "manifest.json")) as fh:
        assert json.load(fh)["master_seed"] == 4242


# --------------------------------------------------------------- exit codes

def test_config_error_unknown_field(outdir, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"simulation": {"warp_speed": 9}}))
    assert run_cli(["simulate", "--config", str(cfg), "--out", outdir]) == 2


def test_config_error_unknown_top_level_field(outdir, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"sigma_mode": "learn", "typo": 1}))
    assert run_cli(["simulate", "--config", str(cfg), "--out", outdir]) == 2
    assert "unknown config field" in capsys.readouterr().err


def test_config_error_invalid_json(outdir, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert run_cli(["simulate", "--config", str(cfg), "--out", outdir]) == 2


def test_config_error_missing_file(outdir):
    assert run_cli(["simulate", "--config", "/nonexistent.json",
                    "--out", outdir]) == 2


def _bad(command, config, field, flags=(), suffix=""):
    keys = [key for section in config.values() for key in section]
    return pytest.param(command, config, list(flags), field,
                        id="-".join([command, *keys]) + "".join(flags) + suffix)


TRUE_PARAMS = {"beta0": 45.0, "beta1": -3.6, "beta2": 1.2, "beta3": 7.5,
               "sigma": 4.5}

# (subcommand, config file, text the error must contain, extra flags)
BAD_VALUES = [
    _bad("simulate", {"simulation": {"delta": 1.7}}, "discount factor"),
    _bad("equilibrium", {"equilibrium": {"tol": 0.0}}, "tol"),
    _bad("equilibrium", {"equilibrium": {"belief_axis": [0.0, 0.5, 1.5]}},
         "belief"),
    _bad("simulate", {"simulation": {"high_cost_prob": [0.5]}}, "high_cost_prob"),
    _bad("simulate", {"simulation": {"rival_forecast": "bogus"}}, "bogus"),
    _bad("simulate", {"simulation": {"rival_forecast": "midpoint"}}, "midpoint",
         suffix="=midpoint"),
    _bad("simulate", {"simulation": {"predictive_samples": 1}},
         "predictive_samples"),
    _bad("simulate", {"simulation": {"prior_a": 1.0}}, "prior_a"),
    _bad("simulate", {"simulation": {"holding": -1}}, "holding"),
    _bad("simulate", {"simulation": {"salvage_mode": "never"}}, "salvage mode"),
    _bad("simulate", {"simulation": {"prior_sd": [1, 2, 3]}}, "prior_sd"),
    _bad("simulate", {"simulation": {"prior_sd": [10, -2, 2, 4]}}, "prior_sd",
         suffix="=negative"),
    _bad("simulate", {"simulation": {"prior_sd": [10, 2, 0, 4]}}, "prior_sd",
         suffix="=zero"),
    _bad("simulate", {"simulation": {"bootstrap_resamples": 0}},
         "bootstrap_resamples"),
    _bad("simulate", {}, "kappa", flags=("--kappa", "-1")),
    _bad("simulate", {"simulation": {"bootstrap_level": 7}}, "bootstrap_level"),
    _bad("simulate", {"simulation": {"type_likelihood_temperature": 0}},
         "type_likelihood_temperature"),
    _bad("simulate", {"simulation": {"replications": 2.7}},
         "simulation.replications"),
    _bad("simulate", {"simulation": {"horizon": True}}, "simulation.horizon"),
    _bad("simulate", {"simulation": {"prior_mean": "1234"}},
         "simulation.prior_mean"),
    _bad("simulate", {"simulation": {"true_params": dict(TRUE_PARAMS, gamma=1.0)}},
         "simulation.true_params.gamma"),
    _bad("simulate", {"simulation": {"policies": []}}, "simulation.policies"),
    _bad("simulate", {}, "simulation.policies",
         flags=("--policy", "classical-static-prior",
                "--policy", "classical-static-prior")),
    # the contraction certificate needs no trials, so the key is unknown
    _bad("equilibrium", {"equilibrium": {"contraction_trials": 100}},
         "equilibrium.contraction_trials"),
    _bad("equilibrium", {"equilibrium": {"contraction_seed": 7}},
         "equilibrium.contraction_seed"),
    _bad("equilibrium", {"equilibrium": {"quad_points": 0}}, "quad_points"),
    _bad("equilibrium", {"equilibrium": {"sweep_cap": 0}}, "sweep_cap"),
    # the solve reads kappa from the simulation section, which checks it
    _bad("equilibrium", {"simulation": {"kappa": -1.0}}, "kappa"),
    _bad("equilibrium", {"equilibrium": {"kappa": 0.6}}, "equilibrium.kappa",
         suffix="=unknown"),
    _bad("equilibrium", {"equilibrium": {"refresh_trajectories": -3}},
         "refresh_trajectories"),
    _bad("equilibrium", {"equilibrium": {"refresh_trajectories": 2,
                                         "refresh_horizon": -4}},
         "refresh_horizon"),
    _bad("simulate", {"simulation": {"quantity_grid": [-5, 10]}},
         "quantity_grid"),
]


@pytest.mark.parametrize("command, config, flags, field", BAD_VALUES)
def test_config_error_bad_value(outdir, tmp_path, capsys, command, config,
                                flags, field):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    assert run_cli([command, "--config", str(cfg), "--out", outdir, *flags,
                    "--seed", "11"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err, err
    assert not os.path.exists(outdir)


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_config_error_nonpositive_threads(outdir, threads, capsys):
    assert run_cli(["simulate", "--out", outdir, "--replications", "1",
                    "--horizon", "2", "--threads", threads]) == 2
    assert "--threads must be >= 1" in capsys.readouterr().err
    assert not os.path.exists(outdir)


def test_io_error_unwritable_out(tmp_path):
    target = tmp_path / "blocked"
    target.write_text("a regular file where the parent dir should go")
    out = str(target / "results")
    assert run_cli(["simulate", "--out", out, *FAST_ARGS]) == 4


def test_report_missing_results_dir(tmp_path):
    assert run_cli(["report", str(tmp_path / "nope")]) == 4


@pytest.mark.parametrize("corrupt", ["summary.json", "bootstrap.json"])
def test_report_corrupt_results_file(tmp_path, capsys, corrupt):
    (tmp_path / "summary.json").write_text(json.dumps({"policies": {}}))
    (tmp_path / corrupt).write_text("{not json")
    assert run_cli(["report", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and corrupt in err, err


@pytest.mark.parametrize("corrupt, content", [
    ("summary.json", {"policies": {"x": {}}}),
    ("summary.json", {"policies": {}, "relative_improvement": {"x": {}}}),
    ("bootstrap.json", {"x": {}}),
    ("bootstrap.json", {"x": {"mean_diff_profit": 1.0, "profit_ci": [],
                              "mean_diff_mse": 0.5, "mse_ci": [0.0, 1.0]}}),
])
def test_report_entry_without_its_fields(tmp_path, capsys, corrupt, content):
    (tmp_path / "summary.json").write_text(json.dumps({"policies": {}}))
    (tmp_path / corrupt).write_text(json.dumps(content))
    assert run_cli(["report", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and corrupt in err, err
    assert not (tmp_path / "report.md").exists()


@pytest.mark.parametrize("summary", [{}, [], {"policies": [1]}])
def test_report_summary_without_policies(tmp_path, capsys, summary):
    (tmp_path / "summary.json").write_text(json.dumps(summary))
    assert run_cli(["report", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o error:") and "summary.json" in err, err


def test_non_integer_env_seed_is_a_config_error(outdir, tmp_path, monkeypatch,
                                                capsys):
    monkeypatch.setenv("CRGAME_SEED", "abc")
    for command in ("simulate", "equilibrium"):
        assert run_cli([command, "--out", outdir]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "CRGAME_SEED" in err, err
        assert not os.path.exists(outdir)
    # --seed overrides the variable, and report does not read it
    assert run_cli(["simulate", "--out", outdir, "--replications", "1",
                    "--horizon", "2", "--seed", "3"]) == 0
    (tmp_path / "res").mkdir()
    (tmp_path / "res" / "summary.json").write_text(json.dumps({"policies": {}}))
    assert run_cli(["report", str(tmp_path / "res")]) == 0


def test_non_integer_source_date_epoch_is_a_config_error(tmp_path):
    # a fresh interpreter: the variable is read, and the manifest's
    # timestamp formatted, before any replication runs; an integer past the
    # platform's time_t is as much a config error as a non-integer
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    for epoch in ("abc", "99999999999999999999"):
        env = dict(os.environ, PYTHONPATH=src, SOURCE_DATE_EPOCH=epoch)
        out = tmp_path / "o"
        proc = subprocess.run(
            [sys.executable, "-m", "crgame", "simulate", "--replications", "1",
             "--horizon", "1", "--out", str(out)], env=env,
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2, (epoch, proc.stderr)
        assert proc.stderr.startswith("config error:"), proc.stderr
        assert "SOURCE_DATE_EPOCH" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()


# ------------------------------------------------------------------- report

def test_report_renders_tables(outdir, capsys):
    assert run_cli(["simulate", "--out", outdir, *FAST_ARGS]) == 0
    assert run_cli(["report", outdir]) == 0
    text = capsys.readouterr().out
    assert "## Main results" in text
    assert "classical-static-prior" in text
    assert "30.8250" in text
    assert "## Bootstrap comparisons" in text
    assert os.path.isfile(os.path.join(outdir, "report.md"))


def test_report_static_baseline_at_the_true_coefficients(outdir, tmp_path,
                                                        capsys):
    # a prior centred on the truth leaves the static policy, which never
    # updates, at MSE 0: its MSE reduction is undefined, not a crash
    cfg = tmp_path / "truth.json"
    cfg.write_text(json.dumps({"simulation": {
        "prior_mean": [45.0, -3.6, 1.2, 7.5]}}))
    assert run_cli(["simulate", "--config", str(cfg), "--out", outdir,
                    "--replications", "2", "--horizon", "5", "--seed", "11"]) == 0
    with open(os.path.join(outdir, "summary.json")) as fh:
        summary = json.load(fh)
    assert summary["policies"]["classical-static-prior"]["mean_final_mse"] == 0.0
    relative = summary["relative_improvement"]["classical-static-prior"]
    assert relative["mse_reduction_pct"] is None
    assert relative["profit_gain_pct"] is not None
    capsys.readouterr()
    assert run_cli(["report", outdir]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("| classical-static-prior |")
               and line.endswith("| n/a |") for line in lines)


# -------------------------------------------------------------- equilibrium

def test_equilibrium_outputs(tmp_path):
    out = str(tmp_path / "eq")
    code = run_cli(["equilibrium", "--out", out, "--seed", "2"])
    assert code in (0, 3)
    for name in ("policy_firm1.csv", "policy_firm2.csv", "values.csv",
                 "diagnostics.json", "contraction.json"):
        assert os.path.isfile(os.path.join(out, name))
    with open(os.path.join(out, "contraction.json")) as fh:
        report = json.load(fh)
    assert report["passed"]
    with open(os.path.join(out, "diagnostics.json")) as fh:
        diag = json.load(fh)
    assert (code == 0) == diag["converged"]


def test_equilibrium_nonconvergence_exit_code(tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise NonConvergenceError("policy iteration did not reach tol")

    monkeypatch.setattr(cli, "equilibrium_iteration", fail)
    out = str(tmp_path / "eq")
    assert run_cli(["equilibrium", "--out", out]) == cli.EXIT_NONCONVERGED
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "did not converge" in err
    assert not os.path.exists(out)


EQUILIBRIUM_FILES = ["contraction.json", "diagnostics.json", "policy_firm1.csv",
                     "policy_firm2.csv", "values.csv"]


def test_equilibrium_replaces_its_out_dir_whole(tmp_path, monkeypatch):
    out = tmp_path / "eq"
    out.mkdir()
    (out / "old.csv").write_text("stale\n")
    write_json = cli.write_json

    def failing_write_json(path, obj):
        if os.path.basename(path) == "contraction.json":
            raise OSError("disk full")
        write_json(path, obj)

    # a write that fails leaves the old tree as it was and no staging dir
    monkeypatch.setattr(cli, "write_json", failing_write_json)
    assert run_cli(["equilibrium", "--out", str(out)]) == cli.EXIT_IO
    assert sorted(os.listdir(tmp_path)) == ["eq"]
    assert sorted(os.listdir(out)) == ["old.csv"]
    # a run that succeeds replaces it, so the stale file is gone
    monkeypatch.setattr(cli, "write_json", write_json)
    assert run_cli(["equilibrium", "--out", str(out)]) == 0
    assert sorted(os.listdir(tmp_path)) == ["eq"]
    assert sorted(os.listdir(out)) == EQUILIBRIUM_FILES


# ------------------------------------------------------------ reproducibility

def test_same_seed_same_bytes(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert run_cli(["simulate", "--out", out1, *FAST_ARGS]) == 0
    assert run_cli(["simulate", "--out", out2, *FAST_ARGS]) == 0
    for root, _, files in os.walk(out1):
        for f in files:
            p1 = os.path.join(root, f)
            p2 = p1.replace(out1, out2, 1)
            with open(p1, "rb") as a, open(p2, "rb") as b:
                assert a.read() == b.read(), p1


def test_config_hash_stable_under_key_order():
    h1 = cli.config_hash({"b": 1, "a": [1, 2]})
    h2 = cli.config_hash({"a": [1, 2], "b": 1})
    assert h1 == h2 and len(h1) == 64


def test_default_config_hash_is_pinned():
    # the manifest records this hash: a change to a default or to the config
    # schema must show up here as a deliberate edit
    assert cli.config_hash(cli.load_config(None, {})) == (
        "f1f926df63f186d808e3388fd13a4a29c067fffbb58f2393ffe062a53afdb081")


def test_default_config_builds_the_dataclass_defaults():
    cfg = cli.load_config(None, {})
    assert cli.build_sim_config(cfg) == SimConfig()
    eq_config, _, sim = cli.build_eq_inputs(cfg)
    assert eq_config == EquilibriumConfig(
        actions=ActionGrid(sim.price_grid, sim.quantity_grid))


def _traced_equilibrium(tmp_path, monkeypatch, config=None):
    """Run ``crgame equilibrium --seed 3``; return the iteration's arguments
    and result, the last build's arguments and result, and the output dir."""
    seen = {}
    iterate, build = equilibrium.equilibrium_iteration, equilibrium.build_dynamics

    def iteration(*args, **kwargs):
        seen["args"] = args
        seen["result"] = iterate(*args, **kwargs)
        return seen["result"]

    def build_dynamics(*args):
        seen["build"] = args, build(*args)
        return seen["build"][1]

    monkeypatch.setattr(cli, "equilibrium_iteration", iteration)
    monkeypatch.setattr(equilibrium, "build_dynamics", build_dynamics)
    out = tmp_path / "eq"
    argv = ["equilibrium", "--out", str(out), "--seed", "3"]
    if config is not None:
        path = tmp_path / "eq.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    assert run_cli(argv) == 0
    return seen, out


def _read_rows(path):
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split(",") for line in fh][1:]


def test_equilibrium_outputs_score_each_firm_against_its_rival(tmp_path,
                                                                monkeypatch):
    seen, out = _traced_equilibrium(tmp_path, monkeypatch)
    config = seen["args"][0]
    (pol1, pol2), _, model, _ = seen["result"]
    grid = equilibrium.build_belief_grid(config)
    low, high = model.rival_types
    # firm 1's values are its low-cost best response to firm 2's policy pair
    # and firm 2's its high-cost one to firm 1's, bit for bit
    dyn1 = equilibrium.build_dynamics(grid, config, model, (low,), pol2)[0]
    dyn2 = equilibrium.build_dynamics(grid, config, model, (high,), pol1)[0]
    # the certificate is of firm 1's dynamics against firm 2's policies,
    # under the solved model
    with open(out / "contraction.json", encoding="utf-8") as fh:
        assert json.load(fh) == equilibrium.contraction_check(dyn1, config)
    want1, _, _ = equilibrium.value_iterate(dyn1, config)
    want2, _, _ = equilibrium.value_iterate(dyn2, config)
    rows = _read_rows(out / "values.csv")
    assert [float(r[3]) for r in rows] == want1.tolist()
    assert [float(r[4]) for r in rows] == want2.tolist()


def test_unconverged_solve_certifies_the_operator_its_values_solve(tmp_path):
    # stopped by the sweep cap after one round, firm 1's values are its best
    # response to firm 2's starting (midpoint) policies, not to the ones
    # firm 2 answered with in that round; the certificate is of that operator
    path = tmp_path / "eq.json"
    path.write_text(json.dumps({"equilibrium": {"sweep_cap": 1}}))
    out = tmp_path / "eq"
    assert run_cli(["equilibrium", "--out", str(out), "--config", str(path),
                    "--seed", "3"]) == cli.EXIT_NONCONVERGED
    config, model, _ = cli.build_eq_inputs(cli.load_config(str(path), {}))
    grid = equilibrium.build_belief_grid(config)
    mid = np.full(grid.n_nodes, config.actions.index(config.actions.midpoint))
    dyn1 = equilibrium.build_dynamics(grid, config, model,
                                      model.rival_types[:1], (mid, mid))[0]
    want, _, _ = equilibrium.value_iterate(dyn1, config)
    assert [float(r[3]) for r in _read_rows(out / "values.csv")] == want.tolist()
    with open(out / "contraction.json", encoding="utf-8") as fh:
        assert json.load(fh) == equilibrium.contraction_check(dyn1, config)


def test_equilibrium_solves_at_the_simulation_kappa(tmp_path, monkeypatch):
    """The study and the solve share one kappa: a config that sets it in the
    simulation section writes the values of a direct solve at that kappa."""
    _, out = _traced_equilibrium(tmp_path, monkeypatch,
                                 {"simulation": {"kappa": 0.0}})
    sim = SimConfig()
    low, high = sim.firm_type(sim.cost_low), sim.firm_type(sim.cost_high)
    config = EquilibriumConfig(
        actions=ActionGrid(sim.price_grid, sim.quantity_grid), kappa=0.0)
    model = equilibrium.EquilibriumModel(
        rival_types=(low, high),
        hyper=dataclasses.replace(sim.prior_hyper(), fixed_sd=None))
    _, values, _, diag = equilibrium.equilibrium_iteration(
        config, model, rng=rngmod.stream(3, "equilibrium"))
    assert diag.converged
    rows = _read_rows(out / "values.csv")
    for f, k in enumerate(FIRM_TYPES):
        assert [float(r[3 + f]) for r in rows] == values[f][k].tolist()


def test_equilibrium_refresh_writes_best_responses_under_refreshed_model(
        tmp_path, monkeypatch):
    seen, out = _traced_equilibrium(
        tmp_path, monkeypatch, {"equilibrium": {"refresh_trajectories": 5}})
    config, prior = seen["args"]
    policies, _, model, diag = seen["result"]
    assert diag.converged and len(diag.policy_change_counts) > 2
    assert not np.array_equal(model.hyper.m, prior.hyper.m)
    # the last round's build is under the refreshed model
    assert seen["build"][0][2] is model
    grid = equilibrium.build_belief_grid(config)
    values = np.array([[float(v) for v in row[3:]]
                       for row in _read_rows(out / "values.csv")])
    for f, name in enumerate(("firm1", "firm2")):
        written = [(float(r[4]), float(r[5]))
                   for r in _read_rows(out / f"policy_{name}.csv")]
        dyns = equilibrium.build_dynamics(grid, config, model,
                                          model.rival_types, policies[1 - f])
        for k, dyn in enumerate(dyns):
            want, greedy, _ = equilibrium.value_iterate(dyn, config)
            assert written[k * grid.n_nodes:(k + 1) * grid.n_nodes] == [
                (action.price, action.quantity)
                for action in map(config.actions.action, greedy)]
            if k == FIRM_TYPES[f]:  # the type firm f plays
                assert values[:, f].tolist() == want.tolist()


def _record_solver_calls(monkeypatch):
    """Wrap ``equilibrium.build_dynamics`` and ``value_iterate``; return the
    list their calls append ``(name, model, rival pair's bytes)`` to. A solve
    is keyed by the build that returned the dynamics it was given."""
    calls = []
    built = {}  # id of a built DiscretizedDynamics -> (its build's call, it)
    build, solve = equilibrium.build_dynamics, equilibrium.value_iterate

    def recorded_build(grid, config, model, own_types, rival_policies):
        dyns = build(grid, config, model, own_types, rival_policies)
        call = ("build_dynamics", model,
                tuple(pol.tobytes() for pol in rival_policies))
        calls.append(call)
        # holding each dyn keeps its id from being reused
        built.update((id(dyn), (call, dyn)) for dyn in dyns)
        return dyns

    def recorded_solve(dyn, config, initial=None):
        (_, model, key), _ = built[id(dyn)]
        calls.append(("value_iterate", model, key))
        return solve(dyn, config, initial)

    monkeypatch.setattr(equilibrium, "build_dynamics", recorded_build)
    monkeypatch.setattr(equilibrium, "value_iterate", recorded_solve)
    return calls


def test_converged_solve_builds_and_solves_each_distinct_rival_pair_once(
        tmp_path, monkeypatch):
    calls = _record_solver_calls(monkeypatch)

    def forbidden(*args, **kwargs):
        raise AssertionError("the CLI solves no best response of its own")

    monkeypatch.setattr(cli, "value_iterate", forbidden)
    out = tmp_path / "eq"
    assert run_cli(["equilibrium", "--out", str(out)]) == 0
    with open(out / "diagnostics.json") as fh:
        diag = json.load(fh)
    rounds = len(diag["policy_change_counts"])
    builds = [key for name, _, key in calls if name == "build_dynamics"]
    solves = [key for name, _, key in calls if name == "value_iterate"]
    # one build per distinct rival pair, serving both own types and the
    # contraction certificate; a pair faced again is not solved again
    assert len(set(builds)) == len(builds) < 2 * rounds
    assert solves == [key for key in builds for _ in (0, 1)]
    assert (len(builds), len(solves)) == (2, 4)
    # the diagnostics count each round's builds and its solves' products
    assert sum(diag["dynamics_builds"]) == len(builds)
    assert len(diag["dynamics_builds"]) == len(diag["matvec_products"]) == rounds
    assert [products > 0 for products in diag["matvec_products"]] == [
        builds > 0 for builds in diag["dynamics_builds"]]


def test_refreshed_solve_builds_each_round_under_its_own_model(tmp_path,
                                                               monkeypatch):
    calls = _record_solver_calls(monkeypatch)
    refreshes = []
    refresh = equilibrium._refresh_hyper

    def recorded_refresh(grid, config, model, policies, rng):
        new_model = refresh(grid, config, model, policies, rng)
        refreshes.append(([[pol.tobytes() for pol in pols]
                           for pols in policies], new_model))
        return new_model

    monkeypatch.setattr(equilibrium, "_refresh_hyper", recorded_refresh)
    seen, _ = _traced_equilibrium(
        tmp_path, monkeypatch, {"equilibrium": {"refresh_trajectories": 5}})
    config, prior = seen["args"]
    policies, _, model, diag = seen["result"]
    rounds = len(diag.policy_change_counts)
    assert diag.converged and len(refreshes) == rounds - 1 >= 2
    # the policies at the start of each round, and the model it solves under
    mid = config.actions.index(config.actions.midpoint)
    start = np.full(len(policies[0][0]), mid, dtype=np.int64).tobytes()
    states = ([[[start] * 2] * 2] + [state for state, _ in refreshes]
              + [[[pol.tobytes() for pol in pols] for pols in policies]])
    models = [prior] + [m for _, m in refreshes]
    assert models[-1] is model
    # round r: firm 1 faces firm 2's policies from before it, firm 2 faces
    # firm 1's new ones; no result carries over from an earlier model
    want = []
    for r, round_model in enumerate(models):
        faced = [tuple(states[r][1]), tuple(states[r + 1][0])]
        want += [(id(round_model), key) for key in dict.fromkeys(faced)]
    # ``calls`` holds every model it names, so their ids stay distinct
    got = [(id(m), key) for name, m, key in calls if name == "build_dynamics"]
    assert got == want
    solves = [(id(m), key) for name, m, key in calls if name == "value_iterate"]
    assert solves == [pair for pair in want for _ in (0, 1)]


def test_python_m_crgame_help():
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "crgame", "--help"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: crgame")
    for command in ("simulate", "equilibrium", "report"):
        assert command in proc.stdout


def test_main_freezes_what_is_alive_for_the_exit_collection(tmp_path):
    # the interpreter's exit collection skips frozen objects, so main
    # freezes after its command returns, whatever the exit code
    gc.unfreeze()
    try:
        assert cli.main(["report", str(tmp_path)]) == cli.EXIT_IO
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()


def test_equilibrium_never_imports_scipy_special(tmp_path):
    # importing scipy.special takes ~0.3 s and slows interpreter shutdown;
    # only the simulation's samplers need it. The policy evaluation's linear
    # solve needs no scipy.sparse, a solve without the hyperparameter
    # refresh draws nothing, so it needs no numpy.random, and only the
    # study's replications run on a thread pool. hashlib maps OpenSSL's
    # libcrypto (about 3.5 MB of RSS), and only the simulate manifest hashes
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys\n"
            "from crgame import cli\n"
            f"assert cli.main(['equilibrium', '--out', {str(tmp_path / 'eq')!r}]) == 0\n"
            "for name in ('scipy.special', 'scipy.sparse', 'numpy.random',\n"
            "             'concurrent.futures', 'logging', 'hashlib',\n"
            "             '_hashlib'):\n"
            "    assert name not in sys.modules, name\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _tree_sha256(root) -> str:
    """One sha256 over an output tree: each file's relative path and bytes."""
    digest = hashlib.sha256()
    paths = sorted(os.path.relpath(os.path.join(d, f), root)
                   for d, _, files in os.walk(root) for f in files)
    for rel in paths:
        with open(os.path.join(root, rel), "rb") as fh:
            digest.update(f"{rel}\0{hashlib.sha256(fh.read()).hexdigest()}\n"
                          .encode())
    return digest.hexdigest()


# sha256 of `crgame simulate --replications 2 --horizon 10 --seed 13` with
# SOURCE_DATE_EPOCH=0, per (sigma_mode, learning_mode): a change that moves
# any byte of the study under either noise convention shows up here.
# Recorded with CPython 3.11, numpy 2.4 and scipy 1.17 on x86_64; another
# numpy or platform may round differently and need them recorded again.
# Three were recorded again when the truncated-normal inverse moved to log
# space: the uniforms and every market byte stayed, and the posterior MSE
# and beliefs moved in the last digits (at most 1e-12 relative).
PINNED_TREES = {
    ("fixed", "gibbs-every-period"):
        "e459184d60c910a0ca15440c8b8c013c3fe0ebdb4a09fc6fbc613e0f4f434dbc",
    ("fixed", "single-imputation"):
        "9d0a2e6b017afd979c3ac2dfce542ff207dfa8fd9beea10343c1dfccec93e006",
    ("learn", "gibbs-every-period"):
        "20004161acb3037042c2d4288a8b59742b22045af97a0aa923a80c730bc64280",
    ("learn", "single-imputation"):
        "9e56ba8817157bc62201522c7ebbd1a55d7e8601ce6fade0e41493389ecd5c77",
}


@pytest.mark.parametrize("sigma_mode, learning_mode", sorted(PINNED_TREES))
def test_simulate_tree_is_pinned_per_noise_and_learning_mode(
        tmp_path, sigma_mode, learning_mode):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"simulation": {
        "sigma_mode": sigma_mode, "learning_mode": learning_mode}}))
    out = tmp_path / "out"
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src, SOURCE_DATE_EPOCH="0")
    proc = subprocess.run(
        [sys.executable, "-m", "crgame", "simulate", "--config", str(cfg),
         "--out", str(out), "--replications", "2", "--horizon", "10",
         "--seed", "13"], env=env, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    # the censored update paths run: a learning policy stocks out
    rows = _read_rows(out / "curves" / "stockout_rate.csv")
    assert any(float(rate) > 0 for policy, _, rate in rows
               if policy != "classical-static-prior")
    assert _tree_sha256(out) == PINNED_TREES[sigma_mode, learning_mode]


# sha256 of `crgame equilibrium --seed 3` with SOURCE_DATE_EPOCH=0 on the
# default grid, on 8 x 8 x 3 = 192 belief nodes, and with the model refrozen
# from 5 trajectories each round: a change that moves any byte the solver
# writes shows up here. Recorded as PINNED_TREES above.
PINNED_EQUILIBRIUM_TREES = {
    "default": (
        {},
        "1f86675a390efe20274362f596f45a275d3588bdc7860ceda108633e5a575da8"),
    "fine-axes": (
        {"inventory_axis": [5.0 * i for i in range(8)],
         "intercept_axis": [30.0 + 3.75 * i for i in range(8)],
         "belief_axis": [0.0, 0.5, 1.0]},
        "77330a7715fcce84e263b538ccf3b88918246b02dfc553cfa8cebcdb3eba84f3"),
    "refresh": (
        {"refresh_trajectories": 5},
        "ca8a493b0b7739acdf7673cba4672181b58414753422a34489c841ba2c9af249"),
}


@pytest.mark.parametrize("name", sorted(PINNED_EQUILIBRIUM_TREES))
def test_equilibrium_tree_is_pinned(tmp_path, name):
    settings, digest = PINNED_EQUILIBRIUM_TREES[name]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"equilibrium": settings}))
    out = tmp_path / "out"
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src, SOURCE_DATE_EPOCH="0")
    proc = subprocess.run(
        [sys.executable, "-m", "crgame", "equilibrium", "--config", str(cfg),
         "--out", str(out), "--seed", "3"], env=env, capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert _tree_sha256(out) == digest
