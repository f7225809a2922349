"""Experiment harness: determinism, metrics, bootstrap, dominance."""

import numpy as np
import pytest

from crgame import learning, policy, rng as rngmod, simharness
from crgame.market import DemandParams
from crgame.simharness import (SimConfig, bootstrap_diff, dominance_curve,
                               relative_improvement, run_experiment,
                               run_replication, summarize_relative)

SMALL = dict(replications=4, horizon=6, predictive_samples=150,
             bootstrap_resamples=500)


def small_config(**kw):
    base = dict(SMALL)
    base.update(kw)
    return SimConfig(**base)


# ------------------------------------------------------------- determinism

def test_replication_is_deterministic():
    cfg = small_config()
    a = run_replication(cfg, "proposed-credible-risk", 2)
    b = run_replication(cfg, "proposed-credible-risk", 2)
    np.testing.assert_array_equal(a.profits, b.profits)
    np.testing.assert_array_equal(a.mse, b.mse)
    assert a.costs == b.costs


def test_replications_differ_across_indices_and_policies():
    cfg = small_config()
    a = run_replication(cfg, "proposed-credible-risk", 0)
    b = run_replication(cfg, "proposed-credible-risk", 1)
    c = run_replication(cfg, "bayesian-risk-neutral", 0)
    assert not np.array_equal(a.profits, b.profits)
    assert not np.array_equal(a.profits, c.profits)


def test_thread_count_does_not_change_results():
    cfg = small_config()
    s1 = run_experiment(cfg, threads=1)
    s8 = run_experiment(cfg, threads=8)
    for policy in s1.records:
        for r1, r8 in zip(s1.records[policy], s8.records[policy]):
            np.testing.assert_array_equal(r1.profits, r8.profits)
            np.testing.assert_array_equal(r1.mse, r8.mse)


@pytest.mark.parametrize("threads", [0, -3])
def test_run_experiment_rejects_nonpositive_threads(threads):
    cfg = SimConfig(horizon=1, replications=1)
    with pytest.raises(ValueError, match="threads must be >= 1"):
        run_experiment(cfg, policies=("classical-static-prior",),
                       threads=threads)


def test_seed_changes_results():
    a = run_replication(small_config(), "bayesian-risk-neutral", 0)
    b = run_replication(small_config(master_seed=99), "bayesian-risk-neutral", 0)
    assert not np.array_equal(a.profits, b.profits)


@pytest.mark.parametrize("sigma_mode", ["fixed", "learn"])
def test_one_gibbs_refresh_per_censored_period(sigma_mode, monkeypatch):
    """Firm 1's update is skipped when firm 2's record triggers a refresh,
    so a period runs one refresh if either record is censored or floored."""
    calls = []
    refresh = learning.gibbs_refresh

    def counted(*args, **kwargs):
        calls.append(len(args[1]))  # history length
        return refresh(*args, **kwargs)

    monkeypatch.setattr(learning, "gibbs_refresh", counted)
    cfg = small_config(horizon=10, sigma_mode=sigma_mode)
    both = 0
    for policy in ("proposed-credible-risk", "bayesian-risk-neutral"):
        for rep in range(3):
            calls.clear()
            rec = run_replication(cfg, policy, rep)
            hidden = rec.stockouts | (rec.sales <= 0.0)  # censored or floored
            want = []
            for t, (firm1, firm2) in enumerate(hidden, start=1):
                if firm2:  # one refresh, over both of the period's records
                    want.append(2 * t)
                elif firm1:
                    want.append(2 * t - 1)
            assert calls == want
            both += int(hidden.all(axis=1).sum())
    assert both > 0  # some period had two hidden records and skipped one


def test_fixed_sigma_filter_uses_the_prior_implied_sd(monkeypatch):
    """A fixed-sigma firm filters with the sd it scores with, not the truth."""
    seen = []
    update = simharness.online_update

    def recorded(*args, **kwargs):
        seen.append(args[0].fixed_sd)  # the posterior it updates
        seen.append(kwargs["prior"].fixed_sd)
        return update(*args, **kwargs)

    monkeypatch.setattr(simharness, "online_update", recorded)
    cfg = small_config(horizon=3, true_params=DemandParams(45.0, -3.6, 1.2,
                                                           7.5, 6.0))
    run_replication(cfg, "bayesian-risk-neutral", 0)
    assert seen and set(seen) == {4.5}  # sqrt(prior_b / (prior_a - 1))


def test_static_replication_builds_only_costs_and_market_streams(monkeypatch):
    """The static policy reads no decide or impute stream, so it builds
    none: one costs stream and one market stream a period."""
    purposes = []
    stream = rngmod.stream

    def recorded(*key):
        purposes.append(key[-1])
        return stream(*key)

    monkeypatch.setattr(rngmod, "stream", recorded)
    run_replication(small_config(horizon=5), "classical-static-prior", 1)
    assert purposes == ["costs"] + ["market"] * 5


def test_static_replication_scores_the_grid_once_per_firm(monkeypatch):
    """The static policy's scores depend only on the prior and the firm's
    type, so a replication computes them once per firm, not once a period."""
    calls = []
    scores = policy._closed_form_grid_scores

    def counted(*args, **kwargs):
        calls.append(args)
        return scores(*args, **kwargs)

    monkeypatch.setattr(policy, "_closed_form_grid_scores", counted)
    monkeypatch.setattr(simharness, "_closed_form_grid_scores", counted)
    run_replication(small_config(horizon=5), "classical-static-prior", 1)
    assert len(calls) == 2


def test_rival_action_model_rows_are_per_firm_softmax():
    """Row i of the (2, 2) likelihood is firm i's softmax over its rival's
    grid scores, scored from one scalar-state call per firm."""
    cfg = small_config()
    pcfg = cfg.policy_config()
    grid = pcfg.actions
    prior = cfg.prior_hyper()
    rng = rngmod.stream(83, "rival-model")
    for case in range(12):
        posterior = learning.PosteriorHyper(
            prior.m + rng.normal(0.0, [3.0, 0.5, 0.5, 1.0]), prior.S,
            prior.a, prior.b, prior.fixed_sd)
        inventory = (0.0, 0.0) if case == 0 else tuple(rng.uniform(0, 40, 2))
        actions = tuple(grid.action(k) for k in rng.integers(
            0, len(grid.prices) * len(grid.quantities), 2))
        temperature = float(rng.choice([0.5, 1.0, 4.0]))
        got = simharness._rival_action_model(pcfg, temperature, posterior,
                                             inventory, actions)
        assert got.shape == (2, 2)
        for i in (0, 1):
            scores = policy._closed_form_grid_scores(
                posterior.m, posterior.noise_sd(), pcfg, actions[i].price,
                pcfg.rival_types, inventory=inventory[1 - i])
            logits = scores / temperature
            logits -= logits.max(axis=1, keepdims=True)
            weights = np.exp(logits)
            k = grid.index(actions[1 - i])
            np.testing.assert_array_equal(
                got[i], weights[:, k] / weights.sum(axis=1))


def test_learning_period_scores_both_rivals_in_one_call(monkeypatch):
    calls = []
    model = simharness._rival_action_model

    def counted(*args, **kwargs):
        calls.append(args)
        return model(*args, **kwargs)

    monkeypatch.setattr(simharness, "_rival_action_model", counted)
    run_replication(small_config(horizon=5), "bayesian-risk-neutral", 0)
    assert len(calls) == 5


def test_static_replication_calls_select_action_zero_times(monkeypatch):
    """The static policy decides once per replication, not per period."""
    calls = []
    select = simharness.select_action

    def counted(*args, **kwargs):
        calls.append(args)
        return select(*args, **kwargs)

    monkeypatch.setattr(simharness, "select_action", counted)
    run_replication(small_config(horizon=5), "classical-static-prior", 1)
    assert calls == []


@pytest.mark.parametrize("learning_mode",
                         ["gibbs-every-period", "single-imputation"])
def test_impute_streams_are_built_only_for_updates_that_draw(learning_mode,
                                                             monkeypatch):
    """An update draws only for a hidden (censored or floored) record, so a
    study builds one impute stream per such update and none for the
    conjugate path."""
    impute, drawing, conjugate = [], [], []
    stream, update = rngmod.stream, simharness.online_update

    def recorded_stream(*key):
        if key[-1] == "impute":
            impute.append(key)
        return stream(*key)

    def recorded_update(posterior, record, rng, **kwargs):
        (drawing if record.hidden else conjugate).append(rng)
        return update(posterior, record, rng, **kwargs)

    monkeypatch.setattr(rngmod, "stream", recorded_stream)
    monkeypatch.setattr(simharness, "online_update", recorded_update)
    run_experiment(small_config(replications=2, horizon=10, master_seed=13,
                                learning_mode=learning_mode))
    assert drawing and conjugate  # both paths ran
    assert len(impute) == len(drawing)
    assert all(rng is None for rng in conjugate)


# ------------------------------------------------------------------ metrics

def test_static_policy_mse_constant_at_prior_level():
    cfg = small_config()
    rec = run_replication(cfg, "classical-static-prior", 1)
    np.testing.assert_allclose(rec.mse, 30.8250, atol=1e-9)
    assert rec.final_mse == pytest.approx(30.8250, abs=1e-9)
    # constant action within the replication
    assert np.unique(rec.prices[:, 0]).size == 1
    assert np.unique(rec.quantities[:, 0]).size == 1


def test_discounted_profit_definition():
    cfg = small_config()
    rec = run_replication(cfg, "bayesian-risk-neutral", 0)
    disc = cfg.delta ** np.arange(cfg.horizon)
    want = float((rec.profits.sum(axis=1) * disc).sum())
    assert rec.market_profit == pytest.approx(want, rel=1e-12)
    curve = rec.cumulative_market_profit(cfg.delta)
    assert curve[-1] == pytest.approx(want, rel=1e-12)
    assert np.all(np.isfinite(curve)) and len(curve) == cfg.horizon


def test_experiment_summary_shapes():
    cfg = small_config()
    s = run_experiment(cfg)
    assert set(s.policies) == {"proposed-credible-risk",
                               "bayesian-risk-neutral",
                               "classical-static-prior"}
    for name, pol in s.policies.items():
        assert pol.replications == cfg.replications
        for metric, curve in pol.curves.items():
            assert len(curve) == cfg.horizon, metric
    assert set(s.dominance) == {"bayesian-risk-neutral",
                                "classical-static-prior"}
    for curve in s.dominance.values():
        assert np.all((0.0 <= curve) & (curve <= 1.0))


def test_single_policy_subset():
    s = run_experiment(small_config(), policies=("classical-static-prior",))
    assert list(s.policies) == ["classical-static-prior"]
    assert s.dominance == {}


# ---------------------------------------------------------------- bootstrap

def test_bootstrap_separated_samples_give_positive_interval():
    rng = rngmod.stream(3, "boot")
    a = rng.normal(100.0, 5.0, size=200)
    b = rng.normal(10.0, 5.0, size=200)
    rep = bootstrap_diff(a, b, resamples=4000, level=0.95,
                         rng=rngmod.stream(3, "r"))
    assert rep.profit_ci[0] > 0.0
    assert rep.mean_diff_profit == pytest.approx(90.0, abs=2.0)


def test_bootstrap_identical_distributions_cover_zero():
    rng = rngmod.stream(5, "boot")
    a = rng.normal(0.0, 10.0, size=300)
    b = rng.normal(0.0, 10.0, size=300)
    rep = bootstrap_diff(a, b, resamples=4000, level=0.95,
                         rng=rngmod.stream(5, "r"))
    assert rep.profit_ci[0] < 0.0 < rep.profit_ci[1]


def test_bootstrap_interval_ordering_and_level():
    rng = rngmod.stream(7, "boot")
    a = rng.normal(5.0, 3.0, size=100)
    b = rng.normal(4.0, 3.0, size=100)
    wide = bootstrap_diff(a, b, resamples=4000, level=0.99,
                          rng=rngmod.stream(7, "r"))
    narrow = bootstrap_diff(a, b, resamples=4000, level=0.5,
                            rng=rngmod.stream(7, "r"))
    assert wide.profit_ci[0] <= narrow.profit_ci[0]
    assert narrow.profit_ci[1] <= wide.profit_ci[1]


# ---------------------------------------------------------------- dominance

def test_dominance_curve_strict_inequality_fraction():
    cfg = small_config()
    recs = [run_replication(cfg, "bayesian-risk-neutral", i)
            for i in range(3)]
    ones = dominance_curve(recs, recs, cfg.delta)
    np.testing.assert_array_equal(ones, 0.0)  # never strictly above itself


# ------------------------------------------------------ relative improvement

def test_relative_improvement_arithmetic():
    out = relative_improvement(150.0, 100.0, 8.0, 10.0)
    assert out["profit_gain_pct"] == pytest.approx(50.0)
    assert out["mse_reduction_pct"] == pytest.approx(20.0)


def test_relative_improvement_zero_baseline_flagged():
    out = relative_improvement(150.0, 0.0, 8.0, 10.0)
    assert out["profit_gain_pct"] is None
    # a baseline at the true coefficients has MSE 0
    out = relative_improvement(150.0, 100.0, 8.0, 0.0)
    assert out["mse_reduction_pct"] is None
    assert out["profit_gain_pct"] == pytest.approx(50.0)


def test_summarize_relative_on_small_run():
    s = run_experiment(small_config())
    rel = summarize_relative(s)
    assert set(rel) == {"bayesian-risk-neutral", "classical-static-prior"}
    for block in rel.values():
        assert "profit_gain_pct" in block and "mse_reduction_pct" in block


# ------------------------------------------------------------------- guards

def test_unknown_policy_rejected():
    with pytest.raises(ValueError):
        run_replication(small_config(), "mystery", 0)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(horizon=0)
    with pytest.raises(ValueError):
        SimConfig(salvage_mode="weekly")
