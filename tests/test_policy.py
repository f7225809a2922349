"""Action selection: predictive scoring, closed forms, policy equivalences."""

from dataclasses import replace

import numpy as np
import pytest

from crgame import kernels, rng as rngmod, simharness
from crgame.learning import PosteriorHyper, TypeBelief
from crgame.market import Action, ActionGrid, FirmType
from crgame.policy import (POLICIES, BeliefState, PolicyConfig,
                           _closed_form_grid_scores,
                           expected_profit_closed_form, expected_sales_floored,
                           forecast_rival_action, predictive_draws,
                           select_action, static_prior_scores)
from crgame.simharness import SimConfig

LOW = FirmType(c=6.0, h=0.8, s=1.5)
PRICE_GRID = tuple(float(p) for p in range(8, 17))
QTY_GRID = tuple(float(q) for q in range(20, 70, 5))


def make_config(**kw):
    base = dict(actions=ActionGrid(PRICE_GRID, QTY_GRID), kappa=0.6,
                predictive_samples=400, salvage_mode="per-period",
                rival_forecast="last-action")
    base.update(kw)
    return PolicyConfig(**base)


def make_state(inventory=0.0, last_rival=None):
    hyper = PosteriorHyper(np.array([35.0, -2.0, 0.5, 3.0]),
                           np.diag([100.0, 4.0, 4.0, 16.0]), 3.0, 40.5, 4.5)
    return BeliefState(inventory=inventory, own_type=LOW,
                       demand_posterior=hyper,
                       rival_type_belief=TypeBelief(np.array([0.5, 0.5])),
                       last_rival_action=last_rival)


# -------------------------------------------------------------- closed forms

def test_select_action_scores_are_credible_risk():
    config = make_config(kappa=0.6)
    for policy in ("proposed-credible-risk", "bayesian-risk-neutral"):
        _, (means, sds, scores) = select_action(
            make_state(), config, policy, rngmod.stream(43, "score"))
        assert np.all(sds > 0.0)
        if policy == "proposed-credible-risk":
            np.testing.assert_array_equal(scores, means - 0.6 * sds)
        else:
            np.testing.assert_array_equal(scores, means)


@pytest.mark.parametrize("case", range(10))
def test_expected_sales_closed_form_vs_monte_carlo(case):
    rng = rngmod.stream(67, "sales", case)
    mu = rng.uniform(-10.0, 40.0)
    sd = rng.uniform(1.0, 10.0)
    stock = rng.uniform(5.0, 50.0)
    n = 400_000
    d = rng.normal(mu, sd, size=n)
    sim = np.minimum(np.maximum(d, 0.0), stock)
    got = expected_sales_floored(mu, sd, stock)
    se = sim.std(ddof=1) / np.sqrt(n)
    assert abs(got - sim.mean()) < 4 * se


def _capped_sales(mu, sd, cap):
    """E[min(D, cap)] as the closed form computed it when the floored sales
    were two calls of an unfloored function, one at ``cap``, one at 0."""
    from scipy.special import ndtr

    alpha = (cap - mu) / sd
    pdf = np.exp(-0.5 * np.asarray(alpha) ** 2) / np.sqrt(2.0 * np.pi)
    return cap - ((cap - mu) * ndtr(alpha) + sd * pdf)


def test_expected_sales_floored_equals_two_call_composition():
    rng = rngmod.stream(73, "floored")
    n = 10_000
    mu = rng.uniform(-60.0, 120.0, n)
    sd = np.exp(rng.uniform(np.log(1e-3), np.log(50.0), n))
    stock = rng.uniform(0.0, 100.0, n)
    stock[::10] = 0.0
    sd[:5] = 1e-3
    want = _capped_sales(mu, sd, stock) - _capped_sales(mu, sd, 0.0)
    np.testing.assert_array_equal(expected_sales_floored(mu, sd, stock), want)
    # scalar arguments, and one array argument against scalar others
    for i in range(0, n, 97):
        assert expected_sales_floored(mu[i], sd[i], stock[i]) == want[i]
    np.testing.assert_array_equal(
        expected_sales_floored(mu, 4.5, 30.0),
        _capped_sales(mu, 4.5, 30.0) - _capped_sales(mu, 4.5, 0.0))


def test_expected_profit_closed_form_decomposition():
    rng = rngmod.stream(71, "profit")
    mu, sd, q, p = 16.0, 4.5, 20.0, 12.0
    n = 1_000_000
    d = rng.normal(mu, sd, size=n)
    sales = np.minimum(np.maximum(d, 0.0), q)
    leftover = q - sales
    sim = p * sales - LOW.c * q - LOW.h * leftover + LOW.s * leftover
    got = expected_profit_closed_form(mu, sd, q, p, LOW)
    se = sim.std(ddof=1) / np.sqrt(n)
    assert abs(got - sim.mean()) < 4 * se


# ---------------------------------------------------------------- kernels

def _draws(n=300, seed=3):
    rng = rngmod.stream(seed, "draws")
    hyper = make_state().demand_posterior
    return predictive_draws(hyper, n, rng)


def test_grid_moments_match_single_candidate():
    rival = Action(40.0, 12.0)
    draws = _draws(n=make_config().predictive_samples, seed=9)
    coef, sig, z = draws
    for salvage_mode in ("per-period", "terminal"):
        config = make_config(salvage_mode=salvage_mode)
        salvage = LOW.s if salvage_mode == "per-period" else 0.0
        for rival_stockout in (False, True):
            state = make_state(inventory=5.0, last_rival=rival)
            state.last_rival_stockout = rival_stockout
            # select_action draws the same set from the same stream
            _, (means, sds, _) = select_action(
                state, config, "bayesian-risk-neutral",
                rngmod.stream(9, "draws"))
            # recompute every cell by hand from the same draw set
            for ip, p in enumerate(PRICE_GRID):
                x = np.array([1.0, p, rival.price, float(rival_stockout)])
                demand = coef @ x + sig * z
                for iq, q in enumerate(QTY_GRID):
                    stock = state.inventory + q
                    sales = np.minimum(np.maximum(demand, 0.0), stock)
                    leftover = stock - sales
                    profit = (p * sales - LOW.c * q - LOW.h * leftover
                              + salvage * leftover)
                    flat = ip * len(QTY_GRID) + iq  # price-major layout
                    assert means[flat] == pytest.approx(profit.mean(), rel=1e-9)
                    assert sds[flat] == pytest.approx(profit.std(ddof=1), rel=1e-9)


@pytest.mark.parametrize("salvage_on", [True, False])
@pytest.mark.parametrize("rival_stockout", [False, True])
@pytest.mark.parametrize("inventory", [0.0, 12.5])
def test_profit_moments_grid_is_bit_exact(salvage_on, rival_stockout,
                                          inventory):
    coef, sig, z = _draws(n=500, seed=13)
    prices, qtys = np.array(PRICE_GRID), np.array(QTY_GRID)
    # the (P, Q, n) profit tensor in full, then numpy's own moments of it
    base = (coef[:, 0] + coef[:, 2] * 11.0 + coef[:, 3] * float(rival_stockout)
            + sig * z)
    demand = base[None, :] + np.outer(prices, coef[:, 1])
    stock = inventory + qtys
    sales = np.clip(demand[:, None, :], 0.0, stock[None, :, None])
    left = stock[None, :, None] - sales
    net_hold = LOW.h - (LOW.s if salvage_on else 0.0)
    profit = (prices[:, None, None] * sales - LOW.c * qtys[None, :, None]
              - net_hold * left)
    means, sds = kernels.profit_moments_grid(
        coef, sig, z, prices, qtys, inventory, 11.0, rival_stockout, LOW,
        salvage_on)
    np.testing.assert_array_equal(means, profit.mean(axis=2).reshape(-1))
    np.testing.assert_array_equal(sds, profit.std(axis=2, ddof=1).reshape(-1))


def test_closed_form_grid_scores_match_scalar_loop():
    coef_mean = np.array([38.0, -2.7, 0.9, 5.5])
    high = FirmType(c=10.0, h=0.8, s=1.5)
    for salvage_mode in ("per-period", "terminal"):
        config = make_config(salvage_mode=salvage_mode)
        for rival_stockout in (False, True):
            # a leading axis of states: each slice is its own scalar call
            for n_states in (2, 7):
                rng = rngmod.stream(79, "states", n_states)
                rival_prices = rng.choice(PRICE_GRID, n_states)
                inventories = rng.uniform(0.0, 30.0, n_states)
                inventories[0] = 0.0
                batch = _closed_form_grid_scores(
                    coef_mean, 4.5, config, rival_prices, (LOW, high),
                    inventory=inventories, rival_stockout=rival_stockout)
                assert batch.shape == (n_states, 2, len(PRICE_GRID) * len(QTY_GRID))
                for s, (rp, inv) in enumerate(zip(rival_prices, inventories)):
                    np.testing.assert_array_equal(
                        batch[s], _closed_form_grid_scores(
                            coef_mean, 4.5, config, float(rp), (LOW, high),
                            inventory=float(inv),
                            rival_stockout=rival_stockout))
            for inventory in (0.0, 7.25):
                got = _closed_form_grid_scores(
                    coef_mean, 4.5, config, 11.0, (LOW, high),
                    inventory=inventory, rival_stockout=rival_stockout)
                # scalar oracle: one closed-form call per type and grid cell
                want = np.array([
                    [expected_profit_closed_form(
                        coef_mean[0] + coef_mean[1] * p + coef_mean[2] * 11.0
                        + coef_mean[3] * (1.0 if rival_stockout else 0.0),
                        4.5, q, p, ftype, inventory=inventory,
                        salvage_on=salvage_mode == "per-period")
                     for p in PRICE_GRID for q in QTY_GRID]
                    for ftype in (LOW, high)])
                np.testing.assert_array_equal(got, want)


def test_type_weighted_forecast_is_argmax_of_weighted_scores():
    high = FirmType(c=10.0, h=0.8, s=1.5)
    config = make_config(rival_forecast="type-weighted", rival_types=(LOW, high))
    state = make_state()
    for probs in ([0.5, 0.5], [0.9, 0.1], [0.05, 0.95]):
        state.rival_type_belief = TypeBelief(np.array(probs))
        m = state.demand_posterior.m
        total = sum(
            w * np.array([expected_profit_closed_form(
                m[0] + m[1] * p + m[2] * 12.0, 4.5, q, p, ftype)
                for p in PRICE_GRID for q in QTY_GRID])
            for w, ftype in zip(probs, (LOW, high)))
        k = int(np.argmax(total))
        want = Action(quantity=QTY_GRID[k % len(QTY_GRID)],
                      price=PRICE_GRID[k // len(QTY_GRID)])
        assert forecast_rival_action(state, config) == want


def test_study_config_hands_the_type_weighted_rule_both_types():
    sim = SimConfig(rival_forecast="type-weighted")
    config = sim.policy_config()
    assert config.rival_types == (sim.firm_type(sim.cost_low),
                                  sim.firm_type(sim.cost_high))
    # at the prior state the rule picks a different action than the
    # grid midpoint (q 40, p 12) it used to fall back to
    assert forecast_rival_action(make_state(), config) == Action(20.0, 12.0)


def test_type_weighted_rule_without_types_rejected():
    with pytest.raises(ValueError, match="rival types"):
        make_config(rival_forecast="type-weighted")


# ------------------------------------------------------------- select_action

def test_kappa_zero_equals_risk_neutral():
    config = make_config(kappa=0.0)
    for k in range(50):
        state = make_state(inventory=float(k % 7))
        a1, _ = select_action(state, config, "proposed-credible-risk",
                              rngmod.stream(101, "eq", k))
        a2, _ = select_action(state, config, "bayesian-risk-neutral",
                              rngmod.stream(101, "eq", k))
        assert a1 == a2


def test_kappa_lowers_selected_sd():
    # under a common draw set, the chosen action's sd is non-increasing in kappa
    sds = []
    for kappa in (0.0, 0.3, 0.6, 1.2):
        config = make_config(kappa=kappa)
        _, (means, sd_grid, scores) = select_action(
            make_state(), config, "proposed-credible-risk",
            rngmod.stream(55, "draws"))
        np.testing.assert_array_equal(scores, means - kappa * sd_grid)
        sds.append(sd_grid[int(np.argmax(scores))])
    assert all(a >= b - 1e-12 for a, b in zip(sds, sds[1:]))


def test_argmax_tie_break_lexicographic():
    config = make_config()
    means = np.zeros(len(PRICE_GRID) * len(QTY_GRID))
    idx = int(np.argmax(means))
    assert idx == 0  # first occurrence wins: lowest price, then lowest qty


def test_static_policy_ignores_posterior_and_inventory(monkeypatch):
    """A static replication holds each firm's action for every period: its
    inventory moves, a posterior update would move the posterior far, and
    the action stays the argmax of the firm's frozen-prior scores."""

    def drifting(posterior, *args, **kwargs):  # perturb the posterior
        return replace(posterior, m=posterior.m + np.array([5.0, 1.0, 0, 0]))

    monkeypatch.setattr(simharness, "online_update", drifting)
    config = SimConfig(horizon=12, replications=1, predictive_samples=150)
    pcfg = config.policy_config()
    for rep in range(3):
        rec = simharness.run_replication(config, "classical-static-prior", rep)
        stock = np.cumsum(rec.quantities, axis=0)
        inventory = stock - np.cumsum(rec.sales, axis=0)
        assert (np.ptp(inventory, axis=0) > 0).all()  # the state does move
        for i in (0, 1):
            scores = static_prior_scores(config.prior_hyper(), pcfg,
                                         config.firm_type(rec.costs[i]))
            want = pcfg.actions.action(np.argmax(scores))
            assert set(rec.prices[:, i]) == {want.price}
            assert set(rec.quantities[:, i]) == {want.quantity}


def test_select_action_rejects_the_static_policy():
    with pytest.raises(ValueError, match="static-prior policy decides once"):
        select_action(make_state(), make_config(), "classical-static-prior",
                      rngmod.stream(1, "x"))


def test_static_scores_are_deterministic():
    config = make_config()
    s1 = static_prior_scores(make_state().demand_posterior, config, LOW)
    s2 = static_prior_scores(make_state().demand_posterior, config, LOW)
    np.testing.assert_array_equal(s1, s2)
    assert s1.shape == (len(PRICE_GRID) * len(QTY_GRID),)


def test_forecast_rules():
    last = Action(45.0, 9.0)
    assert forecast_rival_action(make_state(last_rival=last),
                                 make_config()) == last
    mid = forecast_rival_action(make_state(), make_config())
    assert mid.price == 12.0 and mid.quantity == 40.0
    forecast = forecast_rival_action(
        make_state(last_rival=last),
        make_config(rival_forecast="type-weighted",
                    rival_types=(LOW, FirmType(10.0, 0.8, 1.5))))
    assert forecast.price in PRICE_GRID and forecast.quantity in QTY_GRID


def test_predictive_profit_moments_consistency():
    config = make_config()
    candidate, rival = Action(20.0, 12.0), Action(40.0, 12.0)
    state = make_state(last_rival=rival)
    # the kernel on one candidate, from the draws select_action makes
    coef, sig, z = predictive_draws(state.demand_posterior,
                                    config.predictive_samples,
                                    rngmod.stream(107, "pm"))
    (m,), (s,) = kernels.profit_moments_grid(
        coef, sig, z, (candidate.price,), (candidate.quantity,),
        state.inventory, rival.price, False, LOW, True)
    assert np.isfinite(m) and s > 0.0
    # the same cell of the full grid, scored from the same stream
    _, (means, sds, _) = select_action(state, config, "bayesian-risk-neutral",
                                       rngmod.stream(107, "pm"))
    flat = (PRICE_GRID.index(candidate.price) * len(QTY_GRID)
            + QTY_GRID.index(candidate.quantity))
    assert (m, s) == (means[flat], sds[flat])


def test_unknown_policy_rejected():
    with pytest.raises(ValueError):
        select_action(make_state(), make_config(), "mystery-policy",
                      rngmod.stream(1, "x"))


def test_invalid_grid_rejected():
    with pytest.raises(ValueError):
        make_config(actions=ActionGrid((12.0, 8.0), QTY_GRID))
