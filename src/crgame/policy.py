"""Action selection: predictive profit moments and the credible-risk rule.

Three policies: the credible-risk learner (mean minus kappa * sd of the
posterior-predictive profit), the risk-neutral learner (kappa = 0), and the
static-prior heuristic (frozen prior-mean expected profit, no posterior
input, state-independent). All grid scoring reuses one common draw set per
decision, so selections are deterministic given (state, config, stream).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .learning import PosteriorHyper, TypeBelief
from .market import (Action, ActionGrid, FirmType, period_profit,
                     salvage_credited)

__all__ = [
    "POLICIES",
    "BeliefState",
    "PolicyConfig",
    "expected_sales_closed_form",
    "expected_sales_floored",
    "expected_profit_closed_form",
    "forecast_rival_action",
    "predictive_draws",
    "static_prior_scores",
    "select_action",
]

POLICIES = (
    "proposed-credible-risk",
    "bayesian-risk-neutral",
    "classical-static-prior",
)

RIVAL_FORECAST_RULES = ("last-action", "type-weighted")


@dataclass
class BeliefState:
    """Everything one firm conditions on when choosing an action."""

    inventory: float
    own_type: FirmType
    demand_posterior: PosteriorHyper
    rival_type_belief: TypeBelief
    last_rival_action: Action | None = None
    last_rival_stockout: bool = False


@dataclass
class PolicyConfig:
    """Per-decision settings; ``SimConfig.policy_config`` builds the study's."""

    actions: ActionGrid
    kappa: float
    predictive_samples: int
    salvage_mode: str
    rival_forecast: str
    rival_types: tuple = ()            # (low, high) FirmType, read by the type-weighted rule

    def __post_init__(self):
        if self.kappa < 0:
            raise ValueError("kappa must be nonnegative")
        if self.predictive_samples < 2:
            raise ValueError("predictive_samples must be >= 2")
        salvage_credited(self.salvage_mode)  # raises on an unknown mode
        if self.rival_forecast not in RIVAL_FORECAST_RULES:
            raise ValueError(f"unknown rival forecast rule {self.rival_forecast!r}")
        if self.rival_forecast == "type-weighted" and len(self.rival_types) != 2:
            raise ValueError("the type-weighted rival forecast needs the two "
                             "rival types")


def _norm_pdf(x):
    return np.exp(-0.5 * np.asarray(x) ** 2) / np.sqrt(2.0 * np.pi)


def expected_sales_closed_form(mu, sd, stock):
    """E[min(D, stock)] for D ~ Normal(mu, sd^2), without the zero floor."""
    mu = np.asarray(mu, dtype=float)
    if np.any(np.asarray(sd) <= 0):
        raise ValueError("sd must be positive")
    if np.all(np.isposinf(stock)):
        return mu if mu.ndim else float(mu)
    # imported on first use, as in ``learning``: the solver never needs scipy
    from scipy.special import ndtr

    alpha = (stock - mu) / sd
    out = stock - ((stock - mu) * ndtr(alpha) + sd * _norm_pdf(alpha))
    return float(out) if np.ndim(out) == 0 else out


def expected_sales_floored(mu, sd, stock):
    """E[min(max(D, 0), stock)]: the closed form with the zero floor applied."""
    return expected_sales_closed_form(mu, sd, stock) - expected_sales_closed_form(mu, sd, 0.0)


def _closed_form_profits(demand_mean, sigma, quantity, price, types,
                         inventory, salvage_on: bool) -> list:
    """Expected one-period profit under Gaussian demand, one entry per firm
    type, broadcast over the other arguments. Expected sales do not depend
    on the type, so the types share one evaluation of them."""
    stock = inventory + quantity
    exp_sales = expected_sales_floored(demand_mean, sigma, stock)
    exp_left = stock - exp_sales
    return [period_profit(price, exp_sales, quantity, exp_left, firm_type,
                          salvage_on) for firm_type in types]


def expected_profit_closed_form(demand_mean, sigma, quantity, price,
                                firm_type: FirmType, inventory: float = 0.0,
                                salvage_on: bool = True) -> float:
    """Deterministic expected one-period profit under Gaussian demand."""
    return float(_closed_form_profits(demand_mean, sigma, quantity, price,
                                      (firm_type,), inventory, salvage_on)[0])


def forecast_rival_action(state: BeliefState, config: PolicyConfig) -> Action:
    """Predict the rival's current action.

    Default repeats the rival's last observed action (grid midpoint in the
    first period). The type-weighted rule instead picks the grid action with
    the highest belief-weighted closed-form expected profit across the
    hypothesized rival types.
    """
    if config.rival_forecast == "type-weighted":
        posterior = state.demand_posterior
        own_last = config.actions.midpoint  # the rival's view of us, absent history
        tables = _closed_form_grid_scores(posterior.m, posterior.noise_sd(),
                                          config, own_last.price,
                                          config.rival_types)
        total = (state.rival_type_belief.probs[:, None] * tables).sum(axis=0)
        return config.actions.action(np.argmax(total))
    if state.last_rival_action is not None:
        return state.last_rival_action
    return config.actions.midpoint


def _closed_form_grid_scores(coef_mean, sigma, config: PolicyConfig,
                             rival_price: float, types,
                             inventory: float = 0.0,
                             rival_stockout: bool = False) -> np.ndarray:
    """Expected profit per grid action at point coefficients, one row per type.

    Returns a (len(types), P * Q) array, price-major. Each cell is
    ``expected_profit_closed_form`` at its action: both evaluate
    ``_closed_form_profits``.
    """
    prices = np.asarray(config.actions.prices, dtype=float)[:, None]   # (P, 1)
    quantities = np.asarray(config.actions.quantities, dtype=float)[None, :]  # (1, Q)
    mu = (coef_mean[0] + coef_mean[1] * prices + coef_mean[2] * rival_price
          + coef_mean[3] * (1.0 if rival_stockout else 0.0))
    return np.stack(_closed_form_profits(
        mu, sigma, quantities, prices, types, inventory,
        salvage_credited(config.salvage_mode))).reshape(len(types), -1)


def predictive_draws(hyper: PosteriorHyper, n: int, rng: np.random.Generator):
    """Common draw set for one decision: coefficients, noise sd, noise z."""
    chol = np.linalg.cholesky(hyper.S)
    if hyper.fixed_sd is not None:
        # known noise sd: S is the literal coefficient covariance
        sig = np.full(n, hyper.fixed_sd)
        coef = hyper.m + rng.standard_normal((n, 4)) @ chol.T
    else:
        sig = np.sqrt(hyper.b / rng.gamma(hyper.a, 1.0, size=n))
        coef = hyper.m + (rng.standard_normal((n, 4)) @ chol.T) * sig[:, None]
    z = rng.standard_normal(n)
    return coef, sig, z


def static_prior_scores(prior: PosteriorHyper, config: PolicyConfig,
                        firm_type: FirmType) -> np.ndarray:
    """Frozen-prior expected profit per grid action.

    Deliberately ignores inventory and history (rival forecast pinned to the
    grid midpoint) so the heuristic's choice is constant within a replication.
    """
    rival_price = config.actions.midpoint.price
    return _closed_form_grid_scores(prior.m, prior.noise_sd(), config,
                                    rival_price, (firm_type,))[0]


def select_action(state: BeliefState, config: PolicyConfig, policy: str,
                  rng: np.random.Generator
                  ) -> tuple[Action, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Argmax action for a learning policy, with the grid it was chosen from.

    The second element is the (means, sds, scores) arrays over the grid,
    price-major. Ties break lexicographically (lower price, then lower
    quantity) via price-major action ordering and first-occurrence argmax.
    The static-prior policy chooses from no posterior: its action is the
    argmax of ``static_prior_scores``, fixed for a replication, so it is
    rejected here.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    if policy == "classical-static-prior":
        raise ValueError("the static-prior policy decides once, from "
                         "static_prior_scores")
    kappa = config.kappa if policy == "proposed-credible-risk" else 0.0
    rival = forecast_rival_action(state, config)
    coef, sig, z = predictive_draws(state.demand_posterior,
                                    config.predictive_samples, rng)
    means, sds = kernels.profit_moments_grid(
        coef, sig, z, config.actions.prices, config.actions.quantities,
        state.inventory, rival.price, state.last_rival_stockout,
        state.own_type, salvage_credited(config.salvage_mode))
    scores = means - kappa * sds
    return config.actions.action(np.argmax(scores)), (means, sds, scores)
