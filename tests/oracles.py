"""Reference computations the tests check the package against; the package
itself never needs them."""

import numpy as np

from crgame.equilibrium import DiscretizedDynamics
from crgame.learning import PosteriorHyper
from crgame.market import period_profit


def batch_conjugate_posterior(prior: PosteriorHyper, X: np.ndarray,
                              y: np.ndarray) -> PosteriorHyper:
    """Closed-form batch posterior for uncensored data, under the prior's
    noise convention: normal-inverse-gamma with the noise sd learned, the
    Gaussian ``Sn = (S0^-1 + X'X / sd^2)^-1`` with it known (``fixed_sd``;
    a and b are left alone)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    S0_inv = np.linalg.inv(prior.S)
    if prior.fixed_sd is not None:
        var = prior.fixed_sd**2
        Sn = np.linalg.inv(S0_inv + X.T @ X / var)
        mn = Sn @ (S0_inv @ prior.m + X.T @ y / var)
        return PosteriorHyper(mn, Sn, prior.a, prior.b, prior.fixed_sd)
    Sn_inv = S0_inv + X.T @ X
    Sn = np.linalg.inv(Sn_inv)
    mn = Sn @ (S0_inv @ prior.m + X.T @ y)
    a = prior.a + 0.5 * len(y)
    b = prior.b + 0.5 * float(y @ y + prior.m @ S0_inv @ prior.m - mn @ Sn_inv @ mn)
    return PosteriorHyper(mn, Sn, a, b)


def myopic_policy(dyn) -> np.ndarray:
    """Greedy one-step credible-risk policy (no continuation term) of a
    ``DiscretizedDynamics``."""
    return dyn.reward.argmax(axis=1)


def reference_build_dynamics(grid, config, model, own_types, rival_policies):
    """``equilibrium.build_dynamics`` computed node by node: every (node,
    rival type) branch runs its own demand, sales, projection and profit
    over the quadrature, and each reward takes its mean and variance over
    the node's joint (rival type, quadrature) weights directly."""
    prices = np.asarray(config.actions.prices, dtype=float)
    quants = np.asarray(config.actions.quantities, dtype=float)
    zq, wq = np.polynomial.hermite.hermgauss(config.quad_points)
    zq, wq = zq * np.sqrt(2.0), wq / np.sqrt(np.pi)
    n_nodes = grid.n_nodes
    hyper, coef, S = model.hyper, model.hyper.m, model.hyper.S

    inv, m0, mu_hi = grid.nodes.T
    type_probs = np.stack([1.0 - mu_hi, mu_hi], axis=1)                 # (N, B)
    weights = type_probs[:, :, None] * wq[None, None, :]               # (N, B, K)
    w_joint = weights[:, None]                                         # (N, 1, B, K)

    rival_actions = np.stack(rival_policies, axis=1)                  # (N, B)
    rp = config.actions.price(rival_actions)
    # a separating rival reveals its type; a pooling one leaves the belief
    separating = (rival_actions[:, 0] != rival_actions[:, 1])[:, None]
    mu_next = np.where(separating, np.array([0.0, 1.0]),
                       mu_hi[:, None])[:, None, :, None]               # (N, 1, B, 1)
    stock = (inv[:, None] + quants[None, :])[:, :, None, None]         # (N, Q, 1, 1)

    rewards = [np.empty((n_nodes, prices.size, quants.size)) for _ in own_types]
    next_idx = np.empty((n_nodes, prices.size, quants.size, 2, zq.size),
                        dtype=np.int64)
    for ip, p in enumerate(prices):
        x_mean = m0[:, None] + coef[1] * p + coef[2] * rp             # (N, B)
        x_cov = np.stack([np.ones_like(rp), np.full_like(rp, p), rp,
                          np.zeros_like(rp)], axis=2)                  # (N, B, 4)
        quad_form = np.einsum("nbi,ij,nbj->nb", x_cov, S, x_cov)
        sd_pred = hyper.predictive_sd(quad_form)
        demand = x_mean[:, :, None] + sd_pred[:, :, None] * zq         # (N, B, K)
        gains = (x_cov @ S)[:, :, 0] / hyper.update_denom(quad_form)
        m0_next = m0[:, None, None] + gains[:, :, None] * (demand - x_mean[:, :, None])

        sales = np.clip(demand[:, None], 0.0, stock)                   # (N, Q, B, K)
        left = stock - sales
        for reward, own_type in zip(rewards, own_types):
            prof = period_profit(p, sales, quants[:, None, None], left,
                                 own_type, model.salvage_on)
            mean = (w_joint * prof).sum(axis=(2, 3))
            var = (w_joint * (prof - mean[:, :, None, None]) ** 2).sum(axis=(2, 3))
            reward[:, ip] = mean - config.kappa * np.sqrt(np.maximum(var, 0.0))
        next_idx[:, ip] = grid.locate(left, m0_next[:, None], mu_next)

    next_idx = next_idx.reshape(n_nodes, -1, 2, zq.size)
    return tuple(DiscretizedDynamics(reward.reshape(n_nodes, -1), next_idx, weights)
                 for reward in rewards)
