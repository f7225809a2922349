"""Reference computations the tests check the package against; the package
itself never needs them."""

import numpy as np

from crgame.learning import PosteriorHyper


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
