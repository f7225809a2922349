"""Hot numeric kernel for grid-wide predictive profit moments.

The inner loop of every policy decision scores the full price x quantity
grid against a shared set of posterior-predictive draws, as one numpy
broadcast over (price, quantity, draw).

Action ordering is price-major (price ascending, quantity ascending within a
price), which makes a first-occurrence argmax over scores equivalent to the
lexicographic tie-break used by the policies.
"""

from __future__ import annotations

import numpy as np

from . import market

__all__ = ["profit_moments_grid"]

# Kept because perfbench/child.py records it in every result; numba is not used.
HAVE_NUMBA = False


def backend() -> str:
    # Kept because perfbench/child.py records it in every result.
    return "numpy"


def profit_moments_grid(coef, sigma, z, prices, quantities, inventory,
                        rival_price, rival_stockout, firm_type, salvage_on):
    """Sample mean and sd of one-period profit for every grid action.

    coef (n, 4), sigma (n,), z (n,) are a shared draw set (coefficients,
    noise sd, standard-normal noise); the same draws are reused for every
    action so scores are directly comparable. Profit is
    ``market.period_profit`` for ``firm_type``. Returns (means, sds), each of
    length len(prices) * len(quantities), price-major.
    """
    coef = np.ascontiguousarray(coef, dtype=np.float64)
    sigma = np.ascontiguousarray(sigma, dtype=np.float64)
    z = np.ascontiguousarray(z, dtype=np.float64)
    prices = np.ascontiguousarray(prices, dtype=np.float64)
    quantities = np.ascontiguousarray(quantities, dtype=np.float64)
    if coef.shape[0] < 2:
        raise ValueError("need at least 2 draws to estimate a standard deviation")
    rival_out = 1.0 if rival_stockout else 0.0
    base = (coef[:, 0] + coef[:, 2] * float(rival_price) + coef[:, 3] * rival_out
            + sigma * z)
    demand = base[None, :] + np.outer(prices, coef[:, 1])        # (P, n)
    stock = float(inventory) + quantities                        # (Q,)
    # clip's values, with the lower bound taken on (P, n) before broadcasting
    sales = np.minimum(np.maximum(demand, 0.0)[:, None, :],
                       stock[None, :, None])                      # (P, Q, n)
    left = stock[None, :, None] - sales
    profit = market.period_profit(prices[:, None, None], sales,
                                  quantities[None, :, None], left, firm_type,
                                  salvage_on)
    # numpy's own mean and ddof=1 std sequence, sharing one sum over draws
    n = profit.shape[2]
    means = np.add.reduce(profit, axis=2, keepdims=True) / n
    dev = profit - means
    np.multiply(dev, dev, out=dev)
    sds = np.sqrt(np.add.reduce(dev, axis=2) / (n - 1))
    return means.reshape(-1), sds.reshape(-1)
