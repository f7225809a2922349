"""Ground-truth market physics: demand, censoring, inventory, profit.

All functions are pure; randomness enters only through caller-supplied
noise draws or generators. Rival stockout enters demand with a one-period
lag (initialized false), which breaks the simultaneity between the two
firms' demand realizations within a period.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FirmType",
    "DemandParams",
    "MarketState",
    "Action",
    "ActionGrid",
    "PeriodOutcome",
    "latent_demand",
    "censor_sales",
    "step_inventory",
    "salvage_credited",
    "period_profit",
    "one_period_profit",
    "covariate_vector",
    "simulate_period",
]

SALVAGE_MODES = ("per-period", "terminal")


@dataclass(frozen=True)
class FirmType:
    """Private operational type: unit cost, holding cost, salvage value."""

    c: float
    h: float
    s: float

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError("procurement cost must be positive")
        if self.h < 0 or self.s < 0:
            raise ValueError("holding cost and salvage value must be nonnegative")
        if not self.s < self.c:
            raise ValueError("salvage value must be below procurement cost")


@dataclass(frozen=True)
class DemandParams:
    """Linear demand coefficients (signed own-price slope) and noise sd."""

    beta0: float
    beta1: float
    beta2: float
    beta3: float
    sigma: float

    def __post_init__(self):
        if not self.beta1 < 0:
            raise ValueError("own-price coefficient must be negative")
        if self.beta2 < 0 or self.beta3 < 0:
            raise ValueError("rival-price and spillover coefficients must be nonnegative")
        if not self.sigma > 0:
            raise ValueError("noise sd must be positive")

    def coefficients(self) -> np.ndarray:
        return np.array([self.beta0, self.beta1, self.beta2, self.beta3])


@dataclass(frozen=True)
class Action:
    quantity: float
    price: float


@dataclass(frozen=True)
class ActionGrid:
    """Price x quantity grid. Its flat index is price-major, ``i_price * Q +
    i_quantity``: the order the grid kernel, closed forms and solver flatten
    their (P, Q) scores in, so argmax ties go to the lower price, then quantity."""

    prices: tuple
    quantities: tuple

    def __post_init__(self):
        for grid in (self.prices, self.quantities):
            if len(grid) == 0:
                raise ValueError("action grids must be nonempty")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ValueError("action grids must be strictly increasing")
        if self.quantities[0] < 0:
            raise ValueError("order quantities in quantity_grid must be nonnegative")

    def action(self, k) -> Action:
        i_p, i_q = divmod(int(k), len(self.quantities))
        return Action(quantity=float(self.quantities[i_q]),
                      price=float(self.prices[i_p]))

    def index(self, action: Action) -> int:
        return (self.prices.index(action.price) * len(self.quantities)
                + self.quantities.index(action.quantity))

    def price(self, k):
        """Price of flat index ``k``, elementwise when ``k`` is an int array."""
        return np.take(self.prices, np.asarray(k) // len(self.quantities))

    def quantity(self, k):
        """Quantity of flat index ``k``, elementwise when ``k`` is an int array."""
        return np.take(self.quantities, np.asarray(k) % len(self.quantities))

    @property
    def midpoint(self) -> Action:
        """The grid centre, ties toward the lower price and quantity."""
        return self.action((len(self.prices) - 1) // 2 * len(self.quantities)
                           + (len(self.quantities) - 1) // 2)


@dataclass(frozen=True)
class MarketState:
    """Public per-period market state. Stockout flags are lagged indicators."""

    inventory: tuple[float, float] = (0.0, 0.0)
    last_stockout: tuple[bool, bool] = (False, False)

    def __post_init__(self):
        if min(self.inventory) < 0:
            raise ValueError("inventory must be nonnegative")


@dataclass(frozen=True)
class PeriodOutcome:
    latent_demand: float
    sales: float
    stockout: bool
    profit: float
    next_inventory: float


def latent_demand(params: DemandParams, own_price: float, rival_price: float,
                  rival_stockout: bool, noise: float) -> float:
    """Latent (uncensored) demand; may be negative."""
    coefs = params.coefficients()
    x = covariate_vector(own_price, rival_price, rival_stockout)
    return float(coefs @ x + noise)


def censor_sales(latent: float, stock: float) -> tuple[float, bool]:
    """Observed sales and stockout flag given available stock."""
    if stock < 0:
        raise ValueError("stock must be nonnegative")
    sales = min(max(latent, 0.0), stock)
    return sales, latent > stock


def step_inventory(stock: float, sales: float) -> float:
    if not 0.0 <= sales <= stock:
        raise AssertionError("sales outside [0, stock]: internal logic error")
    return stock - sales


def salvage_credited(salvage_mode: str, terminal: bool = False) -> bool:
    """Whether this period's leftover stock earns its salvage value: every
    period in per-period mode, only at the horizon end in terminal mode."""
    if salvage_mode not in SALVAGE_MODES:
        raise ValueError(f"unknown salvage mode {salvage_mode!r}")
    return salvage_mode == "per-period" or terminal


def period_profit(price, sales, quantity, left, firm_type: FirmType,
                  salvage_on: bool):
    """``price * sales - c * quantity - net_hold * left``, broadcast over the
    arguments; ``net_hold`` is ``h - s`` when salvage is credited, else ``h``.

    The one profit rule: the market step, the closed forms, the grid kernel
    and the solver's rewards all call it.
    """
    net_hold = firm_type.h - (firm_type.s if salvage_on else 0.0)
    return price * sales - firm_type.c * quantity - net_hold * left


def one_period_profit(action: Action, sales: float, next_inventory: float,
                      firm_type: FirmType, terminal: bool = False,
                      salvage_mode: str = "per-period") -> float:
    """One firm's realized profit for the period."""
    return period_profit(action.price, sales, action.quantity, next_inventory,
                         firm_type, salvage_credited(salvage_mode, terminal))


def covariate_vector(own_price: float, rival_price: float,
                     rival_stockout: bool) -> np.ndarray:
    """Regression covariate matched positionally to DemandParams coefficients."""
    return np.array([1.0, own_price, rival_price, 1.0 if rival_stockout else 0.0])


def simulate_period(state: MarketState, actions: tuple[Action, Action],
                    params: DemandParams, types: tuple[FirmType, FirmType],
                    rng: np.random.Generator, salvage_mode: str = "per-period",
                    terminal: bool = False) -> tuple[tuple[PeriodOutcome, PeriodOutcome], MarketState]:
    """Advance the market one period. Draws one noise term per firm, in firm order."""
    noise = rng.normal(0.0, params.sigma, size=2)
    outcomes = []
    new_inventory = []
    new_stockout = []
    for i in (0, 1):
        j = 1 - i
        stock = state.inventory[i] + actions[i].quantity
        demand = latent_demand(params, actions[i].price, actions[j].price,
                               state.last_stockout[j], noise[i])
        sales, out = censor_sales(demand, stock)
        left = step_inventory(stock, sales)
        profit = one_period_profit(actions[i], sales, left, types[i],
                                   terminal=terminal, salvage_mode=salvage_mode)
        outcomes.append(PeriodOutcome(demand, sales, out, profit, left))
        new_inventory.append(left)
        new_stockout.append(out)
    next_state = MarketState(inventory=(new_inventory[0], new_inventory[1]),
                             last_stockout=(new_stockout[0], new_stockout[1]))
    return (outcomes[0], outcomes[1]), next_state
