"""Market mechanics: demand, censoring, inventory, profit bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crgame import rng as rngmod
from crgame.market import (Action, ActionGrid, DemandParams, FirmType, MarketState,
                           censor_sales, covariate_vector, latent_demand,
                           one_period_profit, simulate_period, step_inventory)

PARAMS = DemandParams(45.0, -3.6, 1.2, 7.5, 4.5)
LOW = FirmType(c=6.0, h=0.8, s=1.5)
HIGH = FirmType(c=10.0, h=0.8, s=1.5)


# ----------------------------------------------------------------- demand

def test_latent_demand_reference_values():
    assert latent_demand(PARAMS, 10.0, 12.0, False, 0.0) == pytest.approx(23.4)
    assert latent_demand(PARAMS, 10.0, 12.0, True, 0.0) == pytest.approx(30.9)
    zero = DemandParams(0.0, -1e-12, 0.0, 0.0, 1.0)
    assert latent_demand(zero, 9.0, 14.0, False, 0.0) == pytest.approx(0.0, abs=1e-10)


@given(p_i=st.floats(1.0, 50.0), p_j=st.floats(1.0, 50.0),
       eps=st.floats(-30.0, 30.0))
def test_stockout_bump_is_exactly_beta3(p_i, p_j, eps):
    with_bump = latent_demand(PARAMS, p_i, p_j, True, eps)
    without = latent_demand(PARAMS, p_i, p_j, False, eps)
    assert with_bump - without == pytest.approx(PARAMS.beta3, abs=1e-12)


def test_covariate_vector_matches_demand():
    x = covariate_vector(10.0, 12.0, False)
    assert np.array_equal(x, [1.0, 10.0, 12.0, 0.0])
    assert np.array_equal(covariate_vector(10.0, 12.0, True),
                          [1.0, 10.0, 12.0, 1.0])
    beta = np.array([45.0, -3.6, 1.2, 7.5])
    assert float(x @ beta) == pytest.approx(
        latent_demand(PARAMS, 10.0, 12.0, False, 0.0))


# -------------------------------------------------------------- censoring

def test_censor_sales_cases():
    assert censor_sales(23.4, 20.0) == (20.0, True)
    sales, stockout = censor_sales(23.4, 50.0)
    assert sales == pytest.approx(23.4) and not stockout
    assert censor_sales(-2.0, 20.0) == (0.0, False)


@given(latent=st.floats(-100.0, 200.0), stock=st.floats(0.0, 120.0))
def test_censoring_invariants(latent, stock):
    sales, stockout = censor_sales(latent, stock)
    assert 0.0 <= sales <= stock
    assert stockout == (latent > stock)
    assert step_inventory(stock, sales) == pytest.approx(stock - sales)


def test_step_inventory_cases():
    assert step_inventory(20.0, 20.0) == 0.0
    assert step_inventory(50.0, 23.4) == pytest.approx(26.6)
    assert step_inventory(0.0, 0.0) == 0.0
    with pytest.raises(AssertionError):
        step_inventory(10.0, 11.0)


# ----------------------------------------------------------------- profit

def test_profit_reference_values():
    a = Action(quantity=15.0, price=10.0)
    assert one_period_profit(a, 20.0, 0.0, LOW) == pytest.approx(110.0)
    assert one_period_profit(Action(0.0, 10.0), 0.0, 0.0, LOW) == 0.0
    assert one_period_profit(a, 10.0, 10.0, LOW) == pytest.approx(17.0)


def test_terminal_salvage_mode():
    a = Action(quantity=15.0, price=10.0)
    # non-terminal period: leftover pays holding only
    val = one_period_profit(a, 10.0, 10.0, LOW, terminal=False,
                            salvage_mode="terminal")
    assert val == pytest.approx(100.0 - 90.0 - 8.0)
    # terminal period: salvage recovered
    val = one_period_profit(a, 10.0, 10.0, LOW, terminal=True,
                            salvage_mode="terminal")
    assert val == pytest.approx(100.0 - 90.0 - 8.0 + 15.0)


@given(q=st.floats(0.0, 80.0), p=st.floats(1.0, 30.0),
       sales=st.floats(0.0, 80.0), leftover=st.floats(0.0, 80.0))
def test_profit_decomposition(q, p, sales, leftover):
    a = Action(quantity=q, price=p)
    got = one_period_profit(a, sales, leftover, LOW)
    want = p * sales - LOW.c * q - LOW.h * leftover + LOW.s * leftover
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_firm_type_validation():
    with pytest.raises(ValueError):
        FirmType(c=-1.0, h=0.8, s=1.5)
    with pytest.raises(ValueError):
        FirmType(c=6.0, h=0.8, s=7.0)  # salvage above cost
    with pytest.raises(ValueError):
        DemandParams(45.0, 3.6, 1.2, 7.5, 4.5)  # own-price slope must be < 0


# ------------------------------------------------------------ action grid

GRID = ActionGrid(tuple(float(p) for p in range(8, 17)),
                  tuple(float(q) for q in range(20, 70, 5)))
N_ACTIONS = len(GRID.prices) * len(GRID.quantities)


def test_action_grid_index_round_trips():
    for k in range(N_ACTIONS):
        assert GRID.index(GRID.action(k)) == k
    action = Action(quantity=35.0, price=11.0)
    assert GRID.action(GRID.index(action)) == action
    # price-major: the next index raises the quantity, and the price only
    # once every quantity of the lower price has come
    assert GRID.action(1) == Action(quantity=25.0, price=8.0)
    assert GRID.action(10) == Action(quantity=20.0, price=9.0)
    assert GRID.action(N_ACTIONS - 1) == Action(quantity=65.0, price=16.0)


@pytest.mark.parametrize("prices, quantities, midpoint", [
    ((8.0,), (20.0,), Action(quantity=20.0, price=8.0)),
    ((8.0, 10.0), (20.0, 30.0), Action(quantity=20.0, price=8.0)),
    ((8.0, 10.0, 12.0), (20.0, 30.0, 40.0, 50.0), Action(quantity=30.0, price=10.0)),
    ((8.0, 10.0, 12.0, 14.0), (20.0, 30.0, 40.0), Action(quantity=30.0, price=10.0)),
    (GRID.prices, GRID.quantities, Action(quantity=40.0, price=12.0)),
])
def test_action_grid_midpoint_ties_toward_the_lower_action(prices, quantities,
                                                           midpoint):
    assert ActionGrid(prices, quantities).midpoint == midpoint


def test_action_grid_price_decodes_an_array_as_each_scalar():
    ks = np.arange(N_ACTIONS).reshape(9, 10)[::-1]
    assert GRID.price(ks).tolist() == [[GRID.action(k).price for k in row]
                                       for row in ks]
    assert all(GRID.price(k) == GRID.action(k).price for k in ks.ravel())


def test_action_grid_quantity_decodes_an_array_as_each_scalar():
    ks = np.arange(N_ACTIONS).reshape(9, 10)[::-1]
    assert GRID.quantity(ks).tolist() == [[GRID.action(k).quantity for k in row]
                                          for row in ks]
    assert all(GRID.quantity(k) == GRID.action(k).quantity for k in ks.ravel())


@pytest.mark.parametrize("prices, quantities, message", [
    ((), (20.0,), "nonempty"),
    ((8.0,), (), "nonempty"),
    ((12.0, 8.0), (20.0,), "strictly increasing"),
    ((8.0,), (20.0, 20.0), "strictly increasing"),
    ((8.0,), (-5.0, 10.0), "nonnegative"),
])
def test_action_grid_rejects_bad_grids(prices, quantities, message):
    with pytest.raises(ValueError, match=message):
        ActionGrid(prices, quantities)


# ------------------------------------------------------------ simulation

def _step(rng):
    state = MarketState()
    actions = (Action(20.0, 12.0), Action(20.0, 12.0))
    return simulate_period(state, actions, PARAMS, (LOW, LOW), rng)


def test_simulate_period_deterministic():
    out1, next1 = _step(rngmod.stream(5, "market"))
    out2, next2 = _step(rngmod.stream(5, "market"))
    for a, b in zip(out1, out2):
        assert a == b
    assert next1 == next2


def test_simulate_period_advances_state():
    outcomes, nxt = _step(rngmod.stream(5, "market"))
    for i in (0, 1):
        assert nxt.inventory[i] == pytest.approx(outcomes[i].next_inventory)
        assert nxt.last_stockout[i] == outcomes[i].stockout


def test_lagged_stockout_feeds_next_period_demand():
    # same noise, flipped lagged stockout flags -> demand differs by beta3
    base = MarketState(last_stockout=(False, False))
    bumped = MarketState(last_stockout=(True, True))
    actions = (Action(20.0, 12.0), Action(20.0, 12.0))
    o1, _ = simulate_period(base, actions, PARAMS, (LOW, LOW),
                            rngmod.stream(9, "m"))
    o2, _ = simulate_period(bumped, actions, PARAMS, (LOW, LOW),
                            rngmod.stream(9, "m"))
    for a, b in zip(o1, o2):
        assert b.latent_demand - a.latent_demand == pytest.approx(PARAMS.beta3)
