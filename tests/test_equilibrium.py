"""Belief-grid solver: Bellman operator, contraction, fixed points, best response."""

import dataclasses
import itertools

import numpy as np
import pytest

from crgame import equilibrium, rng as rngmod
from crgame.learning import PosteriorHyper
from crgame.market import Action, ActionGrid, FirmType
from crgame.equilibrium import (BeliefGrid, DiscretizedDynamics,
                                EquilibriumConfig, EquilibriumModel,
                                IterationDiagnostics, NonConvergenceError,
                                bellman_core, build_belief_grid,
                                build_dynamics, contraction_check,
                                equilibrium_iteration, value_iterate,
                                _evaluate_policy, _refresh_hyper)
from crgame.policy import expected_profit_closed_form
from oracles import myopic_policy, reference_build_dynamics

LOW = FirmType(6.0, 0.8, 1.5)
HIGH = FirmType(10.0, 0.8, 1.5)


def make_model():
    hyper = PosteriorHyper(np.array([35.0, -2.0, 0.5, 3.0]),
                           np.diag([100.0, 4.0, 4.0, 16.0]), 3.0, 40.5)
    return EquilibriumModel(rival_types=(LOW, HIGH), hyper=hyper)


def make_config(**kw):
    base = dict(inventory_axis=(0.0, 10.0, 20.0),
                intercept_axis=(30.0, 40.0, 50.0),
                belief_axis=(0.0, 0.5, 1.0),
                actions=ActionGrid((8.0, 10.0, 12.0, 14.0, 16.0),
                                   (20.0, 30.0, 40.0)),
                delta=0.9, quad_points=4, tol=1e-8, max_iter=4000)
    base.update(kw)
    return EquilibriumConfig(**base)


def toy_factors(seed=0, n=6, a=3, b=2, k=2):
    """Hand-built deterministic finite MDP: rewards, successors and the
    stochastic-matrix type and quadrature weights."""
    rng = rngmod.stream(777, "toy", seed)
    reward = rng.uniform(-10.0, 10.0, size=(n, a))
    next_idx = rng.integers(0, n, size=(n, a, b, k))
    type_probs = rng.random((n, b))
    type_probs /= type_probs.sum(axis=1, keepdims=True)
    quad = rng.random(k)
    quad /= quad.sum()
    return reward, next_idx, type_probs, quad


def toy_dynamics(seed=0):
    reward, next_idx, type_probs, quad = toy_factors(seed)
    return DiscretizedDynamics(reward, next_idx,
                               type_probs[:, :, None] * quad[None, None, :])


def fine_config(**kw):
    """The 8 x 8 x 3 = 192-node grid with the default 8-point quadrature."""
    return make_config(inventory_axis=tuple(5.0 * i for i in range(8)),
                       intercept_axis=tuple(30.0 + 3.75 * i for i in range(8)),
                       quad_points=8, **kw)


def reference_bellman(values, reward, next_idx, type_probs, quad, delta):
    """Bellman sweep as an explicit sum over rival types b and quadrature
    nodes k of type_prob * quad_weight * v[next_idx]."""
    n, a, b, k = next_idx.shape
    cont = np.zeros((n, a))
    for ib in range(b):
        for ik in range(k):
            cont += type_probs[:, ib, None] * quad[ik] * values[next_idx[:, :, ib, ik]]
    q_vals = reward + delta * cont
    return q_vals.max(axis=1), q_vals.argmax(axis=1)


# --------------------------------------------------------------- contraction

@pytest.mark.parametrize("delta", [0.5, 0.9, 0.98])
def test_bellman_contraction_random_pairs(delta):
    dyn = toy_dynamics()
    rng = rngmod.stream(81, "pairs", int(delta * 100))
    for _ in range(100):
        v = rng.uniform(-100, 100, size=6)
        w = rng.uniform(-100, 100, size=6)
        tv, _ = bellman_core(v, dyn, delta)
        tw, _ = bellman_core(w, dyn, delta)
        lhs = np.max(np.abs(tv - tw))
        rhs = delta * np.max(np.abs(v - w))
        assert lhs <= rhs + 1e-9


def test_bellman_constant_shift_achieves_modulus():
    dyn = toy_dynamics()
    delta = 0.9
    v = rngmod.stream(83, "v").uniform(-50, 50, size=6)
    for c in (1.0, -7.5, 123.4):
        tv, g1 = bellman_core(v, dyn, delta)
        tw, g2 = bellman_core(v + c, dyn, delta)
        np.testing.assert_allclose(tw - tv, delta * c, atol=1e-9)
        np.testing.assert_array_equal(g1, g2)


def test_zero_reward_fixed_point_is_zero():
    dyn = toy_dynamics()
    dyn = DiscretizedDynamics(np.zeros_like(dyn.reward), dyn.next_idx,
                              dyn.weights)
    v = np.zeros(6)
    tv, _ = bellman_core(v, dyn, 0.9)
    np.testing.assert_array_equal(tv, 0.0)


def test_reward_shift_moves_fixed_point_by_geometric_sum():
    delta = 0.9
    dyn = toy_dynamics()
    shifted = DiscretizedDynamics(dyn.reward + 5.0, dyn.next_idx,
                                  dyn.weights)
    v1 = np.zeros(6)
    v2 = np.zeros(6)
    for _ in range(600):
        v1, g1 = bellman_core(v1, dyn, delta)
        v2, g2 = bellman_core(v2, shifted, delta)
    np.testing.assert_allclose(v2 - v1, 5.0 / (1.0 - delta), atol=1e-6)
    np.testing.assert_array_equal(g1, g2)


@pytest.mark.parametrize("toy_seed", [0, 1, 2])
def test_bellman_core_matches_explicit_branch_sum_toy(toy_seed):
    reward, next_idx, type_probs, quad = toy_factors(toy_seed)
    dyn = toy_dynamics(toy_seed)
    rng = rngmod.stream(85, "parity", toy_seed)
    for _ in range(20):
        v = rng.uniform(-100, 100, size=reward.shape[0])
        got_v, got_g = bellman_core(v, dyn, 0.9)
        want_v, want_g = reference_bellman(v, reward, next_idx, type_probs,
                                           quad, 0.9)
        np.testing.assert_allclose(got_v, want_v, rtol=1e-12)
        np.testing.assert_array_equal(got_g, want_g)


def one_shot_bellman(values, dyn, delta):
    """The whole-grid sweep: every node's successor values gathered in one
    array and contracted in one batched product."""
    n, a = dyn.reward.shape
    cont = values[dyn.next_idx].reshape(n, a, -1) @ dyn.weights.reshape(n, -1, 1)
    q_vals = dyn.reward + delta * cont[:, :, 0]
    return q_vals.max(axis=1), q_vals.argmax(axis=1)


BLOCK = equilibrium.SWEEP_BLOCK


@pytest.mark.parametrize("actions,quad_points", [(3, 2), (90, 8)])
@pytest.mark.parametrize("n_nodes", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
def test_bellman_core_blocks_equal_one_shot_sweep(n_nodes, actions, quad_points):
    # a sweep in node blocks does each node's product as the one-shot sweep
    # does, so the values and the greedy policy match bit for bit
    reward, next_idx, type_probs, quad = toy_factors(n=n_nodes, a=actions,
                                                     k=quad_points)
    dyn = DiscretizedDynamics(reward, next_idx,
                              type_probs[:, :, None] * quad[None, None, :])
    rng = rngmod.stream(87, "blocks", n_nodes)
    for v in (np.zeros(n_nodes), *rng.uniform(-100, 100, size=(5, n_nodes))):
        got_v, got_g = bellman_core(v, dyn, 0.9)
        want_v, want_g = one_shot_bellman(v, dyn, 0.9)
        np.testing.assert_array_equal(got_v, want_v)
        np.testing.assert_array_equal(got_g, want_g)


def test_bellman_core_matches_explicit_branch_sum_on_model_grid():
    config = fine_config()
    model = make_model()
    grid = build_belief_grid(config)
    assert grid.n_nodes == 192
    # rival types act differently, so the type belief moves on the branches
    rivals = (np.full(grid.n_nodes, 3), np.full(grid.n_nodes, 10))
    dyn = build_dynamics(grid, config, model, (LOW,), rivals)[0]
    mu_hi = grid.nodes[:, 2]
    type_probs = np.stack([1.0 - mu_hi, mu_hi], axis=1)
    quad = np.polynomial.hermite.hermgauss(config.quad_points)[1] / np.sqrt(np.pi)
    rng = rngmod.stream(86, "parity")
    for _ in range(10):
        v = rng.uniform(-1000, 1000, size=grid.n_nodes)
        got_v, got_g = bellman_core(v, dyn, config.delta)
        want_v, want_g = reference_bellman(v, dyn.reward, dyn.next_idx,
                                           type_probs, quad, config.delta)
        np.testing.assert_allclose(got_v, want_v, rtol=1e-12)
        np.testing.assert_array_equal(got_g, want_g)


def test_locate_maps_each_node_to_itself():
    grid = build_belief_grid(fine_config())
    np.testing.assert_array_equal(grid.locate(*grid.nodes.T),
                                  np.arange(grid.n_nodes))
    for n, (inv, m0, mu) in enumerate(grid.nodes):
        assert grid.locate(inv, m0, mu) == n


def test_build_dynamics_weights_are_a_distribution_per_node():
    config = fine_config()
    grid = build_belief_grid(config)
    mid = np.full(grid.n_nodes, 7)
    dyn = build_dynamics(grid, config, make_model(), (LOW,), (mid, mid))[0]
    assert dyn.weights.shape == (grid.n_nodes, 2, config.quad_points)
    assert np.all(dyn.weights >= 0.0)
    np.testing.assert_allclose(dyn.weights.sum(axis=(1, 2)), 1.0, rtol=1e-12)


@pytest.mark.parametrize("salvage_on", [True, False])
def test_two_type_build_equals_single_type_builds(salvage_on):
    config = fine_config()
    model = dataclasses.replace(make_model(), salvage_on=salvage_on)
    grid = build_belief_grid(config)
    rivals = random_rivals(config, grid, 91)
    both = build_dynamics(grid, config, model, (LOW, HIGH), rivals)
    assert len(both) == 2
    for own_type, dyn in zip((LOW, HIGH), both):
        single = build_dynamics(grid, config, model, (own_type,), rivals)[0]
        np.testing.assert_array_equal(dyn.reward, single.reward)
        np.testing.assert_array_equal(dyn.next_idx, single.next_idx)
        np.testing.assert_array_equal(dyn.weights, single.weights)
    # the types share one transition table and differ in their rewards
    assert both[0].next_idx is both[1].next_idx
    assert not np.array_equal(both[0].reward, both[1].reward)


def random_rivals(config, grid, seed):
    rng = rngmod.stream(seed, "rivals")
    n_actions = len(config.actions.prices) * len(config.actions.quantities)
    return tuple(rng.integers(0, n_actions, size=grid.n_nodes) for _ in (0, 1))


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_known_noise_prior_builds_the_equivalent_learned_noise_dynamics(seed):
    # known sd sigma with coefficient covariance S is the normal-inverse-gamma
    # prior with scale S / sigma^2 and noise variance mean b / (a - 1) = sigma^2
    config = fine_config()
    grid = build_belief_grid(config)
    rivals = random_rivals(config, grid, seed)
    sigma, m = 4.5, np.array([35.0, -2.0, 0.5, 3.0])
    S = np.diag([20.0, 1.0, 1.0, 4.0])
    known = dataclasses.replace(
        make_model(), hyper=PosteriorHyper(m, S, 3.0, 2.0, fixed_sd=sigma))
    learned = dataclasses.replace(
        make_model(), hyper=PosteriorHyper(m, S / sigma**2, 3.0, 2.0 * sigma**2))
    for got, want in zip(build_dynamics(grid, config, known, (LOW, HIGH), rivals),
                         build_dynamics(grid, config, learned, (LOW, HIGH), rivals)):
        np.testing.assert_allclose(got.reward, want.reward, rtol=1e-12)
        np.testing.assert_array_equal(got.next_idx, want.next_idx)


@pytest.mark.parametrize("salvage_on", [True, False])
def test_near_deterministic_reward_is_the_closed_form_expected_profit(salvage_on):
    # with demand noise and coefficient spread near zero, the kappa = 0
    # reward is the closed-form expected profit of each rival-type branch,
    # weighted by the type belief. The intercepts sit off the integer
    # lattice, so no predictive mean lands on a sales kink (zero or a stock
    # level), where the quadrature of min(D, stock) is off by O(sd).
    config = make_config(kappa=0.0, intercept_axis=(30.25, 40.25, 50.25))
    grid = build_belief_grid(config)
    rivals = random_rivals(config, grid, 8)
    m = np.array([35.0, -2.0, 0.5, 3.0])
    model = EquilibriumModel(
        rival_types=(LOW, HIGH), salvage_on=salvage_on,
        hyper=PosteriorHyper(m, 1e-14 * np.eye(4), 3.0, 40.5, fixed_sd=1e-6))
    rival_prices = config.actions.price(np.stack(rivals, axis=1))  # (N, B)
    n_actions = len(config.actions.prices) * len(config.actions.quantities)
    actions = [(a.price, a.quantity) for a in map(config.actions.action,
                                                  range(n_actions))]
    for own_type, dyn in zip((LOW, HIGH), build_dynamics(
            grid, config, model, (LOW, HIGH), rivals)):
        want = np.array([[sum(
            prob * expected_profit_closed_form(
                m0 + m[1] * p + m[2] * rp, 1e-6, q, p, own_type,
                inventory=inv, salvage_on=salvage_on)
            for prob, rp in zip((1.0 - mu, mu), rival_prices[n]))
            for p, q in actions] for n, (inv, m0, mu) in enumerate(grid.nodes)])
        np.testing.assert_allclose(dyn.reward, want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())


# ------------------------------------------------- build against its oracle

ORACLE_AXES = {"default": lambda **kw: default_grid_config(**kw),
               "fine": lambda **kw: fine_config(**kw),
               # unevenly spaced, and a belief axis short of 0 and 1
               "uneven": lambda **kw: make_config(
                   inventory_axis=(0.0, 3.0, 10.0, 25.0),
                   intercept_axis=(28.0, 35.0, 47.0),
                   belief_axis=(0.1, 0.4, 0.7, 0.9), **kw)}


def oracle_rivals(kind, config, grid):
    """A rival policy pair: both types at the midpoint, separating by price
    (one cell per type) or by quantity alone (one cell for both, though the
    belief jumps), or drawn per node."""
    n_nodes, n_q = grid.n_nodes, len(config.actions.quantities)
    mid = config.actions.index(config.actions.midpoint)
    if kind == "random":
        return random_rivals(config, grid, 103)
    other = {"midpoint": mid, "separating-price": mid + n_q,
             "separating-quantity": mid + 1}[kind]
    return np.full(n_nodes, mid), np.full(n_nodes, other)


def oracle_models():
    """The models the build is checked on: noise sd learned or known, a
    diagonal or correlated coefficient covariance, salvage on or off."""
    m = np.array([35.0, -2.0, 0.5, 3.0])
    sd = np.sqrt([100.0, 4.0, 4.0, 16.0])
    corr = np.array([[1.0, -0.6, 0.3, 0.1], [-0.6, 1.0, -0.2, 0.0],
                     [0.3, -0.2, 1.0, 0.05], [0.1, 0.0, 0.05, 1.0]])
    for fixed_sd, correlated, salvage_on in itertools.product(
            (None, 4.5), (False, True), (True, False)):
        S = sd[:, None] * (corr if correlated else np.eye(4)) * sd[None, :]
        yield EquilibriumModel(
            rival_types=(LOW, HIGH), salvage_on=salvage_on,
            hyper=PosteriorHyper(m, S, 3.0, 40.5, fixed_sd=fixed_sd))


@pytest.mark.parametrize("rivals", ["midpoint", "separating-price",
                                    "separating-quantity", "random"])
@pytest.mark.parametrize("axes", sorted(ORACLE_AXES))
def test_build_matches_the_node_by_node_reference(axes, rivals):
    # the per-cell build projects exactly the reference's successors; its
    # rewards mix the branch moments, so they agree to rounding
    for kappa in (0.0, 0.6):
        config = ORACLE_AXES[axes](kappa=kappa)
        grid = build_belief_grid(config)
        pair = oracle_rivals(rivals, config, grid)
        for model in oracle_models():
            got = build_dynamics(grid, config, model, (LOW, HIGH), pair)
            want = reference_build_dynamics(grid, config, model, (LOW, HIGH), pair)
            for g, w in zip(got, want, strict=True):
                np.testing.assert_array_equal(g.next_idx, w.next_idx)
                np.testing.assert_array_equal(g.weights, w.weights)
                np.testing.assert_allclose(g.reward, w.reward, rtol=1e-9,
                                           atol=1e-9 * np.abs(w.reward).max())


@pytest.mark.parametrize("axes", sorted(ORACLE_AXES))
def test_solve_on_the_reference_build_reaches_the_same_policies(axes,
                                                               monkeypatch):
    for kappa, model in itertools.product((0.0, 0.6), oracle_models()):
        config = ORACLE_AXES[axes](kappa=kappa)
        got, _, _, _ = equilibrium_iteration(config, model)
        with monkeypatch.context() as patch:
            patch.setattr(equilibrium, "build_dynamics", reference_build_dynamics)
            want, _, _, _ = equilibrium_iteration(config, model)
        for got_pols, want_pols in zip(got, want):
            for got_pol, want_pol in zip(got_pols, want_pols):
                np.testing.assert_array_equal(got_pol, want_pol)


def test_contraction_check_on_model_dynamics():
    config = make_config()
    model = make_model()
    grid = build_belief_grid(config)
    mid = np.full(grid.n_nodes,
                  len(config.actions.prices) * len(config.actions.quantities) // 2)
    dyn = build_dynamics(grid, config, model, (LOW,), (mid, mid))[0]
    report = contraction_check(dyn, config)
    assert report["passed"]
    assert abs(report["modulus"] - config.delta) <= 1e-12
    assert report["min_weight"] >= 0.0
    assert report["max_weight_sum_error"] <= 1e-12
    lo, hi = report["next_idx_range"]
    assert 0 <= lo <= hi < grid.n_nodes == report["nodes"]
    # the modulus is attained: a constant shift moves Tv by delta times it
    v = rngmod.stream(87, "cc").uniform(-100.0, 100.0, grid.n_nodes)
    tv, _ = bellman_core(v, dyn, config.delta)
    tw, _ = bellman_core(v + 10.0, dyn, config.delta)
    np.testing.assert_allclose(tw - tv, report["modulus"] * 10.0, atol=1e-9)


def _broken(dyn, part):
    """A copy of ``dyn`` with one entry of one part made invalid."""
    weights, next_idx = dyn.weights.copy(), dyn.next_idx.copy()
    n_nodes = dyn.reward.shape[0]
    if part == "negative weight":  # the node's weights still sum to 1
        weights[3, 1, 0] -= 0.1
        weights[3, 1, 1] += 0.1
    elif part == "weight sum above 1":
        weights[5, 0, 0] += 1e-9
    else:  # a successor one past the last node
        next_idx[2, 4, 1, 1] = n_nodes
    return DiscretizedDynamics(dyn.reward, next_idx, weights)


@pytest.mark.parametrize("part", ["negative weight", "weight sum above 1",
                                  "successor out of range"])
def test_contraction_check_rejects_crafted_dynamics(part):
    config = make_config()
    grid = build_belief_grid(config)
    mid = np.full(grid.n_nodes, 7)
    dyn = build_dynamics(grid, config, make_model(), (LOW,), (mid, mid))[0]
    assert contraction_check(dyn, config)["passed"]
    report = contraction_check(_broken(dyn, part), config)
    assert not report["passed"]
    # each crafted dynamics breaks one fact and keeps the other two
    assert (report["min_weight"] < 0.0) == (part == "negative weight")
    assert (report["max_weight_sum_error"] > 1e-12) == (
        part == "weight sum above 1")
    assert (report["next_idx_range"][1] == grid.n_nodes) == (
        part == "successor out of range")
    if part == "weight sum above 1":
        assert report["modulus"] > config.delta


# ------------------------------------------------------------- fixed points

def test_value_iteration_unique_fixed_point():
    config = make_config()
    model = make_model()
    grid = build_belief_grid(config)
    mid = np.full(grid.n_nodes, 7)
    dyn = build_dynamics(grid, config, model, (LOW,), (mid, mid))[0]
    rng = rngmod.stream(91, "init")
    v_a, pol_a, diag_a = value_iterate(
        dyn, config, initial=rng.uniform(-500, 500, grid.n_nodes))
    v_b, pol_b, diag_b = value_iterate(
        dyn, config, initial=rng.uniform(-500, 500, grid.n_nodes))
    tol_bound = 2 * config.tol / (1.0 - config.delta)
    assert np.max(np.abs(v_a - v_b)) < tol_bound
    assert diag_a.converged and diag_b.converged


def test_value_iteration_nonconvergence_raises():
    # toy seed 1 needs two policy iterations, and evaluating a policy takes
    # more than one matrix-vector product
    config = make_config(max_iter=1)
    with pytest.raises(NonConvergenceError) as err:
        value_iterate(toy_dynamics(seed=1), config)
    assert err.value.diagnostics is not None


def dense_evaluation(reward, next_idx, weights, delta):
    """``np.linalg.solve(I - delta P, r)`` with P assembled entry by entry."""
    n = reward.size
    P = np.zeros((n, n))
    for node in range(n):
        for succ, w in zip(next_idx[node].ravel(), weights[node].ravel()):
            P[node, succ] += w
    return np.linalg.solve(np.eye(n) - delta * P, reward)


def evaluation_inputs(dyn, policy):
    rows = np.arange(dyn.reward.shape[0])
    return dyn.reward[rows, policy], dyn.next_idx[rows, policy], dyn.weights


def default_grid_config(**kw):
    """The default 4 x 4 x 3 = 48-node belief grid."""
    axes = {f.name: f.default for f in dataclasses.fields(EquilibriumConfig)
            if f.name.endswith("_axis")}
    return make_config(**axes, **kw)


@pytest.mark.parametrize("delta", [0.5, 0.9, 0.98])
@pytest.mark.parametrize("case", ["toy0", "toy1", "toy2", "model"])
def test_policy_evaluation_is_the_linear_solve(case, delta):
    rng = rngmod.stream(97, "evaluation", case, int(delta * 100))
    if case == "model":
        config = default_grid_config(delta=delta, tol=1e-6)
        grid = build_belief_grid(config)
        assert grid.n_nodes == 48
        dyn = build_dynamics(grid, config, make_model(), (LOW,),
                             random_rivals(config, grid, 98))[0]
    else:
        config = make_config(delta=delta)
        dyn = toy_dynamics(seed=int(case[-1]))
    n_nodes, n_actions = dyn.reward.shape
    reward, next_idx, weights = evaluation_inputs(
        dyn, rng.integers(0, n_actions, n_nodes))
    want = dense_evaluation(reward, next_idx, weights, delta)
    # from zeros and from a warm start anywhere
    for start in (np.zeros(n_nodes), rng.uniform(-1e3, 1e3, n_nodes)):
        got = _evaluate_policy(start, reward, next_idx, weights, config,
                               IterationDiagnostics())
        assert np.max(np.abs(got - want)) < config.tol
        residual = reward + delta * np.einsum("nbk,nbk->n", got[next_idx],
                                              weights) - got
        assert np.max(np.abs(residual)) < (1.0 - delta) * config.tol


def test_policy_evaluation_at_zero_discount_is_the_reward():
    config = default_grid_config(delta=0.0)
    grid = build_belief_grid(config)
    dyn = build_dynamics(grid, config, make_model(), (LOW,),
                         random_rivals(config, grid, 99))[0]
    reward, next_idx, weights = evaluation_inputs(dyn, np.full(grid.n_nodes, 4))
    got = _evaluate_policy(np.zeros(grid.n_nodes), reward, next_idx, weights,
                           config, IterationDiagnostics())
    np.testing.assert_allclose(got, reward, rtol=0.0, atol=config.tol)


@pytest.mark.parametrize("seed", [100, 101, 102])
def test_policy_evaluation_converges_on_random_fine_grid_policies(seed):
    # the equilibrium-fine solve's axes, discount and tolerance, with the
    # default product budget; a random policy gives an unstructured chain
    config = fine_config(delta=0.98, tol=1e-6,
                         max_iter=EquilibriumConfig.max_iter)
    grid = build_belief_grid(config)
    dyn = build_dynamics(grid, config, make_model(), (LOW,),
                         random_rivals(config, grid, seed))[0]
    policy = rngmod.stream(seed, "own").integers(0, dyn.reward.shape[1],
                                                 grid.n_nodes)
    reward, next_idx, weights = evaluation_inputs(dyn, policy)
    start, _ = bellman_core(np.zeros(grid.n_nodes), dyn, config.delta)
    got = _evaluate_policy(start, reward, next_idx, weights, config,
                           IterationDiagnostics())
    want = dense_evaluation(reward, next_idx, weights, config.delta)
    assert np.max(np.abs(got - want)) < config.tol


def cycle_inputs(n_nodes=64):
    """A deterministic cycle through ``n_nodes`` nodes paying 1 at node 0:
    the classic slow case of a restarted Krylov solve, whose residual
    polynomial of degree GMRES_RESTART shrinks it by about delta ** 30 per
    cycle, so at delta = 0.98 the solve takes several hundred products."""
    next_idx = ((np.arange(n_nodes) + 1) % n_nodes).reshape(n_nodes, 1, 1)
    reward = np.zeros(n_nodes)
    reward[0] = 1.0
    return reward, next_idx, np.ones((n_nodes, 1, 1))


def test_policy_evaluation_raises_at_its_product_bound():
    reward, next_idx, weights = cycle_inputs()
    diag = IterationDiagnostics()
    with pytest.raises(NonConvergenceError,
                       match="in 100 matrix-vector products") as err:
        _evaluate_policy(np.zeros(reward.size), reward, next_idx, weights,
                         make_config(delta=0.98, tol=1e-6, max_iter=100), diag)
    assert err.value.diagnostics is diag
    # the default bound is enough, and the values are the cycle's
    config = make_config(delta=0.98, tol=1e-6,
                         max_iter=EquilibriumConfig.max_iter)
    got = _evaluate_policy(np.zeros(reward.size), reward, next_idx, weights,
                           config, diag)
    steps = (reward.size - np.arange(reward.size)) % reward.size
    want = config.delta ** steps / (1.0 - config.delta ** reward.size)
    assert np.max(np.abs(got - want)) < config.tol


def test_policy_evaluation_below_rounding_raises_instead_of_looping():
    # a residual bound far below double-precision rounding of the values is
    # out of reach: a restart cycle stops lowering the residual
    reward, next_idx, weights = evaluation_inputs(toy_dynamics(seed=1),
                                                  np.zeros(6, dtype=np.int64))
    with pytest.raises(NonConvergenceError, match="stalled"):
        _evaluate_policy(np.zeros(6), reward, next_idx, weights,
                         make_config(tol=1e-30), IterationDiagnostics())


def reference_value_iteration(dyn, delta, tol, max_sweeps=100_000):
    """Plain Bellman sweeps from zero until the sup-norm change is below tol."""
    values = np.zeros(dyn.reward.shape[0])
    for _ in range(max_sweeps):
        new_vals, greedy = bellman_core(values, dyn, delta)
        if np.max(np.abs(new_vals - values)) < tol:
            return new_vals, greedy
        values = new_vals
    raise AssertionError("reference value iteration did not converge")


@pytest.mark.parametrize("toy_seed", [None, 0, 1, 2, 3, 4],
                         ids=lambda s: "model" if s is None else f"toy{s}")
def test_policy_iteration_matches_value_iteration(toy_seed):
    config = make_config()
    if toy_seed is None:
        grid = build_belief_grid(config)
        mid = np.full(grid.n_nodes, 7)
        dyn = build_dynamics(grid, config, make_model(), (LOW,), (mid, mid))[0]
    else:
        dyn = toy_dynamics(seed=toy_seed)
    values, pol, diag = value_iterate(dyn, config)
    want_v, want_pol = reference_value_iteration(dyn, config.delta, config.tol)
    assert diag.converged
    np.testing.assert_array_equal(pol, want_pol)
    bound = config.tol * config.delta / (1.0 - config.delta)
    assert np.max(np.abs(values - want_v)) < bound


def test_delta_zero_value_iteration_is_myopic():
    config = make_config(delta=0.0)
    model = make_model()
    grid = build_belief_grid(config)
    mid = np.full(grid.n_nodes, 7)
    dyn = build_dynamics(grid, config, model, (LOW,), (mid, mid))[0]
    _, greedy, _ = value_iterate(dyn, config)
    np.testing.assert_array_equal(greedy, myopic_policy(dyn))


# ------------------------------------------------------- equilibrium search

def test_equilibrium_iteration_converges_and_is_mutual_best_response():
    config = make_config(sweep_cap=30)
    model = make_model()
    (pol1, pol2), values, solved, diag = equilibrium_iteration(
        config, model, rng=rngmod.stream(93, "eq"))
    assert diag.converged
    assert diag.policy_change_counts[-1] == 0
    assert solved is model  # no refresh: the model is returned as given
    grid = build_belief_grid(config)
    # at convergence each per-type policy is greedy against the rival's pair,
    # and the returned values are that best response's
    for firm, own_pols, rival_pols in ((0, pol1, pol2), (1, pol2, pol1)):
        for k, dyn in enumerate(build_dynamics(grid, config, model,
                                               model.rival_types, rival_pols)):
            want, greedy, _ = value_iterate(dyn, config)
            np.testing.assert_array_equal(own_pols[k], greedy)
            np.testing.assert_array_equal(values[firm][k], want)


def test_equilibrium_delta_zero_matches_myopic_tables():
    config = make_config(delta=0.0, sweep_cap=30)
    model = make_model()
    (pol1, pol2), _, _, diag = equilibrium_iteration(
        config, model, rng=rngmod.stream(95, "eq0"))
    assert diag.converged
    grid = build_belief_grid(config)
    for own_pols, rival_pols in ((pol1, pol2), (pol2, pol1)):
        for k, dyn in enumerate(build_dynamics(grid, config, model,
                                               model.rival_types, rival_pols)):
            np.testing.assert_array_equal(own_pols[k], myopic_policy(dyn))


# ------------------------------------------------------------------- guards

def test_grid_axes_validation():
    with pytest.raises(ValueError):
        make_config(inventory_axis=(10.0, 0.0))
    for bad in ((-0.5, 0.5, 1.0), (0.0, 0.5, 1.5)):
        with pytest.raises(ValueError, match="belief_axis"):
            make_config(belief_axis=bad)
    with pytest.raises(ValueError):
        make_config(delta=1.0)
    with pytest.raises(ValueError, match="strictly increasing"):
        make_config(actions=ActionGrid((12.0, 8.0), (20.0,)))
    for bad in (dict(tol=0.0), dict(tol=-1e-6), dict(max_iter=0)):
        with pytest.raises(ValueError):
            make_config(**bad)


def test_refresh_plays_each_firm_as_the_type_it_is_written_as():
    # firm 1 plays its low-cost policy and firm 2 its high-cost one, the
    # types cmd_equilibrium writes them as
    config = make_config(refresh_trajectories=3, refresh_horizon=4)
    grid = build_belief_grid(config)
    model = make_model()

    def posting(price):
        k = config.actions.index(Action(quantity=30.0, price=price))
        return np.full(grid.n_nodes, k, dtype=np.int64)

    def refreshed(firm1, firm2):
        return _refresh_hyper(grid, config, model, (firm1, firm2),
                              rngmod.stream(5, "refresh")).hyper

    base = refreshed((posting(10.0), posting(16.0)), (posting(8.0), posting(14.0)))
    # the policies of the types the firms do not play are never read
    same = refreshed((posting(10.0), posting(8.0)), (posting(16.0), posting(14.0)))
    # firm 2's high-cost policy is
    moved = refreshed((posting(10.0), posting(16.0)), (posting(8.0), posting(12.0)))
    for name in ("m", "S", "b"):
        np.testing.assert_array_equal(getattr(same, name), getattr(base, name))
        assert not np.array_equal(getattr(moved, name), getattr(base, name))


def test_refresh_without_rng_rejected():
    config = make_config(refresh_trajectories=5)
    with pytest.raises(ValueError, match="rng"):
        equilibrium_iteration(config, make_model())


def test_node_budget_enforced():
    config = make_config(node_budget=4)
    with pytest.raises(ValueError):
        build_belief_grid(config)
