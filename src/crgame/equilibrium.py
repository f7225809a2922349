"""Belief-state dynamic programming and the equilibrium iteration.

The full hyperparameter state is compressed to a tensor-product grid over
(inventory, demand-intercept posterior mean, rival high-cost probability);
the remaining hyperparameters are frozen at configured values. Transition
expectations use Gauss-Hermite quadrature over demand noise, so the Bellman
operator is deterministic and its contraction modulus follows exactly from the
branch weights (``contraction_check``). Posterior updates after a simulated
transition are projected to the nearest grid node (ties to the lower node).
A node's belief enters its dynamics only through its rival-type weights and
its successors' belief index, so ``build_dynamics`` does its heavy work once
per cell, a distinct (inventory, intercept mean, rival price), and mixes each
node's two rival-type branches by the law of total variance.
Each best response is solved by policy iteration, and each policy is
evaluated exactly by a restarted GMRES solve of ``(I - delta P_pi) v = r_pi``
whose matrix-vector product is one gather sweep, so no N x N matrix is built.
A Bellman sweep gathers and contracts its successor values one block of
``SWEEP_BLOCK`` nodes at a time, so beyond its (N, A) result it holds one
block's gather, whatever the number of nodes.
Each build is certified as it is made, so the solve hands back the
certificate of firm 1's last operator without building it again.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .learning import PosteriorHyper, conjugate_update
from .market import ActionGrid, period_profit

__all__ = [
    "FIRM_TYPES",
    "NODE_BUDGET",
    "EquilibriumConfig",
    "EquilibriumModel",
    "BeliefGrid",
    "IterationDiagnostics",
    "DiscretizedDynamics",
    "NonConvergenceError",
    "build_belief_grid",
    "build_dynamics",
    "bellman_core",
    "value_iterate",
    "equilibrium_iteration",
    "contraction_check",
]


# the own type each firm plays, as an index into ``rival_types``: firm 1 is
# low-cost and firm 2 high-cost
FIRM_TYPES = (0, 1)

# the most belief-grid nodes ``build_belief_grid`` accepts
NODE_BUDGET = 50_000

# how far a node's branch weights may sum from 1 for ``contraction_check``;
# the quadrature's sums lie within 2.2e-16
WEIGHT_SUM_TOL = 1e-12

# nodes per block of a Bellman sweep (``bellman_core``). On the default
# 9 x 10 action grid and 8-point quadrature a block gathers 64 x 90 x 16 =
# 92,160 successor values (0.74 MB). One sweep at 5,184 nodes took 19-20 ms
# with blocks of 32-256 nodes, 21 ms with 16 and 40 ms unblocked, and its
# tracemalloc peak fell from 63.5 to 4.5 MB (2-vCPU x86_64, numpy 2.4)
SWEEP_BLOCK = 64

# Arnoldi steps per GMRES cycle of ``_evaluate_policy``; the basis it keeps
# is (GMRES_RESTART + 1) x N
GMRES_RESTART = 30


class NonConvergenceError(RuntimeError):
    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass
class EquilibriumConfig:
    """Belief grid, action grid and solver settings of the equilibrium solve.

    ``tol`` is the sup-norm stopping tolerance of each best response.
    ``max_iter`` bounds both the policy iterations of a best response and the
    matrix-vector products of each policy evaluation inside it (see
    ``value_iterate``).
    ``sweep_cap`` bounds the rounds of alternating best responses.
    """

    actions: ActionGrid
    inventory_axis: tuple = (0.0, 10.0, 20.0, 30.0)
    intercept_axis: tuple = (30.0, 37.5, 45.0, 52.5)
    belief_axis: tuple = (0.0, 0.5, 1.0)
    delta: float = 0.98
    kappa: float = 0.6
    quad_points: int = 8
    tol: float = 1e-6
    max_iter: int = 5000
    sweep_cap: int = 25
    refresh_trajectories: int = 0
    refresh_horizon: int = 10

    def __post_init__(self):
        if not 0.0 <= self.delta < 1.0:
            raise ValueError("discount factor must lie in [0, 1)")
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if self.kappa < 0:
            raise ValueError("kappa must be nonnegative")
        for name in ("quad_points", "max_iter", "sweep_cap", "refresh_horizon"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.refresh_trajectories < 0:
            raise ValueError("refresh_trajectories must be nonnegative")
        for name in ("inventory_axis", "intercept_axis", "belief_axis"):
            axis = np.asarray(getattr(self, name), dtype=float)
            if axis.size < 2:
                raise ValueError(f"{name} needs at least 2 points")
            if np.any(np.diff(axis) <= 0):
                raise ValueError(f"{name} must be strictly increasing")
        if self.belief_axis[0] < 0 or self.belief_axis[-1] > 1:
            raise ValueError("belief_axis entries must lie in [0, 1]")


@dataclass
class EquilibriumModel:
    """Frozen economic primitives the grid game is built from."""

    rival_types: tuple          # (low-cost FirmType, high-cost FirmType)
    hyper: PosteriorHyper       # frozen posterior; intercept mean varies per node
    salvage_on: bool = True


@dataclass
class BeliefGrid:
    inv_axis: np.ndarray
    m0_axis: np.ndarray
    mu_axis: np.ndarray
    nodes: np.ndarray  # (N, 3) columns: inventory, intercept mean, P(rival high-cost)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    def locate(self, inv, m0, mu):
        """Index of the node nearest (inv, m0, mu), projected axis by axis;
        the coordinates broadcast, so arrays give an array of indices."""
        return ((_project(self.inv_axis, inv) * self.m0_axis.size
                 + _project(self.m0_axis, m0)) * self.mu_axis.size
                + _project(self.mu_axis, mu))


@dataclass
class IterationDiagnostics:
    """Per step of a best response (a policy iteration) or of the equilibrium
    iteration (a round): the sup-norm change, the policy changes and the
    GMRES matrix-vector products spent; per round also the builds of the
    dynamics. ``contraction`` is the equilibrium iteration's certificate of
    firm 1's Bellman operator in its last round."""

    sup_norm_deltas: list = field(default_factory=list)
    policy_change_counts: list = field(default_factory=list)
    matvec_products: list = field(default_factory=list)
    dynamics_builds: list = field(default_factory=list)
    contraction: dict | None = None
    converged: bool = False


@dataclass
class DiscretizedDynamics:
    """Deterministic finite game seen by one firm given the rival's policy.

    reward: (N, A); next_idx: (N, A, B, K) node indices over rival-type
    branches B and quadrature nodes K; weights: (N, B, K) joint probability
    of each branch, the rival-type belief times the quadrature weight.
    """

    reward: np.ndarray
    next_idx: np.ndarray
    weights: np.ndarray


def build_belief_grid(config: EquilibriumConfig) -> BeliefGrid:
    inv = np.asarray(config.inventory_axis, dtype=float)
    m0 = np.asarray(config.intercept_axis, dtype=float)
    mu = np.asarray(config.belief_axis, dtype=float)
    count = inv.size * m0.size * mu.size
    if count > NODE_BUDGET:
        raise ValueError(
            f"grid would have {count} nodes, above the budget of "
            f"{NODE_BUDGET}; reduce per-axis resolutions")
    grids = np.meshgrid(inv, m0, mu, indexing="ij")
    nodes = np.stack([g.reshape(-1) for g in grids], axis=1)
    return BeliefGrid(inv, m0, mu, nodes)


def _project(axis: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Nearest-node projection with ties resolved to the lower node."""
    idx = np.searchsorted(axis, values)
    idx = np.clip(idx, 1, axis.size - 1)
    lower = axis[idx - 1]
    upper = axis[idx]
    choose_upper = (values - lower) > (upper - values)
    return np.where(choose_upper, idx, idx - 1)


def _hermite_rule(k: int):
    """Nodes/weights for E[f(Z)], Z standard normal."""
    x, w = np.polynomial.hermite.hermgauss(k)
    return x * np.sqrt(2.0), w / np.sqrt(np.pi)


def build_dynamics(grid: BeliefGrid, config: EquilibriumConfig,
                   model: EquilibriumModel, own_types: tuple,
                   rival_policies: tuple) -> tuple:
    """Precompute rewards and projected transitions for one firm.

    A policy is the (N,) int64 array of each node's flat index into the
    price-major action grid. ``rival_policies`` holds one per hypothesized
    rival type (low, high); the rival is assumed to act from the mirrored
    node. Rewards are credible-risk scores over the joint (rival type, demand
    noise) mixture; the type-belief transition follows Bayes' rule against
    the rival's deterministic per-type policies.

    A node's belief enters only through its type weights and its successors'
    belief index, so the heavy work runs once per cell: a distinct
    (inventory, intercept mean, rival price) over the (node, rival type)
    branches. Per own price, a cell computes demand, sales and leftover stock
    over (quantity, quadrature node), their projection onto the inventory
    and intercept axes, and each own type's branch mean ``M`` and variance
    ``V`` of profit over the quadrature. A node mixes its two branches' cells
    by the law of total variance, ``mean = sum_b pi_b M_b`` and ``var =
    sum_b pi_b (V_b + (M_b - mean)^2)``, and adds its branch's belief index
    to the cell's successor.

    Returns one DiscretizedDynamics per own type. Transitions and weights
    depend only on the rival, so the types share them; each type's reward is
    computed exactly as a single-type build computes it.
    """
    prices = np.asarray(config.actions.prices, dtype=float)
    quants = np.asarray(config.actions.quantities, dtype=float)
    zq, wq = _hermite_rule(config.quad_points)
    n_nodes = grid.n_nodes
    hyper, coef, S = model.hyper, model.hyper.m, model.hyper.S

    inv, m0, mu_hi = grid.nodes.T
    type_probs = np.stack([1.0 - mu_hi, mu_hi], axis=1)                 # (N, B)
    weights = type_probs[:, :, None] * wq[None, None, :]               # (N, B, K)

    rival_actions = np.stack(rival_policies, axis=1)                  # (N, B)
    rp = config.actions.price(rival_actions)  # (N, B) rival price per node/type
    # a separating rival reveals its type; a pooling one leaves the belief
    separating = (rival_actions[:, 0] != rival_actions[:, 1])[:, None]
    mu_next = np.where(separating, np.array([0.0, 1.0]), mu_hi[:, None])
    mu_idx = _project(grid.mu_axis, mu_next)                          # (N, B)

    # the nodes of one (inventory, intercept) pair differ only in belief, so
    # a cell is keyed by that pair and the rival's price level
    levels, level = np.unique(rp, return_inverse=True)
    pair = np.arange(n_nodes) // grid.mu_axis.size
    keys = pair[:, None] * levels.size + level.reshape(rp.shape)
    _, first, cells = np.unique(keys, return_index=True, return_inverse=True)
    cells = cells.reshape(rp.shape)                  # (N, B) cell of each branch
    node, branch = np.divmod(first, 2)
    c_m0, c_rp = m0[node], rp[node, branch]                            # (C,)
    stock = (inv[node, None] + quants[None, :])[:, :, None]            # (C, Q, 1)

    probs = type_probs[:, :, None]                                     # (N, B, 1)
    rewards = [np.empty((n_nodes, prices.size, quants.size)) for _ in own_types]
    next_idx = np.empty((n_nodes, prices.size, quants.size, 2, zq.size), dtype=np.int64)
    for ip, p in enumerate(prices):
        # predictive demand; the lagged rival stockout is frozen at 0, and
        # the sd includes the frozen coefficient uncertainty
        x_mean = c_m0 + coef[1] * p + coef[2] * c_rp                  # (C,)
        x_cov = np.stack([np.ones_like(c_rp), np.full_like(c_rp, p), c_rp,
                          np.zeros_like(c_rp)], axis=1)                # (C, 4)
        quad_form = np.einsum("ci,ij,cj->c", x_cov, S, x_cov)
        sd_pred = hyper.predictive_sd(quad_form)
        demand = x_mean[:, None] + sd_pred[:, None] * zq               # (C, K)
        gains = (x_cov @ S)[:, 0] / hyper.update_denom(quad_form)
        m0_next = c_m0[:, None] + gains[:, None] * (demand - x_mean[:, None])

        sales = np.clip(demand[:, None], 0.0, stock)                   # (C, Q, K)
        left = stock - sales
        for reward, own_type in zip(rewards, own_types):
            prof = period_profit(p, sales, quants[:, None], left,
                                 own_type, model.salvage_on)
            cell_mean = prof @ wq                                      # (C, Q)
            cell_var = (prof - cell_mean[:, :, None]) ** 2 @ wq
            # the law of total variance over the node's two branches
            branch_mean = cell_mean[cells]                             # (N, B, Q)
            mean = (probs * branch_mean).sum(axis=1)
            var = (probs * (cell_var[cells]
                            + (branch_mean - mean[:, None]) ** 2)).sum(axis=1)
            reward[:, ip] = mean - config.kappa * np.sqrt(np.maximum(var, 0.0))
        # each cell's successors at belief index 0; a branch adds its own
        succ = grid.locate(left, m0_next[:, None], grid.mu_axis[0])    # (C, Q, K)
        for b in (0, 1):
            np.add(succ[cells[:, b]], mu_idx[:, b, None, None],
                   out=next_idx[:, ip, :, b])

    next_idx = next_idx.reshape(n_nodes, -1, 2, zq.size)
    return tuple(DiscretizedDynamics(reward.reshape(n_nodes, -1), next_idx, weights)
                 for reward in rewards)


def bellman_core(values: np.ndarray, dyn: DiscretizedDynamics,
                 delta: float) -> tuple[np.ndarray, np.ndarray]:
    """One deterministic Bellman sweep; returns (new values, greedy policy).

    The continuation of every (node, action) is one batched contraction of
    the gathered successor values over the node's B*K branches. The sweep
    gathers and contracts ``SWEEP_BLOCK`` nodes at a time into one (N, A)
    array, so its temporary is one block's, whatever the number of nodes;
    each node's product is the same as in a single whole-grid batch.
    """
    n_nodes, n_actions = dyn.reward.shape
    next_idx = dyn.next_idx.reshape(n_nodes, n_actions, -1)
    weights = dyn.weights.reshape(n_nodes, -1, 1)
    cont = np.empty((n_nodes, n_actions, 1))
    for lo in range(0, n_nodes, SWEEP_BLOCK):
        block = slice(lo, lo + SWEEP_BLOCK)
        np.matmul(values[next_idx[block]], weights[block], out=cont[block])
    # reward + delta * cont, in place: the sweep's one (N, A) array
    q_vals = cont[:, :, 0]
    q_vals *= delta
    q_vals += dyn.reward
    greedy = q_vals.argmax(axis=1)
    return q_vals.max(axis=1), greedy


def value_iterate(dyn: DiscretizedDynamics, config: EquilibriumConfig,
                  initial: np.ndarray | None = None
                  ) -> tuple[np.ndarray, np.ndarray, IterationDiagnostics]:
    """Solve one firm's best response to ``dyn`` by policy iteration.

    Starting from the greedy policy of ``initial`` (zeros by default), each
    iteration evaluates the current policy to within ``config.tol`` of its
    value by a linear solve (``_evaluate_policy``), then improves it with one
    Bellman sweep. The diagnostics record, per iteration, that sweep's
    ``sup|Tv - v|`` and the number of nodes whose action changed.
    The solve stops when ``sup|Tv - v| < tol`` and returns ``Tv`` with its
    greedy policy, as value iteration would, so the returned values lie
    within ``tol * delta / (1 - delta)`` of the fixed point.

    ``config.max_iter`` bounds both the number of policy iterations and the
    matrix-vector products of each policy evaluation; reaching either bound,
    or an evaluation that stalls, raises ``NonConvergenceError``.
    """
    n_nodes = dyn.reward.shape[0]
    values = np.zeros(n_nodes) if initial is None else np.asarray(initial, float)
    values, policy = bellman_core(values, dyn, config.delta)
    rows = np.arange(n_nodes)
    diag = IterationDiagnostics()
    for _ in range(config.max_iter):
        values = _evaluate_policy(values, dyn.reward[rows, policy],
                                  dyn.next_idx[rows, policy], dyn.weights, config,
                                  diag)
        new_vals, new_policy = bellman_core(values, dyn, config.delta)
        delta_sup = float(np.max(np.abs(new_vals - values)))
        diag.sup_norm_deltas.append(delta_sup)
        diag.policy_change_counts.append(int(np.count_nonzero(new_policy != policy)))
        values, policy = new_vals, new_policy
        if delta_sup < config.tol:
            diag.converged = True
            return values, policy, diag
    raise NonConvergenceError(
        f"policy iteration did not reach tol={config.tol} in {config.max_iter} "
        "iterations", diag)


def _evaluate_policy(values: np.ndarray, reward: np.ndarray, next_idx: np.ndarray,
                     weights: np.ndarray, config: EquilibriumConfig,
                     diag: IterationDiagnostics) -> np.ndarray:
    """Solve ``(I - delta P) v = r`` for one fixed policy by restarted GMRES.

    ``reward`` is (N,), ``next_idx`` and ``weights`` are (N, B, K), and
    ``(P v)[n] = sum(weights[n] * v[next_idx[n]])``, so each matrix-vector
    product is one gather sweep; no N x N matrix is formed. The solve starts
    from ``values`` and restarts after ``GMRES_RESTART`` Arnoldi steps. It
    stops when the residual ``max|r + delta P v - v|`` is below
    ``(1 - delta) * config.tol``, which bounds ``|v - v_pi|`` by
    ``config.tol``, because ``(I - delta P)^-1`` has sup-norm
    ``1 / (1 - delta)``. Reaching
    ``config.max_iter`` products, or a restart cycle that does not lower the
    residual's 2-norm, raises ``NonConvergenceError``. The products a solve
    spent are appended to ``diag.matvec_products``.
    """
    delta = config.delta
    threshold = (1.0 - delta) * config.tol

    def operator(v):
        return v - delta * np.einsum("nbk,nbk->n", v[next_idx], weights)

    residual = reward - operator(values)
    products = 1
    norm = float(np.linalg.norm(residual))
    while float(np.max(np.abs(residual))) >= threshold:
        steps = min(GMRES_RESTART, config.max_iter - products - 1)
        if steps < 1:
            raise NonConvergenceError(
                f"policy evaluation did not reach tol={config.tol} in "
                f"{config.max_iter} matrix-vector products", diag)
        # Arnoldi with classical Gram-Schmidt run twice; Givens rotations
        # keep the Hessenberg least-squares problem triangular, and g[j + 1]
        # is the residual 2-norm after j + 1 steps
        basis = np.empty((steps + 1, values.size))
        basis[0] = residual / norm
        tri = np.zeros((steps, steps))
        cos, sin = np.zeros(steps), np.zeros(steps)
        g = np.zeros(steps + 1)
        g[0] = norm
        for j in range(steps):
            w = operator(basis[j])
            products += 1
            h = np.zeros(j + 2)
            for _ in range(2):
                coef = basis[:j + 1] @ w
                w -= coef @ basis[:j + 1]
                h[:j + 1] += coef
            h[j + 1] = np.linalg.norm(w)
            for i in range(j):
                h[i], h[i + 1] = (cos[i] * h[i] + sin[i] * h[i + 1],
                                  cos[i] * h[i + 1] - sin[i] * h[i])
            rho = np.hypot(h[j], h[j + 1])
            cos[j], sin[j] = h[j] / rho, h[j + 1] / rho
            tri[:j, j] = h[:j]
            tri[j, j] = rho
            g[j + 1] = -sin[j] * g[j]
            g[j] *= cos[j]
            if abs(g[j + 1]) < threshold:
                break
            basis[j + 1] = w / h[j + 1]
        k = j + 1
        values = values + np.linalg.solve(tri[:k, :k], g[:k]) @ basis[:k]
        residual = reward - operator(values)
        products += 1
        new_norm = float(np.linalg.norm(residual))
        if not new_norm < norm:
            raise NonConvergenceError(
                f"policy evaluation stalled at residual {new_norm:.3g} after "
                f"{products} matrix-vector products", diag)
        norm = new_norm
    diag.matvec_products.append(products)
    return values


def equilibrium_iteration(config: EquilibriumConfig, model: EquilibriumModel,
                          rng: np.random.Generator | None = None):
    """Alternating best responses over per-(firm, type) grid policies.

    Returns the last round's ``(policies, values, model, diagnostics)``:
    ``policies[f][k]`` and ``values[f][k]`` are firm ``f``'s as own type
    ``model.rival_types[k]``, solved under ``model`` (refrozen at the start
    of each round after the first when ``refresh_trajectories`` is set).
    Policy cycling beyond the sweep cap returns ``converged=False``.
    The refresh draws its trajectories from ``rng``, so ``refresh_trajectories
    > 0`` without one raises ``ValueError``.

    A best response depends only on the rival's policy pair and the frozen
    model, and every one starts from zeros, so each distinct pair is solved
    once per model: a repeated pair reuses the earlier result, which is what
    a fresh solve would return. The diagnostics count, per round, the builds
    of the dynamics and the matrix-vector products of the best responses
    solved in it, and keep the contraction certificate of the dynamics firm
    1 faced in the last round: the operator whose fixed point its returned
    values are.
    """
    if config.refresh_trajectories > 0 and rng is None:
        raise ValueError("refresh_trajectories > 0 needs an rng to draw "
                         "trajectories from")
    grid = build_belief_grid(config)
    mid = config.actions.index(config.actions.midpoint)
    policies = [[np.full(grid.n_nodes, mid, dtype=np.int64)] * 2 for _ in (0, 1)]
    values = [[None, None], [None, None]]
    diag = IterationDiagnostics()
    # rival pair's action bytes -> (per-own-type (values, policy, diag),
    # contraction certificate)
    solved = {}

    for sweep in range(config.sweep_cap):
        if sweep > 0 and config.refresh_trajectories > 0:
            model = _refresh_hyper(grid, config, model, policies, rng)
            solved.clear()
        changes = builds = products = 0
        sup_delta = 0.0
        for firm in (0, 1):
            rivals = tuple(policies[1 - firm])
            key = tuple(pol.tobytes() for pol in rivals)
            if key not in solved:
                solved[key] = _best_responses(grid, config, model, rivals)
                builds += 1
                products += sum(sum(vi_diag.matvec_products)
                                for _, _, vi_diag in solved[key][0])
            responses, certificate = solved[key]
            if firm == 0:
                diag.contraction = certificate
            for k, (vals, new_pol, vi_diag) in enumerate(responses):
                values[firm][k] = vals
                changes += int(np.count_nonzero(new_pol != policies[firm][k]))
                sup_delta = max(sup_delta, vi_diag.sup_norm_deltas[-1])
                policies[firm][k] = new_pol
        diag.policy_change_counts.append(changes)
        diag.sup_norm_deltas.append(sup_delta)
        diag.dynamics_builds.append(builds)
        diag.matvec_products.append(products)
        if changes == 0:
            diag.converged = True
            break
    return (tuple(map(tuple, policies)), tuple(map(tuple, values)), model,
            diag)


def _best_responses(grid: BeliefGrid, config: EquilibriumConfig,
                    model: EquilibriumModel, rivals: tuple) -> tuple:
    """Each own type's best response to one rival policy pair, and the
    contraction certificate of its dynamics, from one build; the build is
    freed on return, so at most one is alive at a time."""
    dyns = build_dynamics(grid, config, model, model.rival_types, rivals)
    # the certificate reads only the transitions and weights the types share
    return (tuple(value_iterate(dyn, config) for dyn in dyns),
            contraction_check(dyns[0], config))


def _refresh_hyper(grid: BeliefGrid, config: EquilibriumConfig,
                   model: EquilibriumModel, policies, rng) -> EquilibriumModel:
    """Simulate short play paths and refreeze the grid's hyperparameters.

    Trajectories are generated from the current greedy policies of the types
    the firms play (``FIRM_TYPES``) with the node posterior mean as ground
    truth; the posterior after ``refresh_horizon`` observations (averaged
    over trajectories) replaces the frozen scale/shape/rate and non-intercept
    means.
    """
    own_policy, rival_policy = (policies[f][k] for f, k in enumerate(FIRM_TYPES))
    sigma = model.hyper.noise_sd()
    acc_S = np.zeros_like(model.hyper.S)
    acc_m = np.zeros_like(model.hyper.m)
    acc_a = 0.0
    acc_b = 0.0
    for _ in range(config.refresh_trajectories):
        hyper = model.hyper.copy()
        node = int(rng.integers(grid.n_nodes))
        for _ in range(config.refresh_horizon):
            own = config.actions.action(own_policy[node])
            x = np.array([1.0, own.price,
                          config.actions.price(rival_policy[node]), 0.0])
            demand = float(x @ hyper.m) + sigma * rng.standard_normal()
            hyper = conjugate_update(hyper, x, demand)
            inv_next = max(grid.nodes[node, 0] + own.quantity - max(demand, 0.0), 0.0)
            node = int(grid.locate(inv_next, hyper.m[0], grid.nodes[node, 2]))
        acc_S += hyper.S
        acc_m += hyper.m
        acc_a += hyper.a
        acc_b += hyper.b
    k = config.refresh_trajectories
    new_hyper = PosteriorHyper(acc_m / k, acc_S / k, acc_a / k, acc_b / k,
                               model.hyper.fixed_sd)
    return replace(model, hyper=new_hyper)


def contraction_check(dyn: DiscretizedDynamics,
                      config: EquilibriumConfig) -> dict:
    """Certify that ``dyn``'s Bellman operator is a sup-norm contraction.

    With every branch weight nonnegative and every successor index naming a
    node, Blackwell's sufficient conditions bound ``|Tv - Tw|`` by
    ``delta * max_n sum(weights[n]) * |v - w|``, and a constant shift of
    ``v`` attains it, because a node's weights are shared by all its actions:
    the modulus is exactly ``delta`` times the largest weight sum. The
    certificate passes when those two facts hold and every node's weights
    sum to 1 within ``WEIGHT_SUM_TOL``, so the modulus is ``delta``.
    """
    n_nodes = dyn.reward.shape[0]
    sums = dyn.weights.reshape(n_nodes, -1).sum(axis=1)
    min_weight = float(dyn.weights.min())
    sum_error = float(np.max(np.abs(sums - 1.0)))
    lo, hi = int(dyn.next_idx.min()), int(dyn.next_idx.max())
    return {
        "delta": config.delta,
        "modulus": config.delta * float(sums.max()),
        "min_weight": min_weight,
        "max_weight_sum_error": sum_error,
        "next_idx_range": [lo, hi],
        "nodes": n_nodes,
        "passed": (min_weight >= 0.0 and sum_error <= WEIGHT_SUM_TOL
                   and 0 <= lo and hi < n_nodes),
    }
