"""Time one policy evaluation of the equilibrium solver at three grid sizes.

    PYTHONPATH=src python benchmarks/solver_eval.py [--repeats 5] [--out FILE]

For the default 4 x 4 x 3 = 48-node grid, the 8 x 8 x 3 = 192-node grid of
perfbench's ``equilibrium-fine`` workload and a 48 x 36 x 3 = 5,184-node
grid, it evaluates one own policy against one rival policy pair under the
default model, discount and tolerance: at the midpoint policy (own and
rivals) and at three random policies, which give unstructured chains. Each
evaluation starts where a best response's first one does, from one Bellman
sweep of zeros. It compares ``equilibrium._evaluate_policy`` (a GMRES solve)
with the fixed-policy value iteration it replaced, which sweeps
``v <- r + delta P v`` until the sup-norm change is below ``tol``:

- ``sweeps``: value-iteration sweeps; ``products``: the solve's
  matrix-vector products (each one gather sweep), counted in a separate
  untimed run;
- ``sweep_ms`` / ``solve_ms``: median wall time of one evaluation over
  ``--repeats`` runs;
- ``sweep_err`` / ``solve_err``: the largest gap to a dense
  ``np.linalg.solve(I - delta P, r)``, for grids of at most 192 nodes.

Prints one JSON object with the machine it ran on.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import statistics
import time

import numpy as np

from crgame import cli, equilibrium
from crgame.equilibrium import IterationDiagnostics

GRIDS = {  # nodes -> (inventory axis, intercept axis)
    48: ([0.0, 10.0, 20.0, 30.0], [30.0, 37.5, 45.0, 52.5]),
    192: ([5.0 * i for i in range(8)], [30.0 + 3.75 * i for i in range(8)]),
    5184: ([1.0 * i for i in range(48)], [30.0 + 30.0 / 35 * i for i in range(36)]),
}
DENSE_MAX_NODES = 192
RANDOM_SEEDS = (1, 2, 3)


def sweep_evaluate(values, reward, next_idx, weights, config):
    """The fixed-policy value iteration the solve replaced; returns the
    values and the number of sweeps."""
    for sweep in range(1, config.max_iter + 1):
        new_vals = reward + config.delta * np.einsum("nbk,nbk->n",
                                                     values[next_idx], weights)
        if float(np.max(np.abs(new_vals - values))) < config.tol:
            return new_vals, sweep
        values = new_vals
    raise RuntimeError(f"no convergence in {config.max_iter} sweeps")


@contextlib.contextmanager
def counting_products():
    """Count the solve's matrix-vector products: each is one
    ``einsum("nbk,nbk->n", ...)`` call."""
    calls = [0]
    einsum = np.einsum

    def counted(subscripts, *operands, **kw):
        calls[0] += subscripts == "nbk,nbk->n"
        return einsum(subscripts, *operands, **kw)

    np.einsum = counted
    try:
        yield calls
    finally:
        np.einsum = einsum


def dense_solve(reward, next_idx, weights, delta):
    n = reward.size
    P = np.zeros((n, n))
    np.add.at(P, (np.repeat(np.arange(n), next_idx[0].size), next_idx.reshape(-1)),
              weights.reshape(-1))
    return np.linalg.solve(np.eye(n) - delta * P, reward)


def median_ms(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def cases(config, n_nodes):
    n_actions = len(config.actions.prices) * len(config.actions.quantities)
    mid = np.full(n_nodes, config.actions.index(config.actions.midpoint))
    yield "midpoint", (mid, mid), mid
    for seed in RANDOM_SEEDS:
        rng = np.random.default_rng(seed)
        rivals = tuple(rng.integers(0, n_actions, n_nodes) for _ in (0, 1))
        yield f"random-{seed}", rivals, rng.integers(0, n_actions, n_nodes)


def evaluate_grid(n_nodes, repeats):
    inventory, intercept = GRIDS[n_nodes]
    cfg = cli.load_config(None, {})
    cfg["equilibrium"].update(inventory_axis=inventory, intercept_axis=intercept)
    config, model, _ = cli.build_eq_inputs(cfg)
    grid = equilibrium.build_belief_grid(config)
    assert grid.n_nodes == n_nodes
    rows = []
    for name, rivals, own in cases(config, n_nodes):
        dyn = equilibrium.build_dynamics(grid, config, model,
                                         model.rival_types[:1], rivals)[0]
        nodes = np.arange(n_nodes)
        args = (dyn.reward[nodes, own], dyn.next_idx[nodes, own], dyn.weights)
        start, _ = equilibrium.bellman_core(np.zeros(n_nodes), dyn, config.delta)

        def solve():
            return equilibrium._evaluate_policy(start, *args, config,
                                                IterationDiagnostics())

        swept, sweeps = sweep_evaluate(start, *args, config)
        with counting_products() as products:
            solved = solve()
        row = {"nodes": n_nodes, "policy": name, "sweeps": sweeps,
               "products": products[0],
               "sweep_ms": median_ms(lambda: sweep_evaluate(start, *args, config),
                                     repeats),
               "solve_ms": median_ms(solve, repeats)}
        if n_nodes <= DENSE_MAX_NODES:
            exact = dense_solve(*args, config.delta)
            row["sweep_err"] = float(np.max(np.abs(swept - exact)))
            row["solve_err"] = float(np.max(np.abs(solved - exact)))
        rows.append(row)
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", help="also write the JSON here")
    args = parser.parse_args(argv)
    result = {
        "machine": {"machine": platform.machine(),
                    "python": platform.python_version(),
                    "numpy": np.__version__,
                    "affinity_cpus": len(os.sched_getaffinity(0))},
        "repeats": args.repeats,
        "evaluations": [row for n_nodes in GRIDS
                        for row in evaluate_grid(n_nodes, args.repeats)],
    }
    text = json.dumps(result, indent=1)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


if __name__ == "__main__":
    main()
