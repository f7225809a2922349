"""Time one two-type build of the equilibrium solver's dynamics at three grid sizes.

    PYTHONPATH=src python benchmarks/solver_build.py [--repeats 5] [--out FILE]

For the default 4 x 4 x 3 = 48-node grid, the 8 x 8 x 3 = 192-node grid of
perfbench's ``equilibrium-fine`` workload and a 24 x 24 x 9 = 5,184-node
grid, under the default model and action grid, it builds both own types'
dynamics against three kinds of rival policy pair:

- ``midpoint``: both rival types post the grid's midpoint everywhere, the
  pair every solve starts from;
- ``separating``: the types post two different prices everywhere, so the
  type belief jumps to 0 or 1 on the branches;
- ``random-<seed>``: each type's action is drawn per node, which leaves
  almost no two (node, rival type) branches in one cell.

Per case it reports ``cells`` (distinct (inventory, intercept mean, rival
price) triples over the N x 2 branches), ``build_ms`` (median wall time of
``equilibrium.build_dynamics`` over ``--repeats`` runs) and ``reference_ms``
(the same for the node-by-node build in ``tests/oracles.py``, which the
package used before its builds ran per cell). On the low-cost type's
dynamics it also times one Bellman sweep from zeros,
``equilibrium.bellman_core``: ``sweep_ms`` is its median wall time over
``--repeats`` runs and ``sweep_peak_mb`` the ``tracemalloc`` peak of one
more, the memory the sweep allocates beyond its inputs. Prints one JSON
object with the machine it ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tracemalloc

import numpy as np

from crgame import cli, equilibrium
from solver_eval import median_ms  # this script's directory

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tests"))
from oracles import reference_build_dynamics  # noqa: E402

GRIDS = {  # nodes -> (inventory axis, intercept axis, belief axis)
    48: ([0.0, 10.0, 20.0, 30.0], [30.0, 37.5, 45.0, 52.5], [0.0, 0.5, 1.0]),
    192: ([5.0 * i for i in range(8)], [30.0 + 3.75 * i for i in range(8)],
          [0.0, 0.5, 1.0]),
    5184: ([2.5 * i for i in range(24)], [30.0 + 30.0 / 23 * i for i in range(24)],
           [0.125 * i for i in range(9)]),
}
RANDOM_SEEDS = (1, 2)


def rival_pairs(config, n_nodes):
    actions = config.actions
    mid = actions.index(actions.midpoint)
    yield "midpoint", (np.full(n_nodes, mid), np.full(n_nodes, mid))
    # the high-cost type posts the next price up
    yield "separating", (np.full(n_nodes, mid),
                         np.full(n_nodes, mid + len(actions.quantities)))
    n_actions = len(actions.prices) * len(actions.quantities)
    for seed in RANDOM_SEEDS:
        rng = np.random.default_rng(seed)
        yield f"random-{seed}", tuple(rng.integers(0, n_actions, n_nodes)
                                      for _ in (0, 1))


def time_grid(n_nodes, repeats):
    inventory, intercept, belief = GRIDS[n_nodes]
    cfg = cli.load_config(None, {})
    cfg["equilibrium"].update(inventory_axis=inventory, intercept_axis=intercept,
                              belief_axis=belief)
    config, model, _ = cli.build_eq_inputs(cfg)
    grid = equilibrium.build_belief_grid(config)
    assert grid.n_nodes == n_nodes
    rows = []
    for name, rivals in rival_pairs(config, n_nodes):
        args = (grid, config, model, model.rival_types, rivals)
        rp = config.actions.price(np.stack(rivals, axis=1))
        pair = np.arange(n_nodes) // grid.mu_axis.size
        cells = len(set(zip(np.repeat(pair, 2), rp.ravel())))
        dyn = equilibrium.build_dynamics(*args)[0]
        zeros = np.zeros(n_nodes)
        rows.append({
            "nodes": n_nodes, "rivals": name, "cells": cells,
            "build_ms": median_ms(lambda: equilibrium.build_dynamics(*args),
                                  repeats),
            "reference_ms": median_ms(lambda: reference_build_dynamics(*args),
                                      repeats),
            "sweep_ms": median_ms(lambda: equilibrium.bellman_core(
                zeros, dyn, config.delta), repeats),
            "sweep_peak_mb": sweep_peak_mb(zeros, dyn, config.delta)})
    return rows


def sweep_peak_mb(values, dyn, delta):
    """tracemalloc peak of one Bellman sweep, in MB."""
    tracemalloc.start()
    try:
        equilibrium.bellman_core(values, dyn, delta)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


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
        "builds": [row for n_nodes in GRIDS
                   for row in time_grid(n_nodes, args.repeats)],
    }
    text = json.dumps(result, indent=1)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


if __name__ == "__main__":
    main()
