"""Time the study's per-period layers at one fixed state.

    PYTHONPATH=src python benchmarks/study_layers.py [--repeats 7] [--out FILE]

Under the default ``SimConfig`` (fixed noise sd), with the prior as the
shared posterior, firm 1 low-cost and firm 2 high-cost, inventories
(5, 12.5) and the actions (q 40, p 12) and (q 30, p 14), it times:

- ``select_action``: one decision of the proposed policy, its predictive
  draws and the whole grid's scores (``kernels.profit_moments_grid``);
- ``rival_update``: one rival-type update of both firms,
  ``simharness._rival_action_model`` and then ``update_type_belief`` for
  each firm, as ``run_replication`` makes it once a period;
- ``market_step``: one ``simulate_period``.

Each row is the median over ``--repeats`` runs of ``--inner`` calls, in
microseconds per call. Prints one JSON object with the machine it ran on.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import platform

import numpy as np
import scipy

from crgame import simharness
from crgame.learning import update_type_belief
from crgame.market import Action, MarketState, simulate_period
from crgame.policy import BeliefState, select_action
from solver_eval import median_ms  # this script's directory

INVENTORY = (5.0, 12.5)
ACTIONS = (Action(40.0, 12.0), Action(30.0, 14.0))


def rival_update(config, pcfg):
    """One rival-type update of both firms, as a function of the beliefs."""
    posterior = config.prior_hyper()
    temperature = config.type_likelihood_temperature
    model = simharness._rival_action_model
    if "actions" in inspect.signature(model).parameters:
        def likelihood():
            return model(pcfg, temperature, posterior, INVENTORY, ACTIONS)
    else:  # a tree whose rival model scores one firm's rival per call
        def likelihood():
            return [model(pcfg, temperature, posterior, INVENTORY[1 - i],
                          ACTIONS[i].price, ACTIONS[1 - i]) for i in (0, 1)]

    def update(beliefs):
        like = likelihood()
        return [update_type_belief(beliefs[i], like[i]) for i in (0, 1)]
    return update


def layers(config):
    pcfg = config.policy_config()
    types = (config.firm_type(config.cost_low),
             config.firm_type(config.cost_high))
    beliefs = config.initial_beliefs()
    state = BeliefState(inventory=INVENTORY[0], own_type=types[0],
                        demand_posterior=config.prior_hyper(),
                        rival_type_belief=beliefs[0],
                        last_rival_action=ACTIONS[1])
    market = MarketState(inventory=INVENTORY)
    rng = np.random.default_rng(97)
    update = rival_update(config, pcfg)
    return {
        "select_action": lambda: select_action(
            state, pcfg, "proposed-credible-risk", rng),
        "rival_update": lambda: update(beliefs),
        "market_step": lambda: simulate_period(
            market, ACTIONS, config.true_params, types, rng,
            salvage_mode=config.salvage_mode),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--inner", type=int, default=200)
    parser.add_argument("--out", help="also write the JSON here")
    args = parser.parse_args(argv)
    rows = []
    for name, fn in layers(simharness.SimConfig()).items():
        fn()  # first-call imports and caches stay out of the timing

        def batch(fn=fn):
            for _ in range(args.inner):
                fn()
        rows.append({"layer": name, "us": round(
            1e3 * median_ms(batch, args.repeats) / args.inner, 2)})
    result = {
        "machine": {"machine": platform.machine(),
                    "python": platform.python_version(),
                    "numpy": np.__version__,
                    "scipy": scipy.__version__,
                    "affinity_cpus": len(os.sched_getaffinity(0))},
        "repeats": args.repeats,
        "inner": args.inner,
        "layers": rows,
    }
    text = json.dumps(result, indent=1)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


if __name__ == "__main__":
    main()
