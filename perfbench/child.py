"""One crgame CLI invocation, run in this process with benchmark hooks.

Usage: python3 perfbench/child.py SIDECAR MODE -- CRGAME_ARGS...

MODE is one of:
  plain  checks every replication record; no timing hooks
  trace  plain, plus per-layer spans and counts (needs --threads 1)
  probe  stops the process at the first replication or solve
  nolearn  plain, with the posterior update cut (every policy keeps its
         prior); the self-test uses it to show the reference check fails

``PERFBENCH_T0`` holds the parent's ``time.perf_counter()`` taken just
before this process was spawned (CLOCK_MONOTONIC, shared by all processes),
so set-up time includes interpreter start. Results go to SIDECAR as JSON.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time


def check_record(rec, horizon: int) -> str | None:
    """Why a ReplicationRecord is invalid, or None when it is valid."""
    if rec.sales.shape != (horizon, 2):
        return f"sales shape {rec.sales.shape}"
    inventory = [0.0, 0.0]
    for t in range(horizon):
        for i in (0, 1):
            stock = inventory[i] + float(rec.quantities[t, i])
            sold = float(rec.sales[t, i])
            if not (0.0 <= sold <= stock + 1e-9):
                return f"period {t + 1} firm {i + 1}: sales {sold} outside [0, {stock}]"
            inventory[i] = stock - sold
    for name in ("profits", "firm_profit", "mse"):
        if not all(math.isfinite(float(v)) for v in getattr(rec, name).ravel()):
            return f"non-finite {name}"
    if not math.isfinite(rec.market_profit) or not math.isfinite(rec.final_mse):
        return "non-finite summary"
    if rec.beliefs.min() < 0.0 or rec.beliefs.max() > 1.0:
        return "belief outside [0, 1]"
    return None


def main(argv) -> int:
    sidecar, mode = argv[1], argv[2]
    crgame_args = argv[argv.index("--") + 1:]
    t0 = float(os.environ["PERFBENCH_T0"])
    out = {}

    import numpy
    import scipy
    from crgame import cli, equilibrium, kernels, learning, policy, rng, simharness

    out["numpy"], out["scipy"] = numpy.__version__, scipy.__version__
    out["backend"] = kernels.backend()
    out["have_numba"] = bool(kernels.HAVE_NUMBA)

    def save():
        usage = resource.getrusage(resource.RUSAGE_SELF)
        out["maxrss_kb"] = usage.ru_maxrss
        out["cpu_s"] = usage.ru_utime + usage.ru_stime
        with open(sidecar, "w", encoding="utf-8") as fh:
            json.dump(out, fh)

    # the experiment or solve: its start ends set-up
    def first_op(fn):
        def wrapper(*args, **kwargs):
            out["t_first_op"] = time.perf_counter() - t0
            if mode == "probe":
                save()
                os._exit(0)
            result = fn(*args, **kwargs)
            out["t_op_end"] = time.perf_counter() - t0
            return result
        return wrapper

    verdicts = out["replications"] = []
    run_replication = simharness.run_replication

    def checked_replication(config, policy_name, rep_index):
        rec = run_replication(config, policy_name, rep_index)
        verdicts.append([policy_name, rep_index, check_record(rec, config.horizon)])
        return rec

    simharness.run_replication = checked_replication

    if mode == "nolearn":
        simharness.online_update = lambda posterior, *args, **kwargs: posterior

    tracer = None
    if mode == "trace":
        from layers import Tracer  # perfbench/ is this script's directory
        tracer = Tracer()
        tracer.install({"cli": cli, "simharness": simharness, "learning": learning,
                        "policy": policy, "kernels": kernels, "rng": rng,
                        "equilibrium": equilibrium})
    cli.run_experiment = first_op(cli.run_experiment)
    cli.equilibrium_iteration = first_op(cli.equilibrium_iteration)

    out["t_main"] = time.perf_counter() - t0
    try:
        out["rc"] = cli.main(crgame_args)
    finally:
        if tracer is not None:
            out["trace"] = tracer.dump()
        save()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
