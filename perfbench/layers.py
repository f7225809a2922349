"""Per-layer instrumentation, installed from outside the package.

Every layer of crgame reaches the next one through a module attribute
(``simharness.select_action``, ``learning.gibbs_refresh``,
``equilibrium.bellman_core`` ...). ``install`` replaces those attributes with
wrappers that record spans (calls, total time, self time) or, for the two
calls made hundreds of thousands of times per run, a bare call count. The
package itself is not modified.

Spans nest through a single stack, so the traced invocation must run
single-threaded (``--threads 1``).
"""

from __future__ import annotations

import functools
import time

# (module, attribute, span name). A span's parent is whichever span is open
# when it starts; spans opened directly by the CLI are top-level.
SPANS = [
    ("cli", "load_config", "cli.config"),
    ("cli", "build_sim_config", "cli.config"),
    ("cli", "build_eq_inputs", "cli.config"),
    ("cli", "run_experiment", "simharness.run_experiment"),
    ("cli", "bootstrap_diff", "cli.bootstrap"),
    ("cli", "summarize_relative", "cli.summarize"),
    ("cli", "_write_simulate_outputs", "cli.write_outputs"),
    ("cli", "write_csv", "cli.write"),
    ("cli", "write_json", "cli.write"),
    ("cli", "build_belief_grid", "equilibrium.build_belief_grid"),
    ("cli", "equilibrium_iteration", "equilibrium.equilibrium_iteration"),
    ("cli", "value_iterate", "equilibrium.value_iterate"),
    ("cli", "contraction_check", "equilibrium.contraction_check"),
    ("simharness", "run_replication", "simharness.run_replication"),
    ("simharness", "select_action", "policy.select_action"),
    ("simharness", "simulate_period", "market.step"),
    ("simharness", "online_update", "learning.online_update"),
    ("simharness", "_rival_action_model", "simharness.rival_model"),
    ("simharness", "update_type_belief", "learning.type_belief"),
    ("learning", "gibbs_refresh", "learning.gibbs_refresh"),
    ("learning", "conjugate_update", "learning.conjugate_update"),
    ("kernels", "profit_moments_grid", "kernels.grid"),
    ("rng", "stream", "rng.stream"),
    ("equilibrium", "value_iterate", "equilibrium.best_response"),
    ("equilibrium", "build_dynamics", "equilibrium.build_dynamics"),
    ("equilibrium", "bellman_core", "equilibrium.bellman"),
]

# Called ~10^5 times per study; timing each call would distort the shares of
# their callers, so these only count.
COUNTS = [
    ("policy", "expected_profit_closed_form", "policy.closed_form"),
    ("learning", "truncated_normal_lower", "learning.truncnorm"),
]


def _grid_bytes(args) -> int:
    """Bytes of the arrays the numpy grid kernel reads, builds and returns.

    Computed from array sizes (inputs, the (P, n) demand matrix, the three
    (P, Q, n) sales/leftover/profit tensors and the two outputs); cache
    traffic is not measured.
    """
    n = len(args[0])
    n_p = len(args[3])
    n_q = len(args[4])
    elems = 6 * n + n_p + n_q + n_p * n + 3 * n_p * n_q * n + 2 * n_p * n_q
    return 8 * elems


class Tracer:
    """Aggregated spans keyed by name, plus counters and a few sample lists."""

    def __init__(self):
        self.stack: list[list] = []          # open spans: [name, child time]
        self.spans: dict[str, dict] = {}
        self.counts: dict[str, int] = {}
        self.samples: dict[str, list] = {}

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def _close(self, name: str, dt: float, child: float) -> None:
        rec = self.spans.get(name)
        if rec is None:
            rec = self.spans[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                      "top_level_s": 0.0}
        rec["calls"] += 1
        rec["self_s"] += dt - child
        if self.stack:
            self.stack[-1][1] += dt
        else:
            rec["top_level_s"] += dt
        # a span nested in one of its own name (build_sim_config inside
        # build_eq_inputs) is counted once in total time
        if not any(frame[0] == name for frame in self.stack):
            rec["total_s"] += dt

    def span(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            self.stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.stack.pop()
                self._close(name, dt, frame[1])
            if on_result is not None:
                on_result(dt, args, result)
            return result
        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # ------------------------------------------------------------ hooks

    def _on_replication(self, dt, args, result):
        self.samples.setdefault("run_replication_s", []).append(dt)

    def _on_grid(self, dt, args, result):
        self.count("kernels.grid_bytes", _grid_bytes(args))

    def _on_market(self, dt, args, result):
        outcomes, _ = result
        for o in outcomes:
            self.count("market.observations")
            if o.stockout:
                self.count("market.censored")
            elif o.sales <= 0.0:
                self.count("market.floored")

    def _on_bellman(self, dt, args, result):
        parent = self.stack[-1][0] if self.stack else None
        if parent == "equilibrium.best_response":
            self.count("equilibrium.br_bellman_sweeps")

    def install(self, modules: dict) -> None:
        hooks = {"simharness.run_replication": self._on_replication,
                 "kernels.grid": self._on_grid,
                 "market.step": self._on_market,
                 "equilibrium.bellman": self._on_bellman}
        for mod, attr, name in SPANS:
            target = modules[mod]
            setattr(target, attr, self.span(name, getattr(target, attr),
                                            hooks.get(name)))
        for mod, attr, name in COUNTS:
            target = modules[mod]
            setattr(target, attr, self.counter(name, getattr(target, attr)))

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts,
                "samples": self.samples}
