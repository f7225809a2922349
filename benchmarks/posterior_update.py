"""Time one posterior update of the demand filter, by kind of update.

    PYTHONPATH=src python benchmarks/posterior_update.py [--repeats 7] [--out FILE]

Each case is one call of the simulation's update path, on a history shaped
like the tests' crafted one: 24 records, a stockout in every fourth, one
floored zero.

- ``conjugate``: ``conjugate_update`` of one uncensored record;
- ``imputation-stockout`` / ``imputation-floored``: ``online_update`` in
  single-imputation mode (one truncated-normal draw, then a conjugate
  update) of a stockout / a floored zero, at the known-noise posterior of
  the history's uncensored records;
- ``gibbs-fixed`` / ``gibbs-learn``: ``online_update`` of the history's
  last hidden record in gibbs-every-period mode, one refresh over it at
  ``learning.GIBBS_CHAIN``'s lengths, with the noise sd known / learned.

Every case but ``conjugate`` runs on the body of the distribution and with
a far-tail record (``tail``). For the imputations the record's bound lies
more than 8 predictive sd past its mean (``alpha``, reported), where an
earlier sampler switched from the inverse CDF to a rejection loop; for the
refreshes the history gains a stockout whose stock lies about 10 noise sd
past the true mean demand.

Per case it reports ``ms`` (median wall time over ``--repeats`` calls,
each on a fresh stream of one seed) and ``generator_requests`` (the calls
the update makes to its generator, counted in one more, untimed run).
Prints one JSON object with the machine it ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform

import numpy as np
import scipy

from crgame import learning
from crgame.learning import (ObservationRecord, PosteriorHyper,
                             conjugate_update, online_update)
from solver_eval import median_ms  # this script's directory

PRIOR_M = np.array([35.0, -2.0, 0.5, 3.0])
PRIOR_S = np.diag([100.0, 4.0, 4.0, 16.0])
PRIOR_A, PRIOR_B = 3.0, 40.5
TRUE_BETA = np.array([45.0, -3.6, 1.2, 7.5])
NOISE_SD = 4.5
TAIL_SD = 9.0


def prior(fixed_sd=None):
    return PosteriorHyper(PRIOR_M.copy(), PRIOR_S.copy(), PRIOR_A, PRIOR_B,
                          fixed_sd)


def history(tail):
    rng = np.random.default_rng(67)
    n = 24
    X = np.column_stack([np.ones(n), rng.uniform(8.0, 16.0, (n, 2)),
                         rng.random(n) < 0.3])
    y = X @ TRUE_BETA + NOISE_SD * rng.standard_normal(n)
    records = []
    for i in range(n):
        if i % 4 == 1:
            records.append(ObservationRecord(X[i], y[i] - 3.0, y[i] - 3.0, True))
        elif i == 6:
            records.append(ObservationRecord(X[i], 0.0, 40.0, False,
                                             floored=True))
        else:
            records.append(ObservationRecord(X[i], y[i], 60.0, False))
    if tail:  # true mean demand -3, stock 42
        x = np.array([1.0, 16.0, 8.0, 0.0])
        records.append(ObservationRecord(x, 42.0, 42.0, True))
    return records


def imputation_record(hyper, side, tail):
    """A stockout or a floored zero, its bound past 8 predictive sd from
    its mean (``tail``) or in the body, and its exact alpha."""
    if side == "stockout":
        x = np.array([1.0, 12.0, 12.0, 0.0])
        sd = hyper.predictive_sd(float(x @ hyper.S @ x))
        stock = float(x @ hyper.m) + (TAIL_SD if tail else 1.0) * sd
        record = ObservationRecord(x, stock, stock, True)
    else:
        # the predictive sd grows off the design's prices, so the far-tail
        # zero sells at 6 against a rival at 16 and a rival stockout
        x = np.array([1.0, 6.0, 16.0, 1.0] if tail else [1.0, 16.0, 8.0, 0.0])
        record = ObservationRecord(x, 0.0, 40.0, False, floored=True)
    mean = float(x @ hyper.m)
    sd = hyper.predictive_sd(float(x @ hyper.S @ x))
    return record, (record.stock - mean) / sd if record.censored else mean / sd


class CountingGenerator:
    """A generator that counts the variate requests made of it."""

    def __init__(self, rng):
        self.rng, self.requests = rng, 0

    def __getattr__(self, name):
        def call(*args, **kwargs):
            self.requests += 1
            return getattr(self.rng, name)(*args, **kwargs)
        return call


def timed(name, update, repeats, **extra):
    """One case's row: ``update(rng)`` timed on fresh streams of one seed,
    and its generator requests counted in one more run."""
    counter = CountingGenerator(np.random.default_rng(89))
    update(counter)
    ms = median_ms(lambda: update(np.random.default_rng(89)), repeats)
    return {"case": name, **extra, "generator_requests": counter.requests,
            "ms": ms}


def cases(repeats):
    # the single imputations update the known-noise posterior of the
    # history's uncensored records
    filtered = prior(NOISE_SD)
    for r in history(tail=False):
        if not r.hidden:
            filtered = conjugate_update(filtered, r.covariate, r.sales)
    record = history(tail=False)[0]
    rows = [timed("conjugate", lambda rng: conjugate_update(
        filtered, record.covariate, record.sales), repeats)]
    for side in ("stockout", "floored"):
        for tail in (False, True):
            hidden, alpha = imputation_record(filtered, side, tail)
            rows.append(timed(
                f"imputation-{side}",
                lambda rng, hidden=hidden: online_update(filtered, hidden, rng),
                repeats, tail=tail, alpha=round(alpha, 3)))
    for mode, noise_sd in (("fixed", NOISE_SD), ("learn", None)):
        for tail in (False, True):
            records = history(tail)
            last = [r for r in records if r.hidden][-1]
            rows.append(timed(
                f"gibbs-{mode}",
                lambda rng, records=records, last=last, noise_sd=noise_sd:
                online_update(
                    prior(noise_sd), last, rng,
                    mode="gibbs-every-period", prior=prior(noise_sd),
                    history=records),
                repeats, tail=tail, records=len(records),
                hidden=sum(r.hidden for r in records)))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--out", help="also write the JSON here")
    args = parser.parse_args(argv)
    result = {
        "machine": {"machine": platform.machine(),
                    "python": platform.python_version(),
                    "numpy": np.__version__,
                    "scipy": scipy.__version__,
                    "affinity_cpus": len(os.sched_getaffinity(0))},
        "source": os.path.dirname(os.path.dirname(learning.__file__)),
        "gibbs_chain": learning.GIBBS_CHAIN,
        "repeats": args.repeats,
        "updates": cases(args.repeats),
    }
    text = json.dumps(result, indent=1)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


if __name__ == "__main__":
    main()
