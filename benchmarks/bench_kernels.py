"""Benchmark the action-grid scoring kernel: numba JIT vs pure numpy.

Usage:
    python3 benchmarks/bench_kernels.py [--samples 500] [--repeat 20]

Times the hot inner loop (profit mean/sd for every (quantity, price) cell
against a matrix of predictive demand draws) for both backends and prints
per-call timings plus the speedup. The numba row is skipped when numba is
not importable.
"""

import argparse
import time

import numpy as np

from crgame import kernels, rng as rngmod

PRICE_GRID = np.array([float(p) for p in range(8, 17)])
QTY_GRID = np.array([float(q) for q in range(20, 70, 5)])


def make_inputs(samples: int, seed: int = 2024):
    rng = rngmod.stream(seed, "bench")
    coef = np.column_stack([
        rng.normal(45.0, 3.0, samples),
        rng.normal(-3.6, 0.4, samples),
        rng.normal(1.2, 0.3, samples),
        rng.normal(7.5, 1.0, samples),
    ])
    sigma = np.full(samples, 4.5)
    z = rng.standard_normal(samples)
    return (coef, sigma, z, PRICE_GRID, QTY_GRID,
            5.0,    # inventory
            12.0,   # rival price
            0.0,    # rival stockout indicator
            6.0, 0.8, 1.5,  # cost, holding, salvage
            True)   # per-period salvage on


def timeit(fn, args_, repeat: int) -> float:
    fn(*args_)  # warm-up (triggers JIT compilation for numba)
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args_)
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--samples", type=int, default=500,
                    help="predictive draws per scoring call")
    ap.add_argument("--repeat", type=int, default=20,
                    help="timing repetitions (best-of)")
    args = ap.parse_args()

    inputs = make_inputs(args.samples)
    rows = [("numpy", timeit(kernels._grid_numpy, inputs, args.repeat))]
    if kernels.HAVE_NUMBA:
        rows.append(("numba", timeit(kernels._grid_numba, inputs,
                                     args.repeat)))
    else:
        print("numba backend unavailable; timing numpy only")

    print(f"grid: {len(QTY_GRID)} quantities x {len(PRICE_GRID)} prices, "
          f"{args.samples} draws, best of {args.repeat}")
    for name, t in rows:
        print(f"  {name:6s} {t * 1e6:10.1f} us/call")
    if len(rows) == 2:
        m1, s1 = kernels._grid_numpy(*inputs)
        m2, s2 = kernels._grid_numba(*inputs)
        agree = (np.allclose(m1, m2, rtol=1e-9)
                 and np.allclose(s1, s2, rtol=1e-9))
        print(f"  speedup (numpy/numba): {rows[0][1] / rows[1][1]:.2f}x, "
              f"outputs agree: {agree}")


if __name__ == "__main__":
    main()
