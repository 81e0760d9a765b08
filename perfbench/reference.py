"""Reference figures for single layers, at the sizes ROADMAP item 1 quotes.

    python3 perfbench/reference.py

Prints the median of REPEATS timed calls of each layer, after one
untimed call, with the environment it ran in.  The README records its
output; the benchmark itself does not run it.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.special import ellipj, ellipkinc  # noqa: E402

from dkrotor import (EmissionModel, KickConfig, MomentumBasis,  # noqa: E402
                     PhasePoint, build_period_operator,
                     calibrate_packet_width, decompose, evolve_density,
                     initial_density, kick_cycle, mc_wavefunction_run,
                     pendulum_step, sample_initial, wigner_transform)

REPEATS = 5


def timed(fn, repeats=REPEATS):
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def blas_info():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset (one per core)")
    return f"{blas['name']} {blas['version']}, OPENBLAS_NUM_THREADS {threads}"


def main():
    print(f"python {platform.python_version()}, numpy {np.__version__}, "
          f"scipy {scipy.__version__}, cores {len(os.sched_getaffinity(0))}")
    print(f"BLAS: {blas_info()}")
    cfg = KickConfig(K=280.0)
    ens = sample_initial(cfg, 100_000, 0)
    s = PhasePoint(ens.phi, ens.p)
    m = np.full(100_000, 0.7)
    u = np.linspace(0.0, 3.0, 100_000)
    basis = MomentumBasis(size=128, hbar=cfg.hbar)
    op = build_period_operator(cfg, basis)
    rho0 = initial_density(cfg, basis)
    final = evolve_density(rho0, op, 70).final_density
    rows = [
        ("kick_cycle, 1e5 points, one kick", lambda: kick_cycle(s, cfg)),
        ("pendulum_step, 1e5 points", lambda: pendulum_step(s, 0.05, 280.0)),
        ("  ellipj, 1e5 points", lambda: ellipj(u, m)),
        ("  ellipkinc, 1e5 points", lambda: ellipkinc(u / 3.0, m)),
        ("build_period_operator, N=128",
         lambda: build_period_operator(cfg, basis)),
        ("evolve_density, N=128, 70 kicks",
         lambda: evolve_density(rho0, op, 70)),
        ("decompose, N=128", lambda: decompose(op)),
        ("wigner_transform, N=128", lambda: wigner_transform(final, basis)),
    ]
    for label, fn in rows:
        print(f"{label:<40} {timed(fn) * 1e3:10.2f} ms")
    slow = [
        ("calibrate_packet_width, N=128",
         lambda: calibrate_packet_width(basis)),
        ("mc_wavefunction_run continuous 2000x70",
         lambda: mc_wavefunction_run(
             cfg, basis, EmissionModel(0.05, "continuous"), 70, 0,
             realizations=2000)),
        ("mc_wavefunction_run discretized 2000x70",
         lambda: mc_wavefunction_run(cfg, basis, EmissionModel(0.05), 70, 0,
                                     realizations=2000)),
    ]
    for label, fn in slow:
        print(f"{label:<40} {timed(fn, 1):10.2f} s  (one call)")


if __name__ == "__main__":
    main()
