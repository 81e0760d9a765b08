"""Independent oracles for the test suite.

The first two routes deliberately avoid the machinery used by the
package: the classical cycle is integrated with an adaptive Runge-Kutta
stepper instead of elliptic functions, and the quantum period is built
from a split-operator scheme on the angle grid instead of the
tridiagonal eigenbasis.  The trajectory reference runs the Monte Carlo
wavefunction model one realization and one kick at a time.  Keep them
dumb and slow; their only job is to disagree loudly when the fast
implementations drift.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp

from dkrotor.decoherence import OperatorCache
from dkrotor.quantum import (MomentumBasis, build_period_operator,
                             initial_density)

TWO_PI = 2.0 * np.pi

# sub-steps per pulse segment for the split-operator route; the Strang
# error at this resolution sits near 2e-9 for K up to 280, well under
# the 1e-8 comparison tolerance
SPLIT_SUBSTEPS = 8000


def circular_distance(a, b):
    """Shortest angular distance between a and b."""
    d = np.mod(np.asarray(a) - np.asarray(b) + np.pi, TWO_PI) - np.pi
    return np.abs(d)


def pendulum_oracle(phi, p, w, K, rtol=1e-12, atol=1e-12):
    """Pendulum segment of width w by direct integration (angle unwrapped).

    All states are stacked into a single ODE system, so the adaptive
    step is controlled by the worst-behaved member of the batch.
    """
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    p = np.atleast_1d(np.asarray(p, dtype=float))
    n = phi.size

    def rhs(t, y):
        return np.concatenate((y[n:], -K * np.sin(y[:n])))

    sol = solve_ivp(rhs, (0.0, w), np.concatenate((phi, p)),
                    method="DOP853", rtol=rtol, atol=atol)
    if not sol.success:
        raise RuntimeError(f"oracle integration failed: {sol.message}")
    return sol.y[:n, -1].copy(), sol.y[n:, -1].copy()


def classical_cycle_oracle(phi, p, cfg, rtol=1e-12, atol=1e-12):
    """One kick cycle by direct integration of the pendulum segments."""
    phi = np.atleast_1d(np.asarray(phi, dtype=float)).copy()
    p = np.atleast_1d(np.asarray(p, dtype=float)).copy()

    def pulse(w):
        nonlocal phi, p
        phi, p = pendulum_oracle(phi, p, w, cfg.K, rtol, atol)

    def drift(w):
        nonlocal phi
        phi = phi + p * w

    half = cfg.alpha / 2.0
    pulse(half)
    drift(cfg.delta - half)
    pulse(half)
    drift(1.0 - cfg.delta - half)
    return np.mod(phi, TWO_PI), p


def split_operator_period(psi, cfg, basis, substeps=SPLIT_SUBSTEPS):
    """One kick cycle of a ladder-order state via Strang splitting.

    Works on the periodic angle grid, which matches the truncated-ladder
    propagator only when the state carries no weight near the edge
    indices; callers must use packets narrow enough for that.  Only the
    q = 0 ladder is supported.
    """
    if basis.q != 0.0:
        raise ValueError("oracle only handles q = 0")
    N = basis.size
    hbar = basis.hbar
    n_fft = np.fft.ifftshift(np.arange(N) - N // 2)
    kin = 0.5 * hbar * n_fft.astype(float)**2
    phi_grid = TWO_PI * np.arange(N) / N
    cosphi = np.cos(phi_grid)

    c = np.fft.ifftshift(np.asarray(psi, dtype=complex))

    def free(w):
        nonlocal c
        c = np.exp(-1j * kin * w) * c

    def pulse(w):
        nonlocal c
        dt = w / substeps
        kick_full = np.exp(1j * cfg.K * cosphi * dt / hbar)
        free(0.5 * dt)
        for step in range(substeps):
            c = np.fft.fft(kick_full * np.fft.ifft(c))
            if step < substeps - 1:
                free(dt)
        free(0.5 * dt)

    half = cfg.alpha / 2.0
    pulse(half)
    free(cfg.delta - half)
    pulse(half)
    free(1.0 - cfg.delta - half)
    return np.fft.fftshift(c)


def horizon_interference(dec, T):
    """Off-diagonal term R_T of the T-step average of |U^t|^2.

    With U Z = Z diag(exp(-i theta)), the exact average over t = 1..T is

        sum_j |Z[n,j]|^2 |Z[n0,j]|^2 + R_T[n, n0],
        R_T = Re sum_{j != k} F_T(theta_j - theta_k)
                  Z[n,j] Z*[n0,j] Z*[n,k] Z[n0,k],

    with the averaging kernel F_T(x) = (1/T) sum_{t=1}^T exp(-i x t).
    The first term is the infinite-time diagonal formula; R_T is what
    pairs with a gap below ~2 pi / T still carry at horizon T.
    """
    Z = dec.vectors
    theta = dec.quasi_energies / dec.hbar
    # F_T is 2 pi periodic; wrapping keeps gaps across theta = 0 small
    x = np.mod(theta[:, None] - theta[None, :] + np.pi, TWO_PI) - np.pi
    num = np.sin(0.5 * T * x)
    den = T * np.sin(0.5 * x)
    ratio = np.divide(num, den, out=np.ones_like(x), where=den != 0.0)
    F = np.exp(-0.5j * (T + 1) * x) * ratio
    np.fill_diagonal(F, 0.0)
    R = np.empty(Z.shape, dtype=float)
    for n0 in range(Z.shape[0]):
        B = Z * Z[n0].conj()  # B[n, j] = Z[n, j] Z*[n0, j]
        R[:, n0] = np.real(np.sum((B @ F) * B.conj(), axis=1))
    return R


def narrow_packet(basis, center, width, seed):
    """Normalized ladder packet with random phases, for oracle runs.

    width 5 keeps the edge amplitude near exp(-41), far below the
    tolerance at which the periodic grid and the truncated ladder
    disagree.
    """
    rng = np.random.default_rng(seed)
    n = basis.indices
    amp = np.exp(-(n - center)**2 / (4.0 * width**2))
    psi = amp * np.exp(2j * np.pi * rng.random(basis.size))
    return psi / np.linalg.norm(psi)


def _wrap_q(q_total):
    q_new = (q_total + 0.5) % 1.0 - 0.5
    return int(round(q_total - q_new)), q_new


def _emission_cycle(psi, q, cache, rng):
    """One kick cycle containing an emission at a uniform on-pulse time."""
    cfg = cache.cfg
    half = cfg.alpha / 2.0
    x = rng.uniform(0.0, cfg.alpha)
    in_first = x < half
    offset = x if in_first else x - half
    u = rng.uniform(-1.0, 1.0)

    op = cache.operator(q)
    if in_first:
        psi = op.apply_pulse(psi, offset)
        shift, q = _wrap_q(cache.snap(q) + u)
        psi = np.roll(psi, shift)
        op = cache.operator(q)
        psi = op.apply_pulse(psi, half - offset)
        psi = op.free_phases(cfg.delta - half) * psi
        psi = op.apply_pulse(psi, half)
    else:
        psi = op.apply_pulse(psi, half)
        psi = op.free_phases(cfg.delta - half) * psi
        psi = op.apply_pulse(psi, offset)
        shift, q = _wrap_q(cache.snap(q) + u)
        psi = np.roll(psi, shift)
        op = cache.operator(q)
        psi = op.apply_pulse(psi, half - offset)
    psi = op.free_phases(1.0 - cfg.delta - half) * psi
    return psi, cache.snap(q)


def mc_reference(cfg, basis, model, kicks, seed, realizations, q_grid=64):
    """Trajectory model one realization and one kick at a time.

    Draws and propagates exactly as mc_wavefunction_run documents, with
    one matrix-vector product per kick and the draws made as the
    trajectory goes.  Returns the averaged distributions, the outside
    fraction and its standard error.
    """
    eta = model.eta
    if model.recoil_mode == "continuous":
        cache = OperatorCache(cfg, basis.size, basis.hbar, q_grid)
        basis = MomentumBasis(size=basis.size, hbar=basis.hbar,
                              q=cache.snap(basis.q))

        def cycle(psi, q, rng):
            if eta > 0.0 and rng.random() < eta:
                return _emission_cycle(psi, q, cache, rng)
            return cache.operator(q).U @ psi, q
    else:
        U = build_period_operator(cfg, basis).U

        def cycle(psi, q, rng):
            psi = U @ psi
            if eta > 0.0 and rng.random() < eta:
                psi = np.roll(psi, 1 if rng.random() < 0.5 else -1)
            return psi, q

    weights = np.real(np.diag(initial_density(cfg, basis)))
    outside = np.abs(basis.indices * basis.hbar) > 10.0 * np.pi
    dists = np.zeros((kicks + 1, basis.size))
    series = np.empty((realizations, kicks + 1))
    for index in range(realizations):
        rng = np.random.default_rng(np.random.SeedSequence((seed, index)))
        psi = np.zeros(basis.size, dtype=complex)
        psi[rng.choice(basis.size, p=weights)] = 1.0
        q = basis.q
        for t in range(kicks + 1):
            if t:
                psi, q = cycle(psi, q, rng)
            prob = np.abs(psi)**2
            dists[t] += prob
            series[index, t] = prob[outside].sum()
    mean = series.mean(axis=0)
    stderr = series.std(axis=0) / np.sqrt(max(realizations - 1, 1))
    return dists / realizations, mean, stderr
