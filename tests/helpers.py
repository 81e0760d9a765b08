"""Independent oracles for the test suite.

The drive helpers evaluate the pulse train in time, and its partial
Fourier sum, as checks on the coefficients the package uses.  The
other routes deliberately avoid the machinery used by the package:
the classical cycle is integrated with an adaptive Runge-Kutta
stepper instead of elliptic functions, the quantum period is built
from a split-operator scheme on the angle grid instead of the
tridiagonal eigenbasis, and the Floquet basis comes from a complex Schur
factorization of the lab-frame U instead of the real Cayley eigensolve.
The trajectory reference runs the Monte Carlo
wavefunction model one realization and one kick at a time, and the
reflection n -> -n is an index array, where the package uses slices.
Keep them dumb and slow; their only job is to disagree loudly when the
fast implementations drift.

The three-region decay rate and model curves and the INI writer for an
ExperimentSpec are used by the tests alone.
"""

from __future__ import annotations

from dataclasses import asdict, fields, replace

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import schur

from dkrotor.decoherence import (Q_GRID, EmissionModel, OperatorCache,
                                 run_decohered)
from dkrotor.floquet import FloquetDecomposition
from dkrotor.pulses import KickConfig, barrier, fourier_coefficient
from dkrotor.quantum import (MomentumBasis, _time_reversal_frame,
                             build_period_operator, initial_density)
from dkrotor.wigner import strangeness, wigner_transform

TWO_PI = 2.0 * np.pi

# sub-steps per pulse segment for the split-operator route; the Strang
# error at this resolution sits near 2e-9 for K up to 280, well under
# the 1e-8 comparison tolerance
SPLIT_SUBSTEPS = 8000


def circular_distance(a, b):
    """Shortest angular distance between a and b."""
    d = np.mod(np.asarray(a) - np.asarray(b) + np.pi, TWO_PI) - np.pi
    return np.abs(d)


def symmetry_point(cfg):
    """Time about which the pulse pair is symmetric within one period."""
    return cfg.delta / 2.0 + cfg.alpha / 4.0


def pulse_value(cfg, t):
    """Drive value (0 or 1) at time t; t is reduced mod the unit period.

    Windows are half-open [start, end), a measure-zero convention fixed
    for reproducibility.
    """
    t = np.mod(np.asarray(t, dtype=float), 1.0)
    a, d = cfg.alpha, cfg.delta
    on = (t < a / 2.0) | ((t >= d) & (t < d + a / 2.0))
    out = on.astype(float)
    return out if out.ndim else float(out)


def reconstruct_profile(cfg, t, m_max: int):
    """Partial Fourier sum of the drive through harmonics |m| <= m_max.

    Converges to pulse_value away from the jump points (and to 1/2 at
    them, as any Fourier series does).
    """
    if m_max < 0:
        raise ValueError(f"m_max must be >= 0, got {m_max}")
    t = np.asarray(t, dtype=float)
    tau = t - symmetry_point(cfg)
    m = np.arange(1, m_max + 1)
    coeffs = fourier_coefficient(cfg, m)
    out = (fourier_coefficient(cfg, 0)
           + 2.0 * np.sum(coeffs * np.cos(TWO_PI * np.outer(tau, m)), axis=-1))
    # np.outer flattens, so scalar t arrives here as a 1-element row
    return out.reshape(t.shape) if t.ndim else float(out[0])


def decay_rate(cfg, F):
    """Per-kick decay rate a = ln(1 - 3F/A); negative for F > 0."""
    x = 3.0 * F / barrier(cfg).region_area
    if not 0.0 <= x < 1.0:
        raise ValueError(f"F must satisfy 0 <= 3F/A < 1, got F={F}")
    return float(np.log1p(-x))


def model_inside(cfg, F, t):
    """P(|p| < p_b, t) = 1/3 + (2/3) exp(a t) of the three-region model."""
    a = decay_rate(cfg, F)
    out = 1.0 / 3.0 + (2.0 / 3.0) * np.exp(a * np.asarray(t, dtype=float))
    return out if out.ndim else float(out)


def model_outside(cfg, F, t):
    """P(|p| > p_b, t) = (2/3)(1 - exp(a t)); complements model_inside."""
    a = decay_rate(cfg, F)
    out = (2.0 / 3.0) * (1.0 - np.exp(a * np.asarray(t, dtype=float)))
    return out if out.ndim else float(out)


def spec_to_config(spec):
    """An ExperimentSpec as INI text; load_spec reads it back equal,
    since str() of a float round-trips."""
    system = {f.name for f in fields(KickConfig)}
    lines = []
    for section in ("system", "run"):
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in asdict(spec).items()
                  if (key in system) == (section == "system")]
        lines.append("")
    return "\n".join(lines)


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


def schur_decomposition(U, basis):
    """Floquet decomposition of any unitary U on a ladder, by complex Schur.

    For a normal matrix the Schur basis is an orthonormal eigenbasis.
    """
    T, Z = schur(U, output="complex")
    lam = np.diag(T)
    N = U.shape[0]
    return FloquetDecomposition(
        quasi_energies=basis.hbar * np.mod(-np.angle(lam), TWO_PI),
        vectors=Z, basis=basis,
        unitarity_defect=float(np.max(np.abs(U.conj().T @ U - np.eye(N)))),
        reconstruction_residual=float(np.max(np.abs(U @ Z - Z * lam))))


def period_operator_of(M, hbar):
    """A period operator whose time-reversal form is the matrix M.

    decompose takes only period operators; this carries a hand-built
    complex-symmetric unitary M into one, as the lab-frame
    U = s M s^-1 of the K = 0 operator of M's size, with s its
    time-reversal frame.
    """
    op = build_period_operator(KickConfig(K=0.0),
                               MomentumBasis(size=M.shape[0], hbar=hbar))
    s = _time_reversal_frame(op)
    return replace(op, U=s[:, None] * M * s.conj())


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


def reflection(size):
    """Row of -n for each row of n: the reflection n -> -n on the ladder
    read as Z_N, row i -> (N - i) mod N.  Rung -N/2 is its own image."""
    return (size - np.arange(size)) % size


def parity_average(X):
    """(X + R X R) / 2 for the reflection R of `reflection`: a
    parity-even matrix, which a density matrix X keeps positive."""
    r = reflection(X.shape[0])
    return 0.5 * (X + X[r][:, r])


def non_densities(rho):
    """(matrix, message) pairs that the density check must refuse, made
    from a diagonal density rho: an imaginary part off and on the
    diagonal, and a weight of -1e-10 on the diagonal and, through the
    eigendecomposition, in a dense Hermitian rho."""
    skewed, imaginary, negative = rho.copy(), rho.copy(), rho.copy()
    skewed[0, 1] = 1e-9j
    imaginary[0, 0] = 1e-9j
    negative[0, 0] = -1e-10
    n = rho.shape[0]
    rng = np.random.default_rng(6)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n))
                        + 1j * rng.normal(size=(n, n)))
    w = np.real(np.diag(rho)).copy()
    w[0] = -1e-10
    dense = (Q * w) @ Q.conj().T
    dense = 0.5 * (dense + dense.conj().T)
    skew, psd = "rho must be Hermitian", "rho must be positive semidefinite"
    return [(skewed, skew), (imaginary, skew), (negative, psd), (dense, psd)]


def anti_zeno_map(rho):
    """Projective momentum measurement: keep the diagonal, zero the rest."""
    return np.diag(np.diag(rho))


def _recoil_key(k, u):
    """(ladder shift, new key) after a recoil u from key k: q + u is
    rounded once to the grid, and the shift is floor(q + u + 1/2) of
    the rounded sum, the zone it falls in."""
    zones, key = divmod(k + round(Q_GRID * u) + Q_GRID // 2, Q_GRID)
    return zones, key - Q_GRID // 2


def _emission_cycle(psi, k, cache, rng):
    """One kick cycle containing an emission at a uniform on-pulse time."""
    cfg = cache.cfg
    half = cfg.alpha / 2.0
    x = rng.uniform(0.0, cfg.alpha)
    in_first = x < half
    offset = x if in_first else x - half
    u = rng.uniform(-1.0, 1.0)

    op = cache.operator(k)
    if in_first:
        psi = op.apply_pulse(psi, offset)
        shift, k = _recoil_key(k, u)
        psi = np.roll(psi, shift)
        op = cache.operator(k)
        psi = op.apply_pulse(psi, half - offset)
        psi = op.basis.free_phases(cfg.delta - half) * psi
        psi = op.apply_pulse(psi, half)
    else:
        psi = op.apply_pulse(psi, half)
        psi = op.basis.free_phases(cfg.delta - half) * psi
        psi = op.apply_pulse(psi, offset)
        shift, k = _recoil_key(k, u)
        psi = np.roll(psi, shift)
        op = cache.operator(k)
        psi = op.apply_pulse(psi, half - offset)
    psi = op.basis.free_phases(1.0 - cfg.delta - half) * psi
    return psi, k


def mc_reference(cfg, basis, model, kicks, seed, realizations):
    """Trajectory model one realization and one kick at a time.

    Draws and propagates exactly as mc_wavefunction_run documents, with
    one matrix-vector product per kick and the draws made as the
    trajectory goes.  Returns the averaged distributions, the outside
    fraction and its standard error.
    """
    eta = model.eta
    # the trajectory's quasi-momentum key, q = k / Q_GRID, wrapped
    k0 = (round(basis.q * Q_GRID) + Q_GRID // 2) % Q_GRID - Q_GRID // 2
    if model.recoil_mode == "continuous":
        cache = OperatorCache(cfg, basis.size, basis.hbar)
        basis = MomentumBasis(size=basis.size, hbar=basis.hbar,
                              q=k0 / Q_GRID)

        def cycle(psi, k, rng):
            if eta > 0.0 and rng.random() < eta:
                return _emission_cycle(psi, k, cache, rng)
            return cache.operator(k).U @ psi, k
    else:
        U = build_period_operator(cfg, basis).U

        def cycle(psi, k, rng):
            psi = U @ psi
            if eta > 0.0 and rng.random() < eta:
                psi = np.roll(psi, 1 if rng.random() < 0.5 else -1)
            return psi, k

    weights = np.real(np.diag(initial_density(cfg, basis)))
    outside = np.abs(basis.indices * basis.hbar) > 10.0 * np.pi
    dists = np.zeros((kicks + 1, basis.size))
    series = np.empty((realizations, kicks + 1))
    for index in range(realizations):
        rng = np.random.default_rng(np.random.SeedSequence((seed, index)))
        psi = np.zeros(basis.size, dtype=complex)
        psi[rng.choice(basis.size, p=weights)] = 1.0
        k = k0
        for t in range(kicks + 1):
            if t:
                psi, k = cycle(psi, k, rng)
            prob = np.abs(psi)**2
            dists[t] += prob
            series[index, t] = prob[outside].sum()
    mean = series.mean(axis=0)
    stderr = series.std(axis=0) / np.sqrt(max(realizations - 1, 1))
    return dists / realizations, mean, stderr


def strangeness_sweep(K_values, eta_values, kicks=20, basis=MomentumBasis()):
    """S of the evolved state after `kicks` cycles per (K, eta) pair.

    eta = 0 runs coherently; eta > 0 applies the discretized
    spontaneous-emission map each cycle.  Returns rows of
    {"K", "eta", "S"}.
    """
    rows = []
    for K in K_values:
        cfg = KickConfig(K=float(K), hbar=basis.hbar)
        op = build_period_operator(cfg, basis)
        rho0 = initial_density(cfg, basis)
        for eta in eta_values:
            model = None if eta == 0 else EmissionModel(eta=float(eta))
            result = run_decohered(rho0, op, model, kicks)
            S = strangeness(wigner_transform(result.final_density, basis))
            rows.append({"K": float(K), "eta": float(eta), "S": S})
    return rows


def wigner_direct(rho, basis):
    """(raw, coarse) of the toroidal Wigner grid, term by term.

    raw[l, k] = sum_j exp(i pi j k / N) [(l+j) even] rho[(l+j)/2, (l-j)/2]
    over the 2N x 2N grid, with bra and ket taken as torus labels u = n
    mod N; coarse sums each 2x2 cell, divides by the total and orders
    the rows by ladder index n.  No FFT, parity split or half-grid
    symmetry is used.
    """
    N = basis.size
    M = 2 * N
    # exp(i pi j k / N), with the exponent reduced exactly mod 2N
    phase = np.exp(1j * np.pi * (np.outer(np.arange(M), np.arange(M)) % M)
                   / N)
    raw = np.empty((M, M))
    for l in range(M):
        j = np.arange(l % 2, M, 2)             # (l + j) even
        u, v = ((l + j) // 2) % N, ((l - j) // 2) % N
        # torus label u sits at ladder row (u + N/2) mod N
        terms = rho[(u + N // 2) % N, (v + N // 2) % N]
        value = terms @ phase[j]
        assert np.max(np.abs(value.imag)) < 1e-10
        raw[l] = value.real
    cells = np.zeros((N, N))
    for i, n in enumerate(basis.indices):
        L = n % N
        for K in range(N):
            cells[i, K] = raw[2 * L:2 * L + 2, 2 * K:2 * K + 2].sum()
    return raw, cells / cells.sum()
