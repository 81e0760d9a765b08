"""Exact classical propagation of the double-kicked rotor.

During a pulse the Hamiltonian is a pendulum, H = p^2/2 - K cos(phi);
between pulses the rotor is free.  Both pieces integrate in closed form,
so a full kick cycle is the exact composition of four segment maps,
strobed at the leading edge of the first pulse:

    pendulum(alpha/2) -> free(delta - alpha/2)
        -> pendulum(alpha/2) -> free(1 - delta - alpha/2)

The pendulum step uses the Jacobi addition theorem (DLMF 22.8).  With
s, c = sin, cos(phi/2) and mu = p^2/4K + s^2 = (E + K)/2K, a librating
point (mu < 1) has sin(phi/2) = k sn(u), p = 2k sqrt(K) cn(u) with
m = k^2 = mu, and a rotating one (mu > 1) has phi/2 = am(u),
p = +-(2 sqrt(K)/k) dn(u) with m = k^2 = 1/mu; the argument u advances
by v = sqrt(K) w / g over a pulse of width w, where g = 1 or k.  sn, cn
and dn of the starting argument are read off the state (dn carrying the
sign of p on rotating orbits), so one ellipj(v, m) call over all points
gives the end state in closed form, with no incomplete integral and no
reflection of p < 0 states.  A thin band around the separatrix, where
the moduli degenerate, falls back to an adaptive integrator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import ellipj

from .pulses import OUTSIDE_BOUNDARY, TWO_PI, KickConfig

# relative half-width of the separatrix band routed to the fallback
SEPARATRIX_BAND = 1e-9

HISTOGRAM_SPAN = 35.0 * np.pi
HISTOGRAM_BINS = 128


class PhasePoint(NamedTuple):
    """A point (or array of points) in the cylinder phase space."""

    phi: np.ndarray
    p: np.ndarray


@dataclass
class ClassicalEnsemble:
    """Trajectory ensemble stored as parallel coordinate arrays."""

    phi: np.ndarray
    p: np.ndarray
    seed: int | None = None
    kick_count: int = 0

    def __len__(self):
        return self.phi.shape[0]


@dataclass
class MomentumHistogram:
    """Per-kick momentum histograms; row t is the state after t kicks."""

    bin_edges: np.ndarray
    counts: np.ndarray

    @property
    def bin_centers(self):
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])


@dataclass
class PropagationResult:
    histogram: MomentumHistogram
    outside_fraction: np.ndarray
    max_abs_p: np.ndarray


@dataclass
class PoincareSection:
    """Strobed points of n_orbits trajectories; orbit[i] labels the orbit."""

    phi: np.ndarray
    p: np.ndarray
    orbit: np.ndarray


def free_step(s: PhasePoint, w: float) -> PhasePoint:
    """Free rotation for time w: phi advances by p*w, p unchanged."""
    if np.ndim(s.phi) == 0 and np.ndim(s.p) == 0:
        return PhasePoint(float(np.mod(s.phi + s.p * w, TWO_PI)), float(s.p))
    phi = np.mod(np.asarray(s.phi, dtype=float) + np.asarray(s.p, dtype=float) * w,
                 TWO_PI)
    return PhasePoint(phi, np.asarray(s.p, dtype=float))


def _separatrix_fallback(phi, p, w, K):
    """Adaptive integration for points too close to the separatrix."""
    out_phi = np.empty_like(phi)
    out_p = np.empty_like(p)
    for i in range(phi.size):
        sol = solve_ivp(lambda t, y: (y[1], -K * np.sin(y[0])), (0.0, w),
                        (phi[i], p[i]), method="DOP853",
                        rtol=1e-12, atol=1e-12)
        out_phi[i] = sol.y[0, -1]
        out_p[i] = sol.y[1, -1]
    return np.mod(out_phi, TWO_PI), out_p


def pendulum_step(s: PhasePoint, w: float, K: float) -> PhasePoint:
    """Exact pendulum evolution for time w under H = p^2/2 - K cos(phi).

    Energy is conserved to machine precision on both elliptic branches;
    |E - K| <= 1e-9 K falls back to an adaptive integrator.
    """
    if K < 0.0:
        raise ValueError(f"K must be >= 0, got {K}")
    if w < 0.0:
        raise ValueError(f"w must be >= 0, got {w}")
    if K == 0.0 or w == 0.0:
        return free_step(s, w)

    phi = np.atleast_1d(np.asarray(s.phi, dtype=float))
    p = np.atleast_1d(np.asarray(s.p, dtype=float))
    phi, p = np.broadcast_arrays(phi, p)

    sh = np.sin(0.5 * phi)
    ch = np.cos(0.5 * phi)
    q = p / (2.0 * np.sqrt(K))
    mu = q * q + sh * sh  # (E + K) / 2K
    rot = mu > 1.0
    # libration: m = mu, g = 1; rotation: m = 1/mu, g = k = 1/sqrt(mu)
    scale = np.where(rot, mu, 1.0)
    inv = 1.0 / scale
    g = np.sqrt(inv)
    sn, cn, dn, _ = ellipj(np.sqrt(K * scale) * w, np.where(rot, inv, mu))
    # sn, cn, dn of the start u0 are (s/k, q/k, c) in libration and
    # (s, c, k q) in rotation; the addition theorem combines them with
    # those of v.  The branches differ only in which of cn(v), dn(v)
    # goes with the angle (a) and which with the momentum (b).
    a = np.where(rot, cn, dn)
    b = np.where(rot, dn, cn)
    gq = g * q
    out_phi = np.mod(2.0 * np.arctan2(sh * cn * dn + gq * ch * sn,
                                      ch * a - gq * sh * sn * b), TWO_PI)
    gs = g * sh * sn
    out_p = 2.0 * np.sqrt(K) * (q * b - gs * ch * a) / (1.0 - gs * gs)

    sep = np.abs(mu - 1.0) <= 0.5 * SEPARATRIX_BAND
    if np.any(sep):
        out_phi[sep], out_p[sep] = _separatrix_fallback(phi[sep], p[sep], w, K)

    if np.ndim(s.phi) == 0 and np.ndim(s.p) == 0:
        return PhasePoint(float(out_phi[0]), float(out_p[0]))
    return PhasePoint(out_phi, out_p)


def kick_cycle(s: PhasePoint, cfg: KickConfig) -> PhasePoint:
    """One full drive period, strobed at the leading edge of pulse one."""
    half = cfg.alpha / 2.0
    s = pendulum_step(s, half, cfg.K)
    s = free_step(s, cfg.delta - half)
    s = pendulum_step(s, half, cfg.K)
    s = free_step(s, 1.0 - cfg.delta - half)
    return s


def sample_initial(cfg: KickConfig, n: int, seed=None) -> ClassicalEnsemble:
    """Draw n points uniform in phi and Gaussian (std sigma_p) in p."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    phi = rng.uniform(0.0, TWO_PI, size=n)
    p = rng.normal(0.0, cfg.sigma_p, size=n)
    return ClassicalEnsemble(phi=phi, p=p, seed=seed, kick_count=0)


def momentum_bin_edges():
    return np.linspace(-HISTOGRAM_SPAN, HISTOGRAM_SPAN, HISTOGRAM_BINS + 1)


def propagate_ensemble(ensemble: ClassicalEnsemble, cfg: KickConfig,
                       kicks: int) -> PropagationResult:
    """Propagate through `kicks` cycles, recording histograms and the
    fraction with |p| > 10*pi after every kick (row 0 is the initial state).

    The ensemble is updated in place (kick_count advances).
    """
    if kicks < 1:
        raise ValueError(f"kicks must be >= 1, got {kicks}")
    edges = momentum_bin_edges()
    n = len(ensemble)
    counts = np.empty((kicks + 1, HISTOGRAM_BINS), dtype=np.int64)
    outside = np.empty(kicks + 1)
    max_abs_p = np.empty(kicks + 1)

    state = PhasePoint(ensemble.phi, ensemble.p)
    for t in range(kicks + 1):
        if t > 0:
            state = kick_cycle(state, cfg)
        counts[t] = np.histogram(state.p, bins=edges)[0]
        outside[t] = np.count_nonzero(np.abs(state.p) > OUTSIDE_BOUNDARY) / n
        max_abs_p[t] = np.max(np.abs(state.p))

    ensemble.phi = state.phi
    ensemble.p = state.p
    ensemble.kick_count += kicks
    return PropagationResult(
        histogram=MomentumHistogram(bin_edges=edges, counts=counts),
        outside_fraction=outside,
        max_abs_p=max_abs_p)


def poincare_section(cfg: KickConfig, n_orbits: int,
                     n_periods: int) -> PoincareSection:
    """Strobe n_orbits trajectories once per cycle for n_periods cycles.

    Launch points are deterministic: momenta spread evenly over
    [-32*pi, 32*pi], angles on a golden-ratio sequence so no two orbits
    share a symmetry line.
    """
    if n_orbits < 1 or n_periods < 1:
        raise ValueError("n_orbits and n_periods must be >= 1")
    idx = np.arange(n_orbits)
    p0 = np.linspace(-32.0 * np.pi, 32.0 * np.pi, n_orbits)
    phi0 = np.mod(idx * 0.6180339887498949, 1.0) * TWO_PI
    phis = np.empty((n_periods + 1, n_orbits))
    ps = np.empty((n_periods + 1, n_orbits))
    state = PhasePoint(phi0, p0)
    phis[0], ps[0] = state.phi, state.p
    for t in range(1, n_periods + 1):
        state = kick_cycle(state, cfg)
        phis[t], ps[t] = state.phi, state.p
    orbit = np.tile(idx, n_periods + 1)
    return PoincareSection(phi=phis.ravel(), p=ps.ravel(), orbit=orbit)
