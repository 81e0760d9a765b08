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
sign of p on rotating orbits), so sn, cn and dn of v give the end state
in closed form.  They come from the Maclaurin series at v / 2^j and j
argument doublings (DLMF 22.10(i), 22.6(ii)), written in the parameter
m' = 1 - m that the state gives without cancellation, so points on and
near the separatrix take the same path as all others.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .pulses import OUTSIDE_BOUNDARY, TWO_PI, KickConfig

# read only by perfbench's tracer, which labels points by it; ROADMAP
# item 4 deletes both
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


def _wrap(phi):
    """phi mod 2*pi in [0, 2*pi); np.mod rounds a tiny negative phi up to
    2*pi itself."""
    phi = np.mod(phi, TWO_PI)
    return np.where(phi < TWO_PI, phi, 0.0)


def free_step(s: PhasePoint, w: float) -> PhasePoint:
    """Free rotation for time w: phi advances by p*w, p unchanged."""
    if np.ndim(s.phi) == 0 and np.ndim(s.p) == 0:
        return PhasePoint(float(_wrap(s.phi + s.p * w)), float(s.p))
    p = np.asarray(s.p, dtype=float)
    return PhasePoint(_wrap(np.asarray(s.phi, dtype=float) + p * w), p)


def _jacobi(v, m, mc):
    """sn, cn, dn(v | m) for v >= 0 and 0 <= m <= 1, given mc = 1 - m.

    sn's series through v^9 at v / 2^j < 0.05 (the next term is below
    roundoff) gives cn and dn by sn^2 + cn^2 = dn^2 + m sn^2 = 1, and j
    doublings follow.  They take 1 - m sn^4 as cn^2 (1 + sn^2) + mc sn^4
    and dn(2u) as (mc + m cn^4) over it, where the textbook forms subtract
    nearly equal numbers as m -> 1.
    """
    j = max(0, int(np.frexp(np.max(v, initial=0.0) / 0.05)[1]))
    u = np.ldexp(v, -j)
    u2 = u * u
    sn = u * (1.0 - u2 * ((1.0 + m) / 6.0 - u2 * (
        (1.0 + m * (14.0 + m)) / 120.0 - u2 * (
            (1.0 + m * (135.0 + m * (135.0 + m))) / 5040.0 - u2 * (
                1.0 + m * (1228.0 + m * (5478.0 + m * (1228.0 + m))))
            / 362880.0))))
    s2 = sn * sn
    cn = np.sqrt(1.0 - s2)
    dn = np.sqrt(1.0 - m * s2)
    for _ in range(j):
        c2 = cn * cn
        s4 = s2 * s2
        c4 = c2 * c2
        den = c2 * (1.0 + s2) + mc * s4
        sn = 2.0 * sn * cn * dn / den
        cn = (c4 - mc * s4) / den
        dn = (mc + m * c4) / den
        s2 = sn * sn
    return sn, cn, dn


def pendulum_step(s: PhasePoint, w: float, K: float) -> PhasePoint:
    """Exact pendulum evolution for time w under H = p^2/2 - K cos(phi).

    Energy is conserved to machine precision on both elliptic branches
    and on the separatrix between them.
    """
    if K < 0.0:
        raise ValueError(f"K must be >= 0, got {K}")
    if w < 0.0:
        raise ValueError(f"w must be >= 0, got {w}")
    if K == 0.0 or w == 0.0:
        return free_step(s, w)

    phi = np.asarray(s.phi, dtype=float)
    sh = np.sin(0.5 * phi)
    ch = np.cos(0.5 * phi)
    q = np.asarray(s.p, dtype=float) / (2.0 * np.sqrt(K))
    mu = q * q + sh * sh  # (E + K) / 2K
    gap = ch * ch - q * q  # 1 - mu
    rot = gap < 0.0
    # libration: m = mu, g = 1; rotation: m = 1/mu, g = k = 1/sqrt(mu);
    # on both branches m' = 1 - m = |gap| / scale
    scale = np.where(rot, mu, 1.0)
    inv = 1.0 / scale
    g = np.sqrt(inv)
    sn, cn, dn = _jacobi(np.sqrt(K * scale) * w, np.where(rot, inv, mu),
                         np.abs(gap) * inv)
    # sn, cn, dn of the start u0 are (s/k, q/k, c) in libration and
    # (s, c, k q) in rotation; the addition theorem combines them with
    # those of v.  The branches differ only in which of cn(v), dn(v)
    # goes with the angle (a) and which with the momentum (b).
    a = np.where(rot, cn, dn)
    b = np.where(rot, dn, cn)
    gq = g * q
    out_phi = _wrap(2.0 * np.arctan2(sh * cn * dn + gq * ch * sn,
                                     ch * a - gq * sh * sn * b))
    gs = g * sh * sn
    out_p = 2.0 * np.sqrt(K) * (q * b - gs * ch * a) / (1.0 - gs * gs)

    if np.ndim(out_phi) == 0:
        return PhasePoint(float(out_phi), float(out_p))
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
