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

Segments carry the half-angle pair (s, c) with p: a pulse maps it by
the addition theorem and a free segment turns it through tan(p w / 4),
so phi is formed from it, and it from phi, once per public call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .pulses import TWO_PI, KickConfig, barrier

# read only by perfbench's tracer, to label points; ROADMAP item 1 drops both
SEPARATRIX_BAND = 1e-9

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


def _point(s, phi, p) -> PhasePoint:
    """(phi mod 2 pi, p), floats for a scalar s; np.mod rounds -tiny to 2 pi."""
    phi = np.mod(phi, TWO_PI)
    phi = np.where(phi < TWO_PI, phi, 0.0)
    if np.ndim(s.phi) == 0 and np.ndim(s.p) == 0:
        return PhasePoint(phi.item(), p.item())
    return PhasePoint(phi, p)


def free_step(s: PhasePoint, w: float) -> PhasePoint:
    """Free rotation for time w: phi advances by p*w, p unchanged."""
    p = np.asarray(s.p, dtype=float)
    return _point(s, np.asarray(s.phi, dtype=float) + p * w, p)


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
    # in place: fresh arrays make the loop 15-30% slower at 1e4 points
    for _ in range(j):
        c4 = cn * cn
        r = s2 + 1.0
        r *= c4
        c4 *= c4
        ms4 = s2 * s2
        ms4 *= mc
        r += ms4
        np.reciprocal(r, out=r)  # 1 / (1 - m sn^4)
        sn *= cn
        sn *= dn
        sn *= r
        sn += sn
        np.subtract(c4, ms4, out=cn)
        cn *= r
        np.multiply(m, c4, out=dn)
        dn += mc
        dn *= r
        np.multiply(sn, sn, out=s2)
    return sn, cn, dn


def _pulse(sh, ch, p, w, K):
    """Pendulum segment of width w on the half-angle state."""
    q = p / (2.0 * np.sqrt(K))
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
    # those of v over 1 - (g s sn(v))^2.  The branches differ only in
    # which of cn(v), dn(v) goes with the angle (a) or momentum (b).
    a = ch * np.where(rot, cn, dn)
    b = q * np.where(rot, dn, cn)
    gs = g * sh * sn
    r = 1.0 / (1.0 - gs * gs)
    return ((sh * cn * dn + g * q * ch * sn) * r, (a - gs * b) * r,
            2.0 * np.sqrt(K) * (b - gs * a) * r)


def _drift(sh, ch, p, w):
    """Free rotation for time w: the half angle turns by p w / 2, through
    t = tan(p w / 4) as the rotation (1 - t^2, 2 t) rescaled to 1."""
    t = np.tan(p * (0.25 * w))
    a = 1.0 - t * t
    t += t
    sh, ch = sh * a + ch * t, ch * a - sh * t
    norm = 1.0 / np.sqrt(sh * sh + ch * ch)
    return sh * norm, ch * norm


def _cycle(sh, ch, p, cfg: KickConfig):
    if cfg.K == 0.0:
        return (*_drift(sh, ch, p, 1.0), p)
    half = cfg.alpha / 2.0
    for free in (cfg.delta - half, 1.0 - cfg.delta - half):
        sh, ch, p = _pulse(sh, ch, p, half, cfg.K)
        sh, ch = _drift(sh, ch, p, free)
    return sh, ch, p


def _on_half_angles(s, step, *args) -> PhasePoint:
    """step(sh, ch, p, *args) from s, with one conversion in and one out."""
    phi, p = (np.atleast_1d(np.asarray(x, dtype=float)) for x in (s.phi, s.p))
    sh, ch, p = step(np.sin(0.5 * phi), np.cos(0.5 * phi), p, *args)
    return _point(s, 2.0 * np.arctan2(sh, ch), p)


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
    return _on_half_angles(s, _pulse, w, K)


def kick_cycle(s: PhasePoint, cfg: KickConfig) -> PhasePoint:
    """One full drive period, strobed at the leading edge of pulse one."""
    return _on_half_angles(s, _cycle, cfg)


def sample_initial(cfg: KickConfig, n: int, seed=None) -> ClassicalEnsemble:
    """Draw n points uniform in phi and Gaussian (std sigma_p) in p."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    phi = rng.uniform(0.0, TWO_PI, size=n)
    p = rng.normal(0.0, cfg.sigma_p, size=n)
    return ClassicalEnsemble(phi=phi, p=p)


def momentum_bin_edges(cantorus: float = barrier(KickConfig(K=0.0)).cantorus):
    """Bins over |p| <= 3.5 p_b, p_b = barrier(cfg).cantorus, so +-35 pi
    at the default drive; the default serves only perfbench's
    check_confinement, which reads that drive's edges, and ROADMAP
    item 1 deletes it."""
    return np.linspace(-3.5 * cantorus, 3.5 * cantorus, HISTOGRAM_BINS + 1)


def propagate_ensemble(ensemble: ClassicalEnsemble, cfg: KickConfig,
                       kicks: int) -> PropagationResult:
    """Propagate through `kicks` cycles, recording histograms over
    momentum_bin_edges of the drive's cantorus (pulses.barrier), which
    leave out a point beyond them, the fraction beyond that cantorus and
    max |p| after every kick (row 0 is the initial state).

    The ensemble is updated in place.
    """
    if kicks < 1:
        raise ValueError(f"kicks must be >= 1, got {kicks}")
    cantorus = barrier(cfg).cantorus
    edges = momentum_bin_edges(cantorus)
    n = len(ensemble)
    counts = np.empty((kicks + 1, HISTOGRAM_BINS), dtype=np.int64)
    outside = np.empty(kicks + 1)
    max_abs_p = np.empty(kicks + 1)

    def record(sh, ch, p):
        for t in range(kicks + 1):
            if t > 0:
                sh, ch, p = _cycle(sh, ch, p, cfg)
            counts[t] = np.histogram(p, bins=edges)[0]
            outside[t] = np.count_nonzero(np.abs(p) > cantorus) / n
            max_abs_p[t] = np.max(np.abs(p))
        return sh, ch, p

    ensemble.phi, ensemble.p = _on_half_angles(ensemble, record)
    return PropagationResult(
        histogram=MomentumHistogram(bin_edges=edges, counts=counts),
        outside_fraction=outside,
        max_abs_p=max_abs_p)
