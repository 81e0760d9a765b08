"""Rectangular double-pulse drive: time profile and Fourier content.

The rotor is driven by a periodic train of pulse pairs with unit period.
Each pulse is rectangular with width alpha/2; the second pulse starts a
time delta after the first.  The pair is symmetric about
t_c = delta/2 + alpha/4, and expanding the drive in cosines about that
point gives real, even coefficients

    a_m = alpha * sinc(m*pi*alpha/2) * cos(m*pi*delta)

The zeros of a_m select the momenta p = 2*pi*m where the resonant terms
of the drive vanish, which is where invariant momentum boundaries
survive to large kick strength; barrier() derives them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * np.pi
# |a_m| at or below this fraction of alpha counts as a zero of the drive
ZERO_TOL = 1e-9


@dataclass(frozen=True)
class KickConfig:
    """Drive parameters.  The kick period is fixed at 1.

    K is the kick strength, alpha the total on-fraction of the period
    (each pulse lasts alpha/2), delta the separation between the leading
    edges of the two pulses.  sigma_p is the momentum width of the
    initial ensembles (classical.sample_initial, quantum.initial_density).
    hbar is validated here, but the library reads hbar from
    quantum.MomentumBasis; ROADMAP item 1 keeps one of the two.
    """

    K: float
    alpha: float = 0.1
    delta: float = 0.1
    hbar: float = 2.6
    sigma_p: float = 3.6 * np.pi

    def __post_init__(self):
        if not self.K >= 0.0:
            raise ValueError(f"K must be >= 0, got {self.K}")
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if not self.delta >= self.alpha / 2.0:
            raise ValueError(
                f"delta must be >= alpha/2 so the pulses do not overlap, "
                f"got delta={self.delta}, alpha={self.alpha}")
        if not self.delta + self.alpha / 2.0 <= 1.0:
            raise ValueError(
                f"delta + alpha/2 must be <= 1 so the pair fits in one period, "
                f"got delta={self.delta}, alpha={self.alpha}")
        if not self.hbar > 0.0:
            raise ValueError(f"hbar must be > 0, got {self.hbar}")
        if not self.sigma_p > 0.0:
            raise ValueError(f"sigma_p must be > 0, got {self.sigma_p}")


def fourier_coefficient(cfg: KickConfig, m) -> float:
    """Cosine coefficient a_m of the drive about its symmetry point
    t = delta/2 + alpha/4.

    Even in m; a_0 equals the duty cycle alpha.
    """
    m = np.asarray(m)
    a, d = cfg.alpha, cfg.delta
    # np.sinc(x) is sin(pi x) / (pi x)
    out = a * np.sinc(m * a / 2.0) * np.cos(m * np.pi * d)
    return out if out.ndim else float(out)


class Barrier(NamedTuple):
    """The cantorus at |p| = cantorus and the torus at 3 * cantorus bound
    three regions of a drive, each of phase-space area region_area."""

    cantorus: float
    region_area: float


def barrier(cfg: KickConfig) -> Barrier:
    """Barrier geometry from the zeros of a_m on the momentum ladder.

    The cosine factor vanishes first at m = 1/(2 delta) and next at 3m.
    When these are the only zeros in 1..3m, the cantorus at p = 2 pi m
    and the torus at 6 pi m bound three regions of area
    2 pi * 4 pi m = 8 m pi^2.  Any other drive raises ValueError naming
    delta (no zero at m and 3m) or alpha (a pulse-width zero of a_m
    splits a region).  delta >= alpha/2 gives 3m < 4/alpha wherever m is a
    zero, so the pulse-width factor can only vanish in 1..3m at 2/alpha.
    """
    m = round(0.5 / cfg.delta)
    ms = np.array([k for k in {m, 3 * m, round(2.0 / cfg.alpha)}
                   if k <= 3 * m])
    zeros = set(ms[np.abs(fourier_coefficient(cfg, ms))
                   <= ZERO_TOL * cfg.alpha].tolist())
    if not {m, 3 * m} <= zeros:
        raise ValueError(f"delta must make a_m vanish at m = 1/(2 delta) "
                         f"and 3/(2 delta), got delta={cfg.delta}")
    if zeros != {m, 3 * m}:
        raise ValueError(f"alpha must keep a_m nonzero at m = 1..{3 * m} "
                         f"but {m} and {3 * m}, got alpha={cfg.alpha}, "
                         f"zero at m = {sorted(zeros - {m, 3 * m})}")
    return Barrier(cantorus=TWO_PI * m, region_area=8.0 * m * np.pi**2)
