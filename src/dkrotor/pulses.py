"""Rectangular double-pulse drive: time profile and Fourier content.

The rotor is driven by a periodic train of pulse pairs with unit period.
Each pulse is rectangular with width alpha/2; the second pulse starts a
time delta after the first.  The pair is symmetric about
t_c = delta/2 + alpha/4, and expanding the drive in cosines about that
point gives real, even coefficients

    a_m = alpha * sinc(m*pi*alpha/2) * cos(m*pi*delta)

The zeros of a_m select the momenta p = 2*pi*m where the resonant terms
of the drive vanish, which is where invariant momentum boundaries
survive to large kick strength.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi
# |p| beyond which a state counts as outside the cantorus at p = pi/delta
# for the default delta = 0.1
OUTSIDE_BOUNDARY = 10.0 * np.pi


@dataclass(frozen=True)
class KickConfig:
    """Drive parameters.  The kick period is fixed at 1.

    K is the kick strength, alpha the total on-fraction of the period
    (each pulse lasts alpha/2), delta the separation between the leading
    edges of the two pulses.  hbar and sigma_p ride along here because
    every layer of the simulation needs them together.
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

    @property
    def center(self) -> float:
        """Symmetry point of the pulse pair within one period."""
        return self.delta / 2.0 + self.alpha / 4.0


def _sinc(x):
    """sin(x)/x with a series branch near zero."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    # avoid 0/0 in the vectorized quotient; the series overwrites it
    safe = np.where(small, 1.0, x)
    out = np.where(small, 1.0 - x * x / 6.0 + x**4 / 120.0, np.sin(safe) / safe)
    return out if out.ndim else float(out)


def fourier_coefficient(cfg: KickConfig, m) -> float:
    """Cosine coefficient a_m of the drive about its symmetry point.

    Even in m; a_0 equals the duty cycle alpha.
    """
    m = np.asarray(m)
    a, d = cfg.alpha, cfg.delta
    out = a * _sinc(m * np.pi * a / 2.0) * np.cos(m * np.pi * d)
    return out if out.ndim else float(out)
