"""Three-region diffusion model for transport through the momentum barriers.

The partial barriers at the drive's cantorus, p = +-p_b (pulses.barrier),
separate a central region from two outer regions, all of phase-space
area A, sealed from beyond by the unbroken tori at +-3 p_b; the default
drive has p_b = 10*pi and A = 40*pi^2.  If each kick carries a
phase-space area F across each barrier and the regions mix fast
internally, occupation probabilities follow a three-state chain whose
slow mode decays at rate

    a = ln(1 - 3*F / A)   per kick,

so the inside probability relaxes from 1 to the uniform value 1/3.
Fitting a line to ln(2/3 - P_outside) over early kicks recovers F from
simulated ensembles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pulses import KickConfig, barrier

# points this close to equilibrium carry no slope information
EQUILIBRIUM_CUTOFF = np.exp(-3.0)

# largest outside fraction fit_flux accepts: the chain relaxes to 2/3
# from below, and the margin admits the sampling noise of an ensemble
OUTSIDE_FRACTION_MAX = 2.0 / 3.0 + 0.05

DEFAULT_WINDOW = (5, 50)
MIN_USABLE_POINTS = 5


@dataclass(frozen=True)
class DiffusionFit:
    """Result of a flux fit.

    F is the recovered flux per kick, a the per-kick decay rate,
    fit_window the kick range actually used, residual the RMS deviation
    of the log series from the fitted line.  n_dropped counts points
    discarded because the series fluctuated past 2/3; rejected flags
    fits with too few usable points; valid flags -0.5 < a < 0, outside of
    which the small-flux model does not apply (a >= 0 means F <= 0).
    """

    F: float
    a: float
    fit_window: tuple
    residual: float
    n_dropped: int
    n_used: int
    rejected: bool
    valid: bool


def flux_from_rate(cfg: KickConfig, a: float) -> float:
    """Invert a = ln(1 - 3F/A) for F."""
    return float(-np.expm1(a) * barrier(cfg).region_area / 3.0)


def fit_flux(cfg: KickConfig, series, window=DEFAULT_WINDOW) -> DiffusionFit:
    """Estimate flux per kick from an outside-fraction series.

    series[t] is P(|p| > p_b) after t kicks.  A line is fitted to
    ln(2/3 - series) on the kick window, after dropping points beyond
    2/3 (counted in n_dropped) and points within exp(-3) of
    equilibrium.  Too few surviving points raises the rejected flag
    rather than an error.
    """
    series = np.asarray(series, dtype=float)
    if series.ndim != 1 or series.size < 10:
        raise ValueError("series must be one-dimensional with >= 10 entries")
    if np.any(series < -1e-9) or np.any(series > OUTSIDE_FRACTION_MAX):
        raise ValueError("series values must be probabilities below ~2/3")

    t_lo, t_hi = window
    t_hi = min(t_hi, series.size - 1)
    t = np.arange(t_lo, t_hi + 1)
    y = 2.0 / 3.0 - series[t]

    overshoot = y <= 0.0
    n_dropped = int(np.count_nonzero(overshoot))
    keep = (~overshoot) & (y >= EQUILIBRIUM_CUTOFF)
    t_use, y_use = t[keep], y[keep]
    n_used = int(t_use.size)
    rejected = n_used < MIN_USABLE_POINTS

    if n_used < 2:
        return DiffusionFit(F=np.nan, a=np.nan, fit_window=(t_lo, t_hi),
                            residual=np.nan, n_dropped=n_dropped,
                            n_used=n_used, rejected=True, valid=False)

    logy = np.log(y_use)
    a, intercept = np.polyfit(t_use, logy, 1)
    residual = float(np.sqrt(np.mean((logy - (a * t_use + intercept))**2)))
    F = flux_from_rate(cfg, a)
    return DiffusionFit(F=F, a=float(a),
                        fit_window=(int(t_use[0]), int(t_use[-1])),
                        residual=residual, n_dropped=n_dropped,
                        n_used=n_used, rejected=rejected,
                        valid=bool(-0.5 < a < 0.0))
