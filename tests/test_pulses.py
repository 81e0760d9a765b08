"""Drive profile and Fourier coefficients."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from dkrotor.pulses import KickConfig, barrier, fourier_coefficient
from helpers import pulse_value, reconstruct_profile, symmetry_point

CFG = KickConfig(K=1.0)


def test_default_geometry():
    assert CFG.alpha == 0.1
    assert CFG.delta == 0.1
    assert symmetry_point(CFG) == pytest.approx(0.075, abs=1e-15)


def test_barrier_harmonics_vanish():
    # the m = 5 and m = 15 zeros are what seals the ladder at 10*pi and
    # 30*pi; they must hold to round-off, not approximately
    assert abs(fourier_coefficient(CFG, 5)) < 1e-15
    assert abs(fourier_coefficient(CFG, 15)) < 1e-15
    assert abs(fourier_coefficient(CFG, 25)) < 1e-15
    # m = 20 vanishes too, via the pulse-width factor instead
    assert abs(fourier_coefficient(CFG, 20)) < 1e-15


def test_barrier_geometry_from_the_zeros():
    # the cantorus sits at the first ladder zero 2 pi m, m = 1/(2 delta),
    # and each of the three regions has area 2 pi * 4 pi m
    default = barrier(CFG)
    assert default.cantorus == 10.0 * np.pi
    assert default.region_area == 40.0 * np.pi**2
    sixth = barrier(KickConfig(K=1.0, delta=1.0 / 6.0))
    assert sixth.cantorus == 6.0 * np.pi
    assert sixth.region_area == 24.0 * np.pi**2
    # no ladder zero at m = round(1/(2 delta)) = 2
    with pytest.raises(ValueError, match="^delta"):
        barrier(KickConfig(K=1.0, delta=0.2))
    # zeros at m = 5, 10 and 15: the one at 10 splits the outer region
    with pytest.raises(ValueError, match="^alpha"):
        barrier(KickConfig(K=1.0, alpha=0.2))


def test_non_vanishing_harmonics():
    assert fourier_coefficient(CFG, 10) == pytest.approx(-0.2 / np.pi,
                                                         abs=1e-15)
    assert fourier_coefficient(CFG, 0) == CFG.alpha
    # sin(pi/10) cos(pi/5) = 1/4 makes a_2 come out as 1/(4 pi)
    assert fourier_coefficient(CFG, 2) == pytest.approx(0.25 / np.pi,
                                                        abs=1e-15)


def test_coefficients_match_quadrature():
    # independent route: integrate the profile against cosines about the
    # symmetry point, splitting the integral at the jump discontinuities
    cfg = KickConfig(K=1.0, alpha=0.13, delta=0.31)
    edges = [0.0, cfg.alpha / 2.0, cfg.delta, cfg.delta + cfg.alpha / 2.0]
    center = symmetry_point(cfg)
    for m in (1, 2, 3, 7, 12):
        cos_m, _ = quad(
            lambda t: pulse_value(cfg, t) * np.cos(2.0 * np.pi * m * (t - center)),
            0.0, 1.0, points=edges, limit=200, epsabs=1e-13)
        sin_m, _ = quad(
            lambda t: pulse_value(cfg, t) * np.sin(2.0 * np.pi * m * (t - center)),
            0.0, 1.0, points=edges, limit=200, epsabs=1e-13)
        assert cos_m == pytest.approx(fourier_coefficient(cfg, m), abs=1e-11)
        assert abs(sin_m) < 1e-11  # pair is symmetric about the center


def test_pulse_value_windows_half_open():
    # boundary checks use the same float expressions the window uses;
    # decimal literals like 0.15 do not round to delta + alpha/2
    assert pulse_value(CFG, 0.0) == 1.0
    assert pulse_value(CFG, 0.049999) == 1.0
    assert pulse_value(CFG, CFG.alpha / 2.0) == 0.0
    assert pulse_value(CFG, CFG.delta) == 1.0
    assert pulse_value(CFG, 0.149999) == 1.0
    assert pulse_value(CFG, CFG.delta + CFG.alpha / 2.0) == 0.0
    assert pulse_value(CFG, 0.7) == 0.0


def test_pulse_value_periodic():
    t = np.linspace(0.0, 1.0, 997, endpoint=False)
    np.testing.assert_array_equal(pulse_value(CFG, t + 3.0),
                                  pulse_value(CFG, t))
    np.testing.assert_array_equal(pulse_value(CFG, t - 2.0),
                                  pulse_value(CFG, t))


def test_reconstruction_converges_off_the_jumps():
    t = np.array([0.02, 0.12, 0.3, 0.7, 0.99])
    want = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
    got = reconstruct_profile(CFG, t, 5000)
    assert np.max(np.abs(got - want)) < 0.01


def test_reconstruction_halves_at_jumps():
    # Fourier series land at the midpoint of a jump
    got = reconstruct_profile(CFG, np.array([0.0, 0.05, 0.1, 0.15]), 20000)
    assert np.max(np.abs(got - 0.5)) < 0.01


def test_reconstruction_scalar_and_validation():
    assert reconstruct_profile(CFG, 0.3, 0) == pytest.approx(CFG.alpha)
    with pytest.raises(ValueError, match="m_max"):
        reconstruct_profile(CFG, 0.3, -1)


@given(m=st.integers(min_value=-60, max_value=60),
       alpha=st.floats(min_value=0.02, max_value=0.5),
       frac=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_coefficient_even_and_bounded(m, alpha, frac):
    delta = alpha / 2.0 + (1.0 - alpha) * frac
    cfg = KickConfig(K=2.0, alpha=alpha, delta=delta)
    am = fourier_coefficient(cfg, m)
    assert am == fourier_coefficient(cfg, -m)
    assert abs(am) <= alpha + 1e-12


def test_config_validation():
    with pytest.raises(ValueError, match="K"):
        KickConfig(K=-1.0)
    with pytest.raises(ValueError, match="alpha"):
        KickConfig(K=1.0, alpha=0.0)
    with pytest.raises(ValueError, match="delta"):
        KickConfig(K=1.0, alpha=0.2, delta=0.05)
    with pytest.raises(ValueError, match="delta"):
        KickConfig(K=1.0, delta=0.96)
    with pytest.raises(ValueError, match="hbar"):
        KickConfig(K=1.0, hbar=0.0)
    with pytest.raises(ValueError, match="sigma_p"):
        KickConfig(K=1.0, sigma_p=-2.0)


def test_config_frozen():
    with pytest.raises(AttributeError):
        CFG.K = 5.0
