"""Classical cycle map, ensemble propagation, bookkeeping."""

import numpy as np
import pytest
from scipy.special import ellipj, erfc

from dkrotor.classical import (HISTOGRAM_BINS, HISTOGRAM_SPAN, PhasePoint,
                               _jacobi, free_step, kick_cycle,
                               momentum_bin_edges, pendulum_step,
                               propagate_ensemble, sample_initial)
from dkrotor.pulses import TWO_PI, KickConfig
from helpers import circular_distance, classical_cycle_oracle, pendulum_oracle


def _random_states(n, seed, p_scale):
    rng = np.random.default_rng(seed)
    phi = rng.uniform(0.0, TWO_PI, n)
    p = rng.normal(0.0, p_scale, n)
    return phi, p


@pytest.mark.parametrize("K", [70.0, 280.0])
def test_cycle_matches_adaptive_oracle(K):
    cfg = KickConfig(K=K)
    phi, p = _random_states(300, 7, cfg.sigma_p)
    # a few deliberately awkward members: rest points, tiny angles,
    # large momenta
    phi = np.concatenate((phi, [0.0, np.pi, 1e-8, 3.0]))
    p = np.concatenate((p, [0.0, 0.0, 0.5, 40.0]))
    out = kick_cycle(PhasePoint(phi.copy(), p.copy()), cfg)
    ref_phi, ref_p = classical_cycle_oracle(phi, p, cfg)
    assert np.max(circular_distance(out.phi, ref_phi)) < 1e-8
    assert np.max(np.abs(out.p - ref_p)) < 1e-8


def test_pendulum_step_conserves_energy():
    K = 280.0
    rng = np.random.default_rng(3)
    phi = rng.uniform(0.0, TWO_PI, 4000)
    p = rng.normal(0.0, 12.0 * np.pi, 4000)
    out = pendulum_step(PhasePoint(phi, p), 0.037, K)
    E0 = 0.5 * p**2 - K * np.cos(phi)
    E1 = 0.5 * out.p**2 - K * np.cos(out.phi)
    scale = np.maximum(np.abs(E0), K)
    assert np.max(np.abs(E1 - E0) / scale) < 1e-11


def test_pendulum_step_reflection_symmetry():
    # (phi, p) -> (-phi, -p) commutes with the dynamics; the angle
    # wrap costs an ulp, so the symmetry holds to ~1e-13, not bitwise
    K = 150.0
    phi, p = _random_states(500, 21, 10.0 * np.pi)
    fwd = pendulum_step(PhasePoint(phi, p), 0.05, K)
    refl = pendulum_step(PhasePoint(np.mod(-phi, TWO_PI), -p), 0.05, K)
    np.testing.assert_allclose(refl.p, -fwd.p, atol=1e-11)
    assert np.max(circular_distance(refl.phi, -fwd.phi)) < 1e-12


def test_pendulum_step_turning_points():
    # librating points at rest or nearly so, where sin(phi/2)/k sits at
    # or near +-1; the bound is criterion 02's
    K, w = 280.0, 0.05
    phi, p = np.meshgrid([0.3, 1.0, 2.0, 2.8, 3.1], [0.0, 1e-7, 1e-4])
    phi, p = phi.ravel(), p.ravel()
    out = pendulum_step(PhasePoint(phi, p), w, K)
    ref_phi, ref_p = pendulum_oracle(phi, p, w, K)
    assert np.max(circular_distance(out.phi, ref_phi)) < 1e-8
    assert np.max(np.abs(out.p - ref_p)) < 1e-8


@pytest.mark.parametrize("side", [-1.0, 1.0], ids=["libration", "rotation"])
def test_pendulum_step_near_separatrix(side):
    # points on E = K (1 + side * eps) down to eps = 2e-9,
    # with random angles on the energy surface and both signs of p
    K, w = 280.0, 0.05
    rng = np.random.default_rng(13)
    eps = np.repeat([1e-2, 1e-4, 1e-6, 1e-8, 2e-9], 8)
    E = K * (1.0 + side * eps)
    reach = np.arccos(np.maximum(-E / K, -1.0))  # |phi| with real p
    phi = rng.uniform(-1.0, 1.0, eps.size) * reach
    p = np.tile([1.0, -1.0], eps.size // 2) * np.sqrt(
        np.maximum(2.0 * (E + K * np.cos(phi)), 0.0))
    assert np.all(np.sign(0.5 * p * p - K * np.cos(phi) - K) == side)
    out = pendulum_step(PhasePoint(np.mod(phi, TWO_PI), p), w, K)
    ref_phi, ref_p = pendulum_oracle(phi, p, w, K)
    assert np.max(circular_distance(out.phi, ref_phi)) < 1e-8
    assert np.max(np.abs(out.p - ref_p)) < 1e-8


def test_pendulum_step_on_separatrix():
    # E = K exactly, up to the rounding of p, so mu lands an ulp either
    # side of 1 and both branches meet m' = 0
    K, w = 280.0, 0.05
    rng = np.random.default_rng(17)
    phi = rng.uniform(-np.pi, np.pi, 40)
    p = np.tile([1.0, -1.0], 20) * 2.0 * np.sqrt(K) * np.cos(0.5 * phi)
    out = pendulum_step(PhasePoint(np.mod(phi, TWO_PI), p), w, K)
    ref_phi, ref_p = pendulum_oracle(phi, p, w, K)
    assert np.max(circular_distance(out.phi, ref_phi)) < 1e-8
    assert np.max(np.abs(out.p - ref_p)) < 1e-8


def test_pendulum_step_fast_rotators():
    # the fastest points the histogram spans, at the largest K swept:
    # v = sqrt(K mu) w ~ 2.9, the longest doubling chain of a default run
    K, w = 400.0, 0.05
    rng = np.random.default_rng(19)
    phi = rng.uniform(0.0, TWO_PI, 60)
    p = np.tile([1.0, -1.0], 30) * rng.uniform(30.0, 35.0, 60) * np.pi
    out = pendulum_step(PhasePoint(phi, p), w, K)
    ref_phi, ref_p = pendulum_oracle(phi, p, w, K)
    assert np.max(circular_distance(out.phi, ref_phi)) < 1e-8
    assert np.max(np.abs(out.p - ref_p)) < 1e-8


def test_pendulum_step_long_pulse():
    # alpha = 1 gives w = 0.5 and v up to ~10 at K = 400, where m -> 1
    # orbits make dn and cn tiny; the textbook doubling, dividing by
    # 1 - m sn^4, is 1e-6 off here
    K, w = 400.0, 0.5
    rng = np.random.default_rng(23)
    phi = rng.uniform(0.0, TWO_PI, 400)
    p = rng.uniform(-60.0, 60.0, 400)
    mu = p * p / (4.0 * K) + np.sin(0.5 * phi) ** 2
    keep = np.abs(mu - 1.0) >= 1e-3
    phi, p = phi[keep], p[keep]
    out = pendulum_step(PhasePoint(phi, p), w, K)
    ref_phi, ref_p = pendulum_oracle(phi, p, w, K)
    assert np.max(circular_distance(out.phi, ref_phi)) < 1e-8
    assert np.max(np.abs(out.p - ref_p)) < 1e-8


def test_jacobi_matches_ellipj():
    m = np.concatenate(([0.0, 1e-12, 0.5, 1.0 - 1e-6, 1.0 - 1e-12, 1.0],
                        np.linspace(0.0, 1.0, 101)))
    v = np.linspace(0.0, 10.0, 501)
    v, m = (x.ravel() for x in np.meshgrid(v, m))
    for got, ref in zip(_jacobi(v, m, 1.0 - m), ellipj(v, m)):
        assert np.max(np.abs(got - ref)) < 1e-10


def test_cycle_jacobian_determinant_unity():
    # the map is a composition of Hamiltonian flows, so it preserves
    # area; finite-difference determinant at h = 1e-6
    cfg = KickConfig(K=280.0)
    phi, p = _random_states(40, 5, cfg.sigma_p)
    h = 1e-6

    def wrap_diff(a, b):
        return np.mod(a - b + np.pi, TWO_PI) - np.pi

    for x, y in zip(phi, p):
        pp = kick_cycle(PhasePoint(np.array([x + h, x - h, x, x]),
                                   np.array([y, y, y + h, y - h])), cfg)
        j11 = wrap_diff(pp.phi[0], pp.phi[1]) / (2 * h)
        j12 = wrap_diff(pp.phi[2], pp.phi[3]) / (2 * h)
        j21 = (pp.p[0] - pp.p[1]) / (2 * h)
        j22 = (pp.p[2] - pp.p[3]) / (2 * h)
        assert j11 * j22 - j12 * j21 == pytest.approx(1.0, abs=1e-5)


def test_zero_coupling_is_free_rotation():
    # at p scale 300 the half angle turns through hundreds of radians
    cfg = KickConfig(K=0.0)
    for p_scale in (5.0, 300.0):
        phi, p = _random_states(64, 2, p_scale)
        out = kick_cycle(PhasePoint(phi, p), cfg)
        ref = free_step(PhasePoint(phi, p), 1.0)
        assert np.max(circular_distance(out.phi, ref.phi)) < 1e-12
        np.testing.assert_allclose(out.p, ref.p, atol=1e-12)


def test_fixed_points():
    cfg = KickConfig(K=200.0)
    stable = kick_cycle(PhasePoint(0.0, 0.0), cfg)
    assert stable.phi == 0.0 and stable.p == 0.0
    # (pi, 0) sits exactly on the separatrix, mu = 1, where the
    # libration and rotation branches meet with m' = 0
    unstable = kick_cycle(PhasePoint(np.pi, 0.0), cfg)
    assert circular_distance(unstable.phi, np.pi) < 1e-9
    assert abs(unstable.p) < 1e-9


def test_separatrix_band_is_continuous():
    # states straddling mu = 1 must come out almost identical,
    # otherwise the seam between the libration and rotation branches
    # would show up as a visible tear in phase space
    K = 280.0
    phi0 = 2.0
    for eps in (5e-9, 2e-9):
        p_in = np.sqrt(2.0 * (K * (1.0 - eps) + K * np.cos(phi0)))
        p_out = np.sqrt(2.0 * (K * (1.0 + eps) + K * np.cos(phi0)))
        a = pendulum_step(PhasePoint(phi0, p_in), 0.05, K)
        b = pendulum_step(PhasePoint(phi0, p_out), 0.05, K)
        # the two trajectories genuinely differ at O(eps * t * dE/..),
        # just not catastrophically
        assert circular_distance(a.phi, b.phi) < 1e-5
        assert abs(a.p - b.p) < 1e-3


def test_free_step_scalar_and_wrap():
    out = free_step(PhasePoint(6.0, 2.0), 0.5)
    assert isinstance(out.phi, float) and isinstance(out.p, float)
    assert out.phi == pytest.approx(7.0 - TWO_PI, abs=1e-12)
    assert out.p == 2.0


def test_free_step_wrap_stays_below_two_pi():
    # np.mod(-1e-17, 2*pi) rounds up to 2*pi itself
    out = free_step(PhasePoint(0.0, -1e-17), 1.0)
    assert isinstance(out.phi, float)
    assert 0.0 <= out.phi < TWO_PI
    out = free_step(PhasePoint(np.zeros(2), np.array([-1e-17, -1e-300])), 1.0)
    assert np.all((out.phi >= 0.0) & (out.phi < TWO_PI))


def test_sample_initial_statistics():
    cfg = KickConfig(K=280.0)
    ens = sample_initial(cfg, 20000, seed=5)
    assert len(ens) == 20000
    assert np.all((ens.phi >= 0.0) & (ens.phi < TWO_PI))
    assert np.std(ens.p) == pytest.approx(cfg.sigma_p, rel=0.02)
    assert abs(np.mean(ens.p)) < 3.0 * cfg.sigma_p / np.sqrt(20000)
    again = sample_initial(cfg, 20000, seed=5)
    np.testing.assert_array_equal(ens.p, again.p)
    np.testing.assert_array_equal(ens.phi, again.phi)
    other = sample_initial(cfg, 20000, seed=6)
    assert not np.array_equal(ens.p, other.p)


def test_propagation_bookkeeping():
    cfg = KickConfig(K=180.0)
    ens = sample_initial(cfg, 2000, seed=1)
    res = propagate_ensemble(ens, cfg, 8)
    assert res.histogram.counts.shape == (9, HISTOGRAM_BINS)
    assert res.histogram.counts[0].sum() == 2000
    assert res.histogram.counts[-1].sum() == 2000  # tori keep everything in range
    assert res.outside_fraction.shape == (9,)
    assert res.max_abs_p.shape == (9,)
    assert np.all((res.outside_fraction >= 0.0) & (res.outside_fraction <= 1.0))
    # initial outside fraction is the Gaussian tail mass beyond 10*pi
    from scipy.stats import norm
    tail = 2.0 * norm.sf(10.0 * np.pi / cfg.sigma_p)
    assert res.outside_fraction[0] == pytest.approx(tail, abs=0.0065)
    edges = res.histogram.bin_edges
    assert edges[0] == -HISTOGRAM_SPAN and edges[-1] == HISTOGRAM_SPAN
    assert res.histogram.bin_centers.shape == (HISTOGRAM_BINS,)


def test_outside_fraction_scores_the_drives_cantorus():
    # at delta = 1/6 the first ladder zero, and so the cantorus, is 6 pi
    cfg = KickConfig(K=0.0, delta=1.0 / 6.0)
    n = 20000
    res = propagate_ensemble(sample_initial(cfg, n, seed=3), cfg, 1)
    tail = erfc(6.0 * np.pi / (np.sqrt(2.0) * cfg.sigma_p))
    binomial_se = np.sqrt(tail * (1.0 - tail) / n)
    assert abs(res.outside_fraction[0] - tail) < 4.0 * binomial_se


def test_propagation_one_kick_is_kick_cycle():
    # the loop carries (sin, cos)(phi/2) from kick to kick; over one kick
    # it must be kick_cycle bit for bit, and return phi in [0, 2 pi)
    cfg = KickConfig(K=280.0)
    ens = sample_initial(cfg, 3000, seed=8)
    ref = kick_cycle(PhasePoint(ens.phi, ens.p), cfg)
    propagate_ensemble(ens, cfg, 1)
    np.testing.assert_array_equal(ens.phi, ref.phi)
    np.testing.assert_array_equal(ens.p, ref.p)
    assert np.all((ens.phi >= 0.0) & (ens.phi < TWO_PI))


def test_propagation_deterministic():
    cfg = KickConfig(K=250.0)
    a = propagate_ensemble(sample_initial(cfg, 500, seed=9), cfg, 5)
    b = propagate_ensemble(sample_initial(cfg, 500, seed=9), cfg, 5)
    np.testing.assert_array_equal(a.outside_fraction, b.outside_fraction)
    np.testing.assert_array_equal(a.histogram.counts, b.histogram.counts)


def test_momentum_bin_edges():
    edges = momentum_bin_edges()
    assert edges.shape == (HISTOGRAM_BINS + 1,)
    assert edges[0] == -35.0 * np.pi
    assert edges[-1] == 35.0 * np.pi


def test_validation_errors():
    cfg = KickConfig(K=10.0)
    with pytest.raises(ValueError):
        sample_initial(cfg, 0, seed=1)
    ens = sample_initial(cfg, 10, seed=1)
    with pytest.raises(ValueError):
        propagate_ensemble(ens, cfg, 0)
