"""Toroidal Wigner function and the strangeness diagnostic."""

import tracemalloc

import numpy as np
import pytest

from dkrotor.pulses import KickConfig
from dkrotor.quantum import (MomentumBasis, build_period_operator,
                             density_after, initial_density)
from dkrotor.wigner import (TARGET_S_MIXED, TARGET_S_SUPERPOSED,
                            WidthCalibration, calibrate_packet_width,
                            gaussian_packet, strangeness, two_packet_mixture,
                            two_packet_superposition, wigner_transform)
from helpers import reflection, strangeness_sweep, wigner_direct

BASIS = MomentumBasis()
N = 128


def _pure(psi):
    return np.outer(psi, psi.conj())


def _fringed_state():
    psi = (gaussian_packet(BASIS, 5, 3.0) + gaussian_packet(BASIS, 12, 3.0))
    psi /= np.linalg.norm(psi)
    return _pure(psi)


def test_grid_geometry_and_normalization():
    rho = initial_density(KickConfig(K=280.0), BASIS)
    g = wigner_transform(rho, BASIS)
    assert g.coarse.shape == (N, N)
    assert g.norm_constant == pytest.approx(2 * N, rel=1e-12)
    assert g.coarse.sum() == pytest.approx(1.0, abs=1e-10)
    np.testing.assert_allclose(g.coarse_momenta, BASIS.momenta)
    np.testing.assert_allclose(g.coarse_positions,
                               2.0 * np.pi * np.arange(N) / N)
    assert np.isrealobj(g.coarse)


def _evolved(basis, kicks=70):
    cfg = KickConfig(K=280.0, hbar=basis.hbar)
    return density_after(initial_density(cfg, basis),
                         build_period_operator(cfg, basis), kicks)


def _random_density(size, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    rho = A @ A.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("state,size", [("random", 2), ("random", 8),
                                        ("random", 16), ("real", 16),
                                        ("evolved", 128)])
def test_grid_matches_direct_sum(state, size):
    # the module-docstring sum, term by term, against the two N-point
    # FFT blocks folded into cells (at N = 2 one column pair each); a
    # real rho is accepted too
    basis = MomentumBasis(size=size)
    if state == "evolved":
        rho = _evolved(basis)
    else:
        rho = _random_density(size, seed=size)
        if state == "real":
            rho = rho.real
    _, coarse = wigner_direct(rho, basis)
    g = wigner_transform(rho, basis)
    np.testing.assert_allclose(g.coarse, coarse, rtol=0, atol=1e-15)


def test_transform_memory_budget():
    # the cells are folded from the two N x N blocks: the traced peak
    # (3.5 copies of rho) stays below four copies, and a real 2N x 2N
    # array alone would add two
    basis = MomentumBasis(size=256, hbar=1.3)
    rho = _evolved(basis)
    tracemalloc.start()
    try:
        wigner_transform(rho, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * rho.nbytes


def test_momentum_marginal_is_exact():
    # summing cells over positions must reproduce diag(rho) exactly,
    # not approximately: the coarse graining is built to guarantee it
    rho = _fringed_state()
    g = wigner_transform(rho, BASIS)
    np.testing.assert_allclose(g.coarse.sum(axis=1),
                               np.real(np.diag(rho)), atol=1e-12)
    assert g.coarse.sum(axis=0).sum() == pytest.approx(1.0, abs=1e-10)
    assert np.all(g.coarse.sum(axis=0) > -1e-12)


def test_momentum_eigenstate_is_uniform_stripe():
    rho = np.zeros((N, N), dtype=complex)
    rho[70, 70] = 1.0
    g = wigner_transform(rho, BASIS)
    np.testing.assert_allclose(g.coarse[70], 1.0 / N, atol=1e-12)
    other = np.delete(g.coarse, 70, axis=0)
    assert np.max(np.abs(other)) < 1e-12


def test_diagonal_states_have_zero_strangeness():
    # any incoherent ladder mixture is non-negative on the torus, so
    # the negativity score vanishes identically
    rho = initial_density(KickConfig(K=180.0), BASIS)
    assert strangeness(wigner_transform(rho, BASIS)) == 0.0
    rng = np.random.default_rng(8)
    w = rng.random(N)
    rho2 = np.diag(w / w.sum()).astype(complex)
    assert strangeness(wigner_transform(rho2, BASIS)) == 0.0


def test_superposition_fringes_go_negative():
    assert strangeness(wigner_transform(_fringed_state(), BASIS)) > 0.01


def test_transform_is_linear():
    a = _fringed_state()
    b = _pure(gaussian_packet(BASIS, -20, 2.0))
    mix = 0.3 * a + 0.7 * b
    ga, gb, gm = (wigner_transform(r, BASIS) for r in (a, b, mix))
    np.testing.assert_allclose(gm.coarse, 0.3 * ga.coarse + 0.7 * gb.coarse,
                               atol=1e-12)


def test_translation_covariance():
    # shifting the state by j coarse cells in angle rolls the grid by j
    rho = _fringed_state()
    g = wigner_transform(rho, BASIS)
    j = 3
    theta = 2.0 * np.pi * j / N
    D = np.diag(np.exp(-1j * BASIS.indices * theta))
    gt = wigner_transform(D @ rho @ D.conj().T, BASIS)
    np.testing.assert_allclose(gt.coarse, np.roll(g.coarse, j, axis=1),
                               atol=1e-13)
    assert strangeness(gt) == pytest.approx(strangeness(g), abs=1e-12)


def test_reflection_invariance():
    # n -> -n reflects the torus; the negativity score cannot change.
    # cell sums straddle the reflection point, so only aggregate
    # observables are compared
    rho = _fringed_state()
    perm = reflection(N)
    rho_r = rho[np.ix_(perm, perm)]
    g, gr = wigner_transform(rho, BASIS), wigner_transform(rho_r, BASIS)
    assert strangeness(gr) == pytest.approx(strangeness(g), abs=1e-12)
    np.testing.assert_allclose(gr.coarse.sum(axis=1),
                               g.coarse.sum(axis=1)[perm], atol=1e-12)


def test_superposition_phase_commensurability():
    # the relative phase slides the interference fringes; with packets
    # 32 sites apart a phase of pi/2 moves them by exactly one coarse
    # cell, so those scores agree (to the envelope variation, ~5e-7),
    # while incommensurate phases land the fringes differently on the
    # cells and genuinely move the score by ~0.1
    def s(ph):
        return strangeness(wigner_transform(
            two_packet_superposition(BASIS, phase=ph), BASIS))

    base = s(0.0)
    assert s(np.pi / 2.0) == pytest.approx(base, abs=1e-5)
    assert s(np.pi) == pytest.approx(base, abs=1e-5)
    assert abs(s(0.3) - base) > 0.01


def test_transform_rejects_non_hermitian():
    rho = _fringed_state()
    rho[3, 5] += 0.2
    with pytest.raises(ValueError):
        wigner_transform(rho, BASIS)


def test_packet_builders():
    psi = gaussian_packet(BASIS, 16, 4.0)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
    n = BASIS.indices
    w = np.abs(psi)**2
    mean = (n * w).sum()
    spread = np.sqrt(((n - mean)**2 * w).sum())
    assert mean == pytest.approx(16.0, abs=1e-6)
    assert spread == pytest.approx(4.0, rel=0.01)
    with pytest.raises(ValueError):
        gaussian_packet(BASIS, 0, 0.0)
    for rho in (two_packet_mixture(BASIS), two_packet_superposition(BASIS)):
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-14
    # the mixture carries no cross-packet coherence: its strangeness is
    # well below the superposed state at equal width
    s_mix = strangeness(wigner_transform(two_packet_mixture(BASIS), BASIS))
    s_sup = strangeness(wigner_transform(two_packet_superposition(BASIS),
                                         BASIS))
    assert 0.0 < s_mix < s_sup


def test_width_calibration_regression():
    # frozen operating point: nearest joint match of the two target
    # scores.  The ratio lands on target because the minimax objective
    # equalizes the two relative misses, not because the family fits
    cal = calibrate_packet_width(BASIS)
    assert isinstance(cal, WidthCalibration)
    assert cal.width == pytest.approx(6.64142, abs=0.05)
    assert cal.S_mixed == pytest.approx(0.156770, abs=1e-3)
    assert cal.S_superposed == pytest.approx(0.679220, abs=1e-3)
    assert cal.ratio == pytest.approx(4.332590, rel=1e-3)
    target_ratio = TARGET_S_SUPERPOSED / TARGET_S_MIXED
    assert target_ratio == pytest.approx(0.7647 / 0.1765, rel=1e-12)
    assert cal.ratio == pytest.approx(target_ratio, rel=1e-4)


def test_strangeness_sweep_rows():
    rows = strangeness_sweep((80.0,), (0.0, 0.05), kicks=3)
    assert len(rows) == 2
    for row in rows:
        assert set(row) == {"K", "eta", "S"}
        assert row["K"] == 80.0
        assert row["S"] >= 0.0
    assert rows[0]["eta"] == 0.0 and rows[1]["eta"] == 0.05
