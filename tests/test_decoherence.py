"""Spontaneous-emission and anti-Zeno decoherence models."""

import numpy as np
import pytest

from dkrotor import decoherence
from dkrotor.decoherence import (EmissionModel, MCResult, OperatorCache,
                                 anti_zeno_map, mc_wavefunction_run,
                                 run_decohered, spontaneous_emission_map,
                                 _wrap_q)
from dkrotor.pulses import KickConfig
from dkrotor.quantum import (MomentumBasis, build_period_operator,
                             evolve_density, initial_density)
from helpers import mc_reference

BASIS = MomentumBasis()


def _continuous(eta):
    return EmissionModel(eta=eta, recoil_mode="continuous")


def _random_density(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = A @ A.conj().T
    return rho / np.trace(rho)


def test_emission_map_against_translation_operators():
    # independent route: the map is (1-eta) rho + eta/2 (T rho T+ + T+ rho T)
    # with T the periodic ladder shift
    rho = _random_density(32, 1)
    T = np.roll(np.eye(32), 1, axis=0)
    for eta in (0.0, 0.02, 0.05, 1.0):
        want = ((1.0 - eta) * rho
                + 0.5 * eta * (T @ rho @ T.conj().T + T.conj().T @ rho @ T))
        np.testing.assert_allclose(spontaneous_emission_map(rho, eta), want,
                                   atol=1e-14)


def test_emission_map_on_basis_state():
    rho = np.zeros((128, 128), dtype=complex)
    rho[64, 64] = 1.0
    out = spontaneous_emission_map(rho, 0.05)
    assert out[64, 64] == pytest.approx(0.95)
    assert out[63, 63] == pytest.approx(0.025)
    assert out[65, 65] == pytest.approx(0.025)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-14)


def test_emission_map_wraps_at_ladder_edge():
    rho = np.zeros((128, 128), dtype=complex)
    rho[0, 0] = 1.0
    out = spontaneous_emission_map(rho, 0.1)
    assert out[127, 127] == pytest.approx(0.05)
    assert out[1, 1] == pytest.approx(0.05)


def test_emission_map_preserves_density_properties():
    rho = _random_density(40, 7)
    out = spontaneous_emission_map(rho, 0.3)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(out - out.conj().T)) < 1e-14
    assert np.linalg.eigvalsh(out).min() > -1e-12


def test_emission_map_matches_roll_formula_bitwise():
    rho = _random_density(48, 9)
    before = rho.copy()
    for eta in (0.0, 0.02, 0.05, 0.3, 1.0):
        up = np.roll(rho, (-1, -1), axis=(0, 1))
        down = np.roll(rho, (1, 1), axis=(0, 1))
        want = 0.5 * eta * (up + down) + (1.0 - eta) * rho
        assert np.array_equal(spontaneous_emission_map(rho, eta), want)
    assert np.array_equal(rho, before)


def test_emission_map_validates_eta():
    rho = _random_density(8, 2)
    with pytest.raises(ValueError):
        spontaneous_emission_map(rho, -0.01)
    with pytest.raises(ValueError):
        spontaneous_emission_map(rho, 1.2)


def test_anti_zeno_map_projects():
    rho = _random_density(16, 3)
    out = anti_zeno_map(rho)
    np.testing.assert_array_equal(np.diag(out), np.diag(rho))
    assert np.max(np.abs(out - np.diag(np.diag(out)))) == 0.0


def test_run_decohered_none_matches_coherent():
    cfg = KickConfig(K=180.0)
    op = build_period_operator(cfg, BASIS)
    rho = initial_density(cfg, BASIS)
    a = run_decohered(rho, op, None, 6)
    b = evolve_density(rho, op, 6)
    np.testing.assert_allclose(a.distributions, b.distributions, atol=1e-14)
    np.testing.assert_allclose(a.outside_fraction, b.outside_fraction,
                               atol=1e-14)


def test_run_decohered_emission_matches_manual_loop():
    cfg = KickConfig(K=250.0)
    op = build_period_operator(cfg, BASIS)
    rho = initial_density(cfg, BASIS)
    res = run_decohered(rho, op, EmissionModel(eta=0.05), 5)
    manual = rho.copy()
    for _ in range(5):
        manual = op.U @ manual @ op.U.conj().T
        manual = spontaneous_emission_map(manual, 0.05)
    np.testing.assert_allclose(res.distributions[-1],
                               np.real(np.diag(manual)), atol=1e-13)
    assert np.trace(res.final_density).real == pytest.approx(1.0, abs=1e-10)


def test_anti_zeno_fast_path_matches_projective_loop():
    cfg = KickConfig(K=280.0)
    op = build_period_operator(cfg, BASIS)
    # start from a state with coherences so the first-cycle branch runs
    rho = initial_density(cfg, BASIS)
    psi = np.exp(-0.5 * ((BASIS.indices - 3) / 6.0)**2).astype(complex)
    psi /= np.linalg.norm(psi)
    rho = 0.7 * rho + 0.3 * np.outer(psi, psi.conj())
    res = run_decohered(rho, op, "anti-zeno", 8)
    manual = rho.copy()
    for t in range(1, 9):
        manual = anti_zeno_map(op.U @ manual @ op.U.conj().T)
        np.testing.assert_allclose(res.distributions[t],
                                   np.real(np.diag(manual)), atol=1e-12)
    assert np.max(np.abs(res.final_density
                         - np.diag(np.diag(res.final_density)))) == 0.0


def test_emission_accelerates_transport():
    # 5 percent emission leaks probability through the barriers faster
    # than the coherent run
    cfg = KickConfig(K=280.0)
    op = build_period_operator(cfg, BASIS)
    rho = initial_density(cfg, BASIS)
    coh = run_decohered(rho, op, None, 40)
    emi = run_decohered(rho, op, EmissionModel(eta=0.05), 40)
    assert emi.outside_fraction[40] > coh.outside_fraction[40] + 0.02


def test_run_decohered_rejections():
    cfg = KickConfig(K=50.0)
    op = build_period_operator(cfg, BASIS)
    rho = initial_density(cfg, BASIS)
    with pytest.raises(ValueError, match="mc_wavefunction_run"):
        run_decohered(rho, op, EmissionModel(eta=0.05,
                                             recoil_mode="continuous"), 3)
    with pytest.raises(ValueError, match="unknown"):
        run_decohered(rho, op, "something", 3)
    with pytest.raises(ValueError):
        run_decohered(rho, op, None, 0)


def test_emission_model_validation():
    with pytest.raises(ValueError):
        EmissionModel(eta=-0.1)
    with pytest.raises(ValueError):
        EmissionModel(eta=1.5)
    with pytest.raises(ValueError):
        EmissionModel(eta=0.1, recoil_mode="bogus")
    assert EmissionModel(eta=0.02).recoil_mode == "discretized"


def test_wrap_q_splits_shift_and_remainder():
    for q_total, want_shift, want_q in ((0.7, 1, -0.3), (0.4, 0, 0.4),
                                        (-0.6, -1, 0.4), (0.5, 1, -0.5),
                                        (0.0, 0, 0.0), (1.3, 1, 0.3)):
        shift, q = _wrap_q(q_total)
        assert shift == want_shift
        assert q == pytest.approx(want_q, abs=1e-12)
        assert -0.5 <= q < 0.5
        assert shift + q == pytest.approx(q_total, abs=1e-12)


def test_operator_cache_snaps_and_reuses():
    cache = OperatorCache(KickConfig(K=100.0), size=64, hbar=2.6)
    assert cache.snap(0.13) == pytest.approx(0.125)
    assert cache.snap(0.7) == pytest.approx(-0.296875)
    op1 = cache.operator(0.1251)
    op2 = cache.operator(0.1249)  # same grid point
    assert op1 is op2
    assert op1.basis.q == pytest.approx(0.125)


def test_mc_zero_rate_matches_density_matrix():
    # with eta = 0 every trajectory is a coherently evolved ladder state,
    # so the ensemble average must agree with the density-matrix run to
    # within sampling error of the initial-state draw
    cfg = KickConfig(K=280.0)
    op = build_period_operator(cfg, BASIS)
    dm = run_decohered(initial_density(cfg, BASIS), op, None, 8)
    mc = mc_wavefunction_run(cfg, BASIS, _continuous(0.0), kicks=8, seed=3,
                             realizations=200)
    assert isinstance(mc, MCResult)
    np.testing.assert_allclose(mc.distributions.sum(axis=1), 1.0, atol=1e-9)
    se = np.maximum(mc.outside_stderr, 1e-4)
    assert np.all(np.abs(mc.outside_fraction - dm.outside_fraction)
                  < 5.0 * se)


def test_mc_deterministic_and_worker_invariant():
    cfg = KickConfig(K=180.0)
    a = mc_wavefunction_run(cfg, BASIS, _continuous(0.2), kicks=5, seed=11,
                            realizations=80)
    b = mc_wavefunction_run(cfg, BASIS, _continuous(0.2), kicks=5, seed=11,
                            realizations=80)
    np.testing.assert_array_equal(a.distributions, b.distributions)
    np.testing.assert_array_equal(a.outside_fraction, b.outside_fraction)
    # workers has no effect: one process runs every realization
    for workers in (2, 4):
        c = mc_wavefunction_run(cfg, BASIS, _continuous(0.2), kicks=5,
                                seed=11, realizations=80, workers=workers)
        np.testing.assert_array_equal(a.distributions, c.distributions)
        np.testing.assert_array_equal(a.outside_fraction, c.outside_fraction)
        np.testing.assert_array_equal(a.outside_stderr, c.outside_stderr)
    d = mc_wavefunction_run(cfg, BASIS, _continuous(0.2), kicks=5, seed=12,
                            realizations=80)
    assert not np.array_equal(a.outside_fraction, d.outside_fraction)


def test_mc_start_states_are_generator_choice_draws():
    # the start state inverts the cumulative weights once for all
    # realizations; per (seed, i) stream that must pick the state
    # Generator.choice(p=weights) picks and leave the stream where
    # choice leaves it, so the trajectories' later draws match too
    cfg = KickConfig(K=280.0)
    weights = np.real(np.diag(initial_density(cfg, BASIS)))
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    R = 3000
    counts = np.zeros(BASIS.size)
    for i in range(R):
        ours = np.random.default_rng(np.random.SeedSequence((11, i)))
        ref = np.random.default_rng(np.random.SeedSequence((11, i)))
        n0 = ref.choice(BASIS.size, p=weights)
        assert cdf.searchsorted(ours.random(), side="right") == n0
        assert ours.random() == ref.random()
        counts[n0] += 1
    mc = mc_wavefunction_run(cfg, BASIS, EmissionModel(eta=0.0), kicks=1,
                             seed=11, realizations=R)
    np.testing.assert_array_equal(np.rint(mc.distributions[0] * R), counts)


def test_mc_bookkeeping_and_validation():
    cfg = KickConfig(K=120.0)
    mc = mc_wavefunction_run(cfg, BASIS, _continuous(0.4), kicks=4, seed=2,
                             realizations=60)
    assert mc.distributions.shape == (5, 128)
    assert mc.outside_fraction.shape == (5,)
    assert mc.outside_stderr.shape == (5,)
    assert mc.realizations == 60
    assert mc.seed == 2
    assert np.all(mc.outside_stderr >= 0.0)
    with pytest.raises(ValueError):
        mc_wavefunction_run(cfg, BASIS, EmissionModel(eta=1.4), kicks=4,
                            seed=2, realizations=60)
    with pytest.raises(TypeError):
        mc_wavefunction_run(cfg, BASIS, 0.1, kicks=4, seed=2,
                            realizations=60)
    with pytest.raises(ValueError):
        mc_wavefunction_run(cfg, BASIS, _continuous(0.1), kicks=4, seed=2,
                            realizations=0)
    with pytest.raises(ValueError):
        mc_wavefunction_run(cfg, BASIS, _continuous(0.1), kicks=0, seed=2,
                            realizations=10)


def test_mc_discretized_unravels_emission_map():
    # with sigma_p far below one rung every realization starts in the
    # ladder state n = 0; at eta = 1 kick 1 is U|0> shifted up or down
    # with odds 1/2, so the exact per-site standard error of the average
    # is |up - down| / (2 sqrt(R))
    cfg = KickConfig(K=280.0, sigma_p=0.1)
    op = build_period_operator(cfg, BASIS)
    rho = np.zeros((128, 128), dtype=complex)
    rho[64, 64] = 1.0
    want = np.real(np.diag(
        spontaneous_emission_map(op.U @ rho @ op.U.conj().T, 1.0)))
    prob = np.abs(op.U[:, 64])**2
    se = np.abs(np.roll(prob, 1) - np.roll(prob, -1)) / (2.0 * np.sqrt(400))
    runs = [mc_wavefunction_run(cfg, BASIS, EmissionModel(eta=1.0), kicks=1,
                                seed=5, realizations=400, workers=w)
            for w in (1, 3)]
    for mc in runs:
        np.testing.assert_allclose(mc.distributions[0], np.diag(rho).real,
                                   atol=1e-15)
        assert np.all(np.abs(mc.distributions[1] - want) <= 4.0 * se + 1e-12)
    np.testing.assert_array_equal(runs[0].distributions,
                                  runs[1].distributions)


@pytest.mark.parametrize("mode, eta", [
    pytest.param(mode, eta, id=mode if eta == 0.3 else f"{mode}-eta{eta:g}")
    for mode in ("discretized", "continuous") for eta in (0.0, 0.3, 1.0)])
def test_mc_blocks_match_per_realization_reference(monkeypatch, mode, eta):
    # eta = 0.3 over 6 kicks gives emissions, q changes (continuous) and,
    # with blocks of 16, four blocks of 60 realizations, the last partial.
    # At eta = 0 no column emits; at eta = 1 every column emits every
    # kick, so q groups hold many columns, emissions fall in both halves
    # of the pulse, and shifts wrap
    monkeypatch.setattr(decoherence, "MC_BLOCK", 16)
    cfg = KickConfig(K=280.0)
    model = EmissionModel(eta=eta, recoil_mode=mode)
    mc = mc_wavefunction_run(cfg, BASIS, model, kicks=6, seed=7,
                             realizations=60)
    dists, outside, stderr = mc_reference(cfg, BASIS, model, kicks=6,
                                          seed=7, realizations=60)
    np.testing.assert_allclose(mc.distributions, dists, rtol=0, atol=1e-12)
    np.testing.assert_allclose(mc.outside_fraction, outside, rtol=0,
                               atol=1e-12)
    np.testing.assert_allclose(mc.outside_stderr, stderr, rtol=0, atol=1e-12)
    assert mc.outside_fraction[6] > mc.outside_fraction[0]
