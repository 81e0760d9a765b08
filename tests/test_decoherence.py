"""Spontaneous-emission and anti-Zeno decoherence models."""

import numpy as np
import pytest

from dkrotor import decoherence
from dkrotor.decoherence import (Q_GRID, EmissionModel, MCResult,
                                 OperatorCache, _angle_basis, _angle_map,
                                 _conjugated, _emission_map_into,
                                 _from_parity_blocks, _ladder_split,
                                 _parity_blocks, _parity_even,
                                 mc_wavefunction_run, run_decohered)
from dkrotor.pulses import KickConfig
from dkrotor.quantum import (MomentumBasis, build_period_operator,
                             evolve_density, initial_density)
from helpers import (anti_zeno_map, mc_reference, non_densities,
                     parity_average, reflection)

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
        np.testing.assert_allclose(_emission_map_into(rho.copy(), eta), want,
                                   atol=1e-14)


def test_emission_map_on_basis_state():
    rho = np.zeros((128, 128), dtype=complex)
    rho[64, 64] = 1.0
    out = _emission_map_into(rho.copy(), 0.05)
    assert out[64, 64] == pytest.approx(0.95)
    assert out[63, 63] == pytest.approx(0.025)
    assert out[65, 65] == pytest.approx(0.025)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-14)


def test_emission_map_wraps_at_ladder_edge():
    rho = np.zeros((128, 128), dtype=complex)
    rho[0, 0] = 1.0
    out = _emission_map_into(rho.copy(), 0.1)
    assert out[127, 127] == pytest.approx(0.05)
    assert out[1, 1] == pytest.approx(0.05)


def test_emission_map_preserves_density_properties():
    rho = _random_density(40, 7)
    out = _emission_map_into(rho.copy(), 0.3)
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
        assert np.array_equal(_emission_map_into(rho.copy(), eta), want)
    assert np.array_equal(rho, before)


def test_emission_map_validates_eta():
    # EmissionModel is the one validator of the rate the map applies
    with pytest.raises(ValueError):
        EmissionModel(eta=-0.01)
    with pytest.raises(ValueError):
        EmissionModel(eta=1.2)


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
        manual = _emission_map_into(manual, 0.05)
    np.testing.assert_allclose(res.distributions[-1],
                               np.real(np.diag(manual)), atol=1e-13)
    assert np.trace(res.final_density).real == pytest.approx(1.0, abs=1e-10)


def _parity_basis(n):
    """Columns |0>, |-N/2>, (|k> + |-k>)/sqrt2, then (|k> - |-k>)/sqrt2,
    k = 1 .. N/2 - 1, on ladder rows i = k + N/2, from the definition."""
    h, e = n // 2, np.eye(n)
    even = [e[h], e[0]] + [(e[h + k] + e[h - k]) / np.sqrt(2)
                           for k in range(1, h)]
    odd = [(e[h + k] - e[h - k]) / np.sqrt(2) for k in range(1, h)]
    return np.array(even).T, np.array(odd).reshape(-1, n).T


@pytest.mark.parametrize("n", [2, 4, 6, 128])
def test_parity_blocks_match_the_parity_basis(n):
    Se, So = _parity_basis(n)
    X = _random_density(n, n)
    E, O = _parity_blocks(X)
    # zero-padded to a multiple of 8 rows and columns
    assert E.shape[0] % 8 == 0 and O.shape[0] % 8 == 0
    h = n // 2
    np.testing.assert_allclose(E[:h + 1, :h + 1], Se.T @ X @ Se, atol=1e-15)
    np.testing.assert_allclose(O[:h - 1, :h - 1], So.T @ X @ So, atol=1e-15)
    assert not E[h + 1:].any() and not E[:, h + 1:].any()
    assert not O[h - 1:].any() and not O[:, h - 1:].any()
    # back on the ladder: the parity-even part of X
    even = Se @ Se.T @ X @ Se @ Se.T + So @ So.T @ X @ So @ So.T
    np.testing.assert_allclose(_from_parity_blocks((E, O), n), even,
                               atol=1e-15)


@pytest.mark.parametrize("n", [2, 4, 6, 128])
def test_angle_basis_is_orthogonal_and_diagonalizes_the_shift(n):
    h = n // 2
    (C_E, C_O), (dC_E, dC_O) = _angle_basis(n)
    # zero-padded to a multiple of 8 rows and columns, like the blocks
    assert C_E.shape[0] % 8 == 0 and C_O.shape[0] % 8 == 0
    for C, dC, m in ((C_E, dC_E, h + 1), (C_O, dC_O, h - 1)):
        np.testing.assert_allclose(C[:m, :m].T @ C[:m, :m], np.eye(m),
                                   atol=1e-15)
        assert not C[m:].any() and not C[:, m:].any()
        assert not dC[m:].any() and not dC[:, m:].any()
        # dC is C's rounding, at most half an ulp, and C - dC is
        # orthogonal to the precision of np.longdouble
        assert np.all(np.abs(dC) <= 0.5 * np.spacing(np.abs(C)))
        Q = C[:m, :m].astype(np.longdouble) - dC[:m, :m]
        ext = np.finfo(np.longdouble).eps
        np.testing.assert_allclose(Q.T @ Q, np.eye(m), atol=4 * m * ext)
    # |theta_a> = (cosine + i sine)/sqrt2 from the blocks' columns, and
    # |theta_-a> = (cosine - i sine)/sqrt2, against the definition
    # N^-1/2 sum_n exp(2 pi i a n / N) |n>, with a n reduced mod N
    Se, So = _parity_basis(n)
    cos, sin = Se @ C_E[:h + 1, :h + 1], So @ C_O[:h - 1, :h - 1]
    theta = np.empty((n, n), dtype=complex)
    theta[:, 0], theta[:, h] = cos[:, 0], cos[:, 1]
    theta[:, 1:h] = (cos[:, 2:] + 1j * sin) / np.sqrt(2)
    theta[:, :h:-1] = (cos[:, 2:] - 1j * sin) / np.sqrt(2)
    a = np.arange(n)
    phase = np.outer(np.arange(n) - h, a) % n
    np.testing.assert_allclose(theta, np.exp(2j * np.pi * phase / n)
                               / np.sqrt(n), atol=1e-15)
    # the recoil shift |n> -> |n + 1>, wrapped, is diag(exp(-i theta_a))
    shift = np.roll(np.eye(n), 1, axis=0)
    np.testing.assert_allclose(theta.conj().T @ shift @ theta,
                               np.diag(np.exp(-2j * np.pi * a / n)),
                               atol=1e-15)


@pytest.mark.parametrize("eta", [0.0, 0.05, 1.0])
@pytest.mark.parametrize("n", [2, 4, 6, 8, 128])
def test_angle_block_map_matches_emission_map(n, eta):
    # Taken into the angle blocks, mapped there and taken back, a
    # parity-even rho must match the ladder map.  rho is positive with
    # unit trace, so |rho|_2 <= 1, and the rows of C_E and C_O are unit
    # vectors: each of the four products C X sums m <= N/2 + 1 terms
    # whose sizes add to at most |rho|_2 (Cauchy-Schwarz), and rounds an
    # entry by at most m eps.  The orthogonal products carry earlier
    # errors on without growth, and the fold, the weights and the unfold
    # add a few eps: (2 N + 12) eps in all, 3.1e-14 at N = 128.
    atol = (2 * n + 12) * np.finfo(float).eps
    rho = parity_average(_random_density(n, n))
    C, dC = _angle_basis(n)
    blocks = [_conjugated(c, dc, X)
              for c, dc, X in zip(C, dC, _parity_blocks(rho))]
    before = [X.copy() for X in blocks]
    _angle_map(n, eta)(*blocks)
    if eta == 0.0:
        assert all(map(np.array_equal, blocks, before))
    back = _from_parity_blocks([_conjugated(c, dc, X)
                                for c, dc, X in zip(C, dC, blocks)], n)
    np.testing.assert_allclose(back, _emission_map_into(rho.copy(), eta),
                               rtol=0, atol=atol)


@pytest.mark.parametrize("n, hbar, edge", [(128, 2.6, 53), (256, 1.3, 113)])
def test_parity_block_kick_matches_full_product(n, hbar, edge):
    # The block kick conjugates by the parity average Ubar = (U + RUR)/2.
    # With D = (U - RUR)/2, U rho U+ - Ubar rho Ubar+ = Ubar rho D+
    # + D rho Ubar+ + D rho D+, whose Frobenius norm is at most
    # 3 |D rho|_F, because |Ubar|, |D| <= 1.  Conjugation keeps the
    # Frobenius norm and the map does not raise it, so the kicks' terms
    # add up, and the largest entry is below the sum.  D has two parts:
    # - on the columns where |D| > 1e-12 (|n| >= edge) it is the hard
    #   wall at -N/2, which breaks the reflection (|D| up to 0.55).  There
    #   |D rho|_F <= sum over those columns l of |D[:, l]| |rho[l, :]|,
    #   computed below from the plain loop; rho sits far from the edge,
    #   so the sum is below 1e-14;
    # - elsewhere it is U's own roundoff, at most 1.1e-13 an entry: the
    #   plain loop carries it as much as the block kick, and like the
    #   products' own roundoff (N eps = 2.8e-14 an entry at most, random
    #   in sign, on entries below 0.1) it moves the distribution by less
    #   than 1e-14 a kick, with signs that do not line up.
    # So the two routes agree to 1e-13 after 70 kicks.
    cfg = KickConfig(K=280.0, hbar=hbar)
    basis = MomentumBasis(size=n, hbar=hbar)
    op = build_period_operator(cfg, basis)
    r = reflection(n)
    D = 0.5 * (op.U - op.U[r][:, r])
    wall = np.abs(D).max(axis=0) > 1e-12
    assert np.abs(basis.indices[wall]).min() == edge
    rho = initial_density(cfg, basis)
    res = run_decohered(rho, op, EmissionModel(eta=0.05), 70)
    dropped = 0.0
    for t in range(1, 71):
        dropped += 3.0 * np.sum(np.linalg.norm(D[:, wall], axis=0)
                                * np.linalg.norm(rho[wall], axis=1))
        rho = _emission_map_into(op.U @ rho @ op.U.conj().T, 0.05)
        np.testing.assert_allclose(res.distributions[t],
                                   np.real(np.diag(rho)), atol=1e-13)
    assert dropped < 1e-14
    np.testing.assert_allclose(res.final_density, rho, atol=1e-13)


def _displaced_density(basis):
    """A mixed state that is not parity-even: weight centred on n = 3."""
    psi = np.exp(-0.5 * ((basis.indices - 3) / 6.0)**2).astype(complex)
    psi /= np.linalg.norm(psi)
    return 0.5 * np.diag(np.abs(psi)**2) + 0.5 * np.outer(psi, psi.conj())


@pytest.mark.parametrize("q, start", [(0.25, "gaussian"), (0.0, "displaced")])
def test_run_decohered_emission_refuses_other_runs(q, start):
    # the one emission route needs q = 0 and a parity-even start; the
    # Gaussian at q = 0.25 is even, so the q test alone refuses it
    cfg = KickConfig(K=280.0)
    basis = MomentumBasis(q=q)
    op = build_period_operator(cfg, basis)
    rho = (initial_density(cfg, basis) if start == "gaussian"
           else _displaced_density(basis))
    with pytest.raises(ValueError, match="q = 0" if q else "parity-even"):
        run_decohered(rho, op, EmissionModel(eta=0.05), 70)


@pytest.mark.parametrize("n", [2, 4, 128])
def test_parity_test_refuses_each_uneven_element(n):
    # a random even rho, built with the index reflection, changed in one
    # element: of row 0 or column 0 (rung -N/2), of the row or column of
    # rung 0, or of a +-n pair block.  Changes on the elements between
    # rungs 0 and -N/2, their own images, keep it even.  At N = 2 those
    # are all the elements: R is the identity
    h = n // 2
    rho = parity_average(_random_density(n, n))
    assert _parity_even(rho)
    fixed = [(0, 0), (h, h), (0, h), (h, 0)]
    j, k = h - 1, h + 1  # rungs -1 and +1
    uneven = ([(0, j), (j, 0), (h, j), (j, h), (k, k), (k, j), (j, k)]
              if n > 2 else [])
    for cell in fixed + uneven:
        changed = rho.copy()
        changed[cell] += 1e-9
        assert _parity_even(changed) == (cell in fixed), cell


@pytest.mark.parametrize("model", [None, EmissionModel(eta=0.05), "anti-zeno"],
                         ids=["coherent", "emission", "anti-zeno"])
def test_run_decohered_refuses_non_density_matrices(model):
    # the densities test_quantum refuses, through every channel: each
    # checks rho0 before it checks q or parity
    cfg = KickConfig(K=280.0)
    op = build_period_operator(cfg, BASIS)
    for bad, match in non_densities(initial_density(cfg, BASIS)):
        with pytest.raises(ValueError, match=match):
            run_decohered(bad, op, model, 3)


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


def test_ladder_split_keeps_every_rung():
    # every key k and every rounded recoil r in [-Q_GRID, Q_GRID]: the
    # shift is the number of zones q + u = (k + r) / Q_GRID lies above
    # the zone [-1/2, 1/2), and with the new key it holds k + r whole,
    # so a sum that reaches q = +1/2 moves one rung up
    k = np.arange(-Q_GRID // 2, Q_GRID // 2)[:, None]
    r = np.arange(-Q_GRID, Q_GRID + 1)
    shift, key = _ladder_split(k + r)
    np.testing.assert_array_equal(shift, np.floor((k + r) / Q_GRID + 0.5))
    np.testing.assert_array_equal(shift * Q_GRID + key, k + r)
    assert key.min() == -Q_GRID // 2 and key.max() == Q_GRID // 2 - 1
    assert _ladder_split(Q_GRID // 2) == (1, -Q_GRID // 2)


def test_operator_cache_builds_one_operator_per_key():
    cache = OperatorCache(KickConfig(K=100.0), size=64, hbar=2.6)
    ops = {k: cache.operator(k) for k in (-Q_GRID // 2, -3, 0, 8)}
    assert len({id(op) for op in ops.values()}) == len(ops)
    for k, op in ops.items():
        assert cache.operator(k) is op
        assert op.basis.q == k / Q_GRID


def test_continuous_recoil_keeps_its_rung_at_zero_drive():
    # at K = 0 every pulse is diagonal, so each column stays one ladder
    # state, and after one kick at eta = 1 the distribution is the
    # histogram of n0 + shift.  It is rebuilt from each (seed, i) stream
    # in the documented draw order: start, trigger, time, u.  The start
    # key is 0, so the rounded total is round(Q_GRID u), and the shift
    # counts the zones it lies above [-1/2, 1/2): a recoil that reaches
    # q = +1/2 must gain its rung
    cfg = KickConfig(K=0.0)
    seed, R = 3, 2000
    weights = np.real(np.diag(initial_density(cfg, BASIS)))
    counts = np.zeros(BASIS.size)
    for i in range(R):
        rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
        n0 = rng.choice(BASIS.size, p=weights)
        _trigger, _time, u = rng.random(), rng.random(), rng.uniform(-1, 1)
        shift = (round(Q_GRID * u) + Q_GRID // 2) // Q_GRID
        counts[(n0 + shift) % BASIS.size] += 1
    mc = mc_wavefunction_run(cfg, BASIS, _continuous(1.0), kicks=1,
                             seed=seed, realizations=R)
    np.testing.assert_allclose(mc.distributions[1], counts / R, rtol=0,
                               atol=1e-12)


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
    # one realization has no sample spread to report a standard error from
    with pytest.raises(ValueError, match="realizations must be >= 2"):
        mc_wavefunction_run(cfg, BASIS, EmissionModel(eta=0.1), kicks=4,
                            seed=2, realizations=1)
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
        _emission_map_into(op.U @ rho @ op.U.conj().T, 1.0)))
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
