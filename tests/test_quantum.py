"""Truncated-ladder period operator and density evolution."""

import numpy as np
import pytest
from scipy.linalg import expm

from dkrotor.pulses import KickConfig
from dkrotor.quantum import (MomentumBasis, _amplitude_columns,
                             _time_reversal_frame, build_period_operator,
                             density_after, edge_population, evolve_density,
                             initial_density, unitarity_defect)
from helpers import narrow_packet, split_operator_period

BASIS = MomentumBasis()


@pytest.mark.parametrize("K", [70.0, 280.0])
def test_period_matches_split_operator_oracle(K):
    # packets of width 5 keep the edge amplitude ~exp(-41), below the
    # level at which the periodic-grid oracle and the truncated ladder
    # legitimately disagree
    cfg = KickConfig(K=K)
    op = build_period_operator(cfg, BASIS)
    for center, seed in ((-16, 1), (16, 2), (0, 3)):
        psi = narrow_packet(BASIS, center, 5.0, seed)
        got = op.U @ psi
        want = split_operator_period(psi, cfg, BASIS)
        assert np.max(np.abs(got - want)) < 1e-8


@pytest.mark.parametrize("K,q", [(70.0, 0.0), (280.0, 0.0), (180.0, 0.25),
                                 (280.0, -0.5)])
def test_period_operator_unitary(K, q):
    basis = MomentumBasis(q=q)
    op = build_period_operator(KickConfig(K=K), basis)
    assert unitarity_defect(op.U) < 1e-10


def test_zero_coupling_period_is_free():
    basis = MomentumBasis(q=0.25)
    op = build_period_operator(KickConfig(K=0.0), basis)
    offdiag = op.U - np.diag(np.diag(op.U))
    assert np.max(np.abs(offdiag)) < 1e-14
    np.testing.assert_allclose(np.diag(op.U), basis.free_phases(1.0),
                               atol=1e-12)


def test_small_coupling_continuity():
    # K -> 0 limit joins the analytic branch used when K == 0
    basis = MomentumBasis(size=64)
    U0 = build_period_operator(KickConfig(K=0.0), basis).U
    U1 = build_period_operator(KickConfig(K=1e-9), basis).U
    assert np.max(np.abs(U0 - U1)) < 1e-9


def test_ladder_indexing():
    assert BASIS.indices[0] == -64
    assert BASIS.indices[-1] == 63
    np.testing.assert_allclose(np.diff(BASIS.momenta), BASIS.hbar)
    b = MomentumBasis(q=0.25)
    assert b.momenta[64] == pytest.approx(0.25 * 2.6)


def test_basis_validation():
    with pytest.raises(ValueError):
        MomentumBasis(size=127)
    with pytest.raises(ValueError):
        MomentumBasis(q=0.5)
    with pytest.raises(ValueError):
        MomentumBasis(hbar=0.0)
    MomentumBasis(q=-0.5)  # the left edge of the zone is included


def test_initial_density_gaussian():
    cfg = KickConfig(K=280.0)
    rho = initial_density(cfg, BASIS)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(rho - np.diag(np.diag(rho)))) == 0.0
    w = np.real(np.diag(rho))
    n = BASIS.indices
    # weight ratios follow exp(-(n hbar)^2 / 2 sigma^2)
    i0, i1 = 64, 64 + 7
    want = np.exp(-((n[i1] * 2.6)**2 - (n[i0] * 2.6)**2) / (2.0 * cfg.sigma_p**2))
    assert w[i1] / w[i0] == pytest.approx(want, rel=1e-12)


def test_momentum_distribution_outside_cut():
    # |p| > 10*pi starts at |n| = 13 for hbar = 2.6 on the q = 0 ladder
    rho = np.zeros((128, 128), dtype=complex)
    i = dict(zip(BASIS.indices, range(128)))
    rho[i[12], i[12]] = 0.4
    rho[i[13], i[13]] = 0.35
    rho[i[-13], i[-13]] = 0.25
    op = build_period_operator(KickConfig(K=0.0), BASIS)
    res = evolve_density(rho, op, 1)
    assert res.distributions[0].sum() == pytest.approx(1.0)
    assert res.outside_fraction[0] == pytest.approx(0.6, abs=1e-14)


def test_parity_symmetry_on_interior_block():
    # at q = 0 the drive is even in n, but the ladder edge breaks the
    # pairing (n = -64 has no +64 partner), so the symmetry only holds
    # away from the edge
    perm = (128 - np.arange(128)) % 128
    inner = np.where(np.abs(np.arange(128) - 64) <= 40)[0]
    for K in (70.0, 280.0):
        U = build_period_operator(KickConfig(K=K), BASIS).U
        sub = U[np.ix_(inner, inner)]
        subp = U[np.ix_(perm[inner], perm[inner])]
        assert np.max(np.abs(sub - subp)) < 1e-11


def test_apply_pulse_matches_dense_propagator():
    K = 180.0
    op = build_period_operator(KickConfig(K=K), BASIS)
    rng = np.random.default_rng(4)
    psi = rng.normal(size=128) + 1j * rng.normal(size=128)
    psi /= np.linalg.norm(psi)
    w = 0.031
    # P(w) = exp(-i H w / hbar), H = p^2/2 - K cos(phi) on the ladder
    H = (np.diag(0.5 * BASIS.momenta**2)
         + np.diag(np.full(127, -0.5 * K), 1)
         + np.diag(np.full(127, -0.5 * K), -1))
    P = expm(-1j * H * w / BASIS.hbar)
    np.testing.assert_allclose(op.apply_pulse(psi, w), P @ psi, atol=1e-12)
    assert np.linalg.norm(op.apply_pulse(psi, w)) == pytest.approx(1.0,
                                                                   abs=1e-12)


def test_evolution_bookkeeping():
    cfg = KickConfig(K=280.0)
    op = build_period_operator(cfg, BASIS)
    rho = initial_density(cfg, BASIS)
    res = evolve_density(rho, op, 12)
    assert res.distributions.shape == (13, 128)
    np.testing.assert_allclose(res.distributions.sum(axis=1), 1.0, atol=1e-10)
    assert np.all(res.distributions > -1e-12)
    assert np.all((res.outside_fraction >= 0.0) & (res.outside_fraction <= 1.0))
    np.testing.assert_array_equal(res.distributions[0], np.real(np.diag(rho)))
    final = res.final_density
    assert np.trace(final).real == pytest.approx(1.0, abs=1e-10)
    assert np.max(np.abs(final - final.conj().T)) < 1e-12
    with pytest.raises(ValueError):
        evolve_density(rho, op, 0)


def _dense_evolution(rho, op, kicks):
    """The U rho U+ loop that evolve_density's amplitude columns replace."""
    dists = [np.real(np.diag(rho))]
    for _ in range(kicks):
        rho = op.U @ rho @ op.U.conj().T
        dists.append(np.real(np.diag(rho)))
    return np.array(dists), rho


def _start_density(start, cfg, basis):
    """The initial Gaussian (diagonal), a pure packet, or a mixture of
    the two."""
    if start == "diagonal":
        return initial_density(cfg, basis)
    psi = narrow_packet(basis, center=3, width=6.0, seed=5)
    packet = np.outer(psi, psi.conj())
    return (0.7 * initial_density(cfg, basis) + 0.3 * packet
            if start == "mixed" else packet)


STARTS = pytest.mark.parametrize(
    "start,q", [("mixed", 0.0), ("pure", 0.0), ("mixed", 0.3),
                ("diagonal", 0.0)],
    ids=["mixed", "pure", "mixed-q0.3", "diagonal"])


def _assert_matches_dense_loop(start, q, kicks):
    cfg = KickConfig(K=280.0)
    basis = MomentumBasis(q=q)
    op = build_period_operator(cfg, basis)
    rho = _start_density(start, cfg, basis)
    res = evolve_density(rho, op, kicks)
    dists, final = _dense_evolution(rho, op, kicks)
    outside = dists[:, np.abs(basis.momenta) > 10.0 * np.pi].sum(axis=1)
    np.testing.assert_allclose(res.distributions, dists, rtol=0, atol=1e-13)
    np.testing.assert_allclose(res.outside_fraction, outside, rtol=0,
                               atol=1e-13)
    np.testing.assert_allclose(res.final_density, final, rtol=0, atol=1e-13)


@STARTS
def test_evolve_density_matches_dense_loop(start, q):
    _assert_matches_dense_loop(start, q, 15)


@pytest.mark.parametrize("start", ["diagonal", "mixed"])
def test_evolve_density_matches_dense_loop_over_70_kicks(start):
    # the CLI and benchmark horizon: the per-kick phase turn of the
    # Floquet-frame density accumulates its roundoff over all 70 kicks
    _assert_matches_dense_loop(start, 0.0, 70)


@STARTS
@pytest.mark.parametrize("kicks", [1, 15])
def test_density_after_matches_kick_loops(start, q, kicks):
    # the closed-form last kick against the recorded loop and the dense
    # U rho U+ loop
    cfg = KickConfig(K=280.0)
    basis = MomentumBasis(q=q)
    op = build_period_operator(cfg, basis)
    rho = _start_density(start, cfg, basis)
    got = density_after(rho, op, kicks)
    np.testing.assert_allclose(got, evolve_density(rho, op, kicks)
                               .final_density, rtol=0, atol=1e-13)
    np.testing.assert_allclose(got, _dense_evolution(rho, op, kicks)[1],
                               rtol=0, atol=1e-13)
    with pytest.raises(ValueError, match="kicks must be >= 1"):
        density_after(rho, op, 0)


def test_diagonal_density_is_factored_without_eigensolve():
    # a diagonal rho comes back as the 1-D sqrt of its diagonal, standing
    # for diag(W); any coherence takes the eigendecomposition
    cfg = KickConfig(K=280.0)
    rho = initial_density(cfg, BASIS)
    W = _amplitude_columns(rho)
    assert W.shape == (128,)
    np.testing.assert_array_equal(W, np.sqrt(np.real(np.diag(rho))))
    rho[64, 65] = rho[65, 64] = 1e-3
    W = _amplitude_columns(rho)
    assert W.shape == (128, 128)
    np.testing.assert_allclose(W @ W.conj().T, rho, rtol=0, atol=1e-15)


@pytest.mark.parametrize("K", [0.0, 280.0])
@pytest.mark.parametrize("q", [0.0, 0.3, -0.41])
def test_time_reversal_frame_makes_period_symmetric(K, q):
    # s^-1 U s = F_tail^(1/2) P F_gap P F_tail^(1/2) with P = P^T: the
    # real Floquet eigensolve rests on this symmetry
    op = build_period_operator(KickConfig(K=K), MomentumBasis(q=q))
    s = _time_reversal_frame(op)
    Us = s.conj()[:, None] * op.U * s
    assert np.max(np.abs(Us - Us.T)) < 1e-14
    # and the lab-frame operator itself is not symmetric once kicked
    if K > 0.0:
        assert np.max(np.abs(op.U - op.U.T)) > 1e-3


def test_evolve_density_rejects_non_density_matrix():
    cfg = KickConfig(K=280.0)
    op = build_period_operator(cfg, BASIS)
    rho = initial_density(cfg, BASIS)
    skewed = rho.copy()
    skewed[0, 1] = 1e-9j
    with pytest.raises(ValueError, match="rho must be Hermitian"):
        evolve_density(skewed, op, 3)
    # a complex diagonal, through the diagonal factor
    skewed = rho.copy()
    skewed[0, 0] = 1e-9j
    with pytest.raises(ValueError, match="rho must be Hermitian"):
        evolve_density(skewed, op, 3)
    negative = rho.copy()
    negative[0, 0] = -1e-10
    with pytest.raises(ValueError, match="rho must be positive semidefinite"):
        evolve_density(negative, op, 3)
    # a dense Hermitian rho with one eigenvalue -1e-10, through the
    # eigendecomposition
    rng = np.random.default_rng(6)
    Q, _ = np.linalg.qr(rng.normal(size=(128, 128))
                        + 1j * rng.normal(size=(128, 128)))
    w = np.real(np.diag(rho)).copy()
    w[0] = -1e-10
    dense = (Q * w) @ Q.conj().T
    dense = 0.5 * (dense + dense.conj().T)
    with pytest.raises(ValueError, match="rho must be positive semidefinite"):
        evolve_density(dense, op, 3)
    with pytest.raises(ValueError, match="rho must be positive semidefinite"):
        density_after(dense, op, 3)
    # roundoff-sized defects are accepted
    noisy = rho.copy()
    noisy[0, 0] = -1e-14
    noisy[0, 1] = 1e-14j
    evolve_density(noisy, op, 3)


def test_truncation_converged_at_default_size():
    # doubling the ladder must not change 20-kick observables: the
    # unbroken tori at 30*pi keep everything inside the window
    cfg = KickConfig(K=280.0)
    res128 = evolve_density(initial_density(cfg, BASIS),
                            build_period_operator(cfg, BASIS), 20)
    big = MomentumBasis(size=256)
    res256 = evolve_density(initial_density(cfg, big),
                            build_period_operator(cfg, big), 20)
    np.testing.assert_allclose(res128.outside_fraction,
                               res256.outside_fraction, atol=1e-6)
    # central 128 columns of the doubled ladder line up with the small one
    np.testing.assert_allclose(res128.distributions,
                               res256.distributions[:, 64:192], atol=1e-6)


def test_edge_population_stays_negligible():
    cfg = KickConfig(K=280.0)
    op = build_period_operator(cfg, BASIS)
    res = evolve_density(initial_density(cfg, BASIS), op, 70)
    assert edge_population(res.distributions) < 1e-8


def test_edge_population_definition():
    # 8 edge states: the outer 4 at each end of a 16-state ladder
    dists = np.zeros((3, 16))
    dists[1, 0] = 0.125
    dists[1, 3] = 0.25
    dists[1, 4] = 1.0
    dists[2, 12] = 0.5
    dists[2, 15] = 0.125
    assert edge_population(dists) == 0.625
