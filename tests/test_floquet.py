"""Floquet decomposition and asymptotic momentum transport."""

from dataclasses import replace

import numpy as np
import pytest

from dkrotor.floquet import asymptotic_matrix, decompose
from dkrotor.pulses import TWO_PI, KickConfig
from dkrotor.quantum import CAYLEY_SHIFTS, MomentumBasis, build_period_operator

from helpers import schur_decomposition

BASIS = MomentumBasis()


def _average_transition_matrix(U, T):
    """Time-averaged |U^t|^2 by direct long products; the oracle route."""
    X = np.eye(U.shape[0], dtype=complex)
    acc = np.zeros(U.shape, dtype=float)
    for _ in range(T):
        X = U @ X
        acc += np.abs(X)**2
    return acc / T


def test_zero_coupling_spectrum():
    op = build_period_operator(KickConfig(K=0.0), BASIS)
    dec = decompose(op)
    n = BASIS.indices.astype(float)
    want = np.sort(BASIS.hbar * np.mod(0.5 * BASIS.hbar * n * n, TWO_PI))
    np.testing.assert_allclose(np.sort(dec.quasi_energies), want, atol=1e-8)
    # +-n pairs are exactly degenerate at q = 0
    assert dec.degenerate_clusters


def test_quasi_energy_range_and_orthonormality():
    op = build_period_operator(KickConfig(K=180.0), BASIS)
    dec = decompose(op)
    assert np.all(dec.quasi_energies >= 0.0)
    assert np.all(dec.quasi_energies < TWO_PI * BASIS.hbar)
    Z = dec.vectors
    assert np.max(np.abs(Z.conj().T @ Z - np.eye(128))) < 1e-10
    # eigenvalue equation for every column, degenerate clusters included
    lam = dec.eigenvalues
    assert np.max(np.abs(op.U @ Z - Z * lam)) < 1e-8


def test_decompose_deterministic():
    op = build_period_operator(KickConfig(K=250.0), BASIS)
    a = decompose(op)
    b = decompose(op)
    np.testing.assert_array_equal(a.quasi_energies, b.quasi_energies)
    np.testing.assert_array_equal(a.vectors, b.vectors)


@pytest.mark.parametrize("K,q,seen", [(180.0, 0.3, 1.2e-3),
                                      (280.0, 0.17, 7e-4)])
def test_asymptotic_matrix_matches_long_time_average(K, q, seen):
    # oracle: average |U^t|^2 over five thousand periods and compare
    # entry by entry.  At these q the spectrum has no near-degenerate
    # pairs below the dephasing resolution 2*pi/T, so the diagonal
    # formula and the finite average must agree; "seen" records the
    # deviation at freeze time, asserted with headroom at 2e-3
    basis = MomentumBasis(q=q)
    op = build_period_operator(KickConfig(K=K), basis)
    dec = decompose(op)
    avg = _average_transition_matrix(op.U, 5000)
    dev = np.max(np.abs(avg - asymptotic_matrix(dec)))
    assert dev < 2e-3, f"deviation {dev} (was {seen} when frozen)"


def test_asymptotic_matrix_doubly_stochastic_and_symmetric():
    op = build_period_operator(KickConfig(K=280.0), BASIS)
    M = asymptotic_matrix(decompose(op))
    assert np.all(M >= -1e-12)
    np.testing.assert_allclose(M.sum(axis=0), 1.0, atol=1e-8)
    np.testing.assert_allclose(M.sum(axis=1), 1.0, atol=1e-8)
    np.testing.assert_allclose(M, M.T, atol=1e-12)


def test_degenerate_cluster_is_flagged_and_basis_invariant():
    # an exactly degenerate pair mixed at 45 degrees: the decomposition
    # must flag the cluster, and the asymptotic matrix must not depend on
    # the basis the eigensolver picked inside it.  Every eigenspace of U
    # is spanned by ladder states, so the matrix is the identity.
    N = 16
    lam = np.exp(1j * np.linspace(0.3, 5.9, N))
    lam[9] = lam[3]
    V = np.eye(N, dtype=complex)
    c, s = np.cos(np.pi / 4.0), np.sin(np.pi / 4.0)
    V[3, 3], V[3, 9], V[9, 3], V[9, 9] = c, -s, s, c
    mixed = decompose((V * lam) @ V.conj().T, hbar=2.6)
    plain = decompose(np.diag(lam), hbar=2.6)
    # cluster entries index eigencolumns (quasi-energy order)
    assert len(mixed.degenerate_clusters) == 1
    cols = list(mixed.degenerate_clusters[0])
    assert len(cols) == 2
    qe = mixed.quasi_energies
    assert abs(qe[cols[0]] - qe[cols[1]]) < 1e-9
    M = asymptotic_matrix(mixed)
    np.testing.assert_allclose(M, asymptotic_matrix(plain), rtol=0,
                               atol=1e-12)
    np.testing.assert_allclose(M, np.eye(N), rtol=0, atol=1e-12)
    # any other orthonormal basis of the cluster gives the same matrix
    R, _ = np.linalg.qr(np.random.default_rng(2).standard_normal((2, 2)))
    Z = mixed.vectors.copy()
    Z[:, cols] = Z[:, cols] @ R
    rotated = replace(mixed, vectors=Z)
    np.testing.assert_allclose(asymptotic_matrix(rotated), M, rtol=0,
                               atol=1e-12)


def test_decompose_rejections():
    op = build_period_operator(KickConfig(K=90.0), BASIS)
    with pytest.raises(ValueError):
        decompose(op.U)  # plain matrix needs hbar
    with pytest.raises(ValueError):
        decompose(op.U * 1.001, hbar=2.6)  # not unitary


@pytest.mark.parametrize("K", [180.0, 280.0])
def test_decompose_matches_schur_oracle(K):
    # oracle: complex Schur of the lab-frame U, which needs no symmetry
    for q in (0.0, 0.3):
        op = build_period_operator(KickConfig(K=K), MomentumBasis(q=q))
        dec = decompose(op)
        ref = schur_decomposition(op.U, BASIS.hbar)
        np.testing.assert_allclose(np.sort(dec.quasi_energies),
                                   np.sort(ref.quasi_energies), rtol=0,
                                   atol=1e-10)
        assert dec.reconstruction_residual < 1e-12
        assert dec.unitarity_defect == pytest.approx(ref.unitarity_defect,
                                                     abs=1e-14)
        if q == 0.0:
            assert (len(dec.degenerate_clusters)
                    == len(ref.degenerate_clusters) > 0)
            assert dec.near_cut_gaps == ref.near_cut_gaps
        else:
            assert not dec.degenerate_clusters and dec.near_cut_gaps == 0
        # the projectors onto the eigenspaces, and so the asymptotic
        # matrix, do not depend on the basis either solver picks
        np.testing.assert_allclose(asymptotic_matrix(dec),
                                   asymptotic_matrix(ref), rtol=0, atol=1e-8)


def _symmetric_unitary(phases, seed):
    """Q diag(exp(i phases)) Q^T with a random real orthogonal Q."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((len(phases), len(phases))))
    return (Q * np.exp(1j * np.asarray(phases))) @ Q.T


def test_decompose_survives_cayley_pole():
    # the first shift's Cayley map has its pole at the eigenvalue
    # -exp(-i phi); an eigenvalue placed there makes 1 + V singular, and
    # the solver must fall back to the next shift
    N = 40
    phases = np.linspace(0.1, 6.1, N)
    phases[7] = np.pi - CAYLEY_SHIFTS[0]
    U = _symmetric_unitary(phases, seed=3)
    dec = decompose(U, hbar=1.0)
    assert dec.reconstruction_residual < 1e-8
    Z = dec.vectors
    assert np.max(np.abs(U @ Z - Z * dec.eigenvalues)) < 1e-8
    np.testing.assert_allclose(np.sort(dec.quasi_energies),
                               np.sort(np.mod(-phases, TWO_PI)), atol=1e-10)


def test_decompose_rejects_non_symmetric_matrix():
    # the lab-frame U is unitary but not complex symmetric; only the
    # PeriodOperator carries the frame that makes it so
    op = build_period_operator(KickConfig(K=90.0), BASIS)
    with pytest.raises(ValueError, match="complex symmetric"):
        decompose(op.U, hbar=BASIS.hbar)


def test_near_cut_gaps_counts_gaps_within_a_decade_of_the_cut():
    # gaps of 5e-10 and 2e-11 lie in [1e-11, 1e-9], on either side of
    # the 1e-10 cut; 1e-12 is far inside it and 1e-7 far outside
    phases = np.linspace(0.2, 6.0, 12)
    phases[3] = phases[2] + 5e-10
    phases[6] = phases[5] + 2e-11
    phases[9] = phases[8] + 1e-12
    phases[11] = phases[10] + 1e-7
    dec = decompose(_symmetric_unitary(phases, seed=4), hbar=1.0)
    assert dec.near_cut_gaps == 2
    assert len(dec.degenerate_clusters) == 2
