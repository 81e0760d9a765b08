"""Floquet decomposition and asymptotic momentum transport."""

from dataclasses import replace

import numpy as np
import pytest

from dkrotor.floquet import asymptotic_matrix, decompose
from dkrotor.pulses import TWO_PI, KickConfig
from dkrotor.quantum import CAYLEY_SHIFTS, MomentumBasis, build_period_operator

from helpers import period_operator_of, reflection, schur_decomposition

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
    # +-n pairs are exactly degenerate at q = 0, and the solver may pick
    # any basis inside each; every such basis vector puts c^2 on n and
    # s^2 on -n, which the parity average spreads to 1/2 on both, so the
    # matrix is (I + R) / 2 exactly, up to the roundoff of c^2 + s^2
    N = BASIS.size
    R = np.eye(N)[reflection(N)]
    np.testing.assert_allclose(asymptotic_matrix(dec), 0.5 * (np.eye(N) + R),
                               rtol=0, atol=1e-14)


def test_quasi_energy_range_and_orthonormality():
    op = build_period_operator(KickConfig(K=180.0), BASIS)
    dec = decompose(op)
    assert np.all(dec.quasi_energies >= 0.0)
    assert np.all(dec.quasi_energies < TWO_PI * BASIS.hbar)
    Z = dec.vectors
    assert np.max(np.abs(Z.conj().T @ Z - np.eye(128))) < 1e-10
    # eigenvalue equation for every column, parity doublets included
    lam = np.exp(-1j * dec.quasi_energies / BASIS.hbar)
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


@pytest.mark.parametrize("n", [4, 128])
def test_asymptotic_matrix_is_the_index_form_average(n):
    # the ladder slices average rows n and -n in place, and rungs 0 and
    # -N/2 not at all: bit for bit the average over the index reflection
    dec = decompose(build_period_operator(KickConfig(K=280.0),
                                          MomentumBasis(size=n)))
    P = np.abs(dec.vectors)**2
    P = 0.5 * (P + P[reflection(n)])
    assert np.array_equal(asymptotic_matrix(dec), P @ P.T)


def test_asymptotic_matrix_invariant_under_doublet_rotation():
    # the eigensolver's basis inside a parity doublet (e, o) is arbitrary
    # up to roundoff.  Rotating it by an angle t changes P P^T by terms
    # odd under n -> -n, which the parity average removes, and by
    # -(sin^2 2t / 2) d d^T with d = |e|^2 - |o|^2.  For a doublet split
    # by tunneling alone, d is the product of its mirror halves and as
    # small as the gap, so at the closest pair the matrix may move by
    # roundoff only: an entry is a 128-term sum of products below 1,
    # about 128 * 1.1e-16 = 1.4e-14 at worst, asserted at 1e-12
    op = build_period_operator(KickConfig(K=280.0), BASIS)
    dec = decompose(op)
    order = np.argsort(dec.quasi_energies)
    gaps = np.diff(dec.quasi_energies[order])
    j, k = order[np.argmin(gaps)], order[np.argmin(gaps) + 1]
    R, _ = np.linalg.qr(np.random.default_rng(2).standard_normal((2, 2)))
    Z = dec.vectors.copy()
    Z[:, [j, k]] = Z[:, [j, k]] @ R
    rotated = replace(dec, vectors=Z)
    np.testing.assert_allclose(asymptotic_matrix(rotated),
                               asymptotic_matrix(dec), rtol=0, atol=1e-12)


def test_decompose_rejections():
    op = build_period_operator(KickConfig(K=90.0), BASIS)
    with pytest.raises(ValueError):
        decompose(replace(op, U=op.U * 1.001))  # not unitary


@pytest.mark.parametrize("K", [180.0, 280.0])
def test_decompose_matches_schur_oracle(K):
    # oracle: complex Schur of the lab-frame U, which needs no symmetry
    for q in (0.0, 0.3):
        op = build_period_operator(KickConfig(K=K), MomentumBasis(q=q))
        dec = decompose(op)
        ref = schur_decomposition(op.U, op.basis)
        np.testing.assert_allclose(np.sort(dec.quasi_energies),
                                   np.sort(ref.quasi_energies), rtol=0,
                                   atol=1e-10)
        assert dec.reconstruction_residual < 1e-12
        assert dec.unitarity_defect == pytest.approx(ref.unitarity_defect,
                                                     abs=1e-14)
        # the two solvers pick their own bases inside the q = 0 parity
        # doublets; the asymptotic matrix must not depend on them
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
    op = period_operator_of(_symmetric_unitary(phases, seed=3), 1.0)
    dec = decompose(op)
    assert dec.reconstruction_residual < 1e-8
    Z = dec.vectors
    lam = np.exp(-1j * dec.quasi_energies)  # hbar = 1
    assert np.max(np.abs(op.U @ Z - Z * lam)) < 1e-8
    np.testing.assert_allclose(np.sort(dec.quasi_energies),
                               np.sort(np.mod(-phases, TWO_PI)), atol=1e-10)


def test_decompose_rejects_non_symmetric_matrix():
    # the lab-frame U is unitary but not complex symmetric; taken as the
    # time-reversal form of an operator, it is rejected
    op = build_period_operator(KickConfig(K=90.0), BASIS)
    with pytest.raises(ValueError, match="complex symmetric"):
        decompose(period_operator_of(op.U, BASIS.hbar))
