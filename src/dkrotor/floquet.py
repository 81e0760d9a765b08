"""Quasi-energy spectrum of the one-period operator and asymptotic mixing.

Eigenstates of U ("Floquet states") diagonalize the stroboscopic
dynamics: U |alpha_j> = exp(-i E_j / hbar) |alpha_j> with E_j defined
modulo 2*pi*hbar.  The eigenbasis comes from one real symmetric
eigensolve: in its time-reversal frame s the period operator is complex
symmetric, U = s U_s s^-1, and the Cayley transform of U_s is a real
symmetric matrix with the same eigenvectors (see quantum._symmetric_eigh),
so the Floquet states are s O with O real orthogonal.

Averaged over long times, the probability of reaching momentum n from n0
loses the phases between distinct eigenvalues.  Were every eigenvalue
simple, that limit would be P P^T with P = |Z|^2, Z the Floquet states
as columns.  On the q = 0 ladder, though, U commutes with p -> -p, and
the Floquet states come in parity doublets (e, o) whose gaps run down to
roundoff: which pairs count as degenerate hinges on a horizon, and each
doublet counted so adds 2 e_n o_n e_n0 o_n0 to [n, n0], a term odd under
n -> -n that only moves weight between n and -n (tunneling across
p = 0).  The asymptotic matrix is therefore the parity average
S A S = S P P^T S of any such signed limit A, with S = (1 + R) / 2 and
R the reflection n -> -n on the ladder read as Z_N (rung -N/2 is its own
image).  The odd terms cancel in it, so it needs no cut and no basis
chosen inside a doublet.  For a parity-even start d0 it gives S (A d0),
the signed distribution averaged over +-n, so every distribution over
|p| is the signed one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quantum import MomentumBasis, PeriodOperator, _mirror_slices

UNITARITY_REJECT = 1e-6


@dataclass
class FloquetDecomposition:
    """Orthonormal Floquet eigenbasis of a one-period operator.

    quasi_energies are in [0, 2*pi*hbar); vectors[:, j] is |alpha_j>,
    in whatever orthonormal basis the eigensolver returned inside a
    degenerate eigenspace.  basis is the ladder of the operator.
    unitarity_defect is max |U+ U - I| of the input and
    reconstruction_residual the eigensolver's max |U z_j - lambda_j z_j|.
    """

    quasi_energies: np.ndarray
    vectors: np.ndarray
    basis: MomentumBasis
    unitarity_defect: float
    reconstruction_residual: float


def decompose(U: PeriodOperator) -> FloquetDecomposition:
    """Spectral decomposition of a period operator.

    The eigenbasis and the unitarity defect are the ones U keeps
    (U.floquet_basis, from one eigensolve in U's time-reversal frame,
    and U.unitarity_defect), so an operator that another pipeline has
    already evolved is not solved again.  The quasi-energies take hbar
    from U.basis.  Rejects an operator whose unitarity defect exceeds
    1e-6, which signals an upstream construction error rather than
    roundoff.
    """
    defect = U.unitarity_defect
    if defect > UNITARITY_REJECT:
        raise ValueError(f"U is not unitary (defect {defect:.2e})")

    s, O, lam, residual = U.floquet_basis
    angles = np.mod(-np.angle(lam), 2.0 * np.pi)
    return FloquetDecomposition(
        quasi_energies=U.basis.hbar * angles, vectors=s[:, None] * O,
        basis=U.basis, unitarity_defect=defect,
        reconstruction_residual=residual)


def asymptotic_matrix(dec: FloquetDecomposition) -> np.ndarray:
    """All-to-all asymptotic mixing matrix; symmetric, doubly stochastic.

    At q = 0 this is the parity average S P P^T S of the module
    docstring, computed as (S P)(S P)^T: its [n, n0] entry is the mean
    of the long-time probabilities of n and -n from a start spread
    evenly over n0 and -n0.  At q != 0 the truncated ladder has no exact
    reflection, and the matrix is P P^T.  q = -1/2, where n -> -1 - n
    would be the reflection, is out of scope and also gets P P^T.
    """
    P = np.abs(dec.vectors)**2
    if dec.basis.q == 0.0:
        # rungs 0 and -N/2 are their own images, so their rows stay
        _, _, pos, neg = _mirror_slices(dec.basis.size)
        P[pos] = P[neg] = 0.5 * (P[pos] + P[neg])
    return P @ P.T
