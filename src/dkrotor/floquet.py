"""Quasi-energy spectrum of the one-period operator and asymptotic mixing.

Eigenstates of U ("Floquet states") diagonalize the stroboscopic
dynamics: U |alpha_j> = exp(-i E_j / hbar) |alpha_j> with E_j defined
modulo 2*pi*hbar.  Averaged over times long against the inverse of every
resolved quasi-energy gap, the probability of reaching momentum n from
n0 loses the phases between distinct eigenvalues and becomes

    P(n|n0) = sum_c |(P_c)[n, n0]|^2,   P_c = sum_{j in c} |alpha_j><alpha_j|,

a doubly stochastic matrix whose structure exposes the transport
barriers.  The sum runs over the eigenspaces c of U, with angles closer
than DEGENERACY_ANGLE counted as one eigenspace; P_c does not depend on
the basis chosen inside it.  The cut acts as a horizon of about 1e10
kicks: an average over a finite horizon T adds interference from every
pair whose gap is not well above 2*pi/T, and on the q = 0 ladder parity
doublets have gaps at every scale down to roundoff.  The eigenbasis
comes from one real symmetric eigensolve: in its time-reversal frame s
the period operator is complex symmetric, U = s U_s s^-1, and the Cayley
transform of U_s is a real symmetric matrix with the same eigenvectors
(see quantum._symmetric_eigh), so the Floquet states are s O with O real
orthogonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .quantum import PeriodOperator

UNITARITY_REJECT = 1e-6
DEGENERACY_ANGLE = 1e-10


@dataclass
class FloquetDecomposition:
    """Orthonormal Floquet eigenbasis of a one-period operator.

    quasi_energies are in [0, 2*pi*hbar); vectors[:, j] is |alpha_j>.
    degenerate_clusters lists index groups whose eigenvalue angles
    coincide within 1e-10; inside a cluster the vectors are whatever
    orthonormal basis the eigensolver returned.  near_cut_gaps counts
    the neighboring angle gaps within a decade of that cut,
    [1e-11, 1e-9]: the pairs whose grouping, and so the asymptotic
    matrix, hinges on it.  unitarity_defect is max |U+ U - I| of the
    input and reconstruction_residual the eigensolver's
    max |U z_j - lambda_j z_j|.
    """

    quasi_energies: np.ndarray
    vectors: np.ndarray
    hbar: float
    degenerate_clusters: tuple
    near_cut_gaps: int
    unitarity_defect: float
    reconstruction_residual: float


def _circular_gaps(angles: np.ndarray):
    """Sort order of angles (mod 2*pi) and the gap after each sorted
    angle; the last gap wraps around to the first."""
    order = np.argsort(angles)
    srt = angles[order]
    gaps = np.append(np.diff(srt), srt[0] + 2.0 * np.pi - srt[-1])
    return order, gaps


def _degenerate_clusters(order: np.ndarray, gaps: np.ndarray) -> tuple:
    """Group sorted indices whose gaps lie within DEGENERACY_ANGLE."""
    breaks = np.flatnonzero(gaps[:-1] > DEGENERACY_ANGLE)
    groups = np.split(order, breaks + 1)
    # the circle wraps: first and last group may be one cluster
    if len(groups) > 1 and gaps[-1] <= DEGENERACY_ANGLE:
        groups[0] = np.concatenate([groups[-1], groups[0]])
        groups.pop()
    return tuple(tuple(int(i) for i in g) for g in groups if len(g) > 1)


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
    hbar = U.basis.hbar
    defect = U.unitarity_defect
    if defect > UNITARITY_REJECT:
        raise ValueError(f"U is not unitary (defect {defect:.2e})")

    s, O, lam, residual = U.floquet_basis
    angles = np.mod(-np.angle(lam), 2.0 * np.pi)
    order, gaps = _circular_gaps(angles)
    clusters = _degenerate_clusters(order, gaps)
    near_cut = np.count_nonzero((gaps >= 0.1 * DEGENERACY_ANGLE)
                                & (gaps <= 10.0 * DEGENERACY_ANGLE))

    return FloquetDecomposition(
        quasi_energies=hbar * angles, vectors=s[:, None] * O, hbar=hbar,
        degenerate_clusters=clusters, near_cut_gaps=int(near_cut),
        unitarity_defect=defect, reconstruction_residual=residual)


def asymptotic_matrix(dec: FloquetDecomposition) -> np.ndarray:
    """All-to-all asymptotic mixing matrix; symmetric, doubly stochastic.

    sum_c |(P_c)[n, n0]|^2 expands into the diagonal terms
    |Z[n,j]|^2 |Z[n0,j]|^2 plus, for each pair j < k inside a cluster,
    2 Re B[n] conj(B[n0]) with B = Z[:, j] conj(Z[:, k]); so the matrix is
    G G^T with G = [|Z|^2, sqrt(2) Re B, sqrt(2) Im B].
    """
    Z = dec.vectors
    j, k = np.array([pair for cluster in dec.degenerate_clusters
                     for pair in combinations(cluster, 2)],
                    dtype=int).reshape(-1, 2).T
    B = np.sqrt(2.0) * Z[:, j] * Z[:, k].conj()
    G = np.hstack([np.abs(Z)**2, B.real, B.imag])
    return G @ G.T
