"""Quantum evolution of the double-kicked rotor on a truncated momentum ladder.

States live on the ladder p = (n + q) * hbar, n = -N/2 .. N/2 - 1, with
quasi-momentum q in [-1/2, 1/2) conserved by the coherent dynamics.  The
drive is piecewise constant in time, so each segment of the kick cycle
exponentiates exactly: free segments are diagonal phases, and during a
pulse H = p^2/2 - K cos(phi) is tridiagonal in this basis (cos phi
couples neighboring rungs with -K/2).  The one-period operator is

    U = F(1 - delta - alpha/2) P(alpha/2) F(delta - alpha/2) P(alpha/2)

built from the eigendecomposition of the real symmetric tridiagonal
pulse Hamiltonian.  Truncation is a hard wall; the basis is sized so the
state never reaches the edge (the +-30*pi tori confine it first).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .pulses import OUTSIDE_BOUNDARY, KickConfig


@dataclass(frozen=True)
class MomentumBasis:
    """Truncated momentum ladder (n + q) * hbar, n in [-N/2, N/2)."""

    size: int = 128
    hbar: float = 2.6
    q: float = 0.0

    def __post_init__(self):
        if self.size < 2 or self.size % 2:
            raise ValueError(f"size must be even and >= 2, got {self.size}")
        if not self.hbar > 0.0:
            raise ValueError(f"hbar must be > 0, got {self.hbar}")
        if not -0.5 <= self.q < 0.5:
            raise ValueError(f"q must lie in [-1/2, 1/2), got {self.q}")

    @property
    def indices(self) -> np.ndarray:
        return np.arange(self.size) - self.size // 2

    @property
    def momenta(self) -> np.ndarray:
        return (self.indices + self.q) * self.hbar


@dataclass
class PeriodOperator:
    """One-cycle evolution operator with its reusable pulse factors.

    pulse_energies / pulse_vectors hold the eigendecomposition of the
    tridiagonal pulse Hamiltonian (vectors real orthogonal), kept so
    partial-pulse propagators can be formed exactly, which the
    spontaneous-emission trajectory model needs.
    """

    U: np.ndarray
    basis: MomentumBasis
    config: KickConfig
    pulse_energies: np.ndarray = field(repr=False)
    pulse_vectors: np.ndarray = field(repr=False)

    def free_phases(self, w: float) -> np.ndarray:
        """Diagonal of F(w): exp(-i (n+q)^2 hbar w / 2)."""
        nq = self.basis.indices + self.basis.q
        return np.exp(-0.5j * self.basis.hbar * w * nq * nq)

    def pulse_propagator(self, w: float) -> np.ndarray:
        """P(w) = exp(-i H_pulse w / hbar) as a dense matrix."""
        V, lam = self.pulse_vectors, self.pulse_energies
        phases = np.exp(-1j * lam * w / self.basis.hbar)
        return (V * phases) @ V.T

    def apply_pulse(self, psi: np.ndarray, w: float) -> np.ndarray:
        """P(w) applied to a state vector via the eigenbasis."""
        V, lam = self.pulse_vectors, self.pulse_energies
        return _real_matmul(V, np.exp(-1j * lam * w / self.basis.hbar)
                            * _real_matmul(V.T, psi))


def _real_matmul(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """A @ X for real A and complex X, on the interleaved real view of X,
    so A is never cast to complex."""
    X = np.ascontiguousarray(X, dtype=complex)
    Y = np.dot(A, X.view(np.float64).reshape(X.shape[0], -1))
    return Y.view(complex).reshape(X.shape)


@dataclass
class EvolutionResult:
    """Per-kick momentum distributions; row t is after t kicks."""

    distributions: np.ndarray
    outside_fraction: np.ndarray
    final_density: np.ndarray
    densities: list | None = None


def initial_density(cfg: KickConfig, basis: MomentumBasis) -> np.ndarray:
    """Incoherent Gaussian over the ladder: diag exp(-n^2 hbar^2 / 2 sigma_p^2)."""
    n = basis.indices
    w = np.exp(-(n * basis.hbar)**2 / (2.0 * cfg.sigma_p**2))
    return np.diag(w / w.sum()).astype(complex)


def build_period_operator(cfg: KickConfig, basis: MomentumBasis) -> PeriodOperator:
    """Assemble U for one kick cycle; unitary to ~1e-14 by construction."""
    nq = basis.indices + basis.q
    diag = 0.5 * (nq * basis.hbar)**2
    off = np.full(basis.size - 1, -0.5 * cfg.K)
    if cfg.K == 0.0:
        lam, V = diag.copy(), np.eye(basis.size)
    else:
        lam, V = eigh_tridiagonal(diag, off)

    op = PeriodOperator(U=np.empty(0), basis=basis, config=cfg,
                        pulse_energies=lam, pulse_vectors=V)
    half = cfg.alpha / 2.0
    P = op.pulse_propagator(half)
    f_gap = op.free_phases(cfg.delta - half)
    f_tail = op.free_phases(1.0 - cfg.delta - half)
    op.U = f_tail[:, None] * (P @ (f_gap[:, None] * P))
    return op


def momentum_distribution(rho: np.ndarray, basis: MomentumBasis):
    """Diagonal of rho as probabilities, plus the fraction at |p| > 10*pi."""
    probs = np.real(np.diag(rho)).copy()
    outside = float(probs[np.abs(basis.momenta) > OUTSIDE_BOUNDARY].sum())
    return probs, outside


def evolve_density(rho: np.ndarray, op: PeriodOperator, kicks: int,
                   keep_densities: bool = False) -> EvolutionResult:
    """Conjugate rho by U once per kick, recording the diagonal each time."""
    if kicks < 1:
        raise ValueError(f"kicks must be >= 1, got {kicks}")
    U = op.U
    basis = op.basis
    N = basis.size
    dists = np.empty((kicks + 1, N))
    outside = np.empty(kicks + 1)
    densities = [] if keep_densities else None

    dists[0], outside[0] = momentum_distribution(rho, basis)
    if keep_densities:
        densities.append(rho.copy())
    for t in range(1, kicks + 1):
        rho = U @ rho @ U.conj().T
        dists[t], outside[t] = momentum_distribution(rho, basis)
        if keep_densities:
            densities.append(rho.copy())
    return EvolutionResult(distributions=dists, outside_fraction=outside,
                           final_density=rho, densities=densities)


def unitarity_defect(U: np.ndarray) -> float:
    """Max-norm of U+ U - I."""
    N = U.shape[0]
    return float(np.max(np.abs(U.conj().T @ U - np.eye(N))))


def edge_population(dists: np.ndarray, n_edge: int = 8) -> float:
    """Largest total probability on the outermost n_edge ladder states."""
    edge = np.concatenate([dists[:, :n_edge // 2], dists[:, -n_edge // 2:]],
                          axis=1)
    return float(edge.sum(axis=1).max())
