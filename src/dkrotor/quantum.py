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
state never reaches the edge (the drive's outer tori, at three times its
cantorus momentum, confine it first).

The cycle is palindromic up to the free tail: with the diagonal
s = F((1 - delta - alpha/2) / 2), the operator U_s = s^-1 U s =
s P F_gap P s is complex symmetric, because P = V exp(-i Lambda w/hbar) V^T
with V real.  This time-reversal structure gives U_s a real orthogonal
eigenbasis O, found by one real symmetric eigensolve of its Cayley
transform (see _symmetric_eigh).

Coherent evolution never forms U rho U+.  The density matrix is
factored once into amplitude columns, rho = W W+, with columns
V_m sqrt(lambda_m) from its eigendecomposition.  A diagonal rho, such as
initial_density, is its own eigendecomposition: W = diag(sqrt(rho_nn)),
with no eigensolve.  Then rho_t = W_t W_t+ with
W_t = U^t W = s O C_t, C_t = lambda^t * C and C = O^T s^-1 W.  The
momentum distribution reads the Floquet-frame density G_t = C_t C_t+:
with |s| = 1 and O real, diag(rho_t) = diag(O R_t O^T) for the real
symmetric R_t = Re G_t, so each kick is one elementwise phase turn of G
and one real N x N product O @ R_t, 2 N^3 flops.  The final state, and
the whole of density_after, forms lambda^T * C at once and makes only
the last kick's product.  The outside fraction is the probability
beyond the drive's cantorus (pulses.barrier).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .pulses import KickConfig, barrier

# largest anti-Hermitian part and most negative eigenvalue accepted in a
# density matrix handed to evolve_density
DENSITY_TOL = 1e-12
# largest |U_s - U_s^T| accepted as complex symmetric, and largest
# eigen-residual max |U_s O - O diag(lambda)| accepted from a solve
SYMMETRY_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-8
# Cayley shifts phi tried in turn; shift phi puts the pole of the map on
# the eigenvalue -exp(-i phi)
CAYLEY_SHIFTS = (0.0, 2.0, 4.0)
# ladder states, half at each end, whose population flags the hard wall
EDGE_STATES = 8
# largest edge population at which the hard wall is taken not to act
EDGE_POPULATION_MAX = 1e-10


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

    def free_phases(self, w: float) -> np.ndarray:
        """Diagonal of F(w): exp(-i (n+q)^2 hbar w / 2)."""
        nq = self.indices + self.q
        return np.exp(-0.5j * self.hbar * w * nq * nq)


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

    def apply_pulse(self, psi: np.ndarray,
                    w: float | np.ndarray) -> np.ndarray:
        """P(w) applied to a state vector, or to the columns of a matrix,
        via the eigenbasis; w is one time, or one per column."""
        V, lam = self.pulse_vectors, self.pulse_energies
        lam = lam.reshape((-1,) + (1,) * (np.ndim(psi) - 1))
        return _real_matmul(V, np.exp(-1j * lam * w / self.basis.hbar)
                            * _real_matmul(V.T, psi))


def _real_matmul(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """A @ X for real A and complex X, on the interleaved real view of X,
    so A is never cast to complex."""
    X = np.ascontiguousarray(X, dtype=complex)
    # the width is explicit because -1 cannot be inferred for no columns
    Y = np.dot(A, X.view(np.float64).reshape(X.shape[0], 2 * X[0].size))
    return Y.view(complex).reshape(X.shape)


def _time_reversal_frame(op: PeriodOperator) -> np.ndarray:
    """Diagonal s = F_tail^(1/2), in which s^-1 U s is complex symmetric."""
    cfg = op.config
    return op.basis.free_phases(0.5 * (1.0 - cfg.delta - 0.5 * cfg.alpha))


def _symmetric_eigh(U) -> tuple:
    """Real orthogonal eigenbasis of the complex-symmetric form of U.

    U is a PeriodOperator, taken in its time-reversal frame s, or a plain
    unitary matrix that must already be complex symmetric (then s = 1).
    With V = exp(i phi) U_s, the Cayley transform
    H = i (1 + V)^-1 (1 - V) = -2 Im (1 + V)^-1 is Hermitian and symmetric,
    hence real, and maps the eigenvalue exp(-i theta) of U_s one-to-one
    onto tan((phi - theta) / 2); one real eigh gives O.  The eigenvalues
    are the Rayleigh quotients diag(O^T U_s O) scaled to unit modulus.  A
    shift whose pole sits near the spectrum leaves a large residual and
    the next one in CAYLEY_SHIFTS is tried.

    Returns (s, O, lambda, residual) with U = (s O) diag(lambda) (s O)+
    and residual = max |U_s O - O diag(lambda)|.
    """
    if isinstance(U, PeriodOperator):
        s = _time_reversal_frame(U)
        Us = s.conj()[:, None] * U.U * s
    else:
        Us = np.asarray(U, dtype=complex)
        s = np.ones(Us.shape[0], dtype=complex)
    asym = float(np.max(np.abs(Us - Us.T)))
    if asym > SYMMETRY_TOL:
        raise ValueError(f"U must be complex symmetric (time-reversal "
                         f"symmetric), max |U - U^T| = {asym:.3g}")
    residual = np.inf
    diag = np.diag_indices(Us.shape[0])
    for phi in CAYLEY_SHIFTS:
        A = np.exp(1j * phi) * Us
        A[diag] += 1.0
        try:
            H = np.linalg.inv(A).imag
        except np.linalg.LinAlgError:
            continue
        del A
        H *= -2.0
        _, O = np.linalg.eigh(H)
        del H
        UsO = _real_matmul(O.T, Us.T).T
        lam = np.einsum("ij,ij->j", O, UsO)
        lam /= np.abs(lam)
        UsO -= O * lam
        residual = float(np.max(np.abs(UsO)))
        if residual <= RECONSTRUCTION_TOL:
            return s, O, lam, residual
    raise RuntimeError(f"Floquet reconstruction residual {residual:.2e} "
                       f"exceeds {RECONSTRUCTION_TOL:g} at every Cayley shift")


@dataclass
class EvolutionResult:
    """Per-kick momentum distributions; row t is after t kicks."""

    distributions: np.ndarray
    outside_fraction: np.ndarray
    final_density: np.ndarray


def initial_density(cfg: KickConfig, basis: MomentumBasis) -> np.ndarray:
    """Incoherent Gaussian over the ladder: diag exp(-n^2 hbar^2 / 2 sigma_p^2)."""
    n = basis.indices
    w = np.exp(-(n * basis.hbar)**2 / (2.0 * cfg.sigma_p**2))
    return np.diag(w / w.sum()).astype(complex)


def build_period_operator(cfg: KickConfig, basis: MomentumBasis) -> PeriodOperator:
    """Assemble U for one kick cycle; unitary to ~1e-14 by construction."""
    # imported here: scipy.linalg is most of `import dkrotor`'s time
    from scipy.linalg import eigh_tridiagonal

    nq = basis.indices + basis.q
    diag = 0.5 * (nq * basis.hbar)**2
    off = np.full(basis.size - 1, -0.5 * cfg.K)
    if cfg.K == 0.0:
        lam, V = diag.copy(), np.eye(basis.size)
    else:
        lam, V = eigh_tridiagonal(diag, off)

    half = cfg.alpha / 2.0
    P = (V * np.exp(-1j * lam * half / basis.hbar)) @ V.T
    f_gap = basis.free_phases(cfg.delta - half)
    f_tail = basis.free_phases(1.0 - cfg.delta - half)
    return PeriodOperator(U=f_tail[:, None] * (P @ (f_gap[:, None] * P)),
                          basis=basis, config=cfg, pulse_energies=lam,
                          pulse_vectors=V)


def _evolution_result(dists: np.ndarray, op: PeriodOperator,
                      final_density: np.ndarray) -> EvolutionResult:
    """EvolutionResult of recorded distributions, with the probability
    beyond the cantorus of op.config as each row's outside fraction."""
    outer = np.abs(op.basis.momenta) > barrier(op.config).cantorus
    # summed row by row: the masked 2-D sum rounds differently
    outside = np.array([row[outer].sum() for row in dists])
    return EvolutionResult(distributions=dists, outside_fraction=outside,
                           final_density=final_density)


def _is_diagonal(rho: np.ndarray) -> bool:
    """True when rho has no nonzero element off its diagonal, tested
    without a temporary matrix."""
    return np.count_nonzero(rho) == np.count_nonzero(np.diagonal(rho))


def _amplitude_columns(rho: np.ndarray) -> np.ndarray:
    """W with rho = W W+, from the eigendecomposition of rho.

    Column m is sqrt(lambda_m) times eigenvector m.  A diagonal rho has
    the unit vectors for eigenvectors, so no eigensolve is made and W is
    returned as the 1-D sqrt(diag rho), standing for diag(W).  rho must
    be Hermitian and positive semidefinite to DENSITY_TOL; eigenvalues
    inside the tolerance below 0 count as 0.
    """
    d = np.diagonal(rho)
    diagonal = _is_diagonal(rho)
    # off the diagonal a diagonal rho is exactly Hermitian
    part = d if diagonal else rho
    skew = float(np.max(np.abs(part - part.conj().T)))
    if skew > DENSITY_TOL:
        raise ValueError(f"rho must be Hermitian, max |rho - rho+| = "
                         f"{skew:.3g}")
    lam, V = (d.real, None) if diagonal else np.linalg.eigh(rho)
    if lam.min() < -DENSITY_TOL:
        raise ValueError(f"rho must be positive semidefinite, smallest "
                         f"eigenvalue {lam.min():.3g}")
    root = np.sqrt(np.maximum(lam, 0.0))
    return root if diagonal else V * root


def _floquet_columns(rho: np.ndarray, op: PeriodOperator) -> tuple:
    """(s, O, lambda, C) for the coherent evolution of rho under op:
    the frame, Floquet basis and eigenphases of _symmetric_eigh, and the
    amplitude columns of rho in that basis, C = O^T s^-1 W."""
    W = _amplitude_columns(rho)
    s, O, lam, _ = _symmetric_eigh(op)
    if W.ndim == 1:
        # O^T diag(s^-1 W): column k of O^T scaled, with no product
        C = np.multiply(O.T, s.conj() * W, order="C")
    else:
        C = _real_matmul(O.T, s.conj()[:, None] * W)
    return s, O, lam, C


def _final_density(s: np.ndarray, O: np.ndarray, lam: np.ndarray,
                   C: np.ndarray, kicks: int) -> np.ndarray:
    """rho after `kicks` cycles from the Floquet columns C of rho, which
    are overwritten: C_T = lambda^T * C, W_T = s O C_T, rho_T = W_T W_T+."""
    C *= (lam**kicks)[:, None]
    W = s[:, None] * _real_matmul(O, C)
    return W @ W.conj().T


def evolve_density(rho: np.ndarray, op: PeriodOperator,
                   kicks: int) -> EvolutionResult:
    """Coherent evolution of rho, recording the diagonal after each kick.

    rho is factored once into amplitude columns W (rho = W W+) and taken
    into the Floquet basis, C = O^T s^-1 W, whose density G = C C+
    turns by G_t = G_(t-1) * (lambda lambda+) elementwise each kick.
    With |s| = 1 and O real, the distribution after kick t is
    diag(O G_t O^T) = rowsum((O R_t) * O) with R_t = Re G_t: the
    antisymmetric Im G_t adds nothing to a diagonal.  The final density
    matrix is density_after's.
    """
    if kicks < 1:
        raise ValueError(f"kicks must be >= 1, got {kicks}")
    dists = np.empty((kicks + 1, op.basis.size))
    dists[0] = np.real(np.diag(rho))
    s, O, lam, C = _floquet_columns(rho, op)
    G = C @ C.conj().T
    turn = lam[:, None] * lam.conj()
    R = np.empty(O.shape)
    OR = np.empty(O.shape)
    for t in range(1, kicks + 1):
        G *= turn
        np.copyto(R, G.real)
        np.dot(O, R, out=OR)
        dists[t] = np.einsum("ij,ij->i", OR, O)
    return _evolution_result(dists, op, _final_density(s, O, lam, C, kicks))


def density_after(rho: np.ndarray, op: PeriodOperator,
                  kicks: int) -> np.ndarray:
    """rho after `kicks` coherent cycles of op: evolve_density's
    final_density, with no distribution recorded.

    In the Floquet basis the columns after T kicks are lambda^T * C, so
    only the last kick's product O C_T is made.
    """
    if kicks < 1:
        raise ValueError(f"kicks must be >= 1, got {kicks}")
    return _final_density(*_floquet_columns(rho, op), kicks)


def unitarity_defect(U: np.ndarray) -> float:
    """Max-norm of U+ U - I."""
    N = U.shape[0]
    return float(np.max(np.abs(U.conj().T @ U - np.eye(N))))


def edge_population(dists: np.ndarray) -> float:
    """Largest total probability on the outermost EDGE_STATES ladder
    states, half at each end."""
    half = EDGE_STATES // 2
    edge = np.concatenate([dists[:, :half], dists[:, -half:]], axis=1)
    return float(edge.sum(axis=1).max())
