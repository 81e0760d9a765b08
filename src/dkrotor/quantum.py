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

Coherent evolution never forms U rho U+.  The density matrix is taken
once into the Floquet frame, G = O^T s^-1 rho s O; for a diagonal rho,
such as initial_density, that is the real O^T diag(rho) O.  There
rho_t = U^t rho U+^t = s O G_t O^T s^-1 with G_t = G * (lambda^t
lambda+^t) elementwise.  With |s| = 1 and O real,
diag(rho_t) = diag(O R_t O^T) for the real symmetric R_t = Re G_t, so
each kick is one elementwise phase turn of G and one real N x N product
O @ R_t, 2 N^3 flops.  The final state is G_T taken back once, and
density_after turns G by all T kicks at once.  The outside fraction is
the probability beyond the drive's cantorus (pulses.barrier).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .pulses import KickConfig, barrier

# largest anti-Hermitian part and most negative eigenvalue accepted in a
# density matrix handed to evolve_density or run_decohered
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
    """One-cycle evolution operator with the factors of partial cycles.

    tail is the diagonal of F(1 - delta - alpha/2), the last factor of U;
    pulse_energies / pulse_vectors are the eigendecomposition of the
    tridiagonal pulse Hamiltonian (real orthogonal vectors).  The
    spontaneous-emission trajectory model forms partial cycles from them.

    build_period_operator makes these arrays read-only.  The Floquet
    basis and the unitarity defect are computed on first use and kept,
    so the pipelines that read one operator pay for each once;
    dataclasses.replace gives a new operator that computes them afresh.
    """

    U: np.ndarray
    basis: MomentumBasis
    config: KickConfig
    tail: np.ndarray = field(repr=False)
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

    @cached_property
    def floquet_basis(self) -> tuple:
        """_symmetric_eigh of the operator, (s, O, lambda, residual), with
        read-only arrays."""
        s, O, lam, residual = _symmetric_eigh(self)
        _read_only(s, O, lam)
        return s, O, lam, residual

    @cached_property
    def unitarity_defect(self) -> float:
        """Max-norm of U+ U - I, from the module's unitarity_defect."""
        return unitarity_defect(self.U)


def _read_only(*arrays: np.ndarray) -> None:
    """Flag the arrays non-writeable, so that no caller can change what
    an operator holds or has computed."""
    for a in arrays:
        a.flags.writeable = False


def _real_matmul(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """A @ X for real A and complex X, on the interleaved real view of X,
    so A is never cast to complex."""
    X = np.ascontiguousarray(X, dtype=complex)
    # the width is explicit because -1 cannot be inferred for an empty X
    width = 2 * math.prod(X.shape[1:])
    Y = np.dot(A, X.view(np.float64).reshape(X.shape[0], width))
    return Y.view(complex).reshape(X.shape)


def _time_reversal_frame(op: PeriodOperator) -> np.ndarray:
    """Diagonal s = F_tail^(1/2), in which s^-1 U s is complex symmetric."""
    cfg = op.config
    return op.basis.free_phases(0.5 * (1.0 - cfg.delta - 0.5 * cfg.alpha))


def _symmetric_eigh(op: PeriodOperator) -> tuple:
    """Real orthogonal eigenbasis of op.U in its time-reversal frame s.

    U_s = s^-1 U s must be complex symmetric, which a period operator is
    by construction.  With V = exp(i phi) U_s, the Cayley transform
    H = i (1 + V)^-1 (1 - V) = -2 Im (1 + V)^-1 is Hermitian and symmetric,
    hence real, and maps the eigenvalue exp(-i theta) of U_s one-to-one
    onto tan((phi - theta) / 2); one real eigh gives O.  The eigenvalues
    are the Rayleigh quotients diag(O^T U_s O) scaled to unit modulus.  A
    shift whose pole sits near the spectrum leaves a large residual and
    the next one in CAYLEY_SHIFTS is tried.

    Returns (s, O, lambda, residual) with U = (s O) diag(lambda) (s O)+
    and residual = max |U_s O - O diag(lambda)|.
    """
    s = _time_reversal_frame(op)
    Us = s.conj()[:, None] * op.U * s
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
    lam, V = eigh_tridiagonal(diag, np.full(basis.size - 1, -0.5 * cfg.K))

    half = cfg.alpha / 2.0
    P = (V * np.exp(-1j * lam * half / basis.hbar)) @ V.T
    f_gap = basis.free_phases(cfg.delta - half)
    f_tail = basis.free_phases(1.0 - cfg.delta - half)
    U = f_tail[:, None] * (P @ (f_gap[:, None] * P))
    _read_only(U, f_tail, lam, V)
    return PeriodOperator(U=U, basis=basis, config=cfg, tail=f_tail,
                          pulse_energies=lam, pulse_vectors=V)


def _evolution_result(dists: np.ndarray, op: PeriodOperator,
                      final_density: np.ndarray) -> EvolutionResult:
    """EvolutionResult of recorded distributions, with the probability
    beyond the cantorus of op.config as each row's outside fraction."""
    outer = np.abs(op.basis.momenta) > barrier(op.config).cantorus
    # summed row by row: the masked 2-D sum rounds differently
    outside = np.array([row[outer].sum() for row in dists])
    return EvolutionResult(distributions=dists, outside_fraction=outside,
                           final_density=final_density)


def _mirror_slices(size: int) -> tuple:
    """The reflection n -> -n on the ladder read as Z_N, as row slices.

    Returns h = N/2, rung 0 then rung -N/2 (h::-h), which are their own
    images, and rungs n and -n for n = 1 .. h - 1 (h+1: and h-1:0:-1),
    so that row pos[k] reflects onto row neg[k].
    """
    h = size // 2
    return h, slice(h, None, -h), slice(h + 1, None), slice(h - 1, 0, -1)


def _is_diagonal(rho: np.ndarray) -> bool:
    """True when rho has no nonzero element off its diagonal, tested
    without a temporary matrix."""
    return np.count_nonzero(rho) == np.count_nonzero(np.diagonal(rho))


def _check_density(rho: np.ndarray) -> None:
    """Raise ValueError unless rho is Hermitian and positive semidefinite
    to DENSITY_TOL.  A diagonal rho is judged by its diagonal alone, with
    no eigensolve."""
    d = np.diagonal(rho)
    diagonal = _is_diagonal(rho)
    # off the diagonal a diagonal rho is exactly Hermitian
    part = d if diagonal else rho
    skew = float(np.max(np.abs(part - part.conj().T)))
    if skew > DENSITY_TOL:
        raise ValueError(f"rho must be Hermitian, max |rho - rho+| = "
                         f"{skew:.3g}")
    lam = d.real if diagonal else np.linalg.eigvalsh(rho)
    if lam.min() < -DENSITY_TOL:
        raise ValueError(f"rho must be positive semidefinite, smallest "
                         f"eigenvalue {lam.min():.3g}")


def _into_frame(rho: np.ndarray, op: PeriodOperator) -> np.ndarray:
    """G = O^T s^-1 rho s O, the density matrix rho in the Floquet frame
    of op, after _check_density.  A diagonal rho commutes with s, so its
    G is the real O^T diag(rho) O.
    """
    _check_density(rho)
    s, O, _, _ = op.floquet_basis
    if _is_diagonal(rho):
        return ((O.T * np.diagonal(rho).real) @ O).astype(complex)
    B = _real_matmul(O.T, s.conj()[:, None] * rho * s)
    # B O as (O^T B^T)^T, so O stays real; C order for the kick loop
    return np.ascontiguousarray(_real_matmul(O.T, B.T).T)


def _out_of_frame(G: np.ndarray, op: PeriodOperator) -> np.ndarray:
    """rho = s O G O^T s^-1, the inverse of _into_frame."""
    s, O, _, _ = op.floquet_basis
    B = _real_matmul(O, G)
    return s[:, None] * _real_matmul(O, B.T).T * s.conj()


def evolve_density(rho: np.ndarray, op: PeriodOperator,
                   kicks: int) -> EvolutionResult:
    """Coherent evolution of rho, recording the diagonal after each kick.

    rho is taken once into the Floquet frame, G = O^T s^-1 rho s O,
    where each kick turns it elementwise, G_t = G_(t-1) * (lambda lambda+).
    With |s| = 1 and O real, the distribution after kick t is
    diag(O G_t O^T) = rowsum((O R_t) * O) with R_t = Re G_t: the
    antisymmetric Im G_t adds nothing to a diagonal.  The final density
    matrix is the last G taken back, s O G_T O^T s^-1.
    """
    if kicks < 1:
        raise ValueError(f"kicks must be >= 1, got {kicks}")
    dists = np.empty((kicks + 1, op.basis.size))
    dists[0] = np.real(np.diag(rho))
    G = _into_frame(rho, op)
    _, O, lam, _ = op.floquet_basis
    turn = lam[:, None] * lam.conj()
    R = np.empty(O.shape)
    OR = np.empty(O.shape)
    for t in range(1, kicks + 1):
        G *= turn
        np.copyto(R, G.real)
        np.dot(O, R, out=OR)
        dists[t] = np.einsum("ij,ij->i", OR, O)
    return _evolution_result(dists, op, _out_of_frame(G, op))


def density_after(rho: np.ndarray, op: PeriodOperator,
                  kicks: int) -> np.ndarray:
    """rho after `kicks` coherent cycles of op: evolve_density's
    final_density, with no distribution recorded.

    In the Floquet frame the T kicks turn G at once, by
    lambda^T (lambda^T)+, so the only products are those into and out
    of the frame.
    """
    if kicks < 1:
        raise ValueError(f"kicks must be >= 1, got {kicks}")
    G = _into_frame(rho, op)
    lam = op.floquet_basis[2]**kicks
    G *= lam[:, None] * lam.conj()
    return _out_of_frame(G, op)


def unitarity_defect(U: np.ndarray) -> float:
    """Max-norm of U+ U - I."""
    N = U.shape[0]
    return float(np.max(np.abs(U.conj().T @ U - np.eye(N))))


def edge_population(dists: np.ndarray) -> float:
    """Largest total probability on the outermost EDGE_STATES ladder
    states (all of a shorter ladder's), half at each end."""
    half = min(EDGE_STATES, dists.shape[1]) // 2
    edge = np.concatenate([dists[:, :half], dists[:, -half:]], axis=1)
    return float(edge.sum(axis=1).max())
