"""Discrete toroidal Wigner function and the quantum-strangeness statistic.

On the N-state momentum torus the Wigner function lives on a doubled
2N x 2N grid, positions X_k = pi*k/N and momenta P_l = (hbar/2)*l:

    w(X_k, P_l) = sum_j exp(i pi j k / N) [(l+j) even] rho[(l+j)/2, (l-j)/2]

with the bra/ket labels reduced modulo N onto the torus (the doubled
grid of Miquel, Paz & Saraceno, Phys. Rev. A 65, 062309 (2002)).  The
parity factor zeroes half the terms: on row l = 2L + p only
j = 2j' + p contributes, so the rows of each parity p are one block of
N-point inverse FFTs over j', and the k >= N half of each row is
(-1)^p times its k < N half.  Hermiticity
makes the grid real; averaging 2x2 cells gives an N x N grid whose rows
carry integer ladder momenta and whose position sum reproduces diag(rho)
exactly.  The statistic

    S = sum(|W| - W)

over the normalized coarse grid is twice the total negative
quasi-probability: zero for any diagonal density matrix, positive for
states with interference structure finer than a cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quantum import MomentumBasis

IMAG_TOL = 1e-10

# calibrated against the published two-packet values; see calibrate_packet_width
DEFAULT_PACKET_WIDTH = 2.0
PACKET_OFFSET = 16
TARGET_S_MIXED = 0.1765
TARGET_S_SUPERPOSED = 0.7647
# packet widths scanned by calibrate_packet_width
WIDTH_BOUNDS = (0.8, 12.0)


@dataclass
class WignerGrid:
    """Raw and coarse toroidal Wigner grids of one density matrix.

    raw is 2N x 2N, unnormalized, rows in torus label order l = 0..2N-1
    with momenta P_l = (hbar/2) l.  coarse is N x N, cell sums divided
    by norm_constant so it sums to exactly 1, with rows reordered to
    ladder order (coarse_momenta matches basis.momenta) so row sums
    align with the density-matrix diagonal.
    """

    raw: np.ndarray
    coarse: np.ndarray
    coarse_positions: np.ndarray
    coarse_momenta: np.ndarray
    norm_constant: float


def wigner_transform(rho: np.ndarray, basis: MomentumBasis) -> WignerGrid:
    """Toroidal Wigner grid of rho with 2x2 coarse graining.

    Row parity p is one block of N-point inverse FFTs,
    F_p[L, k] = sum_j' exp(2 pi i j' k / N) g_p[L, j'], of the half-sum
    g_p[L, j'] = rho[L + j' + p, L - j'] (torus labels), and
    raw[2L + p, k] = exp(i pi p k / N) F_p[L, k mod N] for k < 2N.
    """
    N = basis.size
    if rho.shape != (N, N):
        raise ValueError(f"rho must be {N}x{N} for this basis")
    rho = np.asarray(rho, dtype=complex)

    # flat indices of g_0 into rho; torus label u is ladder row
    # (u + N/2) mod N
    L = np.arange(N)[:, None]
    j = np.arange(N)[None, :]
    flat = (L + j + N // 2) % N * N + (L - j + N // 2) % N

    raw = np.empty((2 * N, 2 * N))
    F = np.empty((N, N), dtype=complex)
    imag = 0.0
    for p in (0, 1):
        if p:
            # g_1 is g_0 with the ket label one further on
            flat += N
        rho.take(flat, mode="wrap", out=F)
        np.fft.ifft(F, axis=1, norm="forward", out=F)
        if p:
            F *= np.exp(1j * np.pi * np.arange(N) / N)
        imag = max(imag, float(np.max(np.abs(F.imag))))
        rows = raw[p::2]
        rows[:, :N] = F.real
        np.multiply(rows[:, :N], (-1.0)**p, out=rows[:, N:])
    if imag > IMAG_TOL:
        raise ValueError(
            f"grid imaginary residue {imag:.2e}; rho is not Hermitian enough")

    cells = raw.reshape(N, 2, N, 2).sum(axis=(1, 3))
    norm = float(cells.sum())
    coarse = np.fft.fftshift(cells / norm, axes=0)

    return WignerGrid(
        raw=raw,
        coarse=coarse,
        coarse_positions=2.0 * np.pi * np.arange(N) / N,
        coarse_momenta=basis.momenta.astype(float),
        norm_constant=norm)


def strangeness(grid: WignerGrid) -> float:
    """S = sum(|W| - W) over the normalized coarse grid."""
    return float(np.sum(np.abs(grid.coarse) - grid.coarse))


def gaussian_packet(basis: MomentumBasis, center: int,
                    width: float) -> np.ndarray:
    """Pure state with Gaussian momentum probabilities.

    center and width are in ladder units (momentum / hbar); |c_n|^2 has
    standard deviation `width` around `center`.  Real amplitudes, so the
    packet sits at zero mean position.
    """
    if width <= 0.0:
        raise ValueError(f"width must be > 0, got {width}")
    n = basis.indices
    amp = np.exp(-(n - center)**2 / (4.0 * width**2))
    return (amp / np.linalg.norm(amp)).astype(complex)


def two_packet_mixture(basis: MomentumBasis,
                       width: float = DEFAULT_PACKET_WIDTH) -> np.ndarray:
    """Equal-weight incoherent mixture of packets at +-PACKET_OFFSET."""
    up = gaussian_packet(basis, PACKET_OFFSET, width)
    down = gaussian_packet(basis, -PACKET_OFFSET, width)
    return 0.5 * (np.outer(up, up.conj()) + np.outer(down, down.conj()))


def two_packet_superposition(basis: MomentumBasis,
                             width: float = DEFAULT_PACKET_WIDTH,
                             phase: float = 0.0) -> np.ndarray:
    """Equal-weight coherent superposition of the same two packets."""
    up = gaussian_packet(basis, PACKET_OFFSET, width)
    down = gaussian_packet(basis, -PACKET_OFFSET, width)
    psi = up + np.exp(1j * phase) * down
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


@dataclass
class WidthCalibration:
    """Outcome of matching the two-packet strangeness targets by width."""

    width: float
    S_mixed: float
    S_superposed: float
    ratio: float


def _two_packet_S(basis, width):
    Sm = strangeness(wigner_transform(two_packet_mixture(basis, width), basis))
    Ss = strangeness(
        wigner_transform(two_packet_superposition(basis, width), basis))
    return Sm, Ss


def calibrate_packet_width(basis: MomentumBasis) -> WidthCalibration:
    """Pick the packet width whose (S_mixed, S_superposed) pair comes
    closest to the published targets TARGET_S_MIXED and
    TARGET_S_SUPERPOSED over WIDTH_BOUNDS, minimizing the worse of the two
    relative errors.  The width is the only free parameter.  Where the
    two errors move in opposite directions with width, the minimax
    optimum sits where they are equal, and then S_superposed / S_mixed
    equals the target ratio by construction: the ratio at the optimum is
    not an independent check of the family.
    """
    # imported here: scipy.optimize would add a large share of the
    # package's import time to every CLI run, and only this calls it
    from scipy.optimize import minimize_scalar

    def objective(w):
        Sm, Ss = _two_packet_S(basis, w)
        return max(abs(Sm / TARGET_S_MIXED - 1.0),
                   abs(Ss / TARGET_S_SUPERPOSED - 1.0))

    grid = np.linspace(*WIDTH_BOUNDS, 57)
    values = [objective(w) for w in grid]
    i = int(np.argmin(values))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid.size - 1)]
    res = minimize_scalar(objective, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-4})
    width = float(res.x)
    Sm, Ss = _two_packet_S(basis, width)
    return WidthCalibration(width=width, S_mixed=Sm, S_superposed=Ss,
                            ratio=Ss / Sm)
