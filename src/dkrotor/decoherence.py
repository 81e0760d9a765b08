"""Decoherence models: spontaneous emission and projective anti-Zeno runs.

Spontaneous emission carries a photon recoil u*hbar with u in [-1, 1].
Two realizations are provided:

* a density-matrix map where the recoil is discretized onto the ladder,
  mixing each element with its diagonal neighbours,
      rho'[m,n] = eta/2 (rho[m+1,n+1] + rho[m-1,n-1]) + (1-eta) rho[m,n],
  with periodic wrap (the edges carry negligible population);

* a Monte Carlo wavefunction model (Dalibard, Castin & Molmer, PRL 68,
  580, 1992) where each trajectory suffers an emission with
  probability eta per cycle.  With discretized recoil the emission
  follows the cycle and shifts the ladder by +-1 with equal odds, which
  unravels the map above exactly.  With continuous recoil it happens
  at a time uniform over the on-pulse windows, and the recoil splits
  into an integer ladder shift plus a quasi-momentum change; coherent
  segments between emissions use exactly-exponentiated operators cached
  on a quantized q grid.

The anti-Zeno model is a per-cycle projective momentum measurement:
off-diagonals of rho are zeroed after each coherent cycle, which
destroys the localization interference and restores classical-like
transport.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pulses import OUTSIDE_BOUNDARY, KickConfig
from .quantum import (EvolutionResult, MomentumBasis, PeriodOperator,
                      build_period_operator, initial_density,
                      momentum_distribution)

ANTI_ZENO = "anti-zeno"
DEFAULT_REALIZATIONS = 2000
DEFAULT_Q_GRID = 64
# realizations per (N x MC_BLOCK) state matrix; bounds the working set
MC_BLOCK = 256


@dataclass(frozen=True)
class EmissionModel:
    """Spontaneous-emission parameters.

    eta is the probability per kick cycle of one emission event.  The
    density-matrix map always uses the discretized recoil; the
    trajectory model (mc_wavefunction_run) honours either mode.  Rate
    values 0, 2% and 5% mirror the reference experiments but any
    eta in [0, 1] is accepted.
    """

    eta: float
    recoil_mode: str = "discretized"

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")
        if self.recoil_mode not in ("discretized", "continuous"):
            raise ValueError(
                f"recoil_mode must be 'discretized' or 'continuous', "
                f"got {self.recoil_mode!r}")


def spontaneous_emission_map(rho: np.ndarray, eta: float) -> np.ndarray:
    """Discretized-recoil emission map; trace-preserving, periodic wrap."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    up = np.roll(rho, (-1, -1), axis=(0, 1))
    down = np.roll(rho, (1, 1), axis=(0, 1))
    return 0.5 * eta * (up + down) + (1.0 - eta) * rho


def anti_zeno_map(rho: np.ndarray) -> np.ndarray:
    """Projective momentum measurement: keep the diagonal, zero the rest."""
    return np.diag(np.diag(rho))


def run_decohered(rho0: np.ndarray, op: PeriodOperator, model,
                  kicks: int) -> EvolutionResult:
    """Interleave coherent cycles with a decoherence map, map second.

    model is None for purely coherent evolution, an EmissionModel for
    the spontaneous-emission map, or the string "anti-zeno".  Anti-Zeno
    runs keep only the diagonal, so they propagate the distribution
    with the doubly stochastic matrix |U|^2 once the state is diagonal.
    """
    if kicks < 1:
        raise ValueError(f"kicks must be >= 1, got {kicks}")
    if isinstance(model, EmissionModel) and model.recoil_mode == "continuous":
        raise ValueError("continuous recoil needs mc_wavefunction_run; "
                         "the density-matrix map is inherently discretized")

    U = op.U
    basis = op.basis
    N = basis.size
    dists = np.empty((kicks + 1, N))
    outside = np.empty(kicks + 1)
    dists[0], outside[0] = momentum_distribution(rho0, basis)

    if model == ANTI_ZENO:
        M = np.abs(U)**2
        d = np.real(np.diag(rho0)).copy()
        off_diag = rho0 - np.diag(np.diag(rho0))
        start = 1
        if np.max(np.abs(off_diag)) > 1e-14:
            # first cycle must see the coherences before projection
            rho = anti_zeno_map(U @ rho0 @ U.conj().T)
            d = np.real(np.diag(rho))
            dists[1], outside[1] = momentum_distribution(rho, basis)
            start = 2
        for t in range(start, kicks + 1):
            d = M @ d
            dists[t] = d
            outside[t] = float(
                d[np.abs(basis.momenta) > OUTSIDE_BOUNDARY].sum())
        return EvolutionResult(distributions=dists, outside_fraction=outside,
                               final_density=np.diag(d).astype(complex))

    rho = rho0
    for t in range(1, kicks + 1):
        rho = U @ rho @ U.conj().T
        if isinstance(model, EmissionModel):
            rho = spontaneous_emission_map(rho, model.eta)
        elif model is not None:
            raise ValueError(f"unknown decoherence model: {model!r}")
        dists[t], outside[t] = momentum_distribution(rho, basis)
    return EvolutionResult(distributions=dists, outside_fraction=outside,
                           final_density=rho)


class OperatorCache:
    """Period operators and pulse factors on a quantized q grid.

    Rebuilding the tridiagonal eigendecomposition per emission would
    dominate trajectory runs; q is therefore snapped to multiples of
    1/q_grid and operators built once per occupied grid point.
    """

    def __init__(self, cfg: KickConfig, size: int, hbar: float,
                 q_grid: int = DEFAULT_Q_GRID):
        if q_grid < 2:
            raise ValueError(f"q_grid must be >= 2, got {q_grid}")
        self.cfg = cfg
        self.size = size
        self.hbar = hbar
        self.q_grid = q_grid
        self._ops: dict[float, PeriodOperator] = {}

    def snap(self, q: float) -> float:
        return (np.round(q * self.q_grid) / self.q_grid + 0.5) % 1.0 - 0.5

    def operator(self, q: float) -> PeriodOperator:
        q = self.snap(q)
        op = self._ops.get(q)
        if op is None:
            op = build_period_operator(
                self.cfg, MomentumBasis(size=self.size, hbar=self.hbar, q=q))
            self._ops[q] = op
        return op


@dataclass
class MCResult:
    """Ensemble-averaged trajectory observables; row t is after t kicks."""

    distributions: np.ndarray
    outside_fraction: np.ndarray
    outside_stderr: np.ndarray
    realizations: int
    seed: int
    q_grid: int


def _wrap_q(q_total):
    """Split momentum offsets into ladder shifts and wrapped quasi-momenta."""
    q_new = (q_total + 0.5) % 1.0 - 0.5
    return np.round(q_total - q_new).astype(int), q_new


def _emission_cycle(psi, op, op_after, x, shift):
    """One kick cycle with an emission at on-pulse time x in [0, alpha):
    op before it, then a ladder shift, then op_after of the new q."""
    cfg = op.config
    half = cfg.alpha / 2.0
    if x < half:
        psi = np.roll(op.apply_pulse(psi, x), shift)
        psi = op_after.apply_pulse(psi, half - x)
        psi = op_after.free_phases(cfg.delta - half) * psi
        psi = op_after.apply_pulse(psi, half)
    else:
        psi = op.apply_pulse(psi, half)
        psi = op.free_phases(cfg.delta - half) * psi
        psi = np.roll(op.apply_pulse(psi, x - half), shift)
        psi = op_after.apply_pulse(psi, half - (x - half))
    return op_after.free_phases(1.0 - cfg.delta - half) * psi


def _continuous_kick(Psi, q, q_after, emit, x, shift, cache):
    """One kick of each column of Psi, in place, from snapped q to q_after;
    columns without emission take one U product per run of equal q."""
    stay = np.flatnonzero(~emit)[np.argsort(q[~emit], kind="stable")]
    Y, qs = Psi[:, stay], q[stay]
    starts = np.flatnonzero(np.diff(qs, prepend=np.nan))
    for a, b in zip(starts, [*starts[1:], qs.size]):
        # np.dot hands a one-column strided slice to BLAS; matmul does not
        Y[:, a:b] = np.dot(cache.operator(qs[a]).U, Y[:, a:b])
    Psi[:, stay] = Y
    for j in np.flatnonzero(emit):
        Psi[:, j] = _emission_cycle(Psi[:, j], cache.operator(q[j]),
                                    cache.operator(q_after[j]), x[j],
                                    shift[j])


def mc_wavefunction_run(cfg: KickConfig, basis: MomentumBasis,
                        model: EmissionModel, kicks: int, seed: int,
                        realizations: int = DEFAULT_REALIZATIONS,
                        q_grid: int = DEFAULT_Q_GRID,
                        workers: int = 1) -> MCResult:
    """Trajectory average of the spontaneous-emission dynamics.

    Each realization starts in one ladder state drawn from the initial
    Gaussian weights and evolves as a pure state, interrupted by at most
    one emission per cycle.  Averaged |amplitude|^2 is reported on the
    ladder indices together with the outside fraction and its standard
    error across realizations.

    model.recoil_mode selects the emission.  "discretized" applies U on
    the ladder of `basis` and then, with probability eta, shifts the
    ladder by +-1 with equal odds; q stays fixed and the average is an
    exact unraveling of run_decohered with the same model.
    "continuous" recoils by u*hbar, u uniform in [-1, 1], at a uniform
    on-pulse time, with q snapped to the 1/q_grid grid.

    Realization i draws from its own stream seeded by (seed, i), in this
    order: the starting ladder state; then, each kick while eta > 0, one
    uniform that triggers an emission when below eta.  An emission then
    draws, for discretized recoil, one uniform (below 1/2 shifts up one
    rung), and for continuous recoil the emission time in [0, alpha)
    followed by u.  No draw depends on the state, so all come first;
    realizations then advance MC_BLOCK at a time as the columns of one
    state matrix.  workers is kept for callers and has no effect.
    """
    if not isinstance(model, EmissionModel):
        raise TypeError(f"model must be an EmissionModel, got {model!r}")
    if realizations < 1:
        raise ValueError(f"realizations must be >= 1, got {realizations}")
    if kicks < 1:
        raise ValueError(f"kicks must be >= 1, got {kicks}")

    continuous = model.recoil_mode == "continuous"
    if continuous:
        cache = OperatorCache(cfg, basis.size, basis.hbar, q_grid)
        basis = MomentumBasis(size=basis.size, hbar=basis.hbar,
                              q=cache.snap(basis.q))
    else:
        U = build_period_operator(cfg, basis).U
    weights = np.real(np.diag(initial_density(cfg, basis)))
    # the sub-ladder offset q is below the grid resolution; score the
    # barrier crossing on ladder sites so the curve is comparable with
    # the density-matrix pipeline
    outside = np.abs(basis.indices * basis.hbar) > OUTSIDE_BOUNDARY

    sum_dist = np.zeros((kicks + 1, basis.size))
    sum_out = np.zeros(kicks + 1)
    sum_out2 = np.zeros(kicks + 1)
    for start in range(0, realizations, MC_BLOCK):
        indices = np.arange(start, min(start + MC_BLOCK, realizations))
        cols = np.arange(indices.size)
        n0 = np.empty(cols.size, dtype=int)
        pool = np.empty((cols.size, 3 * kicks))
        for j, i in enumerate(indices):
            rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
            n0[j] = rng.choice(basis.size, p=weights)
            pool[j] = rng.random(3 * kicks)
        # kick t's trigger is draw at[t]; an emission takes 1 or 2 more
        at = np.empty((kicks, cols.size), dtype=int)
        pos = np.zeros(cols.size, dtype=int)
        for t in range(kicks):
            at[t] = pos
            pos += 1 + (pool[cols, pos] < model.eta) * (1 + continuous)
        emit = pool[cols, at] < model.eta
        x = pool[cols, at + 1]
        if continuous:
            # scaled as Generator.uniform(0, alpha) and (-1, 1) scale them
            x *= cfg.alpha
            u = -1.0 + 2.0 * pool[cols, at + 2]
            shift = np.empty((kicks, cols.size), dtype=int)
            q = np.full((kicks + 1, cols.size), basis.q)
            for t in range(kicks):
                shift[t], q_new = _wrap_q(cache.snap(q[t]) + u[t])
                q[t + 1] = np.where(emit[t], cache.snap(q_new), q[t])
            # built before the propagation's temporaries: less fragmentation
            for value in np.unique(q):
                cache.operator(value)
        Psi = np.zeros((basis.size, cols.size), dtype=complex)
        Psi[n0, cols] = 1.0
        for t in range(kicks + 1):
            if t and continuous:
                _continuous_kick(Psi, q[t - 1], q[t], emit[t - 1],
                                 x[t - 1], shift[t - 1], cache)
            elif t:
                Psi = U @ Psi
                # same periodic wrap as spontaneous_emission_map
                for step, sel in ((1, emit[t - 1] & (x[t - 1] < 0.5)),
                                  (-1, emit[t - 1] & (x[t - 1] >= 0.5))):
                    Psi[:, sel] = np.roll(Psi[:, sel], step, axis=0)
            prob = np.abs(Psi)**2
            out = prob[outside].sum(axis=0)
            sum_dist[t] += prob.sum(axis=1)
            sum_out[t] += out.sum()
            sum_out2[t] += (out**2).sum()

    R = realizations
    mean_out = sum_out / R
    var = np.maximum(sum_out2 / R - mean_out**2, 0.0)
    stderr = np.sqrt(var / max(R - 1, 1))
    return MCResult(distributions=sum_dist / R, outside_fraction=mean_out,
                    outside_stderr=stderr, realizations=R, seed=seed,
                    q_grid=q_grid)
