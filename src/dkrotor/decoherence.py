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
  on a quantized q grid.  All trajectories advance together as the
  columns of one state matrix, with one product per occupied q a kick.

The anti-Zeno model is a per-cycle projective momentum measurement:
off-diagonals of rho are zeroed after each coherent cycle, which
destroys the localization interference and restores classical-like
transport.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pulses import KickConfig, barrier
from .quantum import (EvolutionResult, MomentumBasis, PeriodOperator,
                      _evolution_result, _is_diagonal, build_period_operator,
                      evolve_density, initial_density)

ANTI_ZENO = "anti-zeno"
DEFAULT_REALIZATIONS = 2000
# continuous recoil snaps q to multiples of 1/Q_GRID
Q_GRID = 64
# realizations per (N x MC_BLOCK) state matrix: 2048 holds the CLI
# default in one block, and the cap bounds the working set
MC_BLOCK = 2048


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
    """Discretized-recoil emission map; trace-preserving, periodic wrap.

    rho is left unchanged.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    return _emission_map_into(rho.copy(), eta)


def _emission_map_into(rho: np.ndarray, eta: float) -> np.ndarray:
    """spontaneous_emission_map written over rho, which it returns."""
    # rho[m+1, n+1] + rho[m-1, n-1], wrapped, in eight slice operations
    shifted = np.empty_like(rho)
    shifted[:-1, :-1] = rho[1:, 1:]
    shifted[:-1, -1] = rho[1:, 0]
    shifted[-1, :-1] = rho[0, 1:]
    shifted[-1, -1] = rho[0, 0]
    shifted[1:, 1:] += rho[:-1, :-1]
    shifted[1:, 0] += rho[:-1, -1]
    shifted[0, 1:] += rho[-1, :-1]
    shifted[0, 0] += rho[-1, -1]
    shifted *= 0.5 * eta
    rho *= 1.0 - eta
    rho += shifted
    return rho


def anti_zeno_map(rho: np.ndarray) -> np.ndarray:
    """Projective momentum measurement: keep the diagonal, zero the rest."""
    return np.diag(np.diag(rho))


def run_decohered(rho0: np.ndarray, op: PeriodOperator, model,
                  kicks: int) -> EvolutionResult:
    """Interleave coherent cycles with a decoherence map, map second.

    model is None for purely coherent evolution (evolve_density), an
    EmissionModel for the spontaneous-emission map, or the string
    "anti-zeno".  Anti-Zeno runs keep only the diagonal, so they
    propagate the distribution with the doubly stochastic matrix |U|^2
    once the state is diagonal.
    """
    if kicks < 1:
        raise ValueError(f"kicks must be >= 1, got {kicks}")
    if model is None:
        return evolve_density(rho0, op, kicks)
    if isinstance(model, EmissionModel) and model.recoil_mode == "continuous":
        raise ValueError("continuous recoil needs mc_wavefunction_run; "
                         "the density-matrix map is inherently discretized")
    if not (isinstance(model, EmissionModel) or model == ANTI_ZENO):
        raise ValueError(f"unknown decoherence model: {model!r}")

    U = op.U
    dists = np.empty((kicks + 1, op.basis.size))
    dists[0] = np.real(np.diag(rho0))

    if model == ANTI_ZENO:
        M = np.abs(U)**2
        d = dists[0]
        start = 1
        if not _is_diagonal(rho0):
            # first cycle must see the coherences before projection
            rho = anti_zeno_map(U @ rho0 @ U.conj().T)
            d = dists[1] = np.real(np.diag(rho))
            start = 2
        for t in range(start, kicks + 1):
            d = dists[t] = M @ d
        return _evolution_result(dists, op, np.diag(d).astype(complex))

    U_dag = U.conj().T
    rho = rho0
    for t in range(1, kicks + 1):
        rho = _emission_map_into(U @ rho @ U_dag, model.eta)
        dists[t] = np.real(np.diag(rho))
    return _evolution_result(dists, op, rho)


class OperatorCache:
    """Period operators and pulse factors on a quantized q grid.

    Rebuilding the tridiagonal eigendecomposition per emission would
    dominate trajectory runs; q is therefore snapped to multiples of
    1/Q_GRID and operators built once per occupied grid point, each with
    the free tail phases that an emission inside the second pulse needs.
    """

    def __init__(self, cfg: KickConfig, size: int, hbar: float):
        self.cfg = cfg
        self.size = size
        self.hbar = hbar
        self._ops: dict[float, PeriodOperator] = {}
        self._tails: dict[float, tuple] = {}

    def snap(self, q: float) -> float:
        return (np.round(q * Q_GRID) / Q_GRID + 0.5) % 1.0 - 0.5

    def operator(self, q: float) -> PeriodOperator:
        q = self.snap(q)
        op = self._ops.get(q)
        if op is None:
            op = build_period_operator(
                self.cfg, MomentumBasis(size=self.size, hbar=self.hbar, q=q))
            self._ops[q] = op
            tail = 1.0 - self.cfg.delta - self.cfg.alpha / 2.0
            self._tails[q] = (op.basis.free_phases(-tail)[:, None],
                              op.basis.free_phases(tail)[:, None])
        return op

    def tail_phases(self, op: PeriodOperator) -> tuple:
        """Diagonals of (F_tail^-1, F_tail), as columns, for an operator
        this cache returned."""
        return self._tails[op.basis.q]


@dataclass
class MCResult:
    """Ensemble-averaged trajectory observables; row t is after t kicks."""

    distributions: np.ndarray
    outside_fraction: np.ndarray
    outside_stderr: np.ndarray
    realizations: int


def _wrap_q(q_total):
    """Split momentum offsets into ladder shifts and wrapped quasi-momenta."""
    q_new = (q_total + 0.5) % 1.0 - 0.5
    return np.round(q_total - q_new).astype(int), q_new


def _q_groups(q, cache):
    """(operator, positions) for each distinct snapped value in q."""
    values, inverse = np.unique(q, return_inverse=True)
    for k, value in enumerate(values):
        yield cache.operator(value), np.flatnonzero(inverse == k)


def _continuous_kick(Psi, q, q_after, emit, x, shift, cache):
    """One kick of each column of Psi, in place, from snapped q to q_after.

    With U = F_tail P(alpha/2) F_gap P(alpha/2) and P(s) P(t) = P(s + t),
    a cycle with an emission at on-pulse time x and ladder shift S is
        x < alpha/2:   U' P'(-w) S P(w),                  w = x
        x >= alpha/2:  F_tail' P'(-w) S P(w) F_tail^-1 U,  w = x - alpha
    where primes mark the operators of q_after.  Grouped by q, columns
    without emission and late emissions take U, and every emitting
    column then takes P(w) with its own w; one gather applies all the
    shifts; grouped by q_after, the emitting columns take the rest.
    """
    cfg = cache.cfg
    late = emit & (x >= cfg.alpha / 2.0)
    first = np.flatnonzero(~emit | late)
    for op, g in _q_groups(q[first], cache):
        Psi[:, first[g]] = np.dot(op.U, Psi[:, first[g]])
    cols = np.flatnonzero(emit)
    late = late[cols]
    w = np.where(late, x[cols] - cfg.alpha, x[cols])
    E = Psi[:, cols]
    for op, g in _q_groups(q[cols], cache):
        E[:, g[late[g]]] *= cache.tail_phases(op)[0]
        E[:, g] = op.apply_pulse(E[:, g], w[g])
    # column j rolled by shift[j], as np.roll
    rows = np.arange(E.shape[0])[:, None] - shift[cols]
    E = E[rows % E.shape[0], np.arange(cols.size)]
    for op, g in _q_groups(q_after[cols], cache):
        Y = op.apply_pulse(E[:, g], -w[g])
        Y[:, late[g]] *= cache.tail_phases(op)[1]
        Y[:, ~late[g]] = np.dot(op.U, Y[:, ~late[g]])
        E[:, g] = Y
    Psi[:, cols] = E


def mc_wavefunction_run(cfg: KickConfig, basis: MomentumBasis,
                        model: EmissionModel, kicks: int, seed: int,
                        realizations: int = DEFAULT_REALIZATIONS,
                        workers: int = 1) -> MCResult:
    """Trajectory average of the spontaneous-emission dynamics.

    Each realization starts in one ladder state drawn from the initial
    Gaussian weights and evolves as a pure state, interrupted by at most
    one emission per cycle.  Averaged |amplitude|^2 is reported on the
    ladder indices together with the outside fraction and its standard
    error across realizations, of which there must be at least 2.

    model.recoil_mode selects the emission.  "discretized" applies U on
    the ladder of `basis` and then, with probability eta, shifts the
    ladder by +-1 with equal odds; q stays fixed and the average is an
    exact unraveling of run_decohered with the same model.
    "continuous" recoils by u*hbar, u uniform in [-1, 1], at a uniform
    on-pulse time, with q snapped to the 1/Q_GRID grid.

    Realization i draws from its own stream seeded by (seed, i), in this
    order: the starting ladder state; then, each kick while eta > 0, one
    uniform that triggers an emission when below eta.  An emission then
    draws, for discretized recoil, one uniform (below 1/2 shifts up one
    rung), and for continuous recoil the emission time in [0, alpha)
    followed by u.  No draw depends on the state, so all come first and
    a per-realization cursor reads each kick's events from them.  Up to
    MC_BLOCK realizations advance together as the columns of one state
    matrix (see _continuous_kick).  workers is kept for callers and has
    no effect.
    """
    if not isinstance(model, EmissionModel):
        raise TypeError(f"model must be an EmissionModel, got {model!r}")
    if realizations < 2:
        raise ValueError(f"realizations must be >= 2, got {realizations}")
    if kicks < 1:
        raise ValueError(f"kicks must be >= 1, got {kicks}")

    continuous = model.recoil_mode == "continuous"
    if continuous:
        cache = OperatorCache(cfg, basis.size, basis.hbar)
        basis = MomentumBasis(size=basis.size, hbar=basis.hbar,
                              q=cache.snap(basis.q))
    else:
        U = build_period_operator(cfg, basis).U
    # the start-state draw of Generator.choice(size, p=weights), with the
    # check and cumulative sum of the weights made once for all draws
    cdf = np.real(np.diag(initial_density(cfg, basis))).cumsum()
    cdf /= cdf[-1]
    # the sub-ladder offset q is below the grid resolution; score the
    # barrier crossing on ladder sites so the curve is comparable with
    # the density-matrix pipeline.  The outside rows are the two ends.
    inside = np.flatnonzero(np.abs(basis.indices * basis.hbar)
                            <= barrier(cfg).cantorus)
    lo, hi = inside[0], inside[-1] + 1

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
            n0[j] = cdf.searchsorted(rng.random(), side="right")
            pool[j] = rng.random(3 * kicks)
        # next draw of each column: the trigger, and 1 or 2 more if it emits
        pos = np.zeros(cols.size, dtype=int)
        q = np.full(cols.size, basis.q)
        Psi = np.zeros((basis.size, cols.size), dtype=complex)
        Psi[n0, cols] = 1.0
        for t in range(kicks + 1):
            if t:
                emit = pool[cols, pos] < model.eta
                x, u = pool[cols, pos + 1], pool[cols, pos + 2]
                pos += 1 + emit * (1 + continuous)
            if t and continuous:
                # scaled as Generator.uniform(0, alpha) and (-1, 1) scale them
                shift, q_new = _wrap_q(q + (-1.0 + 2.0 * u))
                q_after = np.where(emit, cache.snap(q_new), q)
                _continuous_kick(Psi, q, q_after, emit, x * cfg.alpha,
                                 shift, cache)
                q = q_after
            elif t:
                Psi = U @ Psi
                # same periodic wrap as spontaneous_emission_map
                for step, sel in ((1, emit & (x < 0.5)),
                                  (-1, emit & (x >= 0.5))):
                    Psi[:, sel] = np.roll(Psi[:, sel], step, axis=0)
            # |Psi|^2 summed from the interleaved real and imaginary parts
            re_im = Psi.view(np.float64)
            sum_dist[t] += np.einsum("ij,ij->i", re_im, re_im)
            out = (np.einsum("ij,ij->j", re_im[:lo], re_im[:lo])
                   + np.einsum("ij,ij->j", re_im[hi:], re_im[hi:]))
            out = out.reshape(-1, 2).sum(axis=1)
            sum_out[t] += out.sum()
            sum_out2[t] += (out**2).sum()

    R = realizations
    mean_out = sum_out / R
    var = np.maximum(sum_out2 / R - mean_out**2, 0.0)
    stderr = np.sqrt(var / (R - 1))
    return MCResult(distributions=sum_dist / R, outside_fraction=mean_out,
                    outside_stderr=stderr, realizations=R)
