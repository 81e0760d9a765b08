"""Decoherence models: spontaneous emission and projective anti-Zeno runs.

Spontaneous emission carries a photon recoil u*hbar with u in [-1, 1].
Two realizations are provided:

* a density-matrix map where the recoil is discretized onto the ladder,
  mixing each element with its diagonal neighbours,
      rho'[m,n] = eta/2 (rho[m+1,n+1] + rho[m-1,n-1]) + (1-eta) rho[m,n],
  with periodic wrap (the edges carry negligible population).  The
  shifts n -> n +- 1 are diagonal in the angle basis |theta_a>, where
  the map is one elementwise weighting.  It commutes with the
  reflection n -> -n, so at q = 0 a parity-even state stays even, and
  run_decohered keeps the whole run in the parity blocks of the angle
  basis, which the DCT-I and DST-I reach; it refuses any other q or
  start, and drops only the hard wall's parity breaking at the ladder's
  edge, where rho has no weight;

* a Monte Carlo wavefunction model (Dalibard, Castin & Molmer, PRL 68,
  580, 1992) where each trajectory suffers an emission with
  probability eta per cycle.  With discretized recoil the emission
  follows the cycle and shifts the ladder by +-1 with equal odds, which
  unravels the map above exactly.  With continuous recoil it happens
  at a time uniform over the on-pulse windows.  q = k / Q_GRID rides on
  an integer key k; the recoil, rounded once to round(Q_GRID u) keys,
  adds to k, and one integer division splits the sum into a ladder
  shift and the new key.  Coherent segments use exactly-exponentiated
  operators cached per key.  All trajectories advance together as the
  columns of one state matrix, with one product per occupied key a kick.

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
                      _check_density, _evolution_result, _is_diagonal,
                      _mirror_slices, build_period_operator, evolve_density,
                      initial_density)

ANTI_ZENO = "anti-zeno"
DEFAULT_REALIZATIONS = 2000
# continuous recoil moves q = k / Q_GRID by integer keys k
Q_GRID = 64
# realizations per (N x MC_BLOCK) state matrix: 2048 holds the CLI
# default in one block, and the cap bounds the working set
MC_BLOCK = 2048
# the parity blocks of the emission kick are zero-padded to a multiple of
# this many rows: OpenBLAS gives the same zgemm bits at one and two
# threads at sizes 128, 136, 256 and 264, but not at 129, 130 or 257
PARITY_ALIGN = 8


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


def _emission_map_into(rho: np.ndarray, eta: float) -> np.ndarray:
    """The emission map of the module docstring by its definition, written
    over rho, which it returns: the reference for run_decohered's angle
    blocks.  EmissionModel validates eta."""
    shifted = np.roll(rho, (-1, -1), axis=(0, 1))
    shifted += np.roll(rho, (1, 1), axis=(0, 1))
    shifted *= 0.5 * eta
    rho *= 1.0 - eta
    rho += shifted
    return rho


def _parity_even(X: np.ndarray) -> bool:
    """True when R X R = X for the reflection R of n -> -n, compared on
    the views of quantum._mirror_slices, with no copy of X."""
    _, ends, pos, neg = _mirror_slices(X.shape[0])
    return (np.array_equal(X[pos, pos], X[neg, neg])
            and np.array_equal(X[pos, neg], X[neg, pos])
            and np.array_equal(X[ends, pos], X[ends, neg])
            and np.array_equal(X[pos, ends], X[neg, ends]))


def run_decohered(rho0: np.ndarray, op: PeriodOperator, model,
                  kicks: int) -> EvolutionResult:
    """Interleave coherent cycles with a decoherence map, map second.

    model is None for purely coherent evolution (evolve_density), an
    EmissionModel for the spontaneous-emission map, or the string
    "anti-zeno".  Each refuses a rho0 that is not a density matrix
    (quantum._check_density).  Anti-Zeno runs keep only the diagonal, so
    they propagate the distribution with the doubly stochastic matrix
    |U|^2 once the state is diagonal.

    Emission runs raise ValueError unless q = 0 and rho0 is parity-even,
    R rho0 R = rho0 for R: n -> -n (initial_density is).  Such a run goes
    once into the angle basis |theta_a> = N^-1/2 sum_n exp(2 pi i a n / N)
    |n>, in its even and odd blocks, by a DCT-I and a DST-I (_across),
    and comes back once at the end.  There the recoil |n> -> |n +- 1> is
    diag(exp(-+i theta_a)), so the map weighs rho_ab by 1 - eta + eta
    cos(theta_a - theta_b): the cosines weigh each block, and the sines
    couple the even block's paired rows with the odd block (_angle_map).
    Each kick conjugates the blocks by those of the parity average
    Ubar = (U + RUR)/2, four products of half size, a quarter of the
    flops of U rho U+, and reads the distribution off one real product
    of half size per block.  Ubar is folded and crossed in long double
    and rounded once; rho crosses in double, as its rounding enters once
    and not once a kick.  Since the map commutes with R, rho stays
    even.  With D = (U - RUR)/2, the even part of U rho U+ is
    Ubar rho Ubar+ + D rho D+, so each kick drops D rho D+ and the odd
    part Ubar rho D+ + D rho Ubar+.  Both are roundoff: D is the hard
    wall at rung -N/2, above 1e-12 only on rows |n| >= 53 / 113 / 235 at
    N = 128 / 256 / 512 (K = 280), where rho stays below 3e-12, and U's
    own roundoff elsewhere.
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
    _check_density(rho0, op.basis.size)

    U = op.U
    dists = np.empty((kicks + 1, op.basis.size))
    dists[0] = np.real(np.diag(rho0))

    if model == ANTI_ZENO:
        M = np.abs(U)**2
        d = dists[0]
        start = 1
        if not _is_diagonal(rho0):
            # first cycle must see the coherences; the measurement then
            # keeps only the diagonal
            d = dists[1] = np.real(np.diag(U @ rho0 @ U.conj().T))
            start = 2
        for t in range(start, kicks + 1):
            d = dists[t] = M @ d
        return _evolution_result(dists, op, np.diag(d).astype(complex))

    if op.basis.q != 0.0:
        raise ValueError(f"emission runs need q = 0, got q = {op.basis.q}")
    if not _parity_even(rho0):
        raise ValueError("emission runs need a parity-even rho0, "
                         "R rho0 R = rho0 for R: n -> -n")

    size = op.basis.size
    h, ends, pos, neg = _mirror_slices(size)
    from scipy.fft import dct, dst
    # Q_E and Q_O of _across as real matrices, padded as the blocks, for
    # the distribution
    C = [np.zeros((_padded(m),) * 2) for m in (h + 1, h - 1)]
    for c, transform, m in zip(C, (dct, dst), (h + 1, h - 1)):
        if m:
            c[:m, :m] = transform(np.eye(m), type=1, norm="ortho")
    emission = _angle_map(size, model.eta)
    blocks = _across(_parity_blocks(rho0), size)
    # U crosses in long double and is rounded once (see _across)
    kick = [A.astype(complex) for A in
            _across(_parity_blocks(U.astype(np.clongdouble)), size)]
    kick_dag = [np.ascontiguousarray(A.conj().T) for A in kick]
    half = [np.empty_like(X) for X in blocks]
    real, turned = ([np.empty(c.shape) for c in C] for _ in range(2))
    for t in range(1, kicks + 1):
        for A, A_dag, X, Y in zip(kick, kick_dag, blocks, half):
            np.dot(A, X, out=Y)
            np.dot(Y, A_dag, out=X)
        emission(*blocks)
        # diag(C Re X C): C is real and symmetric, and Im X antisymmetric
        d = []
        for c, X, R, CR in zip(C, blocks, real, turned):
            np.copyto(R, X.real)
            np.dot(c, R, out=CR)
            d.append(np.einsum("ij,ij->i", CR, c))
        dists[t, ends] = d[0][:h + 1:h]
        dists[t, pos] = dists[t, neg] = 0.5 * (d[0][1:h] + d[1][:h - 1])
    return _evolution_result(dists, op,
                             _from_parity_blocks(_across(blocks, size), size))


def _padded(rows: int) -> int:
    """rows rounded up to a multiple of PARITY_ALIGN."""
    return -(-rows // PARITY_ALIGN) * PARITY_ALIGN


def _parity_blocks(X: np.ndarray) -> tuple:
    """(E, O), the even and odd diagonal blocks of X in the parity basis.

    E is on |0>, (|n> + |-n>)/sqrt2 for n = 1 .. N/2 - 1, and |-N/2>, O on
    (|n> - |-n>)/sqrt2, n = 1 .. N/2 - 1: row n of E and row n - 1 of O
    hold rung n, as DCT-I and DST-I index their points.  Each is
    zero-padded to _padded rows and columns.  The blocks between E and O
    are not formed.
    """
    h, ends, pos, neg = _mirror_slices(X.shape[0])
    # rows 0 and N/2 of E, rungs 0 and -N/2 in the order of ends
    tips = slice(0, h + 1, h)
    E = np.zeros((_padded(h + 1),) * 2, dtype=X.dtype)
    O = np.zeros((_padded(h - 1),) * 2, dtype=X.dtype)
    E[tips, tips] = X[ends, ends]
    E[tips, 1:h] = np.sqrt(0.5) * (X[ends, pos] + X[ends, neg])
    E[1:h, tips] = np.sqrt(0.5) * (X[pos, ends] + X[neg, ends])
    same, mixed = X[pos, pos] + X[neg, neg], X[pos, neg] + X[neg, pos]
    E[1:h, 1:h] = 0.5 * (same + mixed)
    O[:h - 1, :h - 1] = 0.5 * (same - mixed)
    return E, O


def _from_parity_blocks(blocks: tuple, size: int) -> np.ndarray:
    """The ladder matrix whose parity blocks are blocks = (E, O): the
    inverse of _parity_blocks on matrices that commute with parity."""
    E, O = blocks
    h, ends, pos, neg = _mirror_slices(size)
    tips = slice(0, h + 1, h)
    X = np.empty((size, size), dtype=E.dtype)
    X[ends, ends] = E[tips, tips]
    X[ends, pos] = X[ends, neg] = np.sqrt(0.5) * E[tips, 1:h]
    X[pos, ends] = X[neg, ends] = np.sqrt(0.5) * E[1:h, tips]
    even, odd = E[1:h, 1:h], O[:h - 1, :h - 1]
    X[pos, pos] = X[neg, neg] = 0.5 * (even + odd)
    X[pos, neg] = X[neg, pos] = 0.5 * (even - odd)
    return X


def _across(blocks: tuple, size: int) -> tuple:
    """The parity blocks (E, O) taken between the ladder and the angle
    basis, either way, in place: Q X Q on each unpadded corner.

    The angle basis |theta_a> = N^-1/2 sum_n exp(2 pi i a n / N) |n>
    takes n -> -n to a -> -a.  So the even block's states, |theta_0>,
    (|theta_a> + |theta_-a>)/sqrt2 for a = 1 .. N/2 - 1 and |theta_N/2>,
    are real cosines, and the odd block's, (|theta_a> - |theta_-a>)/sqrt2,
    are i times real sines (the i cancels in a block).  On the rows of
    _parity_blocks, Q_E is the orthonormal DCT-I on N/2 + 1 points and Q_O
    the DST-I on N/2 - 1, the even and odd halves of the DFT (Martucci,
    IEEE Trans. Signal Process. 42, 1038 (1994)): real, symmetric and
    orthogonal, so Q X Q is one transform along each axis.  scipy.fft
    computes them in X's precision.  A kick block must be crossed in long
    double: rounded to double, Q would act as the same small non-unitary
    factor every kick, which adds up over the kicks.
    """
    # imported here, as quantum imports scipy.linalg: only emission runs
    # need scipy.fft
    from scipy.fft import dctn, dstn
    h = size // 2
    for X, transform, m in zip(blocks, (dctn, dstn), (h + 1, h - 1)):
        # DST-I refuses zero points: N = 2 has no odd block
        if m:
            X[:m, :m] = transform(X[:m, :m], type=1, norm="ortho")
    return blocks


def _angle_map(size: int, eta: float):
    """The emission map on the angle blocks, as a function that writes
    it over (E, O).

    The recoil |n> -> |n +- 1> is diag(exp(-+i theta_a)) in the angle
    basis, so the map weighs rho_ab by 1 - eta + eta cos(theta_a -
    theta_b), where cos(theta_a - theta_b) = cos theta_a cos theta_b
    + sin theta_a sin theta_b.  The cosines keep parity: each block is
    weighed by W = 1 - eta + eta c c^T, c = cos theta_a with
    theta_a = 2 pi a / N for a = 0 .. N/2 on E and a = 1 .. N/2 - 1 on
    O.  The sines swap it: S = eta s s^T, s = sin theta_a, carries O into
    E's paired rows 1 .. N/2 - 1 and those into O.
    """
    h = size // 2
    cos = np.cos(2.0 * np.pi / size * np.arange(h + 1))
    sin = np.sin(2.0 * np.pi / size * np.arange(1, h))
    W_E, W_O = (np.zeros((_padded(m),) * 2) for m in (h + 1, h - 1))
    for W, c in ((W_E, cos), (W_O, cos[1:h])):
        W[:c.size, :c.size] = 1.0 - eta + eta * np.outer(c, c)
    S = eta * np.outer(sin, sin)

    def apply(E, O):
        paired, odd = E[1:h, 1:h], O[:h - 1, :h - 1]
        to_even, to_odd = S * odd, S * paired
        E *= W_E
        O *= W_O
        paired += to_even
        odd += to_odd
    return apply


class OperatorCache:
    """Period operators keyed by the integer quasi-momentum key k.

    Rebuilding the tridiagonal eigendecomposition per emission would
    dominate trajectory runs; one operator is therefore built per
    occupied key, at q = k / Q_GRID, whose pulse factors and tail phases
    serve an emission inside a pulse.
    """

    def __init__(self, cfg: KickConfig, size: int, hbar: float):
        self.cfg = cfg
        self.size = size
        self.hbar = hbar
        self._ops: dict[int, PeriodOperator] = {}

    def operator(self, k: int) -> PeriodOperator:
        op = self._ops.get(k)
        if op is None:
            op = build_period_operator(self.cfg, MomentumBasis(
                size=self.size, hbar=self.hbar, q=k / Q_GRID))
            self._ops[k] = op
        return op


@dataclass
class MCResult:
    """Ensemble-averaged trajectory observables; row t is after t kicks."""

    distributions: np.ndarray
    outside_fraction: np.ndarray
    outside_stderr: np.ndarray
    realizations: int


def _ladder_split(total):
    """(ladder shift, key in [-Q_GRID/2, Q_GRID/2)) of summed keys."""
    shift, key = np.divmod(total + Q_GRID // 2, Q_GRID)
    return shift, key - Q_GRID // 2


def _q_groups(k, cache):
    """(operator, positions) for each distinct key in k."""
    values, inverse = np.unique(k, return_inverse=True)
    for j, value in enumerate(values):
        yield cache.operator(int(value)), np.flatnonzero(inverse == j)


def _continuous_kick(Psi, k, k_after, emit, x, shift, cache):
    """One kick of each column of Psi, in place, from key k to k_after.

    With U = F_tail P(alpha/2) F_gap P(alpha/2) and P(s) P(t) = P(s + t),
    a cycle with an emission at on-pulse time x and ladder shift S is
        x < alpha/2:   U' P'(-w) S P(w),                  w = x
        x >= alpha/2:  F_tail' P'(-w) S P(w) F_tail^-1 U,  w = x - alpha
    where primes mark the operators of k_after.  Grouped by k, columns
    without emission and late emissions take U, and every emitting
    column then takes P(w) with its own w; one gather applies all the
    shifts; grouped by k_after, the emitting columns take the rest.
    """
    cfg = cache.cfg
    late = emit & (x >= cfg.alpha / 2.0)
    first = np.flatnonzero(~emit | late)
    for op, g in _q_groups(k[first], cache):
        Psi[:, first[g]] = np.dot(op.U, Psi[:, first[g]])
    cols = np.flatnonzero(emit)
    late = late[cols]
    w = np.where(late, x[cols] - cfg.alpha, x[cols])
    E = Psi[:, cols]
    for op, g in _q_groups(k[cols], cache):
        E[:, g[late[g]]] *= op.tail.conj()[:, None]
        E[:, g] = op.apply_pulse(E[:, g], w[g])
    # column j rolled by shift[j], as np.roll
    rows = np.arange(E.shape[0])[:, None] - shift[cols]
    E = E[rows % E.shape[0], np.arange(cols.size)]
    for op, g in _q_groups(k_after[cols], cache):
        Y = op.apply_pulse(E[:, g], -w[g])
        Y[:, late[g]] *= op.tail[:, None]
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
    exact unraveling of the emission map.  At q = 0, where the initial
    Gaussian is parity-even, that is run_decohered with the same model.
    "continuous" recoils by u*hbar, u uniform in [-1, 1], at a uniform
    on-pulse time.  q = k / Q_GRID on an integer key k, basis.q rounded
    and wrapped at the start; each emission adds round(Q_GRID u) to k.

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
    k0 = _ladder_split(round(basis.q * Q_GRID))[1]
    if continuous:
        cache = OperatorCache(cfg, basis.size, basis.hbar)
        basis = MomentumBasis(size=basis.size, hbar=basis.hbar,
                              q=k0 / Q_GRID)
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
        k = np.full(cols.size, k0)
        Psi = np.zeros((basis.size, cols.size), dtype=complex)
        Psi[n0, cols] = 1.0
        for t in range(kicks + 1):
            if t:
                emit = pool[cols, pos] < model.eta
                x, u = pool[cols, pos + 1], pool[cols, pos + 2]
                pos += 1 + emit * (1 + continuous)
            if t and continuous:
                # scaled as Generator.uniform(0, alpha) and (-1, 1) scale them
                recoil = np.rint(Q_GRID * (-1.0 + 2.0 * u)).astype(int)
                shift, k_after = _ladder_split(k + emit * recoil)
                _continuous_kick(Psi, k, k_after, emit, x * cfg.alpha,
                                 shift, cache)
                k = k_after
            elif t:
                Psi = U @ Psi
                # same periodic wrap as the emission map
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
