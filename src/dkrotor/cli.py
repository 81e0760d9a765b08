"""Batch front-end for the kicked-rotor pipelines.

One experiment per INI config file, two sections:

    [system]            pulse-train parameters (K, alpha, delta, hbar, sigma_p)
    [run]               mode, kicks, ensemble, realizations, eta,
                        decoherence, seed, basis_size, out

Verbs: ``run`` executes one config, ``sweep`` expands comma-separated
values into a Cartesian product of runs (failures isolated per run),
``validate`` checks a config without running.

Each mode's runner computes and yields its outputs one at a time as
(file name, payload) pairs; it opens no file.  ``run`` alone puts them
on disk through ``_write``: a dict payload as JSON, a (header, table,
formats) payload as CSV by ``np.savetxt`` with an explicit %-conversion
per column.  ``run`` then records every file with its sha256 checksum in
manifest.json, or on a failure removes the files it wrote.  Identical
spec and seed reproduce byte-identical data files on one BLAS thread
count.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import sys
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from functools import lru_cache
from itertools import product
from pathlib import Path

import numpy as np

from .classical import propagate_ensemble, sample_initial
from .decoherence import (ANTI_ZENO, DEFAULT_REALIZATIONS, EmissionModel,
                          mc_wavefunction_run, run_decohered)
from .diffusion import OUTSIDE_FRACTION_MAX, fit_flux
from .floquet import asymptotic_matrix, decompose
from .pulses import KickConfig, barrier
from .quantum import (EDGE_POPULATION_MAX, MomentumBasis,
                      build_period_operator, density_after, edge_population,
                      initial_density)
from .wigner import strangeness, wigner_transform

DECOHERENCE_CHOICES = ("none", "emission", ANTI_ZENO)


class SpecError(ValueError):
    """Invalid experiment spec, carrying the offending field name."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message

    def report(self) -> dict:
        return {"error": "invalid-spec", "field": self.field,
                "message": self.message}


@dataclass
class ExperimentSpec:
    """Everything one run needs; deterministic given (spec, seed).

    A field that KickConfig also has belongs to the [system] section of
    a config, every other one to [run].  Each field's default fixes its
    type, and the field order is the order of a serialized config and
    of a sweep's product and run names.  A default the library states
    is read from it.
    """

    K: float = 280.0
    alpha: float = KickConfig.alpha
    delta: float = KickConfig.delta
    hbar: float = KickConfig.hbar
    sigma_p: float = KickConfig.sigma_p
    mode: str = "classical"
    kicks: int = 70
    ensemble: int = 100_000
    realizations: int = DEFAULT_REALIZATIONS
    eta: float = 0.0
    decoherence: str = "none"
    seed: int = 0
    basis_size: int = MomentumBasis.size
    out: str = "out"

    def kick_config(self) -> KickConfig:
        return KickConfig(K=self.K, alpha=self.alpha, delta=self.delta,
                          hbar=self.hbar, sigma_p=self.sigma_p)

    def basis(self) -> MomentumBasis:
        return MomentumBasis(size=self.basis_size, hbar=self.hbar)


@dataclass
class RunManifest:
    spec: dict
    version: str
    wall_time: float
    seeds: list
    files: dict


_TYPES = {f.name: type(f.default) for f in fields(ExperimentSpec)}
_SYSTEM = {f.name for f in fields(KickConfig)}
_SECTION = {key: "system" if key in _SYSTEM else "run" for key in _TYPES}


def _field(key: str) -> str:
    return f"{_SECTION[key]}.{key}"


def _fmt(x) -> str:
    """17 significant digits, enough to round-trip though not always the
    shortest (0.1 is written 0.10000000000000001), so an integer below
    2^53 reads as itself; strings pass through, bools read true/false."""
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x)).lower()
    return format(float(x), ".17g")


def _coerce(key: str, text: str):
    typ = _TYPES[key]
    if typ is str:
        return text
    try:
        return typ(text)
    except ValueError:
        kind = "an integer" if typ is int else "a number"
        raise SpecError(_field(key),
                        f"expected {kind}, got {text!r}") from None


def _read(path) -> dict:
    """INI file -> {key: [tokens]} in field order.  Rejects unknown
    sections and keys, and empty or repeated comma-separated entries: a
    repeated value would give two sweep runs one name and directory."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        loaded = parser.read(path)
    except configparser.Error as exc:
        raise SpecError("config", str(exc)) from None
    if not loaded:
        raise SpecError("config", f"cannot read {path}")
    raw = {}
    for section in parser.sections():
        if section not in ("system", "run"):
            raise SpecError(section, "unknown section")
        for key, value in parser.items(section):
            if _SECTION.get(key) != section:
                raise SpecError(f"{section}.{key}", "unknown key")
            tokens = [tok.strip() for tok in value.split(",")]
            if any(not tok for tok in tokens):
                raise SpecError(_field(key), "empty list entry")
            if len({_coerce(key, tok) for tok in tokens}) < len(tokens):
                raise SpecError(_field(key), "repeated list entry")
            raw[key] = tokens
    return {key: raw[key] for key in _TYPES if key in raw}


def spec_from_values(values: dict) -> ExperimentSpec:
    spec = ExperimentSpec()
    return replace(spec, **{k: _coerce(k, v) for k, v in values.items()})


def load_spec(path) -> ExperimentSpec:
    raw = _read(path)
    for key, tokens in raw.items():
        if len(tokens) > 1:
            raise SpecError(_field(key),
                            "list values are only valid in sweep configs")
    return spec_from_values({key: tokens[0] for key, tokens in raw.items()})


def load_sweep(path) -> list:
    """Expand comma-separated values into named (name, spec) pairs."""
    lists = _read(path)
    varied = [key for key, tokens in lists.items() if len(tokens) > 1]
    pairs = []
    for combo in product(*lists.values()):
        values = dict(zip(lists, combo))
        name = "_".join(f"{key}={values[key]}" for key in varied) or "run"
        pairs.append((name, spec_from_values(values)))
    return pairs


def validate(spec: ExperimentSpec) -> None:
    """Raise SpecError naming the first offending field.

    The drive, its barrier, the ladder and the emission parameters are
    checked by building the library objects; each of their messages
    begins with the parameter it rejects.  A mode with a momentum ladder
    needs it to reach the torus at 3 p_b.  Whether a classical run puts
    a point beyond its histogram (run then warns or refuses), or its
    outside fraction beyond what the flux fit accepts (run refuses),
    depends on the sample, so validate cannot tell.
    """
    if spec.mode not in _MODE_RUNNERS:
        raise SpecError("run.mode",
                        f"must be one of {', '.join(_MODE_RUNNERS)}")
    try:
        torus = 3.0 * barrier(spec.kick_config()).cantorus
        spec.basis()
        EmissionModel(eta=spec.eta)
    except ValueError as exc:
        name = str(exc).split()[0]
        raise SpecError(_field("basis_size" if name == "size" else name),
                        str(exc)) from None
    if spec.mode != "classical" and spec.basis_size * spec.hbar / 2 < torus:
        raise SpecError("run.basis_size",
                        f"the ladder ends inside the torus at {torus:g}")
    if spec.kicks < 1:
        raise SpecError("run.kicks", "must be >= 1")
    if spec.ensemble < 1:
        raise SpecError("run.ensemble", "must be >= 1")
    if spec.realizations < 2:
        raise SpecError("run.realizations", "must be >= 2")
    if spec.decoherence not in DECOHERENCE_CHOICES:
        raise SpecError("run.decoherence",
                        f"must be one of {', '.join(DECOHERENCE_CHOICES)}")
    if spec.mode == "mc-wavefunction" and spec.decoherence == ANTI_ZENO:
        raise SpecError("run.decoherence", "mc-wavefunction unravels "
                        "emission only; anti-zeno has no trajectory model")
    if spec.seed < 0:
        raise SpecError("run.seed", "must be >= 0")


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    return value


def _dumps(payload) -> str:
    return json.dumps(_json_safe(payload), indent=2, sort_keys=True)


_D, _G = "%d", "%.17g"  # spell values as _fmt does


def _write(path: Path, payload) -> None:
    """Put one output on disk: a dict as JSON, a (header, table, fmt)
    triple as CSV, fmt being np.savetxt's %-conversion for each column
    or one for all of them."""
    if isinstance(payload, dict):
        path.write_text(_dumps(payload) + "\n")
    else:
        header, table, fmt = payload
        np.savetxt(path, table, fmt=fmt, delimiter=",",
                   header=",".join(header), comments="")


def _kick_header(prefix, kicks):
    return [prefix] + [f"kick_{t}" for t in range(kicks + 1)]


def _outside(outside):
    return (("kick", "outside_fraction"),
            np.column_stack([np.arange(len(outside)), outside]), [_D, _G])


def _distributions(basis, dists):
    kicks = len(dists) - 1
    return (["n"] + _kick_header("p", kicks),
            np.column_stack([basis.indices, basis.momenta, dists.T]),
            [_D] + [_G] * (kicks + 2))


def _propagate(spec, cfg):
    """spec's ensemble after each kick, and the message on a start beyond
    the histogram or None; a loss after kick 0 (a broken torus) is refused."""
    ensemble = sample_initial(cfg, spec.ensemble, spec.seed)
    result = propagate_ensemble(ensemble, cfg, spec.kicks)
    hist = result.histogram
    lost = spec.ensemble - hist.counts.sum(axis=1)
    t = int(np.argmax(lost > 0))
    loss = (f"{lost[t]} of {spec.ensemble} points lie beyond the histogram "
            f"|p| <= {hist.bin_edges[-1] / np.pi:g} pi at kick {t}, "
            f"max |p| = {result.max_abs_p[t] / np.pi:.4g} pi")
    if t:
        raise SpecError(_field("K"), loss)
    return result, loss if lost[0] else None


def _run_classical(spec):
    cfg = spec.kick_config()
    result, loss = _propagate(spec, cfg)
    hist = result.histogram
    outside = result.outside_fraction
    fitted = len(outside) >= 10
    t = int(np.argmax(outside > OUTSIDE_FRACTION_MAX))
    if fitted and outside[t] > OUTSIDE_FRACTION_MAX:
        # over the fit's bound from the start the ensemble is too wide;
        # reaching it later, the drive carries it past the model
        raise SpecError(_field("K" if t else "sigma_p"),
                        f"outside fraction {outside[t]:.4g} at kick {t} "
                        f"exceeds {OUTSIDE_FRACTION_MAX:.4g}, the largest "
                        "the three-region flux fit accepts")
    if loss:
        # a start wider than the window: the outside fraction and its fit
        # do not read the window, so only the histogram is left out
        warnings.warn(f"{_field('sigma_p')}: {loss}; "
                      "momentum_histogram.csv is not written", stacklevel=2)
    else:
        yield "momentum_histogram.csv", (
            _kick_header("p", spec.kicks),
            np.column_stack([hist.bin_centers, hist.counts.T]),
            [_G] + [_D] * (spec.kicks + 1))
    yield "outside_fraction.csv", _outside(outside)
    if fitted:
        fit = fit_flux(cfg, outside)
        yield "flux_fit.json", {**asdict(fit), "K": spec.K}


def _channel(spec):
    """The run_decohered model for spec.decoherence."""
    if spec.decoherence == "emission":
        return EmissionModel(eta=spec.eta)
    return ANTI_ZENO if spec.decoherence == ANTI_ZENO else None


@lru_cache(maxsize=1)
def _period_operator(K: float, alpha: float, delta: float,
                     basis: MomentumBasis):
    """build_period_operator, kept for the next run: consecutive runs on
    one drive and ladder share the operator, with the Floquet basis and
    unitarity defect it keeps, at a cost of about 8 MiB held at N = 512.
    U does not depend on sigma_p, so op.config.sigma_p is not the run's.
    The module name is looked up per build, so a wrapper sees each one.
    """
    return build_period_operator(
        KickConfig(K=K, alpha=alpha, delta=delta, hbar=basis.hbar), basis)


def _run_quantum(spec):
    op = _period_operator(spec.K, spec.alpha, spec.delta, spec.basis())
    result = run_decohered(initial_density(spec.kick_config(), op.basis), op,
                           _channel(spec), spec.kicks)
    yield "momentum_distribution.csv", _distributions(op.basis,
                                                      result.distributions)
    yield "outside_fraction.csv", _outside(result.outside_fraction)
    edge = edge_population(result.distributions)
    yield "operator_diagnostics.json", {
        "K": spec.K, "hbar": spec.hbar, "basis_size": spec.basis_size,
        "decoherence": spec.decoherence, "eta": spec.eta,
        "unitarity_defect": op.unitarity_defect,
        "edge_population": edge,
        "edge_population_flagged": edge > EDGE_POPULATION_MAX,
    }


def _run_floquet(spec):
    basis = spec.basis()
    dec = decompose(_period_operator(spec.K, spec.alpha, spec.delta, basis))
    order = np.argsort(dec.quasi_energies)
    yield "quasi_energies.csv", (
        ("state", "quasi_energy"),
        np.column_stack([order, dec.quasi_energies[order]]), [_D, _G])
    yield "asymptotic_matrix.csv", (
        ["n"] + [f"n0_{n}" for n in basis.indices],
        np.column_stack([basis.indices, asymptotic_matrix(dec)]),
        [_D] + [_G] * basis.size)
    yield "floquet_diagnostics.json", {
        "K": spec.K, "hbar": spec.hbar, "basis_size": spec.basis_size,
        "unitarity_defect": dec.unitarity_defect,
        "reconstruction_residual": dec.reconstruction_residual,
    }


def _run_wigner(spec):
    op = _period_operator(spec.K, spec.alpha, spec.delta, spec.basis())
    rho = initial_density(spec.kick_config(), op.basis)
    model = _channel(spec)
    # only the final state is read, so coherent runs skip the kicks
    # between; rebinding rho frees the initial state before the transform
    if model is None:
        rho = density_after(rho, op, spec.kicks)
    else:
        rho = run_decohered(rho, op, model, spec.kicks).final_density
    grid = wigner_transform(rho, op.basis)
    yield "wigner_coarse.csv", (
        ["P\\X"] + [_fmt(x) for x in grid.coarse_positions],
        np.column_stack([grid.coarse_momenta, grid.coarse]), _G)
    yield "strangeness.json", {
        "K": spec.K, "eta": spec.eta, "kicks": spec.kicks,
        "decoherence": spec.decoherence, "S": strangeness(grid),
        "norm_constant": grid.norm_constant,
    }


def _run_mc(spec):
    basis = spec.basis()
    model = EmissionModel(eta=spec.eta, recoil_mode="continuous")
    result = mc_wavefunction_run(spec.kick_config(), basis, model, spec.kicks,
                                 spec.seed, realizations=spec.realizations)
    yield "momentum_distribution.csv", _distributions(basis,
                                                      result.distributions)
    kicks = np.arange(spec.kicks + 1)
    yield "outside_fraction.csv", (
        ("kick", "outside_fraction", "stderr", "realizations"),
        np.column_stack([kicks, result.outside_fraction, result.outside_stderr,
                         np.full(len(kicks), result.realizations)]),
        [_D, _G, _G, _D])


def _run_compare(spec):
    cfg = spec.kick_config()
    basis = spec.basis()
    classical = _propagate(spec, cfg)[0].outside_fraction
    op = _period_operator(spec.K, spec.alpha, spec.delta, basis)
    rho0 = initial_density(cfg, basis)
    channels = (("coherent", None), ("eta_002", EmissionModel(eta=0.02)),
                ("eta_005", EmissionModel(eta=0.05)), ("anti_zeno", ANTI_ZENO))
    curves = [("classical", classical)] + [
        (name, run_decohered(rho0, op, model, spec.kicks).outside_fraction)
        for name, model in channels]
    yield "comparison.csv", (
        ["kick"] + [name for name, _ in curves],
        np.column_stack([np.arange(spec.kicks + 1)]
                        + [curve for _, curve in curves]),
        [_D] + [_G] * len(curves))


_MODE_RUNNERS = {
    "classical": _run_classical,
    "quantum": _run_quantum,
    "floquet": _run_floquet,
    "wigner": _run_wigner,
    "mc-wavefunction": _run_mc,
    "compare": _run_compare,
}
# the modes whose outputs depend on spec.seed
_SEEDED = ("classical", "mc-wavefunction", "compare")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(spec: ExperimentSpec) -> RunManifest:
    """Execute one pipeline; on failure remove partial outputs and re-raise."""
    validate(spec)
    out = Path(spec.out)
    out.mkdir(parents=True, exist_ok=True)
    written: list = []
    start = time.perf_counter()
    try:
        for name, payload in _MODE_RUNNERS[spec.mode](spec):
            path = out / name
            written.append(path)  # first, so a partial file is removed too
            _write(path, payload)
    except Exception:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    from . import __version__
    manifest = RunManifest(
        spec=asdict(spec),
        version=__version__,
        wall_time=time.perf_counter() - start,
        seeds=[spec.seed] if spec.mode in _SEEDED else [],
        files={path.name: _sha256(path) for path in sorted(written)})
    _write(out / "manifest.json", asdict(manifest))
    return manifest


def _run_named(name, spec, root):
    sub = replace(spec, out=str(Path(root) / name))
    try:
        return name, run(sub), None
    except SpecError as exc:
        return name, None, exc.report()
    except Exception as exc:
        return name, None, {"error": "runtime", "message": str(exc)}


def sweep(pairs, root, workers: int = 1) -> list:
    """Run named specs under root/<name>; failures are isolated per run.

    Returns (name, manifest-or-None, error-or-None) triples and writes
    sweep_report.json plus any cross-run aggregate tables.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("empty sweep")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(lambda item: _run_named(*item, root), pairs))
    _aggregate_sweep(results, root)
    report = {"runs": [{"name": name,
                        "status": "ok" if err is None else "failed",
                        "error": err}
                       for name, _, err in results],
              "failed": sum(1 for _, _, err in results if err is not None)}
    _write(root / "sweep_report.json", report)
    return results


def _aggregate_sweep(results, root: Path) -> None:
    """Collect per-run scalars into plot-ready tables, one row per run
    and named by it in the last column.  The rows hold bool and string
    values, so _fmt spells every value and the CSV takes them as %s."""
    flux_rows, s_rows = [], []
    for name, manifest, err in results:
        if err is not None:
            continue
        run_dir = root / name
        fit_path = run_dir / "flux_fit.json"
        if fit_path.exists():
            fit = json.loads(fit_path.read_text())
            # a rejected fit's nan F and a come back from JSON as null
            F, a = (np.nan if v is None else v for v in (fit["F"], fit["a"]))
            flux_rows.append((fit["K"], F, a, fit["valid"], name))
        s_path = run_dir / "strangeness.json"
        if s_path.exists():
            info = json.loads(s_path.read_text())
            s_rows.append((info["K"], info["eta"], info["S"], name))
    if flux_rows:
        flux_rows.sort(key=lambda r: r[0])
        _write(root / "flux_vs_K.csv", (
            ("K", "F", "a", "valid", "run"),
            [[_fmt(v) for v in row] for row in flux_rows], "%s"))
    if s_rows:
        s_rows.sort(key=lambda r: (r[0], r[1]))
        _write(root / "strangeness.csv", (
            ("K", "eta", "S", "run"),
            [[_fmt(v) for v in row] for row in s_rows], "%s"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dkrotor",
        description="kicked-rotor transport experiments: run, sweep, validate")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("run", "sweep", "validate"):
        p = sub.add_parser(verb)
        p.add_argument("--config", required=True, help="INI experiment config")
        p.add_argument("--seed", type=int, default=None,
                       help="override [run] seed")
        p.add_argument("--out", default=None, help="override output directory")
        if verb == "sweep":
            p.add_argument("--workers", type=int, default=1,
                           help="concurrent runs")
    args = parser.parse_args(argv)
    # in a sweep --out names the root; _run_named puts each run under it
    overrides = {key: value for key, value in
                 (("seed", args.seed), ("out", args.out)) if value is not None}

    try:
        if args.verb == "run":
            manifest = run(replace(load_spec(args.config), **overrides))
            print(_dumps(asdict(manifest)))
            return 0
        pairs = [(name, replace(spec, **overrides))
                 for name, spec in load_sweep(args.config)]
        for _, spec in pairs:
            validate(spec)
        if args.verb == "validate":
            print(_dumps({"valid": True, "specs": [
                {**asdict(spec), "name": name} for name, spec in pairs]}))
            return 0
        results = sweep(pairs, overrides.get("out", "sweep"),
                        workers=args.workers)
        failed = [name for name, _, err in results if err is not None]
        print(_dumps({"runs": len(results), "failed": failed}))
        return 1 if failed else 0
    except SpecError as exc:
        error, code = exc.report(), 2
    except ValueError as exc:
        error, code = {"error": "invalid-value", "message": str(exc)}, 2
    except Exception as exc:
        error, code = {"error": "runtime", "message": str(exc)}, 1
    print(_dumps(error), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
