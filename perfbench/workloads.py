"""The three benchmark workloads: inputs made from the seed, the
operations of one round, and a warm-up.

Every operation goes through the public interface a user drives: the
`dkrotor` command-line entry point (`cli.main`) on an INI config written
at set-up, except the discretized-recoil trajectory run, which has no
CLI mode and is called as `decoherence.mc_wavefunction_run`.  Library
functions are looked up through their module at call time, so the
wrappers of the traced run see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from dkrotor import cli, decoherence, pulses, quantum

KICKS = 70
K_SWEEP = (80.0, 180.0, 280.0, 400.0)
MC_K = 280.0
MC_ETA = 0.05
LADDER_K = 280.0
LADDER_ETA = 0.05
# (hbar, N): the ladder always spans |p| <= N*hbar/2 = 166.4, beyond the
# +-30*pi tori, so only the resolution of the momentum grid changes
LADDER = ((2.6, 128), (1.3, 256), (0.65, 512))
DECOHERENCE = ("none", "emission", "anti-zeno")

# "full" is what the benchmark measures; "small" keeps every operation
# and check of a workload at a size its own tests can afford
SIZES = {
    "full": {"ensemble": 10_000, "realizations": 1000, "ladder": LADDER},
    "small": {"ensemble": 2000, "realizations": 200, "ladder": LADDER[:2]},
}

NAMES = ("classical-flux", "mc-trajectories", "quantum-ladder")


@dataclass
class Operation:
    """One unit of program work inside a round.

    run(round_dir) executes it and returns (failed, data); fingerprint
    (round_dir, data) hashes what it produced, so rounds and the traced
    run can be compared byte for byte.  count is the number of program
    operations it stands for (a sweep runs one per grid point).
    """

    name: str
    run: Callable
    fingerprint: Callable
    count: int = 1


@dataclass
class Workload:
    name: str
    seed: int
    dims: dict
    inputs: Path
    operations: list


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_config(path: Path, system: dict, run: dict) -> Path:
    lines = ["[system]"]
    lines += [f"{k} = {v}" for k, v in system.items()]
    lines += ["", "[run]"]
    lines += [f"{k} = {v}" for k, v in run.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


def _cli_main(argv) -> int:
    # cli.main prints the run manifest; the benchmark's stdout carries
    # only its own report
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _manifest_files(run_dir: Path) -> dict:
    files = json.loads((run_dir / "manifest.json").read_text())["files"]
    return {f"{run_dir.name}/{k}": v for k, v in files.items()}


def _cli_run_op(name: str, config: Path) -> Operation:
    def run(round_dir):
        rc = _cli_main(["run", "--config", str(config),
                        "--out", str(round_dir / name)])
        return int(rc != 0), None

    def fingerprint(round_dir, _):
        return _manifest_files(round_dir / name)

    return Operation(name, run, fingerprint)


def _cli_sweep_op(name: str, config: Path, points: int) -> Operation:
    def run(round_dir):
        _cli_main(["sweep", "--config", str(config),
                   "--out", str(round_dir / name)])
        report = round_dir / name / "sweep_report.json"
        if not report.exists():
            return points, None
        return int(json.loads(report.read_text())["failed"]), None

    def fingerprint(round_dir, _):
        root = round_dir / name
        out = {f"{name}/flux_vs_K.csv": _sha256(root / "flux_vs_K.csv")}
        for sub in sorted(p for p in root.iterdir() if p.is_dir()):
            out.update({f"{name}/{k}": v
                        for k, v in _manifest_files(sub).items()})
        return out

    return Operation(name, run, fingerprint, count=points)


def _mc_discretized_op(name: str, seed: int, realizations: int) -> Operation:
    cfg = pulses.KickConfig(K=MC_K)
    basis = quantum.MomentumBasis(size=128, hbar=cfg.hbar)

    def run(round_dir):
        result = decoherence.mc_wavefunction_run(
            cfg, basis, decoherence.EmissionModel(eta=MC_ETA), KICKS, seed,
            realizations=realizations, workers=1)
        return 0, result

    def fingerprint(round_dir, result):
        if result is None:
            return {}
        h = hashlib.sha256()
        for arr in (result.distributions, result.outside_fraction,
                    result.outside_stderr):
            h.update(np.ascontiguousarray(arr).tobytes())
        return {name: h.hexdigest()}

    return Operation(name, run, fingerprint)


def build(name: str, seed: int, inputs: Path, size: str = "full") -> Workload:
    """Write the workload's configs under `inputs` and list its operations."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; one of {NAMES}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    dims = SIZES[size]
    inputs.mkdir(parents=True, exist_ok=True)
    ops = []
    if name == "classical-flux":
        config = _write_config(
            inputs / "flux_sweep.ini",
            {"K": ", ".join(str(k) for k in K_SWEEP)},
            {"mode": "classical", "kicks": KICKS,
             "ensemble": dims["ensemble"], "seed": seed})
        ops.append(_cli_sweep_op("flux_sweep", config, len(K_SWEEP)))
    elif name == "mc-trajectories":
        config = _write_config(
            inputs / "mc_continuous.ini", {"K": MC_K},
            {"mode": "mc-wavefunction", "kicks": KICKS, "eta": MC_ETA,
             "realizations": dims["realizations"], "seed": seed})
        ops.append(_cli_run_op("mc_continuous", config))
        ops.append(_mc_discretized_op("mc_discretized", seed,
                                      dims["realizations"]))
    else:
        for hbar, n in dims["ladder"]:
            system = {"K": LADDER_K, "hbar": hbar}
            base = {"kicks": KICKS, "basis_size": n, "seed": seed}
            for deco in DECOHERENCE:
                tag = f"quantum_N{n}_{deco}"
                run = {**base, "mode": "quantum", "decoherence": deco}
                if deco == "emission":
                    run["eta"] = LADDER_ETA
                ops.append(_cli_run_op(
                    tag, _write_config(inputs / f"{tag}.ini", system, run)))
            for mode in ("floquet", "wigner"):
                tag = f"{mode}_N{n}"
                ops.append(_cli_run_op(tag, _write_config(
                    inputs / f"{tag}.ini", system, {**base, "mode": mode})))
    return Workload(name, seed, dims, inputs, ops)


def warm_up(workload: Workload, out_dir: Path) -> None:
    """Run each operation kind of the workload once, at a small size.

    Lazy imports, first-touch allocation and BLAS thread start-up then
    land in set-up, not in the first timed round.
    """
    if workload.name == "quantum-ladder":
        # one of each mode at the smallest ladder size
        ops = [op for op in workload.operations
               if op.name.endswith(("N128_none", "N128"))]
    elif workload.name == "classical-flux":
        config = _write_config(
            workload.inputs / "warm_up.ini", {"K": K_SWEEP[-1]},
            {"mode": "classical", "kicks": 10, "ensemble": 2000, "seed": 0})
        ops = [_cli_run_op("warm_up", config)]
    else:
        cfg = pulses.KickConfig(K=MC_K)
        basis = quantum.MomentumBasis(size=128, hbar=cfg.hbar)
        for mode in ("continuous", "discretized"):
            decoherence.mc_wavefunction_run(
                cfg, basis, decoherence.EmissionModel(MC_ETA, mode), 10, 0,
                realizations=20)
        ops = []
    for op in ops:
        op.run(out_dir)
