"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

A small-size run of each workload passes its checks and reports the
metrics BENCHMARK.json names; each correctness check passes on the
outputs of a small round and fails once the output it inspects is
deliberately corrupted.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402  (puts the checkout's src/ on sys.path)
import checks  # noqa: E402
import workloads  # noqa: E402
from dkrotor import classical, quantum  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_small_run_passes_and_reports_end_to_end(name):
    proc = _run("--workload", name, "--seed", "5", "--seconds", "1",
                "--trace", "0", "--size", "small")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0


def test_traced_run_reports_every_layer():
    proc = _run("--workload", "mc-trajectories", "--seed", "5",
                "--seconds", "1", "--trace", "1", "--size", "small")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    layers = result["metrics"]
    assert layers["decoherence.operator_cache.builds"]["value"] > 0
    assert layers["classical.pendulum_step.calls"]["value"] == 0
    assert "PASS outputs_identical_across_rounds" in proc.stdout


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "classical-flux", "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ------------------------------------------------ checks against corruption

@pytest.fixture(scope="module")
def rounds(tmp_path_factory):
    """One small untraced round of each workload, run in this process."""
    out = {}
    for name in workloads.NAMES:
        base = tmp_path_factory.mktemp(name)
        wk = workloads.build(name, 5, base / "inputs", "small")
        r = worker.run_round(wk, base / "round_0")
        assert r.failed == 0
        out[name] = (wk, base / "round_0", r)
    return out


@pytest.fixture
def copy_round(rounds, tmp_path):
    def copy(name):
        wk, src, r = rounds[name]
        dst = tmp_path / name
        shutil.copytree(src, dst)
        return wk, dst, r
    return copy


def _edit_csv(path: Path, row: int, col: int, edit) -> None:
    """Replace the value at data row `row`, column `col` by edit(value)."""
    lines = path.read_text().splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = repr(edit(float(cells[col])))
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _edit_json(path: Path, key: str, value) -> None:
    payload = json.loads(path.read_text())
    payload[key] = value
    path.write_text(json.dumps(payload))


def test_every_check_passes_on_small_rounds(rounds):
    for name, (wk, d, r) in rounds.items():
        for c in checks.run_checks(wk, d, r.data):
            assert c.ok, (name, c)


def test_fingerprints_repeat_and_tell_outputs_apart(rounds, tmp_path):
    wk, _, r = rounds["mc-trajectories"]
    again = worker.run_round(wk, tmp_path / "again")
    assert again.fingerprint == r.fingerprint
    other = workloads.build("mc-trajectories", 6, tmp_path / "inputs", "small")
    r6 = worker.run_round(other, tmp_path / "seed6")
    assert r6.fingerprint.keys() == r.fingerprint.keys()
    assert all(r6.fingerprint[k] != v for k, v in r.fingerprint.items())


def test_classical_oracle_checks_catch_a_wrong_map(monkeypatch):
    assert checks.check_kick_cycle_oracle(5).ok
    assert checks.check_energy_conservation(5).ok
    cycle, step = classical.kick_cycle, classical.pendulum_step
    monkeypatch.setattr(classical, "kick_cycle", lambda s, cfg: (
        classical.PhasePoint(cycle(s, cfg).phi, cycle(s, cfg).p + 1e-6)))
    monkeypatch.setattr(classical, "pendulum_step", lambda s, w, K: (
        classical.PhasePoint(step(s, w, K).phi, step(s, w, K).p * (1 + 1e-9))))
    assert not checks.check_kick_cycle_oracle(5).ok
    assert not checks.check_energy_conservation(5).ok


def test_classical_file_checks_catch_corruption(copy_round):
    wk, d, _ = copy_round("classical-flux")
    sweep = d / "flux_sweep"
    n = wk.dims["ensemble"]
    run180, run280 = sweep / "K=180.0", sweep / "K=280.0"

    _edit_csv(run180 / "momentum_histogram.csv", 60, 5, lambda v: v + 1)
    assert not checks.check_histogram_rows(sweep, n).ok

    _edit_csv(run280 / "outside_fraction.csv", 0, 1, lambda v: 0.05)
    assert not checks.check_kick0_outside(sweep, n).ok

    assert checks.check_confinement(sweep).ok
    _edit_csv(run280 / "momentum_histogram.csv", 127, 40, lambda v: v + 1)
    assert not checks.check_confinement(sweep).ok

    assert checks.check_flux_rises(sweep).ok
    _edit_json(run280 / "flux_fit.json", "rejected", True)
    assert not checks.check_flux_rises(sweep).ok
    _edit_json(run280 / "flux_fit.json", "rejected", False)
    assert checks.check_flux_rises(sweep).ok
    _edit_csv(sweep / "flux_vs_K.csv", 2, 1, lambda v: 100.0)
    assert not checks.check_flux_rises(sweep).ok


def test_sealed_barrier_flux_must_be_near_zero(copy_round):
    _, d, _ = copy_round("classical-flux")
    sweep = d / "flux_sweep"
    _edit_csv(sweep / "flux_vs_K.csv", 0, 1, lambda v: -0.2)
    assert not checks.check_flux_rises(sweep).ok


def test_mc_checks_catch_corruption(copy_round):
    _, d, r = copy_round("mc-trajectories")
    mc_dir = d / "mc_continuous"
    result = r.data["mc_discretized"]
    shifted = dataclasses.replace(
        result, outside_fraction=result.outside_fraction + 0.05)
    assert not checks.check_unraveling(shifted).ok

    skewed = dataclasses.replace(result,
                                 distributions=result.distributions * 1.001)
    assert not checks.check_distribution_rows(mc_dir, skewed).ok
    _edit_csv(mc_dir / "momentum_distribution.csv", 64, 10,
              lambda v: v + 1e-6)
    assert not checks.check_distribution_rows(mc_dir, result).ok

    last = 70
    _edit_csv(mc_dir / "outside_fraction.csv", last, 1, lambda v: 0.1)
    assert not checks.check_continuous_transport(mc_dir).ok
    _edit_csv(mc_dir / "outside_fraction.csv", last, 1, lambda v: 0.7)
    assert not checks.check_continuous_transport(mc_dir).ok


def test_period_operator_check_catches_a_wrong_operator(monkeypatch):
    ladder = workloads.SIZES["small"]["ladder"][:1]
    assert checks.check_period_operator(ladder).ok
    build = quantum.build_period_operator

    def skewed(cfg, basis):
        op = build(cfg, basis)
        op.U = op.U * np.exp(1e-8j)
        return op
    monkeypatch.setattr(quantum, "build_period_operator", skewed)
    assert not checks.check_period_operator(ladder).ok


def test_ladder_file_checks_catch_corruption(copy_round):
    wk, d, _ = copy_round("quantum-ladder")
    ladder = wk.dims["ladder"]
    q128 = d / "quantum_N128_none"

    _edit_csv(d / "quantum_N256_anti-zeno" / "momentum_distribution.csv",
              128, 40, lambda v: v + 1e-6)
    assert not checks.check_trace(d, ladder).ok

    _edit_json(d / "quantum_N128_emission" / "operator_diagnostics.json",
               "edge_population", 1e-3)
    assert not checks.check_edge_population(d, ladder).ok

    _edit_csv(d / "floquet_N128" / "asymptotic_matrix.csv", 3, 5,
              lambda v: v + 1e-6)
    assert not checks.check_asymptotic_matrix(d, ladder).ok

    assert checks.check_wigner(d, ladder).ok
    _edit_csv(q128 / "momentum_distribution.csv", 64, 72, lambda v: v + 1e-6)
    assert not checks.check_wigner(d, ladder).ok

    _edit_json(d / "wigner_N256" / "strangeness.json", "S", -0.1)
    assert not checks.check_strangeness(d, ladder).ok

    assert checks.check_decoherence_ordering(d, ladder).ok
    _edit_csv(d / "quantum_N256_emission" / "outside_fraction.csv", 70, 1,
              lambda v: 0.01)
    assert not checks.check_decoherence_ordering(d, ladder).ok

    assert checks.check_hbar_scaling(d, ladder).ok
    _edit_csv(q128 / "outside_fraction.csv", 70, 1, lambda v: 0.9)
    assert not checks.check_hbar_scaling(d, ladder).ok
