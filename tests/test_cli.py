"""Config parsing, experiment pipelines, manifests, sweeps."""

import ast
import dataclasses
import hashlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dkrotor
from dkrotor import cli
from dkrotor.cli import (ExperimentSpec, SpecError, load_spec, load_sweep,
                         main, run, sweep, validate)
from helpers import reflection, spec_to_config


def _write_config(tmp_path, body, name="exp.ini"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


def _classical_config(tmp_path, out, kicks=20, ensemble=1500, K="150"):
    return _write_config(tmp_path, f"""
[system]
K = {K}

[run]
mode = classical
kicks = {kicks}
ensemble = {ensemble}
seed = 4
out = {out}
""")


def test_spec_roundtrip_through_ini(tmp_path):
    spec = ExperimentSpec(mode="quantum", K=123.5, alpha=0.12, delta=0.2,
                          kicks=7, ensemble=50, eta=0.02,
                          decoherence="emission", seed=9, basis_size=128,
                          out="somewhere")
    path = tmp_path / "spec.ini"
    path.write_text(spec_to_config(spec))
    assert load_spec(str(path)) == spec


def test_load_spec_defaults():
    spec = ExperimentSpec()
    assert spec.mode == "classical"
    assert spec.K == 280.0
    assert spec.hbar == 2.6
    assert spec.sigma_p == pytest.approx(3.6 * np.pi)
    assert spec.basis_size == 128
    validate(spec)


def test_load_spec_rejects_unknown_and_malformed(tmp_path):
    with pytest.raises(SpecError) as err:
        load_spec(_write_config(tmp_path, "[magic]\nK = 1\n"))
    assert err.value.field == "magic"
    with pytest.raises(SpecError) as err:
        load_spec(_write_config(tmp_path, "[system]\nkraken = 1\n"))
    assert err.value.field == "system.kraken"
    with pytest.raises(SpecError) as err:
        load_spec(_write_config(tmp_path, "[system]\nK = strong\n"))
    assert err.value.field == "system.K"
    with pytest.raises(SpecError) as err:
        load_spec(_write_config(tmp_path, "[system]\nK = 80, 120\n"))
    assert "sweep" in err.value.message
    with pytest.raises(SpecError):
        load_spec(str(tmp_path / "missing.ini"))


@pytest.mark.parametrize("field,kwargs", [
    ("run.mode", {"mode": "wrong"}),
    ("system.K", {"K": -2.0}),
    ("system.alpha", {"alpha": 0.0}),
    ("system.delta", {"alpha": 0.2, "delta": 0.05}),
    ("system.delta", {"delta": 0.99}),
    ("system.hbar", {"hbar": -1.0}),
    ("system.sigma_p", {"sigma_p": 0.0}),
    ("run.kicks", {"kicks": 0}),
    ("run.ensemble", {"ensemble": 0}),
    ("run.realizations", {"realizations": 1}),
    ("run.eta", {"eta": 1.2}),
    ("run.decoherence", {"decoherence": "sometimes"}),
    ("run.seed", {"seed": -1}),
    ("run.basis_size", {"basis_size": 63}),
    ("system.delta", {"delta": 0.2}),
    ("system.alpha", {"alpha": 0.2}),
    ("run.decoherence", {"mode": "mc-wavefunction",
                         "decoherence": "anti-zeno"}),
    ("run.basis_size", {"mode": "quantum", "basis_size": 64}),
])
def test_validate_names_offending_field(field, kwargs):
    with pytest.raises(SpecError) as err:
        validate(ExperimentSpec(**kwargs))
    assert err.value.field == field
    report = err.value.report()
    assert report["error"] == "invalid-spec"
    assert report["field"] == field


def test_load_sweep_expands_cartesian(tmp_path):
    path = _write_config(tmp_path, """
[system]
K = 80, 120

[run]
kicks = 15
eta = 0, 0.05
""")
    pairs = load_sweep(path)
    assert [name for name, _ in pairs] == [
        "K=80_eta=0", "K=80_eta=0.05", "K=120_eta=0", "K=120_eta=0.05"]
    assert pairs[0][1].K == 80.0 and pairs[0][1].eta == 0.0
    assert pairs[3][1].K == 120.0 and pairs[3][1].eta == 0.05
    assert all(spec.kicks == 15 for _, spec in pairs)


def test_load_sweep_single_point_named_run(tmp_path):
    pairs = load_sweep(_classical_config(tmp_path, tmp_path / "o"))
    assert len(pairs) == 1
    assert pairs[0][0] == "run"


def test_load_sweep_rejects_empty_token(tmp_path):
    path = _write_config(tmp_path, "[system]\nK = 80,,120\n")
    with pytest.raises(SpecError) as err:
        load_sweep(path)
    assert err.value.field == "system.K"


def test_load_sweep_rejects_repeated_token(tmp_path):
    # two equal entries would name two runs alike and write one directory
    for value in ("80, 80", "80, 120, 80.0"):
        path = _write_config(tmp_path, f"[system]\nK = {value}\n")
        with pytest.raises(SpecError) as err:
            load_sweep(path)
        assert err.value.field == "system.K"
    path = _write_config(tmp_path, "[run]\nmode = quantum, quantum\n")
    with pytest.raises(SpecError) as err:
        load_sweep(path)
    assert err.value.field == "run.mode"


def test_load_sweep_names_runs_system_fields_first(tmp_path):
    path = _write_config(tmp_path, """
[run]
mode = quantum, wigner

[system]
K = 80, 120
""")
    pairs = load_sweep(path)
    assert [name for name, _ in pairs] == [
        "K=80_mode=quantum", "K=80_mode=wigner",
        "K=120_mode=quantum", "K=120_mode=wigner"]
    assert [(spec.K, spec.mode) for _, spec in pairs] == [
        (80.0, "quantum"), (80.0, "wigner"),
        (120.0, "quantum"), (120.0, "wigner")]


def test_sweep_files_do_not_depend_on_workers(tmp_path):
    # a classical sweep over K, and quantum-side runs on one system, whose
    # threads share its period operator and Floquet basis
    classical = """
[system]
K = 80, 180, 280

[run]
mode = classical
kicks = 12
ensemble = 1000
seed = 2
"""
    quantum = """
[system]
K = 180

[run]
mode = quantum, floquet, wigner
decoherence = none, anti-zeno
kicks = 3
basis_size = 128
"""
    for body, count, table in ((classical, 3, "flux_vs_K.csv"),
                               (quantum, 6, "strangeness.csv")):
        path = _write_config(tmp_path, body, name=table + ".ini")
        results = {}
        for workers in (1, 2):
            root = tmp_path / f"{table}_w{workers}"
            runs = sweep(load_sweep(path), root, workers=workers)
            results[workers] = (
                {name: manifest.files for name, manifest, _ in runs},
                (root / table).read_bytes())
        assert len(results[1][0]) == count
        assert results[2] == results[1]


def test_sweep_requires_pairs(tmp_path):
    with pytest.raises(ValueError, match="empty"):
        sweep([], tmp_path / "root")


def test_sweep_rejects_workers_below_one(tmp_path, capsys):
    path = _classical_config(tmp_path, tmp_path / "unused")
    root = tmp_path / "root"
    with pytest.raises(ValueError, match="workers must be >= 1"):
        sweep(load_sweep(path), root, workers=0)
    assert not root.exists()
    code = main(["sweep", "--config", path, "--out", str(root),
                 "--workers", "0"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid-value"
    assert "workers" in err["message"]
    assert not root.exists()


@pytest.mark.parametrize("verb", ["run", "validate"])
def test_only_sweep_takes_workers(tmp_path, capsys, verb):
    # a single run has nothing to run concurrently; argparse rejects the
    # flag before any output is written
    out = tmp_path / "unused"
    path = _classical_config(tmp_path, out)
    with pytest.raises(SystemExit) as exc:
        main([verb, "--config", path, "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert not out.exists()


def test_run_classical_outputs_and_manifest(tmp_path):
    out = tmp_path / "cls"
    spec = load_spec(_classical_config(tmp_path, out))
    manifest = run(spec)
    for name in ("momentum_histogram.csv", "outside_fraction.csv",
                 "flux_fit.json", "manifest.json"):
        assert (out / name).exists()
    # checksums in the manifest match the bytes on disk
    saved = json.loads((out / "manifest.json").read_text())
    assert saved["version"] == manifest.version
    assert saved["seeds"] == [4]
    assert saved["spec"]["K"] == 150.0
    for name, digest in saved["files"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    # histogram CSV: one row per momentum bin, kick columns plus p
    header = (out / "momentum_histogram.csv").read_text().splitlines()[0]
    cols = header.split(",")
    assert cols[0] == "p" and len(cols) == 22
    fit = json.loads((out / "flux_fit.json").read_text())
    assert fit["K"] == 150.0
    assert np.isfinite(fit["F"])


def test_run_byte_determinism(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run(load_spec(_classical_config(tmp_path, out_a, ensemble=800)))
    run(load_spec(_classical_config(tmp_path, out_b, ensemble=800)))
    for name in ("momentum_histogram.csv", "outside_fraction.csv",
                 "flux_fit.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_run_quantum_outputs(tmp_path):
    out = tmp_path / "qm"
    spec = ExperimentSpec(mode="quantum", K=180.0, kicks=6, basis_size=128,
                          out=str(out))
    run(spec)
    dist = (out / "momentum_distribution.csv").read_text().splitlines()
    assert dist[0].split(",")[:2] == ["n", "p"]
    assert len(dist) == 129
    diag = json.loads((out / "operator_diagnostics.json").read_text())
    assert diag["unitarity_defect"] < 1e-10
    assert 0.0 <= diag["edge_population"] <= 1.0


def test_run_quantum_decohered_outputs(tmp_path):
    out = tmp_path / "qe"
    spec = ExperimentSpec(mode="quantum", K=280.0, kicks=5, basis_size=128,
                          eta=0.05, decoherence="emission", out=str(out))
    run(spec)
    outside = (out / "outside_fraction.csv").read_text().splitlines()
    assert outside[0] == "kick,outside_fraction"
    assert len(outside) == 7


def test_run_floquet_outputs(tmp_path):
    out = tmp_path / "fl"
    spec = ExperimentSpec(mode="floquet", K=120.0, basis_size=128,
                          out=str(out))
    run(spec)
    quasi = (out / "quasi_energies.csv").read_text().splitlines()
    assert quasi[0] == "state,quasi_energy"
    assert len(quasi) == 129
    vals = [float(line.split(",")[1]) for line in quasi[1:]]
    assert vals == sorted(vals)
    matrix = (out / "asymptotic_matrix.csv").read_text().splitlines()
    assert len(matrix) == 129
    assert not (out / "asymptotic_matrix_log10.csv").exists()
    # the parity average is its own reflection n -> -n, n0 -> -n0; the
    # file holds it to 17 digits, so the two agree to roundoff
    M = np.loadtxt(out / "asymptotic_matrix.csv", delimiter=",",
                   skiprows=1)[:, 1:]
    r = reflection(128)
    np.testing.assert_allclose(M[r][:, r], M, rtol=0, atol=1e-15)
    diag = json.loads((out / "floquet_diagnostics.json").read_text())
    assert diag["unitarity_defect"] < 1e-10
    assert diag["basis_size"] == 128
    assert diag["reconstruction_residual"] < 1e-8
    # no degeneracy cut, so nothing to count against one
    assert "degenerate_clusters" not in diag
    assert "near_cut_gaps" not in diag


def test_floquet_matrix_does_not_depend_on_blas_threads(tmp_path):
    # the BLAS thread count reorders the sums inside LAPACK, so the
    # Floquet basis differs at roundoff between one and two threads, and
    # inside a parity doublet it may differ by any rotation.  The parity
    # average reads neither a cut nor the basis inside a doublet, so it
    # moves only as the eigenspaces do, by at most r / g for one at a gap
    # g from the rest of the spectrum, with r the residual
    # max |U_s O - O Lambda| of the Cayley route's basis: 1.2e-13 and
    # 4.7e-14 at one and two threads for the default config.  1e-12 holds
    # that worst case for gaps down to 0.12.  Closer pairs exist (the mean
    # spacing is 2 pi / N = 0.05); for them r / g is a worst case that a
    # residual spread over all N states does not reach.  1e-12 lies three
    # decades below the 1.1e-9 by which a matrix that hinges on a
    # degeneracy cut moved.  quasi_energies.csv is left out: doublets whose
    # quasi-energies agree to roundoff can swap their state labels.  The
    # coherent wigner grid reads rho after T = 70 kicks, taken through the
    # same basis, which rebuilds U to within N r in norm.
    # rho_T = U^T rho_0 U^-T then moves by at most 2 T N r per run,
    # 4 T N r between the two.  A coarse cell sums four FFT means over N
    # entries of rho and is divided by the total 2N, so it moves by at most
    # 8 T r = 6.7e-11; hence 1e-10
    for mode, name, atol in (("floquet", "asymptotic_matrix.csv", 1e-12),
                             ("wigner", "wigner_coarse.csv", 1e-10)):
        config = tmp_path / f"{mode}.ini"
        tables = []
        for threads in ("1", "2"):
            out = tmp_path / f"{mode}-threads{threads}"
            config.write_text(f"[run]\nmode = {mode}\nout = {out}\n")
            subprocess.run([sys.executable, "-m", "dkrotor.cli", "run",
                            "--config", str(config)], check=True,
                           env=_src_env(OPENBLAS_NUM_THREADS=threads,
                                        OMP_NUM_THREADS=threads))
            lines = (out / name).read_text().splitlines()
            tables.append((lines[0], np.loadtxt(lines[1:], delimiter=",")))
        (head1, M1), (head2, M2) = tables
        assert head1 == head2 and M1.shape == (128, 129)
        np.testing.assert_allclose(M2, M1, rtol=0, atol=atol)


def test_emission_distribution_does_not_depend_on_blas_threads(tmp_path):
    # the emission kick multiplies U's parity blocks, 129 and 127 rows at
    # N = 256; OpenBLAS sums such sizes in an order that depends on the
    # thread count, so the blocks are zero-padded to 136 and 128, and the
    # file keeps its bytes
    config = tmp_path / "emission.ini"
    files = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        config.write_text("[system]\nhbar = 1.3\n[run]\nmode = quantum\n"
                          "decoherence = emission\neta = 0.05\n"
                          f"basis_size = 256\nout = {out}\n")
        subprocess.run([sys.executable, "-m", "dkrotor.cli", "run",
                        "--config", str(config)], check=True,
                       env=_src_env(OPENBLAS_NUM_THREADS=threads,
                                    OMP_NUM_THREADS=threads))
        files.append((out / "momentum_distribution.csv").read_bytes())
    assert files[0] == files[1]


def _src_env(**variables):
    """The environment with this package's source first on PYTHONPATH."""
    src = str(Path(dkrotor.__file__).parents[1])
    return {**os.environ, **variables, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _loaded_by_cli_import(module):
    """Whether a fresh `import dkrotor.cli` puts module in sys.modules."""
    code = f"import sys, dkrotor.cli; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                         check=True, capture_output=True, text=True).stdout
    return out.strip() == "True"


def test_package_exports_its_public_names():
    public = {name for name, value in vars(dkrotor).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert len(dkrotor.__all__) == len(set(dkrotor.__all__))
    assert set(dkrotor.__all__) == public | {"__version__"}
    for name in dkrotor.__all__:
        getattr(dkrotor, name)
    # the decay rate, the model curves and the INI writer serve the tests
    # alone and live in tests/helpers.py
    assert not hasattr(dkrotor.diffusion, "model_inside")
    assert not hasattr(dkrotor.diffusion, "model_outside")
    assert not hasattr(dkrotor.diffusion, "decay_rate")
    assert not hasattr(cli, "spec_to_config")
    # keywords no caller set are module constants
    for fn, keyword in ((dkrotor.calibrate_packet_width, "targets"),
                        (dkrotor.calibrate_packet_width, "bounds"),
                        (dkrotor.two_packet_mixture, "offset"),
                        (dkrotor.two_packet_superposition, "offset")):
        assert keyword not in inspect.signature(fn).parameters
    # fields and methods only the tests read; the free phases belong to
    # the ladder, and the period operator is built in one step
    for owner, name in ((dkrotor.PeriodOperator, "free_phases"),
                        (dkrotor.PeriodOperator, "pulse_propagator"),
                        (dkrotor.FloquetDecomposition, "eigenvalues"),
                        (cli, "MODES")):
        assert not hasattr(owner, name), name
    for cls, names in ((dkrotor.ClassicalEnsemble, {"seed", "kick_count"}),
                       (dkrotor.MCResult, {"seed"}),
                       (dkrotor.WidthCalibration,
                        {"target_mixed", "target_superposed"})):
        assert not names & {f.name for f in dataclasses.fields(cls)}
    # one form per quantum object: decompose takes only a period operator,
    # which carries its own tail phases, and run_decohered alone applies
    # the emission map
    assert not hasattr(dkrotor, "spontaneous_emission_map")
    assert not hasattr(dkrotor.decoherence, "spontaneous_emission_map")
    assert "hbar" not in inspect.signature(dkrotor.decompose).parameters
    assert not hasattr(dkrotor.OperatorCache, "tail_phases")
    # the anti-Zeno projection is inlined where it acts; its oracle lives
    # in tests/helpers.py
    assert not hasattr(dkrotor, "anti_zeno_map")
    assert not hasattr(dkrotor.decoherence, "anti_zeno_map")
    # the histogram's window is derived from the drive's barrier
    assert not hasattr(dkrotor.classical, "HISTOGRAM_SPAN")


def test_names_perfbench_reaches_exist():
    # nothing runs perfbench/reference.py, and the tracer binds call
    # arguments by name, so a rename in dkrotor breaks either silently
    reference = Path(__file__).resolve().parents[1] / "perfbench/reference.py"
    imported = [alias.name for node in ast.walk(ast.parse(
                    reference.read_text()))
                if isinstance(node, ast.ImportFrom)
                and node.module == "dkrotor" for alias in node.names]
    assert imported
    for name in imported:
        assert hasattr(dkrotor, name), name
    assert hasattr(dkrotor.classical, "SEPARATRIX_BAND")
    assert callable(dkrotor.decoherence.OperatorCache.operator)
    for fn, names in ((dkrotor.kick_cycle, {"s"}),
                      (dkrotor.pendulum_step, {"s", "w", "K"}),
                      (dkrotor.evolve_density, {"op", "kicks"}),
                      (dkrotor.run_decohered, {"model", "op", "kicks"}),
                      (dkrotor.decompose, {"U"}),
                      (dkrotor.mc_wavefunction_run,
                       {"model", "kicks", "realizations"})):
        assert names <= set(inspect.signature(fn).parameters), fn.__name__
    # check_confinement's momentum_bin_edges() is pinned to +-35 pi by
    # test_momentum_bin_edges


def test_cli_import_leaves_out_scipy_optimize():
    # only the packet calibration minimizes; a CLI run must not pay for
    # importing scipy.optimize
    assert not _loaded_by_cli_import("scipy.optimize")


def test_cli_import_leaves_out_scipy_linalg():
    # only the pulse eigensolve needs scipy.linalg; a classical run must
    # not pay for importing it
    assert not _loaded_by_cli_import("scipy.linalg")


def test_run_wigner_outputs(tmp_path):
    out = tmp_path / "wg"
    spec = ExperimentSpec(mode="wigner", K=80.0, kicks=4, basis_size=128,
                          out=str(out))
    run(spec)
    grid = (out / "wigner_coarse.csv").read_text().splitlines()
    assert len(grid) == 129
    assert grid[0].startswith("P\\X")
    info = json.loads((out / "strangeness.json").read_text())
    assert info["S"] >= 0.0
    assert info["K"] == 80.0


def test_coherent_wigner_skips_the_kick_loop(tmp_path, monkeypatch):
    # a coherent wigner run reads only the final state, so it must not
    # run the per-kick loop; a decohered one still needs every kick
    def no_loop(*args, **kwargs):
        raise AssertionError("the per-kick coherent loop ran")

    monkeypatch.setattr(dkrotor.quantum, "evolve_density", no_loop)
    monkeypatch.setattr(dkrotor.decoherence, "evolve_density", no_loop)
    models = []
    run_decohered = cli.run_decohered

    def spy(rho0, op, model, kicks):
        models.append(model)
        return run_decohered(rho0, op, model, kicks)

    monkeypatch.setattr(cli, "run_decohered", spy)
    run(ExperimentSpec(mode="wigner", K=80.0, kicks=4,
                       out=str(tmp_path / "coherent")))
    assert models == []
    assert (tmp_path / "coherent" / "strangeness.json").exists()
    run(ExperimentSpec(mode="wigner", K=80.0, kicks=4, eta=0.05,
                       decoherence="emission", out=str(tmp_path / "emission")))
    assert models == [dkrotor.EmissionModel(eta=0.05)]


def test_consecutive_runs_share_one_period_operator(tmp_path, monkeypatch):
    # quantum in three channels, floquet and wigner on one system build
    # its operator once, solve its Floquet basis once and form U+ U once,
    # and write the same bytes as runs that each build their own
    counts = dict.fromkeys(("build", "eigensolve", "defect"), 0)

    def spy(owner, name, key):
        real = getattr(owner, name)

        def counted(*args):
            counts[key] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, counted)

    spy(cli, "build_period_operator", "build")
    spy(dkrotor.quantum, "_symmetric_eigh", "eigensolve")
    spy(dkrotor.quantum, "unitarity_defect", "defect")
    runs = [("quantum", "none"), ("quantum", "emission"),
            ("quantum", "anti-zeno"), ("floquet", "none"), ("wigner", "none")]

    def data_files(root, shared):
        files = {}
        for mode, deco in runs:
            if not shared:
                cli._period_operator.cache_clear()
            out = root / f"{mode}_{deco}"
            manifest = run(ExperimentSpec(
                mode=mode, decoherence=deco, eta=0.05, K=280.0, kicks=4,
                basis_size=128, out=str(out)))
            files.update({f"{out.name}/{name}": (out / name).read_bytes()
                          for name in manifest.files})
        return files

    cli._period_operator.cache_clear()
    shared = data_files(tmp_path / "shared", shared=True)
    assert counts == {"build": 1, "eigensolve": 1, "defect": 1}
    assert len(shared) == 14
    assert data_files(tmp_path / "fresh", shared=False) == shared
    assert counts["build"] == 6


def test_runs_that_differ_in_sigma_p_share_one_period_operator(
        tmp_path, monkeypatch):
    # U does not depend on sigma_p: quantum runs that vary it alone build
    # one operator, and each reads its start from its own spec
    builds = []
    build = cli.build_period_operator

    def counted(cfg, basis):
        builds.append(cfg)
        return build(cfg, basis)

    monkeypatch.setattr(cli, "build_period_operator", counted)

    def data_files(root, shared):
        files = {}
        for i, sigma_p in enumerate((11.31, 12.0, 11.31)):
            if not shared:
                cli._period_operator.cache_clear()
            out = root / f"run{i}"
            manifest = run(ExperimentSpec(
                mode="quantum", K=280.0, sigma_p=sigma_p, kicks=4,
                basis_size=128, out=str(out)))
            files.update({f"{out.name}/{name}": (out / name).read_bytes()
                          for name in manifest.files})
        return files

    cli._period_operator.cache_clear()
    shared = data_files(tmp_path / "shared", shared=True)
    assert len(builds) == 1
    name = "momentum_distribution.csv"
    assert shared[f"run0/{name}"] == shared[f"run2/{name}"]
    assert shared[f"run0/{name}"] != shared[f"run1/{name}"]
    assert data_files(tmp_path / "fresh", shared=False) == shared
    assert len(builds) == 4


@pytest.mark.parametrize("sigma_p,flagged", [(dkrotor.KickConfig.sigma_p,
                                              False), (200.0, True)])
def test_operator_diagnostics_flag_edge_population(tmp_path, sigma_p,
                                                   flagged):
    # an initial Gaussian as wide as the ladder puts weight on its ends
    out = tmp_path / "qm"
    run(ExperimentSpec(mode="quantum", K=180.0, kicks=2, sigma_p=sigma_p,
                       out=str(out)))
    diag = json.loads((out / "operator_diagnostics.json").read_text())
    assert diag["edge_population_flagged"] is flagged
    assert (diag["edge_population"] > dkrotor.quantum.EDGE_POPULATION_MAX
            ) is flagged


def test_run_mc_outputs(tmp_path):
    out = tmp_path / "mc"
    spec = ExperimentSpec(mode="mc-wavefunction", K=120.0, kicks=4,
                          basis_size=128, eta=0.05, decoherence="emission",
                          realizations=40, seed=3, out=str(out))
    run(spec)
    outside = (out / "outside_fraction.csv").read_text().splitlines()
    assert outside[0] == "kick,outside_fraction,stderr,realizations"
    assert outside[1].split(",")[3] == "40"


def test_run_cleans_partial_outputs_on_failure(tmp_path, monkeypatch):
    out = tmp_path / "broken"
    spec = load_spec(_classical_config(tmp_path, out))

    def boom(cfg, series, window=(5, 50)):
        raise RuntimeError("fit exploded")

    monkeypatch.setattr(cli, "fit_flux", boom)
    with pytest.raises(RuntimeError, match="fit exploded"):
        run(spec)
    assert not (out / "momentum_histogram.csv").exists()
    assert not (out / "outside_fraction.csv").exists()
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("mode", ["classical", "compare"])
@pytest.mark.parametrize("K,ensemble", [(1500, 2000), (500, 20_000)])
def test_run_refuses_a_drive_that_carries_points_beyond_the_histogram(
        tmp_path, capsys, K, ensemble, mode):
    # the torus at 30 pi has broken: points leave the +-35 pi histogram
    # from kick 2 at K = 1500, whose fit crashed on the crop, and from
    # kick 51 at K = 500 (seed 1); compare, whose classical curve reads
    # the same ensemble, refuses before any quantum work
    out = tmp_path / "lossy"
    path = _write_config(tmp_path, f"""
[system]
K = {K}

[run]
mode = {mode}
kicks = 70
ensemble = {ensemble}
seed = 1
out = {out}
""")
    assert main(["run", "--config", path]) == 2
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["field"]) == ("invalid-spec", "system.K")
    assert "35 pi" in err["message"] and "max |p|" in err["message"]
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("K,sigma_p,field,kick", [
    (1500, 60, "system.K", 3), (280, 150, "system.sigma_p", 0)])
def test_run_refuses_an_outside_fraction_beyond_the_fit(
        tmp_path, capsys, K, sigma_p, field, kick):
    # both starts lie partly beyond the +-35 pi histogram; the outside
    # fraction passes 2/3 + 0.05 at kick 3 (0.7345) and at kick 0 (0.8275)
    out = tmp_path / "over"
    path = _write_config(tmp_path, f"""
[system]
K = {K}
sigma_p = {sigma_p}

[run]
mode = classical
kicks = 70
ensemble = 2000
seed = 1
out = {out}
""")
    assert main(["run", "--config", path]) == 2
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["field"]) == ("invalid-spec", field)
    assert f"at kick {kick} exceeds 0.7167" in err["message"]
    assert list(out.iterdir()) == []


def test_run_leaves_out_the_histogram_of_a_start_beyond_it(tmp_path):
    # at the default drive, sigma_p = 10 pi puts 11 of 2e4 points beyond
    # +-35 pi at kick 0; the outside fraction and its fit are still written
    out = tmp_path / "wide"
    spec = ExperimentSpec(mode="classical", sigma_p=10.0 * np.pi, kicks=10,
                          ensemble=20_000, seed=1, out=str(out))
    with pytest.warns(UserWarning, match=r"^system\.sigma_p: 11 of 20000 "
                      r"points .* 35 pi at kick 0, max \|p\|"):
        manifest = run(spec)
    assert sorted(manifest.files) == ["flux_fit.json", "outside_fraction.csv"]
    assert sorted(p.name for p in out.iterdir()) == [
        "flux_fit.json", "manifest.json", "outside_fraction.csv"]


def test_sweep_isolates_failures(tmp_path, monkeypatch):
    root = tmp_path / "swp"
    path = _write_config(tmp_path, f"""
[system]
K = 80, 120

[run]
mode = classical
kicks = 20
ensemble = 400
out = unused
""")
    real_runner = cli._MODE_RUNNERS["classical"]

    def flaky(spec):
        if spec.K == 120.0:
            raise RuntimeError("third rail")
        return real_runner(spec)

    monkeypatch.setitem(cli._MODE_RUNNERS, "classical", flaky)
    results = sweep(load_sweep(path), root)
    by_name = {name: (m, e) for name, m, e in results}
    assert by_name["K=80"][1] is None
    assert by_name["K=120"][0] is None
    assert by_name["K=120"][1]["error"] == "runtime"
    report = json.loads((root / "sweep_report.json").read_text())
    assert report["failed"] == 1
    assert (root / "K=80" / "manifest.json").exists()
    # aggregate only covers the surviving run
    flux = (root / "flux_vs_K.csv").read_text().splitlines()
    assert len(flux) == 2
    assert flux[1].split(",")[0] == "80"


def test_sweep_writes_rejected_flux_fit_as_nan(tmp_path, capsys):
    # at sigma_p = 70 and 80 the ensemble starts beyond the fit window's
    # usable range, so fit_flux returns F = a = nan
    path = _write_config(tmp_path, """
[system]
K = 280
sigma_p = 60, 70, 80

[run]
mode = classical
kicks = 12
ensemble = 2000
seed = 1
""")
    root = tmp_path / "root"
    code = main(["sweep", "--config", path, "--out", str(root)])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["failed"] == []
    assert json.loads((root / "sweep_report.json").read_text())["failed"] == 0
    lines = (root / "flux_vs_K.csv").read_text().splitlines()
    assert lines[0] == "K,F,a,valid,run"
    assert len(lines) == 4
    assert lines[1].startswith("280,") and lines[1].endswith(",sigma_p=60")
    assert lines[2:] == ["280,nan,nan,false,sigma_p=70",
                         "280,nan,nan,false,sigma_p=80"]


def test_sweep_strangeness_rows_name_their_runs(tmp_path):
    # two runs with the same K and eta differ only in hbar; the run
    # column is what tells their rows apart
    path = _write_config(tmp_path, """
[system]
K = 80
hbar = 2.6, 2.0

[run]
mode = wigner
kicks = 4
basis_size = 128
""")
    root = tmp_path / "root"
    sweep(load_sweep(path), root)
    lines = (root / "strangeness.csv").read_text().splitlines()
    assert lines[0] == "K,eta,S,run"
    assert [line.split(",")[3] for line in lines[1:]] == ["hbar=2.6",
                                                          "hbar=2.0"]


def test_write_csv_matches_per_value_fmt(tmp_path):
    # CSV payloads of cli._write: a numeric table takes %d and %.17g per
    # column, a table with bool or string columns is spelled by _fmt and
    # written with %s; either way each value reads as _fmt spells it
    D, G = "%d", "%.17g"
    tables = [
        (("n", "p", "x"),
         [(np.int64(-3), np.float64(0.1), -0.0),
          (np.int64(7), np.float64(np.nan), np.inf),
          (12, 1.0 / 3.0, -np.inf)], [D, G, G]),
        (("k", "v"),
         [(0, 2.5), (np.int64(2**40), np.float64(1e-300))], [D, G]),
        (("K", "F", "a", "valid"),
         [(280.0, float("nan"), float("nan"), False),
          (80.0, 1.5e-4, -3.25e-6, np.bool_(True))], "%s"),
        (("label", "k", "v"),
         [("a", 0, 2.5), ("b", np.int64(2**40), np.float64(1e-300))], "%s"),
        (("only",), [], [G]),
    ]
    for i, (header, rows, fmt) in enumerate(tables):
        path = tmp_path / f"t{i}.csv"
        table = (np.array(rows, dtype=float) if fmt != "%s" else
                 [[cli._fmt(v) for v in row] for row in rows])
        cli._write(path, (header, table, fmt))
        expected = [",".join(header)] + [",".join(cli._fmt(v) for v in row)
                                         for row in rows]
        assert path.read_text() == "\n".join(expected) + "\n"
    assert (tmp_path / "t0.csv").read_text().splitlines()[1:] == [
        "-3,0.10000000000000001,-0", "7,nan,inf",
        "12,0.33333333333333331,-inf"]
    assert (tmp_path / "t1.csv").read_text().splitlines()[1:] == [
        "0,2.5", "1099511627776,1e-300"]
    assert (tmp_path / "t2.csv").read_text().splitlines()[1:] == [
        "280,nan,nan,false",
        "80,0.00014999999999999999,-3.2499999999999998e-06,true"]


def test_main_validate_ok(tmp_path, capsys):
    code = main(["validate", "--config",
                 _classical_config(tmp_path, tmp_path / "x")])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] is True
    assert payload["specs"][0]["K"] == 150.0
    assert payload["specs"][0]["name"] == "run"


def test_main_validate_bad_spec(tmp_path, capsys):
    path = _write_config(tmp_path, "[run]\neta = 3.0\n")
    code = main(["validate", "--config", path])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid-spec"
    assert err["field"] == "run.eta"


def test_main_run_with_overrides(tmp_path, capsys):
    custom = tmp_path / "custom"
    code = main(["run", "--config",
                 _classical_config(tmp_path, tmp_path / "ignored"),
                 "--seed", "7", "--out", str(custom)])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["seeds"] == [7]
    assert (custom / "manifest.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_main_sweep_reports_failures(tmp_path, capsys, monkeypatch):
    path = _write_config(tmp_path, """
[system]
K = 80, 120

[run]
mode = classical
kicks = 12
ensemble = 300
""")

    def flaky(spec):
        raise RuntimeError("no luck")

    monkeypatch.setitem(cli._MODE_RUNNERS, "classical", flaky)
    code = main(["sweep", "--config", path, "--out",
                 str(tmp_path / "root")])
    assert code == 1
    printed = json.loads(capsys.readouterr().out)
    assert printed["failed"] == ["K=80", "K=120"]


def test_main_rejects_bad_config_with_json_error(tmp_path, capsys):
    path = _write_config(tmp_path, "[system]\nK = -5\n")
    code = main(["run", "--config", path])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["field"] == "system.K"


def test_compare_mode_columns(tmp_path):
    out = tmp_path / "cmp"
    spec = ExperimentSpec(mode="compare", K=280.0, kicks=4, ensemble=400,
                          basis_size=128, realizations=20, out=str(out))
    run(spec)
    lines = (out / "comparison.csv").read_text().splitlines()
    assert lines[0] == "kick,classical,coherent,eta_002,eta_005,anti_zeno"
    assert len(lines) == 6
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == 0.0
