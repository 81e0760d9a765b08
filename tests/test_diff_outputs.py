"""tools/diff_outputs.py: its run matrix, number parsing and file diff."""

import sys
from pathlib import Path

import pytest

from dkrotor.cli import load_spec, validate

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import diff_outputs  # noqa: E402


def test_matrix_configs_are_valid_specs(tmp_path):
    # every mode and channel at K = 280, and N = 512 quantum, floquet
    # and wigner
    seen = set()
    for name, settings in diff_outputs.MATRIX.items():
        path = tmp_path / f"{name}.ini"
        path.write_text(diff_outputs.config_text(settings, tmp_path / name))
        spec = load_spec(path)
        validate(spec)
        assert (spec.K, spec.seed, spec.out) == (280.0, 11,
                                                str(tmp_path / name))
        seen.add((spec.mode, spec.decoherence, spec.basis_size))
    for mode in ("quantum", "wigner"):
        for channel in ("none", "emission", "anti-zeno"):
            assert (mode, channel, 128) in seen
    assert {"classical", "compare", "floquet", "mc-wavefunction"} <= {
        mode for mode, _, _ in seen}
    assert {("quantum", "none", 512), ("floquet", "none", 512),
            ("wigner", "none", 512)} <= seen


def test_split_numbers_keeps_names_and_reads_values():
    skeleton, values = diff_outputs.split_numbers(
        "n,p,kick_0,n0_-64\n-64,-166.4,1e-05,nan\n")
    assert skeleton == "n,p,kick_0,n0_-64\n#,#,#,#\n"
    assert values[:3] == [-64.0, -166.4, 1e-05]
    assert values[3] != values[3]
    skeleton, values = diff_outputs.split_numbers(
        '{\n  "F": null,\n  "fit_window": [\n    5,\n    50\n  ],\n'
        '  "valid": false,\n  "a": -0.0123\n}\n')
    assert skeleton == ('{\n  "F": null,\n  "fit_window": [\n    #,\n    #\n'
                        '  ],\n  "valid": false,\n  "a": #\n}\n')
    assert values == [5.0, 50.0, -0.0123]


@pytest.mark.parametrize("old,new,result", [
    ("kick,x\n0,0.5\n1,nan\n", "kick,x\n0,0.5\n1,nan\n", "identical"),
    # the same numbers spelled differently are no difference
    ("kick,x\n0,0.5\n1,nan\n", "kick,x\n0,0.50\n1,nan\n",
     "max |diff| 0 (rel 0)"),
    ("kick,x\n0,0.5\n1,0.25\n", "kick,x\n0,0.5\n1,0.25000000000000006\n",
     "max |diff| 5.55e-17 (rel 2.2e-16)"),
    # one ulp of a value near 1024 is large in absolute terms only
    ('{"norm_constant": 1023.999999999965, "S": 0.5}\n',
     '{"norm_constant": 1023.9999999999652, "S": 0.5}\n',
     "max |diff| 2.27e-13 (rel 2.2e-16)"),
    ("kick,x\n0,0.5\n1,nan\n", "kick,x\n0,0.5\n1,0.25\n",
     "max |diff| inf (rel inf)"),
    ("kick,x\n0,0.5\n1,inf\n", "kick,x\n0,0.5\n1,0.25\n",
     "max |diff| inf (rel inf)"),
    ('{"S": 0.5, "valid": true}\n', '{"S": 0.5, "valid": false}\n',
     "text differs"),
    ("kick,x\n0,0.5\n", "kick,x\n0,0.5\n1,0.25\n", "text differs"),
])
def test_compare_files(tmp_path, old, new, result):
    (tmp_path / "old").write_text(old)
    (tmp_path / "new").write_text(new)
    assert diff_outputs.compare_files(tmp_path / "old",
                                      tmp_path / "new") == result


def test_compare_trees_reports_every_data_file(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    for root, value in ((old, "0.5"), (new, "0.75")):
        (root / "run").mkdir(parents=True)
        (root / "run" / "a.csv").write_text(f"x\n{value}\n")
        (root / "run" / "same.json").write_text('{"K": 280.0}\n')
        (root / "run" / "manifest.json").write_text(f'{{"wall": {value}}}\n')
        (root / "run.ini").write_text(f"[run]\nout = {root}\n")
    (old / "run" / "gone.csv").write_text("x\n1\n")
    assert diff_outputs.compare_trees(old, new) == [
        (Path("run/a.csv"), "max |diff| 0.25 (rel 0.33)"),
        (Path("run/gone.csv"), "only in old"),
        (Path("run/same.json"), "identical"),
    ]
