"""Compare the data files of two source trees over one fixed run matrix.

    python3 tools/diff_outputs.py OLD NEW [--work DIR]

OLD and NEW are checkouts of this repository (a `git archive` copy of a
parent commit, say, and the working tree).  Every config of MATRIX runs
as `dkrotor run` in each, with that tree's `src` on PYTHONPATH and
THREADS BLAS threads for both, since the thread count moves
floating-point sums.  Each data file is then reported as `identical`
(the same bytes), by the largest absolute and the largest relative
difference, |x - y| / max(|x|, |y|), between the numbers the two files
hold, or as differing in its text around those numbers.  The relative
one tells a one-ulp move of a large value from a real move.
manifest.json is left out: it records the wall time.

The matrix covers every mode and decoherence channel at K = 280 and the
default ladder (N = 128), and quantum, floquet and wigner runs at
N = 512.  It uses only the standard library, so it runs against any
tree.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SEED = 11
THREADS = 1
_N512 = {"hbar": "0.65", "basis_size": "512"}
# run name -> [system] and [run] keys; the rest are the CLI defaults
MATRIX = {
    "classical": {"mode": "classical"},
    "compare": {"mode": "compare", "ensemble": "10000"},
    "floquet": {"mode": "floquet"},
    "mc-wavefunction": {"mode": "mc-wavefunction", "eta": "0.05",
                        "decoherence": "emission", "realizations": "1000"},
    **{f"{mode}-{channel}": {"mode": mode, "decoherence": channel,
                             **({"eta": "0.05"} if channel == "emission"
                                else {})}
       for mode in ("quantum", "wigner")
       for channel in ("none", "emission", "anti-zeno")},
    "quantum-none-N512": {"mode": "quantum", **_N512},
    "quantum-emission-N512": {"mode": "quantum", "decoherence": "emission",
                              "eta": "0.05", **_N512},
    "floquet-N512": {"mode": "floquet", **_N512},
    "wigner-none-N512": {"mode": "wigner", **_N512},
    "wigner-emission-N512": {"mode": "wigner", "decoherence": "emission",
                             "eta": "0.05", **_N512},
}
SYSTEM_KEYS = ("K", "alpha", "delta", "hbar", "sigma_p")
# a number standing alone: not part of a name such as kick_3 or n0_-64
NUMBER = re.compile(r"(?<![\w.+-])[-+]?(?:(?:\d+\.?\d*|\.\d+)"
                    r"(?:[eE][-+]?\d+)?|nan|inf)(?![\w.])")


def config_text(settings: dict, out: Path) -> str:
    """The INI config of one matrix entry, writing into out."""
    settings = {"K": "280", "seed": str(SEED), **settings, "out": str(out)}
    system = [f"{k} = {v}" for k, v in settings.items() if k in SYSTEM_KEYS]
    rest = [f"{k} = {v}" for k, v in settings.items() if k not in SYSTEM_KEYS]
    return "\n".join(["[system]", *system, "", "[run]", *rest, ""])


def run_matrix(tree: Path, work: Path) -> None:
    """Run every MATRIX config in tree, each into work/<name>."""
    env = {**os.environ, "PYTHONPATH": str(tree.resolve() / "src"),
           "OPENBLAS_NUM_THREADS": str(THREADS),
           "OMP_NUM_THREADS": str(THREADS)}
    for name, settings in MATRIX.items():
        config = work / f"{name}.ini"
        config.write_text(config_text(settings, work / name))
        proc = subprocess.run(
            [sys.executable, "-m", "dkrotor.cli", "run", "--config",
             str(config)], env=env, capture_output=True, text=True)
        if proc.returncode:
            raise RuntimeError(f"{tree}: {name} exited {proc.returncode}: "
                               f"{proc.stderr.strip()}")


def split_numbers(text: str) -> tuple:
    """(skeleton, values): text with each standalone number replaced by
    '#', and those numbers as floats in order."""
    values = [float(m) for m in NUMBER.findall(text)]
    return NUMBER.sub("#", text), values


def _distance(x: float, y: float) -> tuple:
    """(|x - y|, |x - y| / max(|x|, |y|)); NaN is 0 from NaN and inf from
    any number."""
    if math.isnan(x) or math.isnan(y):
        d = 0.0 if math.isnan(x) and math.isnan(y) else math.inf
        return d, d
    if x == y:
        return 0.0, 0.0
    d = abs(x - y)
    return d, (d / max(abs(x), abs(y)) if math.isfinite(d) else d)


def compare_files(old: Path, new: Path) -> str:
    """'identical', 'max |diff| <d> (rel <r>)', or how the texts differ."""
    a, b = old.read_bytes(), new.read_bytes()
    if a == b:
        return "identical"
    (skel_a, vals_a), (skel_b, vals_b) = (split_numbers(t.decode())
                                          for t in (a, b))
    if skel_a != skel_b or len(vals_a) != len(vals_b):
        return "text differs"
    absolute, relative = map(max, zip(*map(_distance, vals_a, vals_b)))
    return f"max |diff| {absolute:.3g} (rel {relative:.2g})"


def compare_trees(old: Path, new: Path) -> list:
    """(relative path, result) for every data file under either root."""
    def files(root):
        return {p.relative_to(root) for p in root.rglob("*")
                if p.is_file() and p.suffix != ".ini"
                and p.name != "manifest.json"}

    found_old, found_new = files(old), files(new)
    return [(rel, compare_files(old / rel, new / rel)
             if rel in found_old and rel in found_new
             else "only in " + ("old" if rel in found_old else "new"))
            for rel in sorted(found_old | found_new)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old", type=Path, help="source tree to compare from")
    parser.add_argument("new", type=Path, help="source tree to compare to")
    parser.add_argument("--work", type=Path, default=None,
                        help="where the outputs go (default: a temporary "
                             "directory, removed afterwards)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or Path(tmp)
        for side, tree in (("old", args.old), ("new", args.new)):
            (work / side).mkdir(parents=True, exist_ok=True)
            run_matrix(tree, work / side)
        report = compare_trees(work / "old", work / "new")
    width = max(len(str(rel)) for rel, _ in report)
    for rel, result in report:
        print(f"{str(rel):<{width}}  {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
