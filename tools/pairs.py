"""Run the benchmark in pairs on two checkouts and record the spread.

    python3 tools/pairs.py PARENT TREE [--out BENCH.json]

PARENT and TREE are checkouts of this repository (a `git archive` copy
of a parent commit, say, and a copy of the working tree).  Each pair runs
`perfbench/run.py --trace 0` once in each checkout, unchanged, with the
same seed and BENCHMARK.json's run_seconds, and alternates which side
goes first.  It runs PAIRS pairs of every workload of BENCHMARK.json.
The last line of each run's standard output is its JSON report.

The output file holds, per workload and end-to-end metric of
BENCHMARK.json, the values of each pair, each side's median and
quartiles, and the number of pairs the tree won; per workload, the
correct and failed counts of each side; and the core count,
OPENBLAS_NUM_THREADS, the Python, numpy and scipy versions, and the BLAS
vendor and version that numpy.show_config reports.  The
quartiles are statistics.quantiles(values, n=4), with which
perfbench/README.md defines a workload's spread.  It then
runs tools/diff_outputs.py on the same pair and stores its report.  Only
the standard library is used, so it runs against any tree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
SIDES = ("parent", "tree")
PAIRS = 10
# numpy's record of the BLAS it was built against, as one JSON line; run
# in a child interpreter, so that this script imports no numpy
BLAS_PROBE = ("import json, numpy; print(json.dumps(numpy.show_config("
              "mode='dicts')['Build Dependencies']['blas']))")


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """The JSON report of one untraced perfbench run in checkout."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    return parse_report(proc.stdout)


def last_json_line(stdout: str):
    """The last line of stdout as JSON, or None when it is not JSON."""
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return None


def parse_report(stdout: str) -> dict:
    """The last line of a run's standard output, as JSON; a run that
    printed none counts as one failed operation."""
    return last_json_line(stdout) or {
        "correct": False, "attempted": 0, "failed": 1, "metrics": {}}


def summarize(pairs: list, end_to_end: list) -> dict:
    """Per-metric values, medians, quartiles and tree wins, and the
    correct and failed counts, of one workload's pairs.

    pairs holds {"parent": report, "tree": report} per pair.  A pair is
    won by the side whose value is better, ties counting for neither.
    """
    out = {"pairs": len(pairs), "metrics": {}}
    for side in SIDES:
        out[f"{side}_correct"] = sum(bool(p[side]["correct"]) for p in pairs)
        out[f"{side}_failed"] = sum(p[side]["failed"] for p in pairs)
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [p[side]["metrics"].get(name, {}).get("value")
                         for p in pairs] for side in SIDES}
        entry = {"unit": metric["unit"], "better": metric["better"],
                 "bound": metric["bound"], **values}
        if all(v is not None for side in SIDES for v in values[side]):
            for side in SIDES:
                entry[f"{side}_median"] = statistics.median(values[side])
                entry[f"{side}_quartiles"] = quartiles(values[side])
            entry["tree_wins"] = sum(
                (t < p) if lower else (t > p)
                for p, t in zip(values["parent"], values["tree"]))
            entry["median_change"] = (entry["tree_median"]
                                      / entry["parent_median"] - 1.0)
        out["metrics"][name] = entry
    return out


def quartiles(values: list) -> list:
    """[first, third] quartile."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def parse_blas(stdout: str) -> dict:
    """BLAS vendor and version from BLAS_PROBE's output line, None for
    each when the probe printed no record."""
    record = last_json_line(stdout) or {}
    return {"blas": record.get("name"), "blas_version": record.get("version")}


def environment() -> dict:
    probe = subprocess.run([sys.executable, "-c", BLAS_PROBE],
                           capture_output=True, text=True)
    return {"cores": os.cpu_count(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "python": platform.python_version(),
            **{name: metadata.version(name) for name in ("numpy", "scipy")},
            **parse_blas(probe.stdout)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="checkout to compare from")
    parser.add_argument("tree", type=Path, help="checkout to compare to")
    parser.add_argument("--out", type=Path, default=Path("BENCH.json"))
    args = parser.parse_args(argv)
    bench = json.loads((args.parent / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    result = {"run_seconds": seconds, "environment": environment(),
              "workloads": {}}
    checkouts = dict(zip(SIDES, (args.parent, args.tree)))
    for workload in (w["name"] for w in bench["workloads"]):
        pairs = []
        # pair i runs seed i, the parent first when i is even
        for seed in range(PAIRS):
            order = SIDES if seed % 2 == 0 else SIDES[::-1]
            pair = {side: run_once(checkouts[side], workload, seed, seconds)
                    for side in order}
            pairs.append({"first": order[0], **pair})
            print(f"{workload} pair {seed}: " + "  ".join(
                f"{side} wall_s "
                f"{pair[side]['metrics'].get('wall_s', {}).get('value')}"
                for side in SIDES), flush=True)
        result["workloads"][workload] = {
            **summarize(pairs, bench["end_to_end"]),
            "first": [pair["first"] for pair in pairs]}
        args.out.write_text(json.dumps(result, indent=1) + "\n")

    proc = subprocess.run([sys.executable, str(HERE / "diff_outputs.py"),
                           str(args.parent), str(args.tree)],
                          capture_output=True, text=True)
    result["diff_outputs"] = (proc.stdout + proc.stderr).splitlines()
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
