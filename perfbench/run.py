"""Run one dkrotor benchmark workload and report its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

from the root of a checkout.  The workload runs in a fresh Python
process (worker.py) that imports `dkrotor` from this checkout's `src/`,
with one program worker and the default BLAS threading.

--trace 0 reports the end-to-end metrics: set-up time (process start to
the first timed operation; the median of SETUP_SAMPLES fresh processes,
the last of which goes on to run the workload), the median wall and CPU
time of one round of the workload's operations, and the peak resident
memory of the workload process.  --trace 1 reports the per-layer
metrics from rounds run under the tracer of tracer.py.

Human-readable lines come first; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
The exit code is 0 only when every operation ran and every correctness
check passed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("classical-flux", "mc-trajectories", "quantum-ladder")
SETUP_SAMPLES = 5
# set-up, checks and the last round's overrun, on top of --seconds
SLACK_S = 100.0


def _start(argv):
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *argv],
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"workload process failed during set-up "
                           f"(exit {proc.returncode})")
    return proc, setup


def _finish(proc, timeout):
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"workload process ran past {timeout:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    return out


def measure(args) -> tuple:
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--size", args.size]
    setups = []
    # set-up is only reported by the untraced run
    for _ in range(SETUP_SAMPLES - 1 if not args.trace else 0):
        proc, setup = _start(argv + ["--probe"])
        _finish(proc, SLACK_S)
        setups.append(setup)
    proc, setup = _start(argv)
    setups.append(setup)
    out = _finish(proc, args.seconds + SLACK_S)
    return json.loads(out.strip().splitlines()[-1]), setups


def metrics(report, setups, trace) -> dict:
    if trace:
        return {name: {"value": value, "unit": unit}
                for name, (value, unit) in report["layers"].items()}
    plain = [r for r in report["rounds"] if not r["traced"]]
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall_s": {"value": statistics.median(r["wall_s"] for r in plain),
                   "unit": "s"},
        "cpu_s": {"value": statistics.median(r["cpu_s"] for r in plain),
                  "unit": "s"},
        "peak_rss_mib": {"value": report["peak_rss_mib"], "unit": "MiB"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small is for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "dkrotor" / "__init__.py").is_file():
        print(f"perfbench: no dkrotor sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    try:
        report, setups = measure(args)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    result = metrics(report, setups, args.trace)
    correct = (report["failed"] == 0
               and all(c["ok"] for c in report["checks"]))

    rounds = report["rounds"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"rounds {len(rounds)} ({sum(r['traced'] for r in rounds)} traced)"
          f"  attempted {report['attempted']}  failed {report['failed']}")
    print("  round wall_s: " + " ".join(
        f"{r['wall_s']:.3f}{'*' if r['traced'] else ''}" for r in rounds))
    for name, m in result.items():
        print(f"  {name:<58} {m['value']:>14.6g} {m['unit']}")
    for c in report["checks"]:
        print(f"  check {'PASS' if c['ok'] else 'FAIL'} {c['name']}: "
              f"{c['detail']}")
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
