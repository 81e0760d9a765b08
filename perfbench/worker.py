"""One workload in its own process: set up, run timed rounds, check.

Started by run.py.  It prints READY once set-up is over (imports, the
workload's inputs and a warm-up), then runs whole rounds of the
workload's operations until the next round would end after the
deadline, and always at least MIN_ROUNDS.  With --trace 1 the rounds
alternate untraced and traced, so the tracing overhead is measured
inside one process.  After the rounds it runs the correctness checks on
the first round's outputs, and prints one JSON line with per-round
times, operation counts, check outcomes and, when traced, the per-layer
metrics.  --probe stops after READY, for the set-up samples.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# the program is imported from the sources of this checkout only
sys.path.insert(0, str(SRC))

import dkrotor  # noqa: E402
import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

RUNS = HERE / "_runs"
MIN_ROUNDS = 2


@dataclass
class Round:
    wall: float
    cpu: float
    traced: bool
    failed: int
    data: dict
    fingerprint: dict
    output_bytes: int


def _dir_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def run_round(workload, round_dir: Path, tracer=None) -> Round:
    if round_dir.exists():
        shutil.rmtree(round_dir)
    round_dir.mkdir(parents=True)
    failed, data = 0, {}
    with tracer if tracer is not None else nullcontext():
        c0 = time.process_time()
        t0 = time.perf_counter()
        for op in workload.operations:
            try:
                failed_here, data[op.name] = op.run(round_dir)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                failed_here, data[op.name] = op.count, None
            failed += failed_here
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
    fingerprint = {}
    for op in workload.operations:
        try:
            fingerprint.update(op.fingerprint(round_dir, data[op.name]))
        except (OSError, KeyError, ValueError) as exc:
            fingerprint[op.name] = f"missing: {exc}"
    return Round(wall, cpu, tracer is not None, failed, data, fingerprint,
                 _dir_bytes(round_dir))


def run_rounds(workload, base: Path, seconds: float, trace: bool) -> tuple:
    tracer = tracing.Tracer() if trace else None
    deadline = time.perf_counter() + seconds
    rounds = []
    while True:
        traced = trace and len(rounds) % 2 == 1
        round_dir = base / f"round_{len(rounds)}"
        r = run_round(workload, round_dir, tracer if traced else None)
        if rounds:
            # only the first round's files are kept, for the checks
            shutil.rmtree(round_dir)
            r.data = {}
        rounds.append(r)
        if (len(rounds) >= MIN_ROUNDS
                and time.perf_counter() + r.wall > deadline):
            return rounds, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES),
                        default="full")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    if Path(dkrotor.__file__).resolve().parent != SRC / "dkrotor":
        sys.exit(f"dkrotor imported from {dkrotor.__file__}, not {SRC}")

    base = RUNS / (f"probe-{os.getpid()}" if args.probe else args.workload)
    if base.exists():
        shutil.rmtree(base)
    workload = workloads.build(args.workload, args.seed, base / "inputs",
                               args.size)
    workloads.warm_up(workload, base / "warm_up")
    print("READY", flush=True)
    if args.probe:
        shutil.rmtree(base)
        return 0

    rounds, tracer = run_rounds(workload, base, args.seconds,
                                bool(args.trace))
    first = rounds[0]
    try:
        results = checks.run_checks(workload, base / "round_0", first.data)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        results = [checks.Check("checks", False,
                                f"{type(exc).__name__}: {exc}")]
    differing = [i for i, r in enumerate(rounds)
                 if r.fingerprint != first.fingerprint]
    missing = sorted(k for k, v in first.fingerprint.items()
                     if v.startswith("missing"))
    n_traced = sum(r.traced for r in rounds)
    results.append(checks.Check(
        "outputs_identical_across_rounds", not differing and not missing,
        f"{len(first.fingerprint)} outputs hashed in {len(rounds)} rounds "
        f"({n_traced} traced); differing rounds {differing}, "
        f"missing {missing}"))

    per_round = sum(op.count for op in workload.operations)
    report = {
        "rounds": [{"wall_s": r.wall, "cpu_s": r.cpu, "traced": r.traced,
                    "failed": r.failed} for r in rounds],
        "attempted": per_round * len(rounds),
        "failed": sum(r.failed for r in rounds),
        "checks": [vars(c) for c in results],
        "peak_rss_mib": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        traced = [r for r in rounds if r.traced]
        plain = [r for r in rounds if not r.traced]
        overhead = (statistics.median(r.wall for r in traced)
                    - statistics.median(r.wall for r in plain))
        output_mib = statistics.mean(r.output_bytes for r in traced) / 2**20
        report["layers"] = tracing.layer_metrics(tracer, len(traced),
                                                 output_mib, overhead)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
