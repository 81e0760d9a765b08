"""Per-layer tracing from outside the program.

While a Tracer is active, every public function of each `dkrotor`
module is replaced, in every module namespace that holds it, by a
wrapper that records a span: calls, inclusive (busy) time and self time,
which is busy time minus the time of wrapped calls made inside it.  A
few layers also record the work they were handed (points, kicks,
realizations) and the process CPU time, so rates can be formed.
`OperatorCache.operator` is only counted, because it runs once per
trajectory kick.  Spans are aggregated in memory as they close; nothing
under `src/` changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

MODULES = ("pulses", "classical", "diffusion", "quantum", "floquet",
           "decoherence", "wigner", "cli")


@dataclass
class Stat:
    calls: int = 0
    busy: float = 0.0
    self: float = 0.0
    work: float = 0.0
    cpu: float = 0.0


def _modules():
    return [importlib.import_module("dkrotor")] + [
        importlib.import_module(f"dkrotor.{name}") for name in MODULES]


def _public_functions(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield name, obj


# Labels split a function's spans by the property its cost depends on;
# each returns (label suffix, work units handed to the call).

def _label_kick_cycle(a):
    return "", np.size(a["s"].p)


def _label_pendulum_step(a):
    # inputs that take the per-point solve_ivp fallback; the band test
    # mirrors pendulum_step's own
    from dkrotor.classical import SEPARATRIX_BAND
    phi = np.asarray(a["s"].phi, dtype=float)
    p = np.asarray(a["s"].p, dtype=float)
    K = a["K"]
    if K == 0.0 or a["w"] == 0.0:
        return "", 0
    E = 0.5 * p * p - K * np.cos(phi)
    return "", int(np.count_nonzero(np.abs(E - K) <= SEPARATRIX_BAND * K))


def _label_evolve_density(a):
    return f".N{a['op'].basis.size}", a["kicks"]


def _label_run_decohered(a):
    model = a["model"]
    kind = ("none" if model is None else model if isinstance(model, str)
            else "emission")
    return f".{kind}.N{a['op'].basis.size}", a["kicks"]


def _label_decompose(a):
    U = a["U"]
    n = U.basis.size if hasattr(U, "basis") else np.shape(U)[0]
    return f".N{n}", 0


def _label_mc(a):
    return f".{a['model'].recoil_mode}", a["kicks"] * a["realizations"]


LABELS = {
    "classical.kick_cycle": _label_kick_cycle,
    "classical.pendulum_step": _label_pendulum_step,
    "quantum.evolve_density": _label_evolve_density,
    "decoherence.run_decohered": _label_run_decohered,
    "floquet.decompose": _label_decompose,
    "decoherence.mc_wavefunction_run": _label_mc,
}
# layers whose CPU time per wall time is reported
CPU_TIMED = ("decoherence.mc_wavefunction_run",)


class Tracer:
    """Install with `with tracer:`; stats accumulate across activations."""

    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.cache_lookups = 0
        self.cache_builds = 0
        self._stack: list[float] = []
        self._restore: list = []

    def _wrap(self, key, fn):
        label = LABELS.get(key)
        signature = inspect.signature(fn) if label else None
        cpu_timed = key in CPU_TIMED
        stats, stack = self.stats, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            suffix, work = "", 0
            if label is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                suffix, work = label(bound.arguments)
            stack.append(0.0)
            c0 = time.process_time() if cpu_timed else 0.0
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                busy = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += busy
                st = stats[key + suffix]
                st.calls += 1
                st.busy += busy
                st.self += busy - child
                st.work += work
                if cpu_timed:
                    st.cpu += time.process_time() - c0
        return wrapper

    def _wrap_cache_lookup(self, fn):
        # a lookup that misses builds its operator through the wrapped
        # build_period_operator, so the build count is the growth of
        # that span's calls
        build = self.stats["quantum.build_period_operator"]

        @functools.wraps(fn)
        def operator(cache, q):
            before = build.calls
            try:
                return fn(cache, q)
            finally:
                self.cache_lookups += 1
                self.cache_builds += build.calls - before
        return operator

    def __enter__(self):
        modules = _modules()
        wrappers = {}
        for module in modules[1:]:
            short = module.__name__.split(".", 1)[1]
            for name, fn in _public_functions(module):
                wrappers[id(fn)] = (fn, self._wrap(f"{short}.{name}", fn))
        for module in modules:
            for name, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((module, name, obj))
                    setattr(module, name, hit[1])
        cache_cls = importlib.import_module("dkrotor.decoherence").OperatorCache
        self._restore.append((cache_cls, "operator", cache_cls.operator))
        cache_cls.operator = self._wrap_cache_lookup(cache_cls.operator)
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, name, obj = self._restore.pop()
            setattr(owner, name, obj)
        return False


def _per_kick_ms(st: Stat) -> float:
    return 1e3 * st.busy / st.work if st.work else 0.0


def layer_metrics(tracer: Tracer, rounds: int, output_mib: float,
                  overhead_s: float) -> dict:
    """Per-layer metrics per traced round, named as in BENCHMARK.json.

    A layer the workload never calls reads 0.
    """
    s = tracer.stats

    def get(key):
        return s[key] if key in s else Stat()

    def per_round(value):
        return value / rounds

    kick = get("classical.kick_cycle")
    step = get("classical.pendulum_step")
    build = get("quantum.build_period_operator")
    mc = {mode: get(f"decoherence.mc_wavefunction_run.{mode}")
          for mode in ("continuous", "discretized")}
    mc_busy = sum(st.busy for st in mc.values())
    n512 = get("quantum.evolve_density.N512")
    cli_run = get("cli.run")
    m = {
        "classical.pendulum_step.calls": (per_round(step.calls), "count"),
        "classical.pendulum_step.busy_s": (per_round(step.busy), "s"),
        "classical.kick_cycle.s_per_1e5_point_kicks": (
            kick.busy / (kick.work / 1e5) if kick.work else 0.0, "s"),
        "classical.propagate_ensemble.self_s": (
            per_round(get("classical.propagate_ensemble").self), "s"),
        "classical.separatrix_band.points": (per_round(step.work), "count"),
        "diffusion.fit_flux.busy_s": (
            per_round(get("diffusion.fit_flux").busy), "s"),
        "quantum.build_period_operator.calls": (
            per_round(build.calls), "count"),
        "quantum.build_period_operator.busy_s": (per_round(build.busy), "s"),
    }
    for n in (128, 256, 512):
        m[f"quantum.evolve_density.ms_per_kick.N{n}"] = (
            _per_kick_ms(get(f"quantum.evolve_density.N{n}")), "ms")
    # two complex N x N products per kick, 8 real flops per multiply-add
    m["quantum.evolve_density.gflops_computed.N512"] = (
        16 * 512**3 * n512.work / n512.busy / 1e9 if n512.busy else 0.0,
        "GFLOP/s")
    for kind in ("emission", "anti-zeno"):
        m[f"decoherence.run_decohered.ms_per_kick.{kind}.N512"] = (
            _per_kick_ms(get(f"decoherence.run_decohered.{kind}.N512")), "ms")
    for mode, st in mc.items():
        m[f"decoherence.mc_wavefunction_run.busy_s.{mode}"] = (
            per_round(st.busy), "s")
        m[f"decoherence.mc_wavefunction_run.traj_kicks_per_s.{mode}"] = (
            st.work / st.busy if st.busy else 0.0, "1/s")
    m["decoherence.mc_wavefunction_run.cpu_per_wall"] = (
        sum(st.cpu for st in mc.values()) / mc_busy if mc_busy else 0.0,
        "ratio")
    lookups, builds = tracer.cache_lookups, tracer.cache_builds
    m["decoherence.operator_cache.lookups"] = (per_round(lookups), "count")
    m["decoherence.operator_cache.builds"] = (per_round(builds), "count")
    m["decoherence.operator_cache.hit_ratio"] = (
        1.0 - builds / lookups if lookups else 0.0, "ratio")
    for n in (128, 256, 512):
        m[f"floquet.decompose.busy_s.N{n}"] = (
            per_round(get(f"floquet.decompose.N{n}").busy), "s")
    m["floquet.asymptotic_matrix.busy_s"] = (
        per_round(get("floquet.asymptotic_matrix").busy), "s")
    m["wigner.wigner_transform.busy_s"] = (
        per_round(get("wigner.wigner_transform").busy), "s")
    m["wigner.strangeness.busy_s"] = (
        per_round(get("wigner.strangeness").busy), "s")
    m["cli.run.calls"] = (per_round(cli_run.calls), "count")
    m["cli.run.self_s"] = (per_round(cli_run.self), "s")
    m["cli.output_mib"] = (output_mib, "MiB")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m
