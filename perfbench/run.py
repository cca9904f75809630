"""The repository benchmark: hot-512, cold-64 and simt-32.

Run from the repository root::

    python3 perfbench/run.py --workload hot-512 --seed 1 --seconds 12 --trace 0

A run builds its inputs from ``--seed``, sets up an in-process
``ServeEngine`` (two workers) and serves whole rounds of closed-loop calls
(one call outstanding) until ``--seconds`` of measured time have passed.
After every call the same requests run through the frozen NumPy floor
(``floor.py``), which times ``floor_ratio`` and is the oracle: a response
that is not bit-identical to it, carries a typed error or, on simt-32,
degraded to another path, counts as failed.

``--trace 0`` reports the end-to-end metrics. The run is split into
``PARTS`` processes, one after another; each sets up and measures its share
of the time, and the metrics are medians over all their rounds.
``--trace 1`` reports the per-layer metrics from one process: rounds
alternate between rounds with the layer entry points wrapped
(``layers.py``) and plain rounds, which gives the tracing overhead on the
same run, and a simulated pass of the 16 kinds at 32x32 gives the exact
simulator counts.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
the full result record (sample counts, diagnostics, host and version stamp).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from floor import bit_equal, floor
from layers import GPU_EVENTS, LAYERS, LayerRecorder
from workloads import (CONSTANT, KINDS, SIMT_SIZE, WORKLOADS, Call, seeded,
                       warm_calls)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: engine worker threads (the benchmark host has two vCPUs)
WORKERS = 2
#: processes an untraced run is split into. Each sets up (one setup_s
#: sample) and measures an equal share of --seconds; the metrics are medians
#: over the rounds of all of them. A process can settle into a slower state
#: for its whole life (hot-512 ran 63-66 instead of 72-79 req/s in one of
#: five processes), which a median over three processes outvotes.
PARTS = 3
#: an untraced run stops its measuring processes after this many seconds
RUN_BUDGET_S = 170.0
#: block of the simulated pass of the traced run (sim_kcycles)
SIM_BLOCK = WORKLOADS["simt-32"].block

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_geomean_ms": "ms",
    "peak_rss_mb": "MB",
    "floor_ratio": "x",
}

PER_LAYER_UNITS = {
    "serve.engine.queue_ms": "ms",
    "serve.engine.overhead_ms": "ms",
    "serve.engine.batched_share": "ratio",
    "serve.plan.cache_hit_ratio": "ratio",
    "serve.plan.build_ms": "ms",
    "dsl.trace_ms": "ms",
    "model.predict_ms": "ms",
    "compiler.compile_ms": "ms",
    "compiler.ir_instructions": "count",
    "sim_kcycles": "kcycles",
    "sanitize.prove_ms": "ms",
    "runtime.eval_ms": "ms",
    "runtime.pad_ms": "ms",
    "runtime.minor_faults_per_req": "count",
    "gpu.launch_ms": "ms",
    "gpu.warp_instructions": "count",
    "gpu.warp_instr_per_s": "1/s",
    "gpu.branch_divergence": "count",
    "gpu.mem_replay": "count",
    "unattributed_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def _import_repro() -> None:
    """Import the package from this checkout's ``src`` and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    where = Path(repro.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"repro imported from {where}, not from {SRC}")


# --------------------------------------------------------------- serving

def _requests(call: Call, exec_mode: str) -> list:
    from repro.serve import Request

    return [Request(call.app, img, call.pattern, exec_mode=exec_mode,
                    constant=CONSTANT) for img in call.images]


def _serve(engine, requests: list) -> list[tuple[object, float]]:
    """Submit a burst, wait for all of it; (response, latency) per request."""
    sent = [(time.perf_counter(), engine.submit(r)) for r in requests]
    out = []
    for t0, handle in sent:
        resp = handle.result()
        out.append((resp, time.perf_counter() - t0))
    return out


def setup(workload, seed: int):
    """Import, engine construction and warm-up: ``(engine, seconds)``."""
    calls = warm_calls(workload, seed)
    t0 = time.perf_counter()
    _import_repro()
    from repro.serve import ServeEngine

    engine = ServeEngine(workers=WORKERS, block=workload.block)
    for call in calls:
        # Vectorized warm-up requests share the plan key of SIMT requests
        # and already compile and sanitize the SIMT kernels.
        for resp, _ in _serve(engine, _requests(call, "vectorized")):
            if not resp.ok:
                raise RuntimeError(f"warm-up {call.app}/{call.pattern} "
                                   f"failed: {resp.error}")
    return engine, time.perf_counter() - t0


#: engine counters read around every round
COUNTERS = ("plan_cache_hits", "plan_cache_misses", "kernel_batched_requests")


def _counters(engine) -> dict:
    c = engine.stats()["engine"]
    return {k: c[f"engine.{k}"] for k in COUNTERS}


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Round(NamedTuple):
    requests: int
    engine_s: float
    floor_s: float
    latency_geomean_s: float


class _Side:
    """Sums over the rounds of one kind (traced or plain)."""

    def __init__(self):
        self.requests = 0
        self.wall = 0.0
        self.floor_wall = 0.0
        self.latencies: list[float] = []
        self.queue = 0.0
        self.overhead = 0.0
        self.build: list[float] = []
        self.minflt = 0
        self.rounds: list[Round] = []
        self.counters = dict.fromkeys(COUNTERS, 0)


def _serve_round(engine, workload, calls, side: _Side,
                 errors: list[str]) -> tuple[int, int]:
    """Serve one round, each call followed by the floor on the same
    requests; adds to ``side`` and returns ``(attempted, ok)``."""
    before = _counters(engine)
    first = (side.requests, side.wall, side.floor_wall, len(side.latencies))
    attempted = ok = 0
    for call in calls:
        reqs = _requests(call, workload.exec_mode)
        f0 = _minflt()
        t0 = time.perf_counter()
        served = _serve(engine, reqs)
        t1 = time.perf_counter()
        side.minflt += _minflt() - f0
        expected = [floor(call.app, call.pattern, img, CONSTANT)
                    for img in call.images]
        t2 = time.perf_counter()
        side.wall += t1 - t0
        side.floor_wall += t2 - t1
        side.requests += len(served)
        side.overhead += (t1 - t0) - min(r.queue_seconds for r, _ in served)
        for (resp, lat), want in zip(served, expected):
            attempted += 1
            side.latencies.append(lat)
            side.queue += resp.queue_seconds
            side.overhead -= resp.build_seconds + resp.execute_seconds
            if not resp.cache_hit:
                side.build.append(resp.build_seconds)
            problem = _check(resp, want, workload.exec_mode)
            if problem is None:
                ok += 1
            elif len(errors) < 10:
                errors.append(f"{call.app}/{call.pattern}: {problem}")
    after = _counters(engine)
    for k in side.counters:
        side.counters[k] += after[k] - before[k]
    side.rounds.append(Round(
        side.requests - first[0], side.wall - first[1],
        side.floor_wall - first[2], _geomean(side.latencies[first[3]:])))
    return attempted, ok


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up and serve whole rounds for ``seconds``; a traced run then
    adds the simulated pass."""
    workload = WORKLOADS[name]
    engine, setup_s = setup(workload, seed)
    recorder = LayerRecorder() if trace else None
    sides = {"plain": _Side(), "traced": _Side()}
    attempted = ok = 0
    errors: list[str] = []
    rounds = workload.rounds(seed)
    try:
        # Traced runs need one traced and one plain round at least.
        n_rounds = 0
        while (n_rounds < (2 if trace else 1) or sum(
                s.wall + s.floor_wall for s in sides.values()) < seconds):
            traced = trace and n_rounds % 2 == 0
            with recorder if traced else contextlib.nullcontext():
                a, o = _serve_round(engine, workload, next(rounds),
                                    sides["traced" if traced else "plain"],
                                    errors)
            attempted += a
            ok += o
            n_rounds += 1
    finally:
        engine.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sim = simulate(seed) if trace else None
    if sim is not None and not sim["ok"]:
        errors.append("simulated pass output differs from the floor")
    return dict(
        workload=name, seed=seed, seconds=seconds, trace=trace,
        rounds=n_rounds, setup_s=setup_s, attempted=attempted, ok=ok,
        errors=errors, sides=sides, peak_rss_mb=peak_rss_mb, sim=sim,
        layers=recorder,
    )


def _check(resp, want: np.ndarray, exec_mode: str):
    if not resp.ok:
        return f"{resp.error_kind}: {resp.error}"
    if exec_mode == "simt" and resp.fallbacks:
        return f"degraded: {resp.fallbacks}"
    if not bit_equal(resp.output, want):
        return "output differs from the floor"
    return None


def simulate(seed: int) -> dict:
    """Simulated cost of the 16 kinds at 32x32, outside any timed loop.

    Issue cycles come from the profilers of
    ``ExecutionPlan.execute_simt(collect=...)``; warp instructions and the
    static IR size of each launched kernel from a :class:`LayerRecorder`
    around the pass. None of these depend on wall-clock time, so they
    repeat exactly.
    """
    from repro.serve import build_plan

    rng = seeded(seed, 5)
    kcycles, ok = [], True
    with LayerRecorder() as rec:
        for app, pattern in KINDS:
            plan = build_plan(app, pattern, SIMT_SIZE, SIMT_SIZE,
                              block=SIM_BLOCK, constant=CONSTANT)
            img = rng.random((SIMT_SIZE, SIMT_SIZE), dtype=np.float32)
            collect: list = []
            out = plan.execute_simt(img, collect=collect)
            ok = ok and bit_equal(out, floor(app, pattern, img, CONSTANT))
            kcycles.append(sum(p.issue_cycles for _, _, p in collect) / 1e3)
    return dict(ok=ok, kcycles=_geomean(kcycles),
                warp_instructions=rec.warp_instructions,
                ir_instructions=rec.static_instructions, kinds=len(KINDS))


# ---------------------------------------------------------------- metrics

def _geomean(xs) -> float:
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def _p90(xs) -> float:
    s = sorted(xs)
    return s[math.ceil(0.9 * len(s)) - 1]


def part_summary(m: dict) -> dict:
    """What one measuring process of an untraced run reports (as JSON)."""
    s = m["sides"]["plain"]
    return dict(setup_s=m["setup_s"], attempted=m["attempted"], ok=m["ok"],
                problems=m["errors"] + invariants(m), rounds=s.rounds,
                latencies=s.latencies, peak_rss_mb=m["peak_rss_mb"])


def end_to_end(parts: list[dict]) -> dict:
    rounds = [Round(*r) for p in parts for r in p["rounds"]]
    n = sum(r.requests for r in rounds)
    med = statistics.median
    return {
        "setup_s": (med(p["setup_s"] for p in parts), len(parts)),
        "throughput_rps": (med(r.requests / r.engine_s for r in rounds), n),
        "latency_geomean_ms": (
            med(r.latency_geomean_s for r in rounds) * 1e3, n),
        "peak_rss_mb": (med(p["peak_rss_mb"] for p in parts), len(parts)),
        "floor_ratio": (med(r.engine_s / r.floor_s for r in rounds), n),
    }


def per_layer(m: dict) -> dict:
    s = m["sides"]["traced"]
    plain = m["sides"]["plain"]
    rec: LayerRecorder = m["layers"]
    n = s.requests
    self_s = rec.self_seconds()
    attributed = sum(self_s.values())
    c = s.counters
    launch_s = self_s["gpu.launch"]
    per_req_ms = {f"{layer}_ms": (self_s[layer] / n * 1e3, n)
                  for layer in LAYERS}
    out = {
        "serve.engine.queue_ms": (s.queue / n * 1e3, n),
        "serve.engine.overhead_ms": (s.overhead / n * 1e3, n),
        "serve.engine.batched_share": (c["kernel_batched_requests"] / n, n),
        "serve.plan.cache_hit_ratio": (
            c["plan_cache_hits"]
            / (c["plan_cache_hits"] + c["plan_cache_misses"]), n),
        "serve.plan.build_ms": (
            statistics.fmean(s.build) * 1e3 if s.build else 0.0, len(s.build)),
        "dsl.trace_ms": per_req_ms["dsl.trace_ms"],
        "model.predict_ms": per_req_ms["model.predict_ms"],
        "compiler.compile_ms": per_req_ms["compiler.compile_ms"],
        "compiler.ir_instructions": (m["sim"]["ir_instructions"],
                                     m["sim"]["kinds"]),
        "sim_kcycles": (m["sim"]["kcycles"], m["sim"]["kinds"]),
        "sanitize.prove_ms": per_req_ms["sanitize.prove_ms"],
        "runtime.eval_ms": per_req_ms["runtime.eval_ms"],
        "runtime.pad_ms": per_req_ms["runtime.pad_ms"],
        "runtime.minor_faults_per_req": (s.minflt / n, n),
        "gpu.launch_ms": per_req_ms["gpu.launch_ms"],
        "gpu.warp_instructions": (rec.warp_instructions / n, n),
        "gpu.warp_instr_per_s": (
            rec.warp_instructions / launch_s if launch_s else 0.0, n),
        "unattributed_ms": ((s.wall - attributed) / n * 1e3, n),
        "trace.overhead_ratio": (
            (plain.requests / plain.wall) / (n / s.wall), plain.requests),
    }
    for event in GPU_EVENTS:
        out[f"gpu.{event}"] = (rec.events[event] / n, n)
    return {name: out[name] for name in PER_LAYER_UNITS}


def invariants(m: dict) -> list[str]:
    """Workload-shape checks: a run that breaks one measured the wrong thing."""
    problems = []
    want = WORKLOADS[m["workload"]].hit_ratio
    for label, s in m["sides"].items():
        c = s.counters
        looked = c["plan_cache_hits"] + c["plan_cache_misses"]
        if looked and c["plan_cache_hits"] / looked != want:
            problems.append(f"{label} plan-cache hit ratio "
                            f"{c['plan_cache_hits']}/{looked} != {want}")
    if m["layers"] is not None:
        s = m["sides"]["traced"]
        attributed = sum(m["layers"].self_seconds().values())
        if attributed > s.wall + 1e-6:
            problems.append(f"layer self times {attributed:.6f}s exceed the "
                            f"end-to-end time {s.wall:.6f}s")
    return problems


# ------------------------------------------------------------------ stamp

def stamp(args) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": args.workload,
    }


def _measure_part(args, part: int, deadline: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed * PARTS + part),
           "--seconds", repr(args.seconds / PARTS), "--part"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=str(ROOT),
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"measuring process {part} failed: "
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--part", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2

    try:
        if args.part:
            m = measure(args.workload, args.seed, args.seconds, False)
            print(json.dumps(part_summary(m)))
            return 0
        if args.trace:
            m = measure(args.workload, args.seed, args.seconds, True)
            metrics, units = per_layer(m), PER_LAYER_UNITS
            attempted, ok = m["attempted"], m["ok"]
            problems = m["errors"] + invariants(m)
            latencies = m["sides"]["plain"].latencies
            extra = dict(rounds=m["rounds"])
        else:
            # The parts run one after another, never sharing the CPUs.
            deadline = time.monotonic() + RUN_BUDGET_S
            parts = [_measure_part(args, i, deadline) for i in range(PARTS)]
            metrics, units = end_to_end(parts), END_TO_END_UNITS
            attempted = sum(p["attempted"] for p in parts)
            ok = sum(p["ok"] for p in parts)
            problems = [x for p in parts for x in p["problems"]]
            latencies = [x for p in parts for x in p["latencies"]]
            extra = dict(setup_samples=[p["setup_s"] for p in parts],
                         rounds=[p["rounds"] for p in parts])
    except ImportError as exc:
        print(f"cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    failed = attempted - ok
    p90 = (_p90(latencies) * 1e3, len(latencies))

    print(f"{args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    for name, (value, n) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]:8s} n={n}")
    print(f"  {'latency_p90_ms (diagnostic)':32s} {p90[0]:14.6g} "
          f"{'ms':8s} n={p90[1]}")
    print(f"  attempted={attempted} ok={ok} failed={failed}")
    for p in problems:
        print(f"  PROBLEM: {p}")

    record = dict(stamp(args), attempted=attempted, ok=ok, failed=failed,
                  problems=problems, latency_p90_ms=p90,
                  metrics={k: {"value": v, "unit": units[k], "n": n}
                           for k, (v, n) in metrics.items()},
                  **extra)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, (v, n) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
