"""Checks of the benchmark itself: ``python3 -m pytest perfbench -q``.

They run short traced rounds of the real workloads (about a minute in
all), so they are kept out of the repository's tier-1 suite.
"""

from __future__ import annotations

import functools
import json

import numpy as np
import pytest

import run
from workloads import COLD_SIDES, KINDS, WORKLOADS


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for key, units in (("end_to_end", run.END_TO_END_UNITS),
                       ("per_layer", run.PER_LAYER_UNITS)):
        assert {m["name"]: m["unit"] for m in spec[key]} == units


def _digest(rounds, n):
    out = []
    for _ in range(n):
        for call in next(rounds):
            out.append((call.app, call.pattern,
                        tuple(img.tobytes() for img in call.images)))
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generation_is_deterministic_in_the_seed(name):
    rounds = WORKLOADS[name].rounds
    assert _digest(rounds(7), 2) == _digest(rounds(7), 2)
    assert _digest(rounds(7), 2) != _digest(rounds(8), 2)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_round_serves_each_kind_equally(name):
    calls = next(WORKLOADS[name].rounds(3))
    served = {kind: 0 for kind in KINDS}
    for call in calls:
        served[(call.app, call.pattern)] += len(call.images)
    assert len(set(served.values())) == 1


def test_cold_schedule_never_repeats_a_plan_key():
    rounds = WORKLOADS["cold-64"].rounds(5)
    keys = [(c.app, c.pattern, c.images[0].shape)
            for _ in range(100) for c in next(rounds)]
    assert len(keys) == len(set(keys))
    for _, _, (h, w) in keys:
        assert h in COLD_SIDES and w in COLD_SIDES
    warm = WORKLOADS["cold-64"].warm_shape
    assert all(shape != warm for _, _, shape in keys)


def test_untraced_run_prints_every_end_to_end_metric(capsys):
    argv = ["--workload", "cold-64", "--seed", "1", "--seconds", "0.3",
            "--trace", "0"]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.PARTS * len(KINDS)
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)


@functools.lru_cache(maxsize=None)
def _measured(name, seed):
    return run.measure(name, seed, seconds=0.01, trace=True)


def _layer(name, seed, metric):
    return run.per_layer(_measured(name, seed))[metric][0]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_short_traced_run_is_correct(name):
    m = _measured(name, 1)
    assert m["ok"] == m["attempted"] > 0, m["errors"]
    assert run.invariants(m) == []
    metrics = run.per_layer(m)
    assert set(metrics) == set(run.PER_LAYER_UNITS)
    assert all(np.isfinite(v) for v, _ in metrics.values())


def test_cold_requests_all_miss_the_plan_cache():
    assert _layer("cold-64", 1, "serve.plan.cache_hit_ratio") == 0.0
    assert _layer("cold-64", 1, "serve.plan.build_ms") > 0.0


@pytest.mark.parametrize("name", ["hot-512", "simt-32"])
def test_warm_workloads_time_only_warm_plans(name):
    assert _layer(name, 1, "serve.plan.cache_hit_ratio") == 1.0


def test_exact_counts_repeat_across_runs():
    first, second = _measured("simt-32", 1), _measured("simt-32", 2)
    assert first["sim"]["kcycles"] == second["sim"]["kcycles"]
    for metric in ("gpu.warp_instructions", "compiler.ir_instructions",
                   "serve.plan.cache_hit_ratio"):
        assert _layer("simt-32", 1, metric) == _layer("simt-32", 2, metric) > 0
    # The traced rounds and the simulated pass see the same kernels.
    assert (_layer("simt-32", 1, "gpu.warp_instructions") * len(KINDS)
            == first["sim"]["warp_instructions"])
