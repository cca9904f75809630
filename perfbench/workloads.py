"""Seeded workload generation for the three benchmark workloads.

Every workload serves the 16 kinds {gaussian, laplace, sobel, night} x
{clamp, mirror, repeat, constant} with the default ``isp+m`` variant, and is
cut into *rounds* that each contain every kind equally often, in a seeded
order. A run measures whole rounds, so the mix of cheap and expensive
requests is the same in every run and only the order, the images and the
pixel values follow the seed. Bilateral is left out: at 512x512 one request
costs about a second and would swamp the mix.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterator

import numpy as np

APPS = ("gaussian", "laplace", "sobel", "night")
PATTERNS = ("clamp", "mirror", "repeat", "constant")
KINDS = tuple((app, pattern) for app in APPS for pattern in PATTERNS)

#: border value of the constant pattern (non-zero, so ignoring it shows)
CONSTANT = 0.5
#: burst sizes of one hot-512 call; every kind gets each size once a round
HOT_BURSTS = (1, 2, 4)
HOT_SIZE = 512
#: cold-64 draws width and height from this range, never repeating a key
COLD_SIDES = range(48, 81)
#: cold-64 warms the process-level model caches at a size outside the range
COLD_WARM_SIZE = 44
SIMT_SIZE = 32
POOL = 8


@dataclasses.dataclass(frozen=True)
class Call:
    """One closed-loop call: a burst of same-kind requests."""

    app: str
    pattern: str
    images: tuple[np.ndarray, ...]


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    exec_mode: str
    block: tuple[int, int]
    #: (height, width) of the requests made during set-up
    warm_shape: tuple[int, int]
    rounds: Callable[[int], Iterator[list[Call]]]
    #: plan-cache hit ratio every measured request must show
    hit_ratio: float
    #: requests per call
    bursts: tuple[int, ...] = (1,)


def seeded(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _image(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    return rng.random((h, w), dtype=np.float32)


def _pool(rng: np.random.Generator, size: int) -> list[np.ndarray]:
    return [_image(rng, size, size) for _ in range(POOL)]


def hot_rounds(seed: int) -> Iterator[list[Call]]:
    """Every (kind, burst size) pair once per round; images from a pool."""
    rng = seeded(seed, 1)
    pool = _pool(rng, HOT_SIZE)
    pairs = [(kind, n) for kind in KINDS for n in HOT_BURSTS]
    while True:
        calls = []
        for i in rng.permutation(len(pairs)):
            (app, pattern), n = pairs[i]
            picks = rng.integers(0, POOL, n)
            calls.append(Call(app, pattern, tuple(pool[j] for j in picks)))
        yield calls


def cold_rounds(seed: int) -> Iterator[list[Call]]:
    """Every kind once per round, each at a geometry it never had before.

    Which geometries round ``r`` serves is part of the workload, not of the
    seed: a plan's cost depends on its geometry (the model picks ISP for
    some and naive for others, and an ISP plan compiles and proves several
    regions), so a seed-drawn set would move throughput by itself. The seed
    orders each round and draws the pixels.
    """
    rng = seeded(seed, 2)
    grid = [(h, w) for h in COLD_SIDES for w in COLD_SIDES]
    fixed = seeded(0, 2)
    order = {kind: fixed.permutation(len(grid)) for kind in KINDS}
    for r in range(len(grid)):
        calls = []
        for k in rng.permutation(len(KINDS)):
            app, pattern = KINDS[k]
            h, w = grid[order[KINDS[k]][r]]
            calls.append(Call(app, pattern, (_image(rng, h, w),)))
        yield calls
    raise RuntimeError("cold-64 ran out of unseen geometries")


def simt_rounds(seed: int) -> Iterator[list[Call]]:
    """Every kind once per round, single requests, images from a pool."""
    rng = seeded(seed, 3)
    pool = _pool(rng, SIMT_SIZE)
    while True:
        yield [
            Call(*KINDS[k], (pool[rng.integers(0, POOL)],))
            for k in rng.permutation(len(KINDS))
        ]


def warm_calls(workload: Workload, seed: int) -> list[Call]:
    """Set-up calls: every kind at every burst size once, so the plans are
    built and the heap has seen every temporary a measured call makes."""
    rng = seeded(seed, 4)
    h, w = workload.warm_shape
    pool = [_image(rng, h, w) for _ in range(max(workload.bursts))]
    return [Call(app, pattern, tuple(pool[:n]))
            for app, pattern in KINDS for n in workload.bursts]


WORKLOADS = {
    # Warm plans at 512x512: the vectorized evaluator does almost all the
    # work. Bursts of 2 and 4 go through execute_batch, singles through
    # the per-request path, so both serving paths are measured.
    "hot-512": Workload("hot-512", "vectorized", (32, 4),
                        (HOT_SIZE, HOT_SIZE), hot_rounds, 1.0, HOT_BURSTS),
    # Every request misses the plan cache: trace, model, compile and
    # sanitize do nearly all the work, the evaluator almost none.
    "cold-64": Workload("cold-64", "vectorized", (32, 4),
                        (COLD_WARM_SIZE, COLD_WARM_SIZE), cold_rounds, 0.0),
    # Warm plans, SIMT simulation: the repro.gpu interpreter does nearly
    # all the work. Set-up warms the plans with vectorized requests, which
    # share the plan key and already compile and sanitize the SIMT kernels.
    "simt-32": Workload("simt-32", "simt", (16, 4),
                        (SIMT_SIZE, SIMT_SIZE), simt_rounds, 1.0),
}
