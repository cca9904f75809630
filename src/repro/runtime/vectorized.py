"""Vectorized host executor: region-sliced NumPy evaluation of DSL kernels.

This is the second execution path of DESIGN.md: it evaluates the *same*
kernel description the compiler lowers, but with whole-array NumPy operations
on the host. Two variants mirror the GPU code shapes:

* ``naive`` — every tap's coordinates go through the full border mapping
  (``np.clip`` / modulo / reflection over the entire coordinate range), the
  host analogue of executing the checks for every pixel;
* ``isp`` — the iteration space is partitioned at *pixel* granularity into
  the nine regions (the CPU partitioning of paper Section III-C, Eq. 1); the
  Body region evaluates with pure slicing — no index mapping at all — and
  only the thin border strips pay for the mapping;
* ``isp_warp`` — the nine regions with warp-aligned x cuts (paper
  Listing 5's granularity);
* ``prepad`` — the raw-speed tier: :func:`repro.runtime.make_border
  .make_border` materializes the apron once, then the single check-free
  Body evaluator runs over the whole padded image with offset coordinates.
  The copy is O(area) but amortizes across taps, pipeline stages (one
  ``pad_cache`` shared across calls) and repeated same-image requests —
  exactly the serve workload where the paper's "padding is costly" framing
  (Section I) inverts.

Because the border strips are O(perimeter) while the body is O(area), the
host speedup of ``isp`` over ``naive`` grows with image size exactly like the
paper's Figure 3 predicts, which makes this executor a genuinely *measured*
(wall-clock) reproduction of the ISP effect; ``benchmarks/
bench_wallclock_vectorized.py`` times it with pytest-benchmark.

Every variant is batch-aware: images may carry leading axes (``(N, H, W)``),
which evaluate in one NumPy call per tap — the kernel-level batching the
serve engine stacks same-signature requests into.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Iterable, Optional

import numpy as np

from ..compiler.frontend import KernelDescription, trace_kernel
from ..dsl.accessor import Accessor
from ..dsl.boundary import Boundary
from ..faults import core as _faults
from ..faults.core import FaultError
from ..trace import core as _trace_core
from ..dsl.expr import BinOp, Const, Expr, PixelAccess, UnOp
from ..dsl.pipeline import Pipeline

_UN_FUNCS = {
    "neg": lambda x: -x,
    "abs": np.abs,
    "sqrt": np.sqrt,
    "rsqrt": lambda x: np.float32(1.0) / np.sqrt(x),
    "rcp": lambda x: np.float32(1.0) / x,
    "exp": np.exp,
    "exp2": np.exp2,
    "log": np.log,
    "log2": np.log2,
    "sin": np.sin,
    "cos": np.cos,
}

_BIN_FUNCS = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": np.divide,
    "min": np.minimum,
    "max": np.maximum,
}


@dataclasses.dataclass(frozen=True)
class _RegionRect:
    """Output-pixel rectangle [x0, x1) x [y0, y1) with its check sides."""

    x0: int
    x1: int
    y0: int
    y1: int
    checks: frozenset[str]

    @property
    def empty(self) -> bool:
        return self.x1 <= self.x0 or self.y1 <= self.y0


#: Default warp width (NVIDIA) — the x-granularity of the warp-grained
#: re-routing in paper Listing 5. Callers with a device in hand pass
#: ``device.warp_size`` instead (64 on the wave64 AMD-like zoo entries).
WARP_WIDTH = 32

#: Every vectorized code shape this executor can run.
VECTORIZED_VARIANTS = ("naive", "isp", "isp_warp", "prepad")


def degenerate_geometry(width: int, height: int, hx: int, hy: int) -> bool:
    """Pixel-granularity degenerate-geometry predicate, shared by every
    caller that must agree on when the nine-region scheme is expressible.

    An axis is degenerate when some pixel needs checks on *both* of its
    sides: pixel ``x`` needs left checks iff ``x < hx`` and right checks iff
    ``x >= width - hx``, so a both-sided pixel exists iff
    ``width - hx < hx``, i.e. ``width < 2*hx``. The boundary case
    ``width == 2*hx`` is *not* degenerate — the Body strip is empty but
    every remaining strip is single-sided, which the region evaluators
    handle exactly (pinned by the ``w in {2hx-1, 2hx, 2hx+1}`` edge tests).
    This is precisely :class:`repro.compiler.regions.RegionGeometry`'s
    ``degenerate`` at block granularity ``(1, 1)``, which is what makes the
    two layers' fallback conditions agree (asserted by
    ``tests/test_runtime_vectorized.py``); the compiler's *block-granular*
    condition is strictly more conservative for real block shapes.
    """
    return (hx > 0 and width < 2 * hx) or (hy > 0 and height < 2 * hy)


def _axis_strips(
    lo_cut: int, hi_cut: int, size: int, lo_check: str, hi_check: str
) -> list[tuple[int, int, frozenset[str]]]:
    """Three strips [0,lo_cut)/[lo_cut,hi_cut)/[hi_cut,size) with their checks.

    ``lo_cut > hi_cut`` (over-wide rounding) collapses the axis to a single
    both-checked strip — always safe, because checking a side a coordinate
    never crosses is the identity mapping.
    """
    if lo_cut > hi_cut:
        return [(0, size, frozenset({lo_check, hi_check}))]
    return [
        (0, lo_cut, frozenset({lo_check})),
        (lo_cut, hi_cut, frozenset()),
        (hi_cut, size, frozenset({hi_check})),
    ]


def _regions_from_cuts(
    xs: list[tuple[int, int, frozenset[str]]],
    ys: list[tuple[int, int, frozenset[str]]],
) -> list[_RegionRect]:
    rects = []
    for y0, y1, cy in ys:
        for x0, x1, cx in xs:
            rect = _RegionRect(x0, x1, y0, y1, cx | cy)
            if not rect.empty:
                rects.append(rect)
    return rects


def _pixel_regions(width: int, height: int, hx: int, hy: int) -> list[_RegionRect]:
    """Nine pixel-granularity regions (paper Eq. 1 generalized to all sides).

    Requires non-degenerate geometry per :func:`degenerate_geometry` (the
    pixel-granularity analogue of the compiler's block-granular fallback);
    the caller falls back to the naive single region otherwise.
    """
    if degenerate_geometry(width, height, hx, hy):
        raise ValueError("degenerate pixel-region geometry")
    xs = _axis_strips(hx, width - hx, width, "left", "right")
    ys = _axis_strips(hy, height - hy, height, "top", "bottom")
    return _regions_from_cuts(xs, ys)


def _warp_regions(
    width: int, height: int, hx: int, hy: int, warp: int = WARP_WIDTH
) -> list[_RegionRect]:
    """Warp-grained partitioning (the host analogue of paper Listing 5).

    The x-axis cuts are rounded outward to warp multiples — a warp is the
    granularity at which the GPU dispatch re-routes work, so the L/R strips
    widen to whole warps (their extra pixels run harmless identity checks)
    while the Body stays check-free and every strip spans whole warps. The
    y-axis keeps pixel granularity, as warps are x-contiguous. Compared to
    pixel-grained ISP this trades a slightly larger checked area for fewer,
    aligned region evaluations — the same trade the paper's warp-grained
    kernels make, which is what gives the autotuner a real three-way choice.
    """
    if degenerate_geometry(width, height, hx, hy):
        raise ValueError("degenerate pixel-region geometry")
    xl = -(-hx // warp) * warp if hx > 0 else 0
    xr = ((width - hx) // warp) * warp if hx > 0 else width
    xs = _axis_strips(xl, xr, width, "left", "right")
    ys = _axis_strips(hy, height - hy, height, "top", "bottom")
    return _regions_from_cuts(xs, ys)


def _map_axis(
    coords: np.ndarray,
    size: int,
    boundary: Boundary,
    check_low: bool,
    check_high: bool,
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Vectorized analogue of :func:`repro.compiler.border.emit_axis_checks`.

    Returns (mapped coordinates, validity mask or None).
    """
    if not (check_low or check_high) or boundary is Boundary.UNDEFINED:
        return coords, None
    if boundary is Boundary.CLAMP:
        if check_low and check_high:
            return np.clip(coords, 0, size - 1), None
        if check_low:
            return np.maximum(coords, 0), None
        return np.minimum(coords, size - 1), None
    if boundary is Boundary.MIRROR:
        c = coords
        need_total = check_low and check_high
        if not need_total and c.size:
            # The per-tap sign filter can leave only one side checked even
            # though the tap reaches more than one image-size past the edge
            # (degenerate geometry); a single reflection would then exit the
            # opposite side, so promote to the total mapping.
            if check_low and (c.min() < -size or c.max() >= size):
                need_total = True
            if check_high and (c.max() >= 2 * size or c.min() < 0):
                need_total = True
        if need_total:
            # Total triangular reflection, bit-identical to the IR lowering
            # in ``emit_axis_checks``: floored mod by the period, then
            # reflect the upper half.  A single reflection per side is wrong
            # for taps more than one image-size past the edge (c=-7, size=3
            # -> 6 -> -1, which fancy indexing silently wraps).
            r = np.mod(c, 2 * size)
            return np.where(r < size, r, 2 * size - 1 - r), None
        if check_low:
            c = np.where(c < 0, -c - 1, c)
        if check_high:
            c = np.where(c >= size, 2 * size - 1 - c, c)
        return c, None
    if boundary is Boundary.REPEAT:
        return np.mod(coords, size), None
    if boundary is Boundary.CONSTANT:
        valid = np.ones(coords.shape, dtype=bool)
        c = coords
        if check_low:
            valid &= c >= 0
            c = np.maximum(c, 0)
        if check_high:
            valid &= c < size
            c = np.minimum(c, size - 1)
        return c, valid
    raise AssertionError(f"unhandled boundary {boundary}")


class _RegionEvaluator:
    """Evaluates the expression tree for one output rectangle.

    ``sources`` maps every accessor of ``desc`` to ``(array, ox, oy)``:
    image pixel ``(x, y)`` sits at ``array[..., y - oy, x - ox]``. That
    lookup is the only thing the host executors differ in — staged inputs
    sit at origin ``(0, 0)``, pre-padded buffers at ``(-hx, -hy)`` (their
    rects are all check-free, the apron already holds the border) and fused
    per-tile stage buffers at their region origin.
    """

    def __init__(
        self,
        desc: KernelDescription,
        sources: dict[Accessor, tuple[np.ndarray, int, int]],
        rect: _RegionRect,
    ):
        self.desc = desc
        self.sources = sources
        self.rect = rect
        self._memo: dict[int, np.ndarray] = {}

    def eval(self, expr: Expr) -> np.ndarray:
        # Iterative post-order evaluation: a convolution over a large window
        # is one add-chain as deep as the tap count, which overflows Python's
        # recursion limit exactly in the small-image / large-window corner
        # the border tests care about.
        memo = self._memo
        stack = [expr]
        while stack:
            node = stack[-1]
            if id(node) in memo:
                stack.pop()
                continue
            if isinstance(node, BinOp):
                deps = (node.lhs, node.rhs)
            elif isinstance(node, UnOp):
                deps = (node.operand,)
            else:
                deps = ()
            pending = [d for d in deps if id(d) not in memo]
            if pending:
                stack.extend(pending)
                continue
            memo[id(node)] = self._eval_node(node)
            stack.pop()
        return memo[id(expr)]

    def _eval_node(self, expr: Expr) -> np.ndarray:
        """Evaluate one node whose children are already memoized."""
        if isinstance(expr, Const):
            return np.float32(expr.value)
        if isinstance(expr, BinOp):
            lhs, rhs = self._memo[id(expr.lhs)], self._memo[id(expr.rhs)]
            return _BIN_FUNCS[expr.op](lhs, rhs, dtype=np.float32)
        if isinstance(expr, UnOp):
            src = self._memo[id(expr.operand)]
            return _UN_FUNCS[expr.op](src).astype(np.float32, copy=False)
        if isinstance(expr, PixelAccess):
            return self._eval_access(expr)
        raise TypeError(f"cannot evaluate {expr!r}")

    def _eval_access(self, access: PixelAccess) -> np.ndarray:
        rect = self.rect
        acc = access.accessor
        arr, ox, oy = self.sources[acc]
        boundary = acc.boundary

        check_left = "left" in rect.checks and access.dx < 0
        check_right = "right" in rect.checks and access.dx > 0
        check_top = "top" in rect.checks and access.dy < 0
        check_bottom = "bottom" in rect.checks and access.dy > 0

        if not any((check_left, check_right, check_top, check_bottom)):
            # Body fast path: a pure slice — the host analogue of the
            # check-free Body region code. The ellipsis carries any leading
            # batch axes through untouched.
            y0 = rect.y0 + access.dy - oy
            y1 = rect.y1 + access.dy - oy
            x0 = rect.x0 + access.dx - ox
            x1 = rect.x1 + access.dx - ox
            # Negative slice bounds would silently wrap to the array's far
            # side; the source must cover every check-free read.
            assert (0 <= y0 and y1 <= arr.shape[-2]
                    and 0 <= x0 and x1 <= arr.shape[-1]), (
                f"source under-covers {access!r}: "
                f"[{y0}:{y1}, {x0}:{x1}] in {arr.shape[-2:]}"
            )
            return arr[..., y0:y1, x0:x1]

        # Border mapping runs against the full image, then translates into
        # the source array.
        xs = np.arange(rect.x0 + access.dx, rect.x1 + access.dx)
        ys = np.arange(rect.y0 + access.dy, rect.y1 + access.dy)
        xs, vx = _map_axis(xs, self.desc.width, boundary,
                           check_left, check_right)
        ys, vy = _map_axis(ys, self.desc.height, boundary,
                           check_top, check_bottom)
        xs = xs - ox
        ys = ys - oy
        if boundary is not Boundary.UNDEFINED:
            # A mapping applied on one side must never push the coordinate
            # out the *opposite* side, and an axis the region does not check
            # must already be in bounds — fancy indexing would silently wrap
            # a violation to the wrong pixel instead of failing.
            assert xs.size == 0 or (
                xs.min() >= 0 and xs.max() < arr.shape[-1]
            ), f"{boundary.value} x-mapping out of bounds for {access!r}"
            assert ys.size == 0 or (
                ys.min() >= 0 and ys.max() < arr.shape[-2]
            ), f"{boundary.value} y-mapping out of bounds for {access!r}"
        values = arr[..., ys[:, None], xs[None, :]]
        if vx is not None or vy is not None:
            valid = np.ones((ys.size, xs.size), dtype=bool)
            if vy is not None:
                valid &= vy[:, None]
            if vx is not None:
                valid &= vx[None, :]
            values = np.where(
                valid, values, np.float32(acc.constant)
            ).astype(np.float32)
        return values


def _fill_rects(
    desc: KernelDescription,
    sources: dict[Accessor, tuple[np.ndarray, int, int]],
    rects: list[_RegionRect],
    out: np.ndarray,
    ox: int = 0,
    oy: int = 0,
) -> None:
    """Evaluate ``desc`` over every rect into ``out``, which holds output
    pixel ``(x, y)`` at ``out[..., y - oy, x - ox]``."""
    lead = out.shape[:-2]
    for rect in rects:
        value = _RegionEvaluator(desc, sources, rect).eval(desc.expr)
        out[..., rect.y0 - oy : rect.y1 - oy, rect.x0 - ox : rect.x1 - ox] = (
            np.broadcast_to(value, (*lead, rect.y1 - rect.y0, rect.x1 - rect.x0))
        )


def _split_rows(rects: list[_RegionRect], tile_rows: int) -> list[_RegionRect]:
    """Split tall rectangles into row bands of at most ``tile_rows`` rows.

    The checks set of a band equals its parent's (checks depend only on
    which true image borders a rectangle touches, and coordinates stay
    absolute), so banding never changes results — it only bounds the peak
    temporary-array footprint, which is what lets a serve worker stream a
    large request instead of materializing whole-image intermediates per tap.
    """
    if tile_rows <= 0:
        raise ValueError("tile_rows must be positive")
    out = []
    for rect in rects:
        for y0 in range(rect.y0, rect.y1, tile_rows):
            out.append(
                _RegionRect(
                    rect.x0, rect.x1, y0, min(y0 + tile_rows, rect.y1), rect.checks
                )
            )
    return out


def _lead_shape(
    images: dict[str, np.ndarray],
    names: Iterable[str],
    height: int,
    width: int,
) -> tuple[int, ...]:
    """Common leading (batch) shape of the named inputs.

    Every input must be ``(..., height, width)``: the kernel geometry, not
    the array, fixes the iteration space. Plain single-image execution has
    the empty leading shape; an ``(N, H, W)`` stack leads with ``(N,)``.
    Mixed leading shapes across inputs are rejected — one kernel call is
    one batch.
    """
    lead: Optional[tuple[int, ...]] = None
    for name in names:
        if name not in images:
            raise ValueError(f"missing input {name!r}")
        # shape only, not .ndim: the sanitizer's canary wrappers are
        # duck-typed images exposing only shape/__getitem__
        shape = tuple(images[name].shape)
        if shape[-2:] != (height, width):
            raise ValueError(
                f"input {name!r} shape {shape} != (..., {height}, {width})"
            )
        if lead is None:
            lead = shape[:-2]
        elif shape[:-2] != lead:
            raise ValueError(
                f"inconsistent batch shapes across inputs: {lead} vs "
                f"{shape[:-2]} for {name!r}"
            )
    return lead if lead is not None else ()


def _bind_inputs(
    pipeline: Pipeline, inputs: Optional[dict[str, np.ndarray]]
) -> dict[str, np.ndarray]:
    """Pipeline inputs by name: from ``inputs`` (as float32) where given,
    else the image's bound host data."""
    images: dict[str, np.ndarray] = {}
    for img in pipeline.inputs:
        if inputs is not None and img.name in inputs:
            images[img.name] = np.asarray(inputs[img.name], dtype=np.float32)
        else:
            images[img.name] = img.host
    return images


def run_kernel_vectorized(
    desc: KernelDescription,
    images: dict[str, np.ndarray],
    *,
    variant: str = "isp",
    tile_rows: Optional[int] = None,
    pad_cache: Optional[dict] = None,
    warp_width: int = WARP_WIDTH,
) -> np.ndarray:
    """Evaluate one kernel over its full iteration space.

    ``variant`` is ``"naive"`` (single region, full checks), ``"isp"``
    (nine pixel-granularity regions, Body check-free), ``"isp_warp"``
    (nine regions with warp-aligned x cuts) or ``"prepad"`` (materialize
    each input's border once via :func:`repro.runtime.make_border
    .make_border`, then run the single check-free Body evaluator over the
    whole padded image with offset coordinates). ``tile_rows`` caps the
    height of any evaluated rectangle (memory-bounded streaming for large
    images); ``None`` evaluates each region in one shot.

    Inputs may carry leading batch axes — ``(N, H, W)`` stacks evaluate
    in one call and produce an ``(N, H, W)`` output (kernel-level
    batching). ``pad_cache``, when given, lets ``prepad`` reuse padded
    buffers across calls on the same source arrays (see
    :func:`repro.runtime.make_border.padded_for`); callers that loop over
    taps/stages/requests on one image pay the gather exactly once.
    ``warp_width`` sets the ``isp_warp`` x-cut granularity — the active
    device's warp/wavefront size.
    """
    trace_ctx = None
    if _trace_core._current is not None:
        trace_ctx = _trace_core.current_context()
    t_start = time.perf_counter() if trace_ctx is not None else 0.0
    if _faults._current is not None:
        # Fault point: per-kernel vectorized evaluation — "latency" models a
        # slow co-tenant, "error" a failed evaluation the engine must retry
        # or surface as a typed failure.
        act = _faults.fire("runtime.vectorized.kernel",
                           kernel=desc.name, variant=variant)
        if act is not None:
            if act.kind == "latency":
                act.sleep()
            else:
                raise FaultError("runtime.vectorized.kernel", act.kind)
    h, w = desc.height, desc.width
    hx, hy = desc.extent
    lead = _lead_shape(images, [a.image.name for a in desc.accessors], h, w)
    out = np.empty((*lead, h, w), dtype=np.float32)
    sources = {acc: (images[acc.image.name], 0, 0) for acc in desc.accessors}
    checks = set()
    if hx > 0:
        checks |= {"left", "right"}
    if hy > 0:
        checks |= {"top", "bottom"}
    naive_rects = [_RegionRect(0, w, 0, h, frozenset(checks))]
    if variant == "naive":
        rects = naive_rects
    elif variant in ("isp", "isp_warp"):
        if degenerate_geometry(w, h, hx, hy):
            rects = naive_rects  # degenerate: fall back, like the compiler
        elif variant == "isp":
            rects = _pixel_regions(w, h, hx, hy)
        else:
            rects = _warp_regions(w, h, hx, hy, warp=warp_width)
    elif variant == "prepad":
        from .make_border import padded_for

        # No degenerate fallback: the total mappings in make_border handle
        # any apron depth, over-wide windows included.
        rects = [_RegionRect(0, w, 0, h, frozenset())]
        pads: dict[tuple, np.ndarray] = {}
        for acc in desc.accessors:
            key = (acc.image.name, acc.boundary.value, float(acc.constant))
            if key not in pads:
                # UNDEFINED promises every tap stays in bounds, so the
                # apron's values are unobservable — CLAMP is an
                # in-bounds-sound stand-in that keeps the gather total.
                boundary = acc.boundary
                if boundary is Boundary.UNDEFINED:
                    boundary = Boundary.CLAMP
                pads[key] = padded_for(
                    images, acc.image.name, hx, hy, boundary,
                    float(acc.constant), cache=pad_cache,
                )
            sources[acc] = (pads[key], -hx, -hy)
    else:
        raise ValueError(f"unknown vectorized variant {variant!r}")
    if tile_rows is not None:
        rects = _split_rows(rects, tile_rows)
    _fill_rects(desc, sources, rects, out)
    if trace_ctx is not None:
        tracer, parent = trace_ctx
        tracer.record_span(
            f"kernel:{desc.name}", parent, t_start, time.perf_counter(),
            variant=variant, tile_rows=tile_rows, regions=len(rects),
        )
    return out


def run_pipeline_vectorized(
    pipeline: Pipeline,
    inputs: Optional[dict[str, np.ndarray]] = None,
    *,
    variant: str = "isp",
    tile_rows: Optional[int] = None,
    pad_cache: Optional[dict] = None,
    warp_width: int = WARP_WIDTH,
) -> dict[str, np.ndarray]:
    """Run all pipeline stages; returns every produced image by name.

    Under ``variant="prepad"`` one pad cache spans every stage, so an
    image consumed by several stages (or several taps) under the same
    pattern is padded exactly once for the whole pipeline. Pass
    ``pad_cache`` to extend that reuse across *calls* on the same inputs.
    """
    images = _bind_inputs(pipeline, inputs)
    if variant == "prepad" and pad_cache is None:
        pad_cache = {}
    for kernel in pipeline:
        desc = trace_kernel(kernel)
        images[desc.output_name] = run_kernel_vectorized(
            desc, images, variant=variant, tile_rows=tile_rows,
            pad_cache=pad_cache, warp_width=warp_width,
        )
    return images
