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

The evaluator itself is compiled once per kernel. :func:`lower_kernel`
lowers ``desc.expr`` to a straight-line op list — a post-order walk by node
identity, so a shared subexpression is one op; constant-only subtrees fold
to the NumPy scalars they always evaluated to; each pixel access becomes a
*load* (a slice view for an unchecked tap, else row and column takes
through the border mapping). Every other op is the same float32 ufunc as
always, run with ``out=`` into a slab of a per-thread scratch arena picked
by liveness (an op overwrites an operand that dies at it), and the final op
writes straight into the output. Each rect runs in row bands of at most
:data:`BAND_ELEMS` elements, so a slab is a small cache-resident flat
buffer reshaped per band, and a warm request allocates little beyond its
output. Same ops in the same dtype on the same pixels: results are
bit-identical to evaluating the tree directly.
"""

from __future__ import annotations

import dataclasses
import math
import threading
import time
from typing import Iterable, NamedTuple, Optional

import numpy as np

from ..compiler.frontend import KernelDescription, trace_kernel
from ..dsl.accessor import Accessor
from ..dsl.boundary import Boundary
from ..faults import core as _faults
from ..faults.core import FaultError
from ..trace import core as _trace_core
from ..dsl.expr import BinOp, Const, Expr, PixelAccess, UnOp
from ..dsl.pipeline import Pipeline

_BIN_FUNCS = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": np.divide,
    "min": np.minimum,
    "max": np.maximum,
}

_ONE = np.float32(1.0)

#: Each unary op as ufunc steps applied in order, each ``(ufunc, leading
#: constant or None)``: ``rsqrt`` is ``sqrt`` then ``1/x``, ``rcp`` is
#: ``1/x``.
_UN_STEPS = {
    "neg": ((np.negative, None),),
    "abs": ((np.absolute, None),),
    "sqrt": ((np.sqrt, None),),
    "rsqrt": ((np.sqrt, None), (np.divide, _ONE)),
    "rcp": ((np.divide, _ONE),),
    "exp": ((np.exp, None),),
    "exp2": ((np.exp2, None),),
    "log": ((np.log, None),),
    "log2": ((np.log2, None),),
    "sin": ((np.sin, None),),
    "cos": ((np.cos, None),),
}

#: Elements (batch axes included) one band evaluates at once: 64K float32
#: is 256 KiB per temporary, small enough to stay cache-resident.
BAND_ELEMS = 1 << 16


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


class _Op(NamedTuple):
    """One step of a lowered kernel program.

    A *load* (``access`` set) reads one pixel access for the band into
    value ``dst``: a slice view of the source, or a fresh gather. Any other
    op applies the ufunc ``fn`` to values ``args`` with ``out=`` arena slab
    ``slab`` (``-1``: the output itself). ``free`` names the loads whose
    last use is this op, so their gathers are released at once.
    """

    dst: int
    fn: Optional[np.ufunc]
    args: tuple[int, ...]
    access: Optional[PixelAccess]
    slab: int
    free: tuple[int, ...]


@dataclasses.dataclass(frozen=True)
class _Program:
    """A kernel expression lowered to a straight-line op list.

    ``init`` seeds the value table: folded constants sit in their slots,
    every other slot starts empty. ``result`` is the value the band writes
    to the output; the op computing it writes there directly, a bare load
    or constant is copied there.
    """

    expr: Expr
    ops: tuple[_Op, ...]
    init: tuple
    n_slabs: int
    result: int


def _postorder(expr: Expr) -> list[Expr]:
    """Every node once, operands before users (lhs subtree first).

    Iterative, because a convolution over a large window is one add-chain
    as deep as its tap count, which would overflow Python's recursion limit
    exactly in the small-image / large-window corner the border tests probe.
    """
    order: list[Expr] = []
    seen: set[int] = set()
    stack: list[tuple[Expr, bool]] = [(expr, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in seen:
            continue
        if expanded:
            seen.add(id(node))
            order.append(node)
            continue
        stack.append((node, True))
        if isinstance(node, BinOp):
            stack.append((node.rhs, False))
            stack.append((node.lhs, False))
        elif isinstance(node, UnOp):
            stack.append((node.operand, False))
    return order


def _lower(expr: Expr) -> _Program:
    """Lower ``expr`` to a :class:`_Program`.

    Every node becomes the float32 ufunc a direct evaluation runs; where
    all operands are constants the ufunc runs once, here, on NumPy
    scalars. Lowered results are bit-identical to a direct evaluation.
    Arena slabs are assigned by liveness: an op writes over the slab of an
    operand that dies at it (elementwise ufuncs allow ``out`` to alias an
    input exactly), else over any free slab.
    """
    values: list = []  # value slot -> folded scalar, or None
    slot: dict[int, int] = {}
    raw: list[tuple[int, Optional[np.ufunc], tuple[int, ...],
                    Optional[PixelAccess]]] = []

    def new_value(const=None) -> int:
        values.append(const)
        return len(values) - 1

    def emit(fn: np.ufunc, args: tuple[int, ...]) -> int:
        consts = [values[a] for a in args]
        if all(c is not None for c in consts):
            return new_value(fn(*consts))  # float32 scalars stay float32
        dst = new_value()
        raw.append((dst, fn, args, None))
        return dst

    for node in _postorder(expr):
        if isinstance(node, Const):
            slot[id(node)] = new_value(np.float32(node.value))
        elif isinstance(node, PixelAccess):
            slot[id(node)] = new_value()
            raw.append((slot[id(node)], None, (), node))
        elif isinstance(node, BinOp):
            slot[id(node)] = emit(_BIN_FUNCS[node.op],
                                  (slot[id(node.lhs)], slot[id(node.rhs)]))
        elif isinstance(node, UnOp):
            src = slot[id(node.operand)]
            for fn, lead in _UN_STEPS[node.op]:
                src = emit(fn, (src,) if lead is None
                           else (new_value(lead), src))
            slot[id(node)] = src
        else:
            raise TypeError(f"cannot evaluate {node!r}")

    result = slot[id(expr)]
    last_use: dict[int, int] = {}
    for i, (_dst, _fn, args, _access) in enumerate(raw):
        for a in args:
            last_use[a] = i
    loads = {dst for dst, _fn, _args, access in raw if access is not None}
    slab_of: dict[int, int] = {}
    free_slabs: list[int] = []
    n_slabs = 0
    ops = []
    for i, (dst, fn, args, access) in enumerate(raw):
        dying = sorted({a for a in args if last_use.get(a) == i})
        released = [slab_of[a] for a in dying if a in slab_of]
        slab = -1
        if access is None and dst != result:
            if released:
                slab = released.pop(0)
            elif free_slabs:
                slab = free_slabs.pop()
            else:
                slab = n_slabs
                n_slabs += 1
            slab_of[dst] = slab
        free_slabs.extend(released)
        ops.append(_Op(dst, fn, args, access, slab,
                       tuple(a for a in dying if a in loads)))
    return _Program(
        expr=expr,
        ops=tuple(ops),
        init=tuple(values),
        n_slabs=n_slabs,
        result=result,
    )


def lower_kernel(desc: KernelDescription) -> _Program:
    """The lowered program of ``desc``, built once and kept on it.

    Staged, pre-padded and fused execution all run this one program; plan
    build calls it so that no request pays for the lowering.
    """
    prog = desc.__dict__.get("_host_program")
    if prog is None or prog.expr is not desc.expr:
        prog = _lower(desc.expr)
        desc._host_program = prog
    return prog


_ARENA = threading.local()


def _arena(count: int, size: int) -> list[np.ndarray]:
    """This thread's scratch slabs: at least ``count`` flat float32 arrays
    of at least ``size`` elements. Slabs are reshaped per band, so the
    arena grows only with a program's live-value count or a row wider than
    one band, never with each new geometry."""
    slabs = getattr(_ARENA, "slabs", None)
    if slabs is None:
        slabs = _ARENA.slabs = []
    size = max(size, BAND_ELEMS)
    for i, slab in enumerate(slabs[:count]):
        if slab.size < size:
            slabs[i] = np.empty(size, dtype=np.float32)
    while len(slabs) < count:
        slabs.append(np.empty(size, dtype=np.float32))
    return slabs


def _axis_index(
    lo: int,
    hi: int,
    origin: int,
    size: int,
    extent: int,
    boundary: Boundary,
    check_low: bool,
    check_high: bool,
    access: PixelAccess,
    axis: str,
) -> tuple[object, Optional[np.ndarray]]:
    """Source index along one axis for image coordinates ``[lo, hi)``.

    Unchecked: a slice — the host analogue of check-free region code.
    Checked: the coordinates mapped against the image ``size`` (validity
    mask for CONSTANT), translated by the source ``origin``.
    """
    if not (check_low or check_high):
        # Negative slice bounds would silently wrap to the array's far
        # side; the source must cover every check-free read.
        assert 0 <= lo - origin and hi - origin <= extent, (
            f"source under-covers {access!r} {axis}: "
            f"[{lo - origin}:{hi - origin}] in {extent}"
        )
        return slice(lo - origin, hi - origin), None
    coords, valid = _map_axis(np.arange(lo, hi), size, boundary,
                              check_low, check_high)
    coords = coords - origin
    if boundary is not Boundary.UNDEFINED:
        # A mapping applied on one side must never push the coordinate out
        # the *opposite* side — fancy indexing would silently wrap a
        # violation to the wrong pixel instead of failing.
        assert coords.size == 0 or (
            coords.min() >= 0 and coords.max() < extent
        ), f"{boundary.value} {axis}-mapping out of bounds for {access!r}"
    return coords, valid


def _load(
    desc: KernelDescription,
    sources: dict[Accessor, tuple[np.ndarray, int, int]],
    rect: _RegionRect,
    access: PixelAccess,
) -> np.ndarray:
    """Values of ``access`` over ``rect``: a view where no axis is checked,
    else one or two 1-D axis takes (rows, then columns) of the source."""
    acc = access.accessor
    arr, ox, oy = sources[acc]
    checks = rect.checks
    shape = arr.shape
    ys, vy = _axis_index(
        rect.y0 + access.dy, rect.y1 + access.dy, oy, desc.height, shape[-2],
        acc.boundary, "top" in checks and access.dy < 0,
        "bottom" in checks and access.dy > 0, access, "y",
    )
    xs, vx = _axis_index(
        rect.x0 + access.dx, rect.x1 + access.dx, ox, desc.width, shape[-1],
        acc.boundary, "left" in checks and access.dx < 0,
        "right" in checks and access.dx > 0, access, "x",
    )
    # The ellipsis carries any leading batch axes through untouched.
    if isinstance(ys, slice) or isinstance(xs, slice):
        values = arr[..., ys, xs]
    else:
        values = arr[..., ys, :][..., :, xs]
    # Only a checked axis carries a mask, so ``values`` is a fresh gather.
    fill = np.float32(acc.constant)
    if vy is not None and not vy.all():
        values[..., ~vy, :] = fill
    if vx is not None and not vx.all():
        values[..., :, ~vx] = fill
    return values


def _fill_rects(
    desc: KernelDescription,
    sources: dict[Accessor, tuple[np.ndarray, int, int]],
    rects: list[_RegionRect],
    out: np.ndarray,
    ox: int = 0,
    oy: int = 0,
) -> int:
    """Evaluate ``desc`` over every rect into ``out``, which holds output
    pixel ``(x, y)`` at ``out[..., y - oy, x - ox]``; returns the number
    of bands run.

    Each rect runs in row bands of at most :data:`BAND_ELEMS` elements
    (batch axes included), so every temporary is one cache-sized arena
    slab. Checks depend only on which true image borders a rect touches
    and coordinates stay absolute, so banding never changes a bit.
    """
    prog = lower_kernel(desc)
    ops, init, result = prog.ops, prog.init, prog.result
    lead = out.shape[:-2]
    n_lead = math.prod(lead)
    widest = max((r.x1 - r.x0 for r in rects), default=0)
    slabs = _arena(prog.n_slabs, n_lead * widest)
    bands = 0
    for rect in rects:
        if rect.empty:
            continue
        width = rect.x1 - rect.x0
        step = max(1, BAND_ELEMS // max(1, n_lead * width))
        for y0 in range(rect.y0, rect.y1, step):
            band = _RegionRect(rect.x0, rect.x1, y0, min(y0 + step, rect.y1),
                               rect.checks)
            dest = out[..., band.y0 - oy : band.y1 - oy,
                       band.x0 - ox : band.x1 - ox]
            n = dest.size
            views = [s[:n].reshape(dest.shape) for s in slabs[:prog.n_slabs]]
            vals = list(init)
            for dst, fn, args, access, slab, free in ops:
                if access is not None:
                    vals[dst] = _load(desc, sources, band, access)
                    continue
                target = dest if slab < 0 else views[slab]
                if len(args) == 2:
                    vals[dst] = fn(vals[args[0]], vals[args[1]], out=target)
                else:
                    vals[dst] = fn(vals[args[0]], out=target)
                for j in free:
                    vals[j] = None
            if vals[result] is not dest:
                dest[...] = vals[result]
            bands += 1
    return bands


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


def _as_float32(image):
    """``image`` as float32 — every host path evaluates in float32. Only
    real arrays convert: the sanitizer's canary images are duck-typed."""
    if isinstance(image, np.ndarray) and image.dtype != np.float32:
        return image.astype(np.float32)
    return image


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
    height of any evaluated rectangle further; every rect already runs in
    cache-sized row bands (:data:`BAND_ELEMS`), so ``None`` is the norm.

    Inputs evaluate as float32. They may carry leading batch axes — ``(N, H, W)`` stacks evaluate
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
    sources = {acc: (_as_float32(images[acc.image.name]), 0, 0)
               for acc in desc.accessors}
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
    bands = _fill_rects(desc, sources, rects, out)
    if trace_ctx is not None:
        tracer, parent = trace_ctx
        tracer.record_span(
            f"kernel:{desc.name}", parent, t_start, time.perf_counter(),
            variant=variant, tile_rows=tile_rows, regions=len(rects),
            bands=bands, ops=len(lower_kernel(desc).ops),
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
