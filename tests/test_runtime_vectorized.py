"""Vectorized host executor tests: correctness and ISP structure."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.compiler import trace_kernel
from repro.dsl import (
    Accessor,
    Boundary,
    BoundaryCondition,
    Const,
    Image,
    IterationSpace,
    Kernel,
    rcpf,
    rsqrtf,
)
from repro.filters import PIPELINES, REFERENCES
from repro.filters.gaussian import GAUSSIAN_MASK
from repro.filters.night import TONEMAP_WHITE, tonemap_reference
from repro.filters.reference import correlate, pad_image, sobel_reference
from repro.runtime import (
    VECTORIZED_VARIANTS,
    run_kernel_vectorized,
    run_pipeline_fused,
    run_pipeline_vectorized,
)
from repro.runtime import vectorized
from repro.runtime.vectorized import (
    BAND_ELEMS,
    _map_axis,
    _pixel_regions,
    lower_kernel,
)
from repro.serve import build_plan
from repro.trace.core import Tracer, context, recording
from tests.conftest import make_conv_kernel

PATTERNS = [Boundary.CLAMP, Boundary.MIRROR, Boundary.REPEAT, Boundary.CONSTANT]
APPS = ["gaussian", "laplace", "bilateral", "sobel", "night"]


@pytest.fixture(scope="module")
def src96():
    return np.random.default_rng(12).random((96, 96)).astype(np.float32)


class TestAgainstReferences:
    @pytest.mark.parametrize("app", APPS)
    @pytest.mark.parametrize("boundary", PATTERNS)
    def test_isp_variant(self, app, boundary, src96):
        pipe = PIPELINES[app](96, 96, boundary, 0.3)
        res = run_pipeline_vectorized(pipe, {"inp": src96}, variant="isp")
        ref = REFERENCES[app](src96, boundary, 0.3)
        tol = 2e-4 if app in ("bilateral", "laplace") else 2e-6
        assert np.abs(res["out"] - ref).max() < tol

    @pytest.mark.parametrize("app", APPS)
    def test_naive_equals_isp(self, app, src96):
        """The two host variants compute the same function."""
        pipe = PIPELINES[app](96, 96, Boundary.MIRROR)
        a = run_pipeline_vectorized(pipe, {"inp": src96}, variant="naive")
        b = run_pipeline_vectorized(pipe, {"inp": src96}, variant="isp")
        assert np.array_equal(a["out"], b["out"])


class TestRegionDecomposition:
    def test_nine_regions_tile_exactly(self):
        rects = _pixel_regions(100, 80, 6, 6)
        covered = np.zeros((80, 100), dtype=int)
        for r in rects:
            covered[r.y0:r.y1, r.x0:r.x1] += 1
        assert np.all(covered == 1)

    def test_body_region_is_largest_and_checkfree(self):
        rects = _pixel_regions(100, 80, 6, 6)
        body = [r for r in rects if not r.checks]
        assert len(body) == 1
        areas = {(r.x1 - r.x0) * (r.y1 - r.y0) for r in rects}
        assert (body[0].x1 - body[0].x0) * (body[0].y1 - body[0].y0) == max(areas)

    def test_1d_extent_gives_three_regions(self):
        rects = _pixel_regions(100, 80, 6, 0)
        assert len(rects) == 3
        assert all("top" not in r.checks and "bottom" not in r.checks
                   for r in rects)

    def test_degenerate_raises(self):
        with pytest.raises(ValueError):
            _pixel_regions(10, 10, 6, 6)

    def test_degenerate_kernel_falls_back(self):
        src = np.random.default_rng(3).random((10, 10)).astype(np.float32)
        desc = trace_kernel(make_conv_kernel(
            10, 10, Boundary.CLAMP, np.ones((13, 13), np.float32)))
        out = run_kernel_vectorized(desc, {"inp": src}, variant="isp")
        ref = run_kernel_vectorized(desc, {"inp": src}, variant="naive")
        assert np.array_equal(out, ref)

    def test_unknown_variant_rejected(self, src96):
        desc = trace_kernel(make_conv_kernel(
            96, 96, Boundary.CLAMP, np.ones((3, 3), np.float32)))
        with pytest.raises(ValueError, match="unknown vectorized variant"):
            run_kernel_vectorized(desc, {"inp": src96}, variant="turbo")


class TestInputGeometry:
    """An input whose (H, W) differs from the kernel geometry is rejected
    by every host executor, not silently cropped."""

    @pytest.mark.parametrize("variant", [*VECTORIZED_VARIANTS, "fused"])
    def test_mismatched_input_shape_raises(self, variant):
        pipe = PIPELINES["gaussian"](64, 64, Boundary.CLAMP, 0.0)
        src = np.random.default_rng(4).random((80, 80)).astype(np.float32)
        with pytest.raises(ValueError, match=r"\(\.\.\., 64, 64\)"):
            if variant == "fused":
                run_pipeline_fused(pipe, {"inp": src})
            else:
                run_pipeline_vectorized(pipe, {"inp": src}, variant=variant)


class TestAxisMapping:
    """_map_axis must agree with the scalar reference model."""

    @pytest.mark.parametrize("boundary", PATTERNS)
    def test_both_sides(self, boundary):
        from repro.dsl import reference_index

        size = 16
        coords = np.arange(-size, 2 * size)  # within mirror's contract
        mapped, valid = _map_axis(coords, size, boundary, True, True)
        for i, c in enumerate(coords):
            ref = reference_index(int(c), size, boundary)
            if ref is None:
                assert valid is not None and not valid[i]
            else:
                assert mapped[i] == ref

    def test_no_checks_identity(self):
        coords = np.arange(-5, 25)
        mapped, valid = _map_axis(coords, 16, Boundary.CLAMP, False, False)
        assert mapped is coords and valid is None

    def test_one_sided_clamp(self):
        coords = np.arange(-5, 25)
        lo, _ = _map_axis(coords, 16, Boundary.CLAMP, True, False)
        assert lo.min() == 0 and lo.max() == 24
        hi, _ = _map_axis(coords, 16, Boundary.CLAMP, False, True)
        assert hi.min() == -5 and hi.max() == 15


class _BodyKernel(Kernel):
    """One-input kernel whose expression is ``body(accessor)``."""

    def __init__(self, iter_space, acc, body):
        super().__init__(iter_space)
        self.acc = self.add_accessor(acc)
        self._body = body

    @property
    def name(self) -> str:
        return "body"

    def kernel(self):
        return self._body(self.acc)


def _trace_body(width, height, boundary, body, constant=0.0):
    inp = Image(width, height, "inp")
    out = Image(width, height, "out")
    acc = Accessor(BoundaryCondition(inp, boundary, constant))
    return trace_kernel(_BodyKernel(IterationSpace(out), acc, body))


def _tonemap(acc):
    # Same arithmetic as the night tonemap, with 1/w2 left to the lowering
    # as a constant-only subtree instead of a folded Python float.
    x = acc(0, 0)
    w2 = TONEMAP_WHITE * TONEMAP_WHITE
    return x * (1.0 + x * (Const(1.0) / Const(w2))) / (1.0 + x)


class TestLoweredProgram:
    """The lowered op program is bit-exact against filters/reference.py."""

    def test_shared_subexpression_is_loaded_once(self, src96):
        pipe = PIPELINES["sobel"](96, 96, Boundary.CLAMP)
        res = run_pipeline_vectorized(pipe, {"inp": src96})
        ref = sobel_reference(src96, Boundary.CLAMP)
        assert np.array_equal(res["dx"], ref["dx"])
        assert np.array_equal(res["dy"], ref["dy"])
        assert np.array_equal(res["out"], ref["mag"])
        prog = lower_kernel(trace_kernel(list(pipe)[2]))
        # sqrt(gx*gx + gy*gy): each load once, then mul, mul, add, sqrt
        assert sum(op.access is not None for op in prog.ops) == 2
        assert len(prog.ops) == 6

    def test_constant_subtree_folds_to_a_scalar(self, src96):
        desc = _trace_body(96, 96, Boundary.CLAMP, _tonemap)
        out = run_kernel_vectorized(desc, {"inp": src96})
        assert np.array_equal(out, tonemap_reference(src96))
        prog = lower_kernel(desc)
        folded = np.float32(1.0) / np.float32(TONEMAP_WHITE * TONEMAP_WHITE)
        assert any(v is not None and v == folded for v in prog.init)
        for op in prog.ops:
            if op.access is None:
                assert any(prog.init[a] is None for a in op.args), op

    @pytest.mark.parametrize("op", ["rsqrt", "rcp"])
    @pytest.mark.parametrize("boundary", PATTERNS)
    def test_reciprocal_ops(self, op, boundary, src96):
        fn = rsqrtf if op == "rsqrt" else rcpf
        desc = _trace_body(96, 96, boundary,
                           lambda acc: fn(acc(-1, 0) + acc(1, 0) + 0.5),
                           constant=0.25)
        padded = pad_image(src96, 1, 0, boundary, 0.25)
        total = padded[:, :-2] + padded[:, 2:] + np.float32(0.5)
        ref = np.float32(1.0) / (np.sqrt(total) if op == "rsqrt" else total)
        for variant in VECTORIZED_VARIANTS:
            out = run_kernel_vectorized(desc, {"inp": src96}, variant=variant)
            assert np.array_equal(out, ref), variant

    @pytest.mark.parametrize("boundary", PATTERNS)
    def test_deep_add_chain_on_a_tiny_image(self, boundary):
        """A 31x31 window on 8x8 is a 961-long add chain: no recursion."""
        src = np.random.default_rng(5).random((8, 8)).astype(np.float32)
        mask = np.ones((31, 31), np.float32)
        desc = trace_kernel(make_conv_kernel(8, 8, boundary, mask, 0.5))
        ref = correlate(src, mask, boundary, 0.5)
        for variant in VECTORIZED_VARIANTS:
            out = run_kernel_vectorized(desc, {"inp": src}, variant=variant)
            assert np.array_equal(out, ref), variant

    def test_batch_band_boundary_falls_mid_region(self):
        h, w = 150, 200
        # the Body region (198 wide, 148 tall) spans two bands of a batch
        assert BAND_ELEMS // (3 * (w - 2)) < h - 2
        src = np.random.default_rng(6).random((3, h, w)).astype(np.float32)
        desc = trace_kernel(make_conv_kernel(w, h, Boundary.MIRROR,
                                             GAUSSIAN_MASK))
        ref = np.stack([correlate(s, GAUSSIAN_MASK, Boundary.MIRROR)
                        for s in src])
        for variant in VECTORIZED_VARIANTS:
            out = run_kernel_vectorized(desc, {"inp": src}, variant=variant)
            assert np.array_equal(out, ref), variant

    def test_fused_tiles_smaller_than_a_band(self, src96):
        assert 5 * 7 < BAND_ELEMS
        pipe = PIPELINES["sobel"](96, 96, Boundary.REPEAT)
        out = run_pipeline_fused(pipe, {"inp": src96},
                                 tile_rows=5, tile_cols=7)
        assert np.array_equal(out, sobel_reference(src96,
                                                   Boundary.REPEAT)["mag"])

    def test_outputs_never_share_memory_with_the_arena(self, src96):
        desc = trace_kernel(make_conv_kernel(96, 96, Boundary.CLAMP,
                                             GAUSSIAN_MASK))
        outs = [run_kernel_vectorized(desc, {"inp": src96}, variant=v)
                for v in VECTORIZED_VARIANTS]
        outs.append(run_pipeline_fused(PIPELINES["sobel"](96, 96,
                                                          Boundary.CLAMP),
                                       {"inp": src96}))
        slabs = vectorized._ARENA.slabs
        assert slabs
        for out in outs:
            for slab in slabs:
                assert not np.shares_memory(out, slab)

    def test_concurrent_threads_stay_bit_exact(self):
        """Four threads (more than a 2-core CI runner has) running two
        plans at once each use their own arena: a shared slab would mix
        their bands."""
        rng = np.random.default_rng(7)
        jobs = [
            (build_plan("gaussian", "clamp", 256, 192),
             rng.random((192, 256)).astype(np.float32)),
            (build_plan("laplace", "mirror", 160, 224),
             rng.random((224, 160)).astype(np.float32)),
        ] * 2
        expected = [plan.execute(img) for plan, img in jobs]
        barrier = threading.Barrier(len(jobs))
        results: dict[int, list] = {}

        def worker(i):
            plan, img = jobs[i]
            barrier.wait(timeout=30)
            results[i] = [plan.execute(img) for _ in range(6)]

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(len(jobs))]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        for i, want in enumerate(expected):
            assert len(results[i]) == 6
            assert all(np.array_equal(got, want) for got in results[i])


class TestAllocation:
    def test_warm_execute_allocates_only_its_output(self):
        """Temporaries live in the per-thread arena: a warm request's
        allocations are its output plus small border-strip gathers."""
        plan = build_plan("gaussian", "mirror", 256, 256)
        img = np.random.default_rng(8).random((256, 256)).astype(np.float32)
        plan.execute(img)  # the arena reaches its working size
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = plan.execute(img)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if started:
                tracemalloc.stop()
        assert peak - base <= out.nbytes + 64 * 1024


class TestKernelSpan:
    def test_span_reports_bands_and_ops(self):
        h, w = 300, 600
        src = np.random.default_rng(9).random((h, w)).astype(np.float32)
        desc = trace_kernel(make_conv_kernel(w, h, Boundary.CLAMP,
                                             GAUSSIAN_MASK))
        tracer = Tracer()
        root = tracer.start_trace("request")
        with recording(tracer), context(tracer, root):
            run_kernel_vectorized(desc, {"inp": src}, variant="isp")
        (span,) = [s for s in tracer.spans() if s.name == "kernel:conv"]
        rects = _pixel_regions(w, h, 1, 1)
        bands = sum(-(-(r.y1 - r.y0) // (BAND_ELEMS // (r.x1 - r.x0)))
                    for r in rects)
        assert span.attributes["regions"] == 9
        assert span.attributes["bands"] == bands == 11
        assert span.attributes["ops"] == len(lower_kernel(desc).ops) > 0
