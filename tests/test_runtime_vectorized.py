"""Vectorized host executor tests: correctness and ISP structure."""

import numpy as np
import pytest

from repro.compiler import trace_kernel
from repro.dsl import Boundary
from repro.filters import PIPELINES, REFERENCES
from repro.runtime import (
    VECTORIZED_VARIANTS,
    run_kernel_vectorized,
    run_pipeline_fused,
    run_pipeline_vectorized,
)
from repro.runtime.vectorized import _map_axis, _pixel_regions
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
