"""Depth plumbing: the proxy estimator, rescaling, loaders, masked means."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from depthlens.errors import EmptyMask, FiducialNotFound, ParseError
from depthlens.estimation import (Box, DirectoryMapEstimator, FiducialSpec,
                                  ProxyDepthMapper, _find_blob, load_boxes,
                                  load_depth_map, masked_mean)
from depthlens import formats
from depthlens.imaging import LensRegion, RasterImage, scale_region

from helpers import fiducial_reading, render_fiducial
from oracles import dense_box_mask, nonzero_blob_extent


def _rescaled(tmp_path, values, constant):
    """``values`` as a disparity PFM, read back through
    ``DirectoryMapEstimator(rescale=constant)``."""
    formats.write_pfm(tmp_path / "benign.pfm", np.asarray(values, np.float32))
    estimator = DirectoryMapEstimator(tmp_path, rescale=constant)
    return estimator.estimate_map(RasterImage(np.zeros((1, 1), np.uint8)), tag="benign")


class TestRescale:
    def test_constant_division(self, tmp_path):
        d = _rescaled(tmp_path, [[2.16]], 5.4)
        assert d[0, 0] == pytest.approx(0.40)
        assert d[0, 0] == np.float64(np.float32(2.16)) / 5.4

    def test_identity_and_zeros(self, tmp_path):
        vals = np.array([[0.0, 1.0], [2.0, 3.0]])
        assert np.array_equal(_rescaled(tmp_path, vals, 1.0), vals)
        assert (_rescaled(tmp_path, np.zeros((2, 2)), 2.0) == 0).all()

    def test_rejects_nonpositive(self):
        for constant in (0.0, -1.0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                DirectoryMapEstimator(".", rescale=constant)


class TestProxyEstimate:
    """The pinhole depth ``ProxyDepthMapper`` fills the fiducial's box with."""

    def test_pinhole_reading(self):
        img = render_fiducial((256, 256), 70)
        mapper = ProxyDepthMapper(FiducialSpec(physical_height_m=1.5), 700.0)
        assert fiducial_reading(mapper, img) == pytest.approx(15.0, rel=0.01)

    def test_shrink_raises_reading(self):
        img = render_fiducial((512, 512), 100)
        mapper = ProxyDepthMapper(FiducialSpec(physical_height_m=1.5), 700.0)
        benign = fiducial_reading(mapper, img)
        shrunk = scale_region(img, LensRegion.full_frame(), 0.8)
        attacked = fiducial_reading(mapper, shrunk)
        assert attacked / benign == pytest.approx(1.0 / 0.8, rel=0.02)

    def test_double_size_halves_depth(self):
        mapper = ProxyDepthMapper(FiducialSpec(physical_height_m=1.5), 700.0)
        small = fiducial_reading(mapper, render_fiducial((512, 512), 80))
        large = fiducial_reading(mapper, render_fiducial((512, 512), 160))
        assert large == pytest.approx(small / 2.0, rel=0.02)

    def test_not_found(self):
        img = RasterImage(np.full((64, 64), 255, np.uint8))
        with pytest.raises(FiducialNotFound):
            ProxyDepthMapper(FiducialSpec(1.5), 700.0).estimate_map(img)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_blob_extent_matches_nonzero(self, data):
        h, w = data.draw(st.integers(1, 20)), data.draw(st.integers(1, 20))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        gray = np.full((h, w), 255, np.uint8)  # a few dark pixels on white
        n = data.draw(st.integers(0, 12))
        gray[rng.integers(0, h, n), rng.integers(0, w, n)] = rng.integers(0, 255, n)
        box = None
        if data.draw(st.booleans()):
            x0, y0 = data.draw(st.integers(-4, w + 1)), data.draw(st.integers(-4, h + 1))
            box = Box(x0, y0, x0 + data.draw(st.integers(1, w + 4)),
                      y0 + data.draw(st.integers(1, h + 4)))
            # the crop holds the pixels of the clipped box, in row-major order
            grid = np.arange(h * w).reshape(h, w)
            assert np.array_equal(grid[box.slices()].ravel(),
                                  grid[dense_box_mask(box, w, h)])
        spec = FiducialSpec(1.5, detection_threshold=data.draw(st.integers(0, 254)),
                            reference_box=box)
        try:
            want = nonzero_blob_extent(gray, spec)
        except FiducialNotFound as exc:
            with pytest.raises(FiducialNotFound) as got:
                _find_blob(gray, spec)
            assert str(got.value) == str(exc)
            return
        assert _find_blob(gray, spec) == want

    def test_reference_box_limits_search(self):
        img = render_fiducial((256, 256), 60).data.copy()
        img[:10, :10] = 0  # decoy blob outside the reference box
        spec = FiducialSpec(1.5, reference_box=Box(64, 64, 192, 192))
        depth = fiducial_reading(ProxyDepthMapper(spec, 700.0), RasterImage(img))
        assert depth == pytest.approx(700.0 * 1.5 / 60.0, rel=0.05)


class TestLoaders:
    def test_pfm_round_trip(self, tmp_path):
        values = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        path = tmp_path / "m.pfm"
        formats.write_pfm(path, values)
        assert np.array_equal(formats.read_pfm(path), values)

    def test_pfm_big_endian(self, tmp_path):
        path = tmp_path / "be.pfm"
        data = np.array([[1.5, -2.0]], dtype=">f4")
        path.write_bytes(b"Pf\n2 1\n1.0\n" + data.tobytes())
        assert np.array_equal(formats.read_pfm(path),
                              np.array([[1.5, -2.0]], dtype=np.float32))

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "bad.pfm"
        path.write_bytes(b"Pf\n2 ")
        with pytest.raises(ParseError):
            formats.read_pfm(path)

    def test_load_depth_map_pfm(self, tmp_path):
        path = tmp_path / "d.pfm"
        formats.write_pfm(path, np.array([[5.0, 0.0], [-1.0, 2.0]], dtype=np.float32))
        depth = load_depth_map(path, kind="depth")
        assert depth.dtype == np.float64
        assert depth[0, 0] == 5.0
        assert np.isnan(depth[0, 1]) and np.isnan(depth[1, 0])

    def test_load_depth_map_pgm16_sidecar(self, tmp_path):
        path = tmp_path / "d.pgm"
        formats.write_pgm16(path, np.array([[12.5, 3.0]]), scale=0.001)
        depth = load_depth_map(path, kind="depth")
        assert depth[0, 0] == pytest.approx(12.5, abs=1e-3)
        assert depth[0, 1] == pytest.approx(3.0, abs=1e-3)

    def test_missing_sidecar(self, tmp_path):
        path = tmp_path / "d.pgm"
        formats.write_pgm16(path, np.array([[1.0]]), scale=0.001)
        (tmp_path / "d.pgm.scale").unlink()
        with pytest.raises(ParseError):
            load_depth_map(path)

    def test_disparity_kind(self, tmp_path):
        path = tmp_path / "disp.pfm"
        formats.write_pfm(path, np.array([[0.0, 4.0]], dtype=np.float32))
        disp = load_depth_map(path, kind="disparity")
        assert disp[0, 0] == 0.0  # zero disparity is a valid sample here


class TestMaskedMean:
    def test_constant(self):
        m = np.full((8, 8), 7.0)
        mask = np.zeros((8, 8), bool)
        mask[2, 3] = True
        assert masked_mean(m, mask) == 7.0

    def test_first_row(self):
        m = np.array([[1.0, 3.0], [5.0, 7.0]])
        mask = np.array([[True, True], [False, False]])
        assert masked_mean(m, mask) == 2.0

    def test_only_invalid_pixels(self):
        m = np.array([[np.nan, 1.0]])
        with pytest.raises(EmptyMask):
            masked_mean(m, np.array([[True, False]]))

    def test_invalid_pixels_ignored(self):
        m = np.array([[np.nan, 4.0, 8.0]])
        assert masked_mean(m, np.ones((1, 3), bool)) == 6.0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        vals = rng.uniform(1, 50, (16, 16))
        mask = rng.random((16, 16)) < 0.4
        base = masked_mean(vals, mask)
        perm = rng.permutation(16)
        assert masked_mean(vals[perm], mask[perm]) == pytest.approx(base)


class TestBoxes:
    def test_load(self, tmp_path):
        path = tmp_path / "boxes.txt"
        path.write_text("10 20 30 40\n# comment\n5 5 6 6\n")
        boxes = load_boxes(path)
        assert boxes == [Box(10, 20, 30, 40), Box(5, 5, 6, 6)]

    def test_mask_inclusive_exclusive(self):
        mask = np.zeros((4, 4), bool)
        mask[Box(1, 1, 3, 2).slices()] = True
        assert mask.sum() == 2
        assert mask[1, 1] and mask[1, 2] and not mask[1, 3] and not mask[2, 1]

    def test_bad_line(self, tmp_path):
        path = tmp_path / "boxes.txt"
        path.write_text("1 2 3\n")
        with pytest.raises(ParseError):
            load_boxes(path)

    def test_empty_box_line_names_file_and_line(self, tmp_path):
        path = tmp_path / "boxes.txt"
        path.write_text("0 0 4 4\n10 10 5 5\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:2: empty box"):
            load_boxes(path)

    # small coordinates make ties (an empty side of zero width) common
    _COORD = st.one_of(st.integers(-3, 3), st.integers(-2 ** 40, 2 ** 40))

    @settings(max_examples=200, deadline=None)
    @given(st.tuples(_COORD, _COORD, _COORD, _COORD).filter(
        lambda b: b[0] >= b[2] or b[1] >= b[3]))
    def test_empty_box_lines_raise_parse_error_only(self, tmp_path_factory, box):
        path = tmp_path_factory.mktemp("boxes") / "boxes.txt"
        path.write_text("%d %d %d %d\n" % box)
        with pytest.raises(ParseError, match=r":1: empty box"):
            load_boxes(path)

    def test_empty_box_rejected(self):
        with pytest.raises(ValueError):
            Box(5, 5, 5, 9)


class TestMapEstimators:
    def test_proxy_mapper_fills_vehicle_box(self):
        img = render_fiducial((256, 256), 80)
        spec = FiducialSpec(1.5)
        mapper = ProxyDepthMapper(spec, 700.0)
        est = mapper.estimate_map(img)
        assert est.shape == (256, 256)
        vehicle = 700.0 * 1.5 / 80.0
        assert est[128, 128] == pytest.approx(vehicle, rel=0.05)
        # background follows the brightness ramp
        assert est[4, 4] == pytest.approx(4.0 + 36.0 * 220 / 255.0, rel=1e-6)

    @pytest.mark.parametrize("height_px", [7, 40, 121])
    def test_fiducial_box_holds_the_pinhole_depth(self, height_px):
        img = render_fiducial((160, 160), height_px)
        est = ProxyDepthMapper(FiducialSpec(1.5), 700.0).estimate_map(img)
        dark = img.data <= 96  # the fiducial fills its whole bounding box
        assert (est[dark] == 700.0 * 1.5 / height_px).all()
        assert (est[~dark] == 4.0 + 36.0 * img.data[~dark] / 255.0).all()

    # the pinhole inputs and the ramp bounds; non-finite values are rows of
    # test_errors' bad-number table
    @pytest.mark.parametrize("height_m, focal_px, near_m, far_m, message", [
        (0.0, 700.0, 4.0, 40.0, "fiducial height must be finite and positive"),
        (1.5, 0.0, 4.0, 40.0, "focal length must be finite and positive"),
        (1.5, 700.0, 0.0, 40.0, "near depth must be finite and positive"),
        (1.5, 700.0, -1.0, 40.0, "near depth must be finite and positive"),
        (1.5, 700.0, 4.0, 4.0, "far depth 4.0 must exceed near depth 4.0"),
        (1.5, 700.0, 40.0, 4.0, "far depth 4.0 must exceed near depth 40.0"),
    ], ids=["height-zero", "focal-zero", "near-zero", "near-negative",
            "far-equals-near", "far-below-near"])
    def test_proxy_mapper_rejects_bad_numbers(self, height_m, focal_px, near_m,
                                              far_m, message):
        with pytest.raises(ValueError, match=message):
            ProxyDepthMapper(FiducialSpec(height_m), focal_px, near_m=near_m, far_m=far_m)

    def test_directory_estimator_by_tag(self, tmp_path):
        formats.write_pfm(tmp_path / "benign.pfm", np.full((4, 4), 2.0, np.float32))
        formats.write_pfm(tmp_path / "level_3.pfm", np.full((4, 4), 5.0, np.float32))
        est = DirectoryMapEstimator(tmp_path, kind="disparity")
        img = RasterImage(np.zeros((4, 4), np.uint8))
        assert est.estimate_map(img, tag="benign")[0, 0] == 2.0
        assert est.estimate_map(img, tag="level_3")[0, 0] == 5.0
        with pytest.raises(FileNotFoundError):
            est.estimate_map(img, tag="level_7")

    def test_directory_estimator_rescale(self, tmp_path):
        formats.write_pfm(tmp_path / "benign.pfm", np.full((2, 2), 2.16, np.float32))
        est = DirectoryMapEstimator(tmp_path, rescale=5.4)
        img = RasterImage(np.zeros((2, 2), np.uint8))
        assert est.estimate_map(img, tag="benign")[0, 0] == pytest.approx(0.4)
