"""Depth plumbing: the proxy estimator, rescaling, loaders, masked means."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from depthlens.errors import EmptyMask, FiducialNotFound, ParseError
from depthlens.estimation import (Box, DirectoryMapEstimator, FiducialSpec,
                                  ProxyDepthMapper, ProxyMap, _find_blob, load_boxes,
                                  load_depth_map, masked_mean)
from depthlens import estimation, formats
from depthlens.imaging import LensRegion, RasterImage, scale_region

from helpers import (STRIPS, fiducial_reading, render_fiducial, strip_values, write_pfm,
                     write_pgm16)
from oracles import (_dense_abs_diff, dense_box_mask, dense_proxy_map,
                     nonzero_blob_extent, reference_load_depth_map)


def _rescaled(tmp_path, values, constant):
    """``values`` as a disparity PFM, read back through
    ``DirectoryMapEstimator(rescale=constant)``."""
    write_pfm(tmp_path / "benign.pfm", np.asarray(values, np.float32))
    estimator = DirectoryMapEstimator(tmp_path, rescale=constant)
    return estimator.estimate_map(RasterImage(np.zeros((1, 1), np.uint8)), tag="benign")


class TestRescale:
    def test_constant_division(self, tmp_path):
        d = _rescaled(tmp_path, [[2.16]], 5.4)
        assert d[0, 0] == pytest.approx(0.40)
        assert d[0, 0] == np.float64(np.float32(2.16)) / 5.4

    def test_equals_dividing_the_reference_map(self, tmp_path):
        """Dividing in place gives the bits of the whole-file load divided."""
        values = np.random.default_rng(3).uniform(-1.0, 80.0, (37, 53))
        values[::5, ::3] = np.nan
        got = _rescaled(tmp_path, values, 3.7)
        want = reference_load_depth_map(tmp_path / "benign.pfm", "disparity") / 3.7
        assert got.tobytes() == want.tobytes()

    def test_divides_in_float64(self, tmp_path):
        """The file's float32 values are divided as float64: the quotient is
        not rounded to float32, which every value here would show."""
        f32 = np.array([[1.0, 2.0, 0.1], [3e38, 7.0, 1e-45]], np.float32)
        got = _rescaled(tmp_path, f32, 3.0)
        want = f32.astype(np.float64) / 3.0
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()
        assert (np.float64(f32 / np.float32(3.0)) != want).all()

    @pytest.mark.parametrize("ext", ["pfm", "pgm"])
    def test_a_1080p_rescaled_load_holds_one_float64_frame(self, tmp_path, ext):
        """The reader widens the file's values into the float64 frame, and
        the holes and the quotient are made in place, strip by strip: no
        float32 frame is held beside the quotient (24.95 MB at the parent
        for a 16.6 MB result)."""
        values = np.random.default_rng(4).uniform(0.0, 60.0, (1080, 1920))
        path = tmp_path / f"level_3.{ext}"
        if ext == "pfm":
            values[::7, ::5] = -1.0
            write_pfm(path, values.astype(np.float32))
        else:
            write_pgm16(path, values, 0.001)
        estimator = DirectoryMapEstimator(tmp_path, rescale=2.5)
        tracemalloc.start()
        try:
            got = estimator.estimate_map(None, tag="level_3")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 17.5e6
        want = reference_load_depth_map(path, "disparity").astype(np.float64) / 2.5
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()

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


def _bits(values):
    values = np.asarray(values)
    return values.dtype, values.shape, values.tobytes()


def _outcome(mean, *args):
    try:
        return mean(*args)
    except EmptyMask as exc:
        return str(exc)


@st.composite
def proxy_cases(draw):
    """A gray frame with a dark patch, a proxy over it and the dense map it
    must give. The frame may hold no fiducial; its ramp may span 1e-6 to
    1e300 m, and its pinhole depth may overflow to inf."""
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    threshold = draw(st.integers(0, 255))
    gray = rng.integers(draw(st.integers(0, 255)), 256, (h, w), dtype=np.uint8)
    y0, x0 = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
    gray[y0:y0 + draw(st.integers(1, h)), x0:x0 + draw(st.integers(1, w))] = \
        draw(st.integers(0, threshold))
    box = None
    if draw(st.booleans()):
        bx, by = draw(st.integers(-4, w)), draw(st.integers(-4, h))
        box = Box(bx, by, bx + draw(st.integers(1, w + 4)), by + draw(st.integers(1, h + 4)))
    fiducial = FiducialSpec(draw(st.sampled_from([1.5, 1e10])),
                            detection_threshold=threshold, reference_box=box)
    focal_px = draw(st.sampled_from([700.0, 1e300]))  # 1e300 * 1e10 is inf
    near_m = draw(st.floats(1e-6, 1e6))
    far_m = near_m + draw(st.sampled_from([1e-6, 36.0, 1e300]))
    mapper = ProxyDepthMapper(fiducial, focal_px, near_m=near_m, far_m=far_m)
    try:
        want = dense_proxy_map(gray, fiducial, focal_px, near_m, far_m)
    except FiducialNotFound:
        with pytest.raises(FiducialNotFound):
            mapper.estimate_map(RasterImage(gray))
        want = None
    return gray, mapper, want


class TestProxyMap:
    """The proxy's map is read where it is used; every read must have the
    bits of the dense float64 frame the proxy used to return."""

    @settings(max_examples=300, deadline=None)
    @given(case=proxy_cases(), data=st.data())
    def test_reads_have_the_dense_frames_bits(self, case, data):
        gray, mapper, want = case
        if want is None:
            return
        h, w = gray.shape
        got = mapper.estimate_map(RasterImage(gray))
        assert (got.shape, got.dtype, got.ndim) == (want.shape, want.dtype, 2)
        assert _bits(got) == _bits(want)
        top = data.draw(st.integers(0, h))
        rows = slice(top, data.draw(st.integers(top, h)))
        buf = np.full((rows.stop - rows.start, w), np.nan)
        assert got.read(rows, out=buf) is buf
        assert _bits(buf) == _bits(want[rows])
        bx, by = data.draw(st.integers(-4, w + 2)), data.draw(st.integers(-4, h + 2))
        box = Box(bx, by, bx + data.draw(st.integers(1, w + 4)),
                  by + data.draw(st.integers(1, h + 4)))
        assert _bits(got[box.slices()]) == _bits(want[box.slices()])
        y, x = data.draw(st.integers(-h, h - 1)), data.draw(st.integers(-w, w - 1))
        assert _bits(got[y, x]) == _bits(want[y, x])
        assert _bits(got[y]) == _bits(want[y])
        selection = np.random.default_rng(data.draw(st.integers(0, 99))).random((h, w)) < 0.5
        assert _bits(got[selection]) == _bits(want[selection])
        with np.errstate(over="ignore"):  # float32 has no 1e300
            assert _bits(np.asarray(got, dtype=np.float32)) == _bits(want.astype(np.float32))

    @settings(max_examples=200, deadline=None)
    @given(case=proxy_cases(), data=st.data())
    def test_masked_mean_of_maps_is_the_mean_of_their_frames(self, case, data):
        gray, mapper, want = case
        if want is None:
            return
        other = gray.copy()
        other[::data.draw(st.integers(1, 3))] //= data.draw(st.integers(1, 4))
        try:
            attacked = mapper.estimate_map(RasterImage(other))
        except FiducialNotFound:
            return
        benign = mapper.estimate_map(RasterImage(gray))
        mask = np.random.default_rng(data.draw(st.integers(0, 99))).random(gray.shape) \
            < data.draw(st.sampled_from([0.0, 0.5, 1.0]))
        reference = data.draw(st.sampled_from([None, 20.0, benign]))
        frame = np.asarray(reference) if reference is benign else reference
        with strip_values(data.draw(st.sampled_from([1, 97, 2 ** 16]))):
            got = _outcome(masked_mean, attacked, mask, reference)
            dense = _outcome(masked_mean, np.asarray(attacked), mask, frame)
        assert got == dense

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), strip=st.sampled_from(STRIPS + [2 ** 16]),
           subtree=st.sampled_from([256, 2 ** 14]))
    def test_loss_between_maps_of_one_mapper_reads_their_table(self, data, strip, subtree):
        """Two maps of one mapper are differenced by a look-up in the table
        they share, with each one's fiducial box read as a map. The mean
        must have the bits of the same mean over both dense frames: for
        boxes that differ and cross strip boundaries, and for a pinhole depth
        of inf (focal 1e300), whose masked values, over a tree of 256-value
        subtrees, send the mean to its checked pass. A map of a second
        mapper with an equal ramp holds another table, and is differenced
        by reading both maps' strips, with the same bits."""
        h, w = data.draw(st.integers(2, 60)), data.draw(st.integers(2, 60))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        threshold = data.draw(st.integers(0, 254))

        def gray():
            """A bright frame with one dark patch of at least 2x2 px."""
            frame = rng.integers(threshold + 1, 256, (h, w), dtype=np.uint8)
            y0, x0 = data.draw(st.integers(0, h - 2)), data.draw(st.integers(0, w - 2))
            patch = frame[y0:y0 + data.draw(st.integers(2, h)),
                          x0:x0 + data.draw(st.integers(2, w))]
            patch[...] = rng.integers(0, threshold + 1, patch.shape)
            return RasterImage(frame)

        near_m = data.draw(st.floats(1e-6, 1e6))
        args = (FiducialSpec(data.draw(st.sampled_from([1.5, 1e10])), threshold),
                data.draw(st.sampled_from([700.0, 1e300])),  # 1e300 * 1e10 is inf
                near_m, near_m + data.draw(st.sampled_from([1e-6, 36.0, 1e300])))
        mapper = ProxyDepthMapper(*args)
        benign, attacked = mapper.estimate_map(gray()), mapper.estimate_map(gray())
        assume(benign.box != attacked.box)
        twin = ProxyDepthMapper(*args).estimate_map(RasterImage(attacked.gray))
        assert benign.table is attacked.table is mapper.estimate_map(gray()).table
        assert twin.table is not benign.table and np.array_equal(twin.ramp, benign.ramp)
        mask = rng.random((h, w)) < data.draw(st.sampled_from([0.0, 0.5, 1.0]))
        paired = []
        abs_diff = ProxyMap.abs_diff

        def counted(*args):
            paired.append(args)
            return abs_diff(*args)

        with strip_values(strip), pytest.MonkeyPatch.context() as patch:
            patch.setattr(estimation, "_SUBTREE", subtree)
            patch.setattr(ProxyMap, "abs_diff", counted)
            want = _outcome(masked_mean, np.asarray(attacked), mask, np.asarray(benign))
            assert not paired
            got = _outcome(masked_mean, attacked, mask, benign)
            assert paired
            paired.clear()
            apart = _outcome(masked_mean, twin, mask, benign)
            assert not paired
        assert _bits(got) == _bits(want) == _bits(apart)


class TestLoaders:
    def test_pfm_round_trip(self, tmp_path):
        values = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        path = tmp_path / "m.pfm"
        write_pfm(path, values)
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
        write_pfm(path, np.array([[5.0, 0.0], [-1.0, 2.0]], dtype=np.float32))
        depth = load_depth_map(path, kind="depth")
        assert depth.dtype == np.float32
        assert depth[0, 0] == 5.0
        assert np.isnan(depth[0, 1]) and np.isnan(depth[1, 0])

    def test_load_depth_map_pgm16_sidecar(self, tmp_path):
        path = tmp_path / "d.pgm"
        write_pgm16(path, np.array([[12.5, 3.0]]), scale=0.001)
        depth = load_depth_map(path, kind="depth")
        assert depth[0, 0] == pytest.approx(12.5, abs=1e-3)
        assert depth[0, 1] == pytest.approx(3.0, abs=1e-3)

    def test_missing_sidecar(self, tmp_path):
        path = tmp_path / "d.pgm"
        write_pgm16(path, np.array([[1.0]]), scale=0.001)
        (tmp_path / "d.pgm.scale").unlink()
        with pytest.raises(ParseError):
            load_depth_map(path)

    def test_disparity_kind(self, tmp_path):
        path = tmp_path / "disp.pfm"
        write_pfm(path, np.array([[0.0, 4.0]], dtype=np.float32))
        disp = load_depth_map(path, kind="disparity")
        assert disp[0, 0] == 0.0  # zero disparity is a valid sample here

    def test_bad_kind_fails_before_the_file_is_read(self, tmp_path):
        """The kind error is not hidden behind the file's own errors."""
        with pytest.raises(ValueError,
                           match="^kind must be 'depth' or 'disparity', got 'dpeth'$"):
            load_depth_map(tmp_path / "missing.pfm", kind="dpeth")


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

    @pytest.mark.parametrize("inf", [np.inf, -np.inf])
    def test_matching_infinities_are_dropped_without_a_warning(self, inf):
        # inf - inf is NaN, an invalid pixel like any other; the suite turns
        # NumPy's "invalid value" warning into an error
        values = np.array([[inf, 1.0], [2.0, 3.0]])
        reference = np.array([[inf, 1.5], [2.0, 3.0]])
        assert masked_mean(values, np.ones((2, 2), bool), reference) == 0.5 / 3

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.float64])
    def test_mask_must_be_bool(self, dtype):
        with pytest.raises(ValueError, match=f"^mask must be bool, got {np.dtype(dtype)}$"):
            masked_mean(np.ones((2, 3)), np.ones((2, 3), dtype))

    def test_negative_zeros_sum_to_positive_zero_as_in_numpy(self, monkeypatch):
        monkeypatch.setattr(estimation, "_SUBTREE", 256)
        values = np.full((40, 40), -0.0)
        assert repr(masked_mean(values, np.ones(values.shape, bool))) == "0.0"

    def test_overflowing_float64_differences_are_dropped(self, monkeypatch):
        """A finite pair whose difference overflows is not kept: its pixel
        shows only in the difference, so the count of finite operands is one
        too many and the sum is made once more on the kept count."""
        monkeypatch.setattr(estimation, "_SUBTREE", 256)
        rng = np.random.default_rng(3)
        values, reference = rng.uniform(1.0, 2.0, (2, 30, 40))
        values[5, 7], reference[5, 7] = 1e308, -1e308
        mask = np.ones(values.shape, bool)
        with np.errstate(over="ignore"):
            want = _numpy_mean_of_dense_selection(values, mask, reference)
            assert masked_mean(values, mask, reference) == want

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        vals = rng.uniform(1, 50, (16, 16))
        mask = rng.random((16, 16)) < 0.4
        base = masked_mean(vals, mask)
        perm = rng.permutation(16)
        assert masked_mean(vals[perm], mask[perm]) == pytest.approx(base)


# float32 samples: any finite value, NaN, the infinities, both zeros, the
# extremes and the subnormals, drawn often.
_F32_MAX = float(np.finfo(np.float32).max)
_F32 = st.one_of(st.floats(width=32), st.sampled_from(
    [np.nan, np.inf, -np.inf, 0.0, -0.0, _F32_MAX, -_F32_MAX, 1e-45, -1e-45,
     float(np.finfo(np.float32).smallest_normal)]))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), strip=st.sampled_from([1, 7, 2 ** 16]))
def test_a_float32_map_means_as_its_float64_widening(data, strip):
    """``masked_mean`` of float32 values, with no reference, a float32
    number or a float32 map, equals (``==``) ``masked_mean`` of their float64
    widenings: the same selected values, summed in the same order."""
    shape = data.draw(st.tuples(st.integers(1, 12), st.integers(1, 12)))
    values = data.draw(hnp.arrays(np.float32, shape, elements=_F32))
    mask = data.draw(hnp.arrays(np.bool_, shape))
    reference = data.draw(st.one_of(
        st.none(), _F32.map(np.float32), hnp.arrays(np.float32, shape, elements=_F32)))
    wide = None if reference is None else np.float64(reference)

    def outcome(*args):
        try:
            return masked_mean(*args)
        except EmptyMask:
            return "empty"

    with strip_values(strip):
        assert (outcome(values, mask, reference)
                == outcome(values.astype(np.float64), mask, wide))


def _numpy_mean_of_dense_selection(values, mask, reference):
    """``np.mean`` of the dense selection: ``|values - reference|`` (or the
    values) in float64, the masked pixels in row-major order, the finite
    ones of those."""
    if reference is None:
        dense = np.asarray(values, dtype=np.float64)
    else:
        dense = _dense_abs_diff(values, reference)
    selected = dense[mask]
    selected = selected[np.isfinite(selected)]
    return float(np.mean(selected)) if selected.size else "empty"


@settings(max_examples=250, deadline=None)
@given(data=st.data(), subtree=st.sampled_from([256, 300, 2 ** 14]),
       strip=st.sampled_from([1, 7, 2 ** 16]))
def test_masked_mean_is_numpy_mean_of_the_dense_selection(data, subtree, strip):
    """``masked_mean`` streams the selection through NumPy's pairwise-sum
    tree of the kept count, one subtree at a time; it must give the bits of
    ``np.mean`` over the whole selection (``repr`` tells -0.0 from 0.0).
    Counts run from 1 past 10^5 and the subtree size is drawn small, so
    every depth of the tree above the subtrees is drawn; NaN, the
    infinities and -0.0 are drawn often, and float64 pairs whose finite
    difference overflows to inf. A change to NumPy's pairwise-sum rule
    (blocks of 128, split at half rounded down to a multiple of 8) fails
    here."""
    size = data.draw(st.one_of(st.integers(1, 300), st.integers(300, 20_000),
                               st.integers(112_000, 160_000)))
    w = data.draw(st.integers(max(1, size // 1000), min(size, 600)))
    h = -(-size // w)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))

    def a_map():
        dtype = data.draw(st.sampled_from([np.float32, np.float64]))
        scale = data.draw(st.sampled_from(
            [1.0, 1e6] + ([0.9 * float(np.finfo(np.float64).max)] if dtype == np.float64
                          else [])))
        values = rng.uniform(-1.0, 1.0, (h, w)) * scale
        special = rng.random((h, w)) < data.draw(st.sampled_from([0.0, 0.001, 0.1, 1.0]))
        values[special] = rng.choice([np.nan, np.inf, -np.inf, -0.0], special.sum())
        return values.astype(dtype)

    values = a_map()
    mask = rng.random((h, w)) < data.draw(st.sampled_from([0.0, 0.01, 0.5, 0.9, 1.0]))
    # Whole rows set, as above and below a circle lens, or every row, as in a
    # vehicle box: strips whose kept set can be the whole strip.
    mask[rng.random(h) < data.draw(st.sampled_from([0.0, 0.5, 1.0]))] = True
    reference = data.draw(st.sampled_from(["none", "number", "map"]))
    if reference == "none":
        reference = None
    elif reference == "number":
        reference = data.draw(st.one_of(st.floats(-1e6, 1e6),
                                        st.sampled_from([np.nan, np.inf, -0.0])))
    else:
        reference = a_map()
    with np.errstate(over="ignore", invalid="ignore"):
        want = _numpy_mean_of_dense_selection(values, mask, reference)
        with strip_values(strip), pytest.MonkeyPatch.context() as patch:
            patch.setattr(estimation, "_SUBTREE", subtree)
            try:
                got = masked_mean(values, mask, reference)
            except EmptyMask:
                got = "empty"
    assert repr(got) == repr(want)  # -0.0 and 0.0 differ; NaN equals NaN


class TestBoxes:
    def test_load(self, tmp_path):
        path = tmp_path / "boxes.txt"
        path.write_text("10 20 30 40\n# comment\n5 5 6 6\n-10 -5 3 4\n")
        boxes = load_boxes(path)
        assert boxes == [Box(10, 20, 30, 40), Box(5, 5, 6, 6), Box(-10, -5, 3, 4)]

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

    @pytest.mark.parametrize("line", ["1_0 +0 2_0 20", "10 0 20 +20", "10 0 2_0 20",
                                      "10 0 20 -+20"])
    def test_coordinates_are_optional_minus_and_digits(self, tmp_path, line):
        # int() alone would read "1_0 +0 2_0 20" as Box(10, 0, 20, 20)
        path = tmp_path / "boxes.txt"
        path.write_text(line + "\n")
        with pytest.raises(ParseError) as err:
            load_boxes(path)
        assert str(err.value) == f"{path}:1: bad integer in {line!r}"

    @pytest.mark.parametrize("text, lineno", [("10 20 30 4\u00e9\n", 1),
                                              ("0 0 4 4\n10 20 30 4\u00e9\n", 2),
                                              ("# v\u00e9hicule\n0 0 4 4\n", 1),
                                              ("0 0 4 4\r\n\u0664 0 8 8\r\n", 2)])
    def test_non_ascii_byte_names_file_and_line(self, tmp_path, text, lineno):
        path = tmp_path / "boxes.txt"
        path.write_bytes(text.encode("utf-8"))
        raw = text.encode("utf-8").splitlines()[lineno - 1]
        with pytest.raises(ParseError) as err:
            load_boxes(path)
        assert str(err.value) == f"{path}:{lineno}: non-ASCII byte in {raw!r}"

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

    @pytest.mark.parametrize("near_m, far_m", [(1.0, 1e306), (1e-300, 7.1e305),
                                               (1e306, 1.7e308)])
    def test_proxy_mapper_rejects_a_span_whose_ramp_overflows(self, near_m, far_m):
        """255 times the span overflows: the mapper refuses it, and warns of
        nothing (the suite makes a warning an error)."""
        message = f"depth span {near_m} to {far_m} overflows the brightness ramp"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ProxyDepthMapper(FiducialSpec(1.5), 700.0, near_m=near_m, far_m=far_m)

    def test_proxy_mapper_takes_the_widest_span_its_ramp_holds(self):
        img = render_fiducial((32, 32), 12)
        est = ProxyDepthMapper(FiducialSpec(1.5), 700.0, near_m=1.0, far_m=7e305)
        assert np.isfinite(np.asarray(est.estimate_map(img))).all()

    def test_directory_estimator_by_tag(self, tmp_path):
        write_pfm(tmp_path / "benign.pfm", np.full((4, 4), 2.0, np.float32))
        write_pfm(tmp_path / "level_3.pfm", np.full((4, 4), 5.0, np.float32))
        est = DirectoryMapEstimator(tmp_path, kind="disparity")
        img = RasterImage(np.zeros((4, 4), np.uint8))
        assert est.estimate_map(img, tag="benign")[0, 0] == 2.0
        assert est.estimate_map(img, tag="level_3")[0, 0] == 5.0
        with pytest.raises(FileNotFoundError):
            est.estimate_map(img, tag="level_7")

    def test_directory_estimator_rescale(self, tmp_path):
        write_pfm(tmp_path / "benign.pfm", np.full((2, 2), 2.16, np.float32))
        est = DirectoryMapEstimator(tmp_path, rescale=5.4)
        img = RasterImage(np.zeros((2, 2), np.uint8))
        assert est.estimate_map(img, tag="benign")[0, 0] == pytest.approx(0.4)
