"""File formats: header dimension checks, truncation, 16-bit PGM writing,
round trips."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from depthlens import formats
from depthlens.errors import ParseError
from depthlens.estimation import load_depth_map


class TestDimensionChecks:
    def test_pfm_zero_dimensions(self, tmp_path):
        path = tmp_path / "z.pfm"
        path.write_bytes(b"Pf\n0 0\n-1.0\n")
        with pytest.raises(ParseError) as err:
            formats.read_pfm(path)
        assert err.value.byte_offset is not None

    def test_pgm16_negative_dimensions(self, tmp_path):
        path = tmp_path / "n.pgm"
        path.write_bytes(b"P5\n-3 4\n65535\n" + bytes(24))
        with pytest.raises(ParseError, match="bad dimensions"):
            formats.read_pgm16(path)

    def test_pgm16_zero_width(self, tmp_path):
        path = tmp_path / "w.pgm"
        path.write_bytes(b"P5\n0 5\n65535\n")
        (tmp_path / "w.pgm.scale").write_text("0.001\n")
        with pytest.raises(ParseError, match="bad dimensions"):
            formats.read_pgm16(path)


class TestReadPfm:
    @pytest.mark.parametrize("scale", [b"nan", b"inf", b"-inf", b"0", b"-0.0"])
    def test_scale_must_be_finite_and_nonzero(self, tmp_path, scale):
        """The sign of the scale picks the byte order, so a scale with no
        usable sign is a malformed header, not a big-endian one."""
        path = tmp_path / "m.pfm"
        path.write_bytes(b"Pf\n2 1\n" + scale + b"\n" + bytes(8))
        with pytest.raises(ParseError, match="scale must be finite and nonzero"):
            formats.read_pfm(path)


class TestReadPgm16:
    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "0", "-0.001"])
    def test_sidecar_scale_must_be_finite_and_positive(self, tmp_path, text):
        path = tmp_path / "d.pgm"
        formats.write_pgm16(path, np.array([[1.0, 2.0]]), scale=0.001)
        (tmp_path / "d.pgm.scale").write_text(text + "\n")
        with pytest.raises(ParseError, match="bad scale value"):
            formats.read_pgm16(path)

    @pytest.mark.parametrize("text", ["1e300", "3.5e38", "1e-50", "1e-46"])
    def test_sidecar_scale_must_be_finite_and_positive_in_float32(self, tmp_path, text):
        # Finite and positive as a float64, but inf or 0.0 once narrowed.
        path = tmp_path / "d.pgm"
        formats.write_pgm16(path, np.array([[0.0, 2.0]]), scale=1.0)
        (tmp_path / "d.pgm.scale").write_text(text + "\n")
        with pytest.raises(ParseError, match="bad scale value"):
            formats.read_pgm16(path)

    def test_scaled_count_must_fit_float32(self, tmp_path):
        path = tmp_path / "d.pgm"
        formats.write_pgm16(path, np.array([[0.0, 65535.0]]), scale=1.0)
        (tmp_path / "d.pgm.scale").write_text("1e35\n")
        with pytest.raises(ParseError, match="overflows float32"):
            formats.read_pgm16(path)

    def test_largest_count_at_the_largest_scale_that_fits(self, tmp_path):
        # The largest float32 scale at which 65535 counts stay finite.
        f32max = np.finfo(np.float32).max
        scale = float(np.nextafter(f32max / np.float32(65535), np.float32(0)))
        path = tmp_path / "d.pgm"
        formats.write_pgm16(path, np.array([[0.0, 65535.0]]), scale=1.0)
        (tmp_path / "d.pgm.scale").write_text(f"{scale!r}\n")
        got = formats.read_pgm16(path)
        assert got.dtype == np.float32
        assert got[0, 0] == 0.0 and np.isfinite(got[0, 1])


class TestWritePgm16:
    @pytest.mark.parametrize("scale", [0.0, -0.5, np.nan, np.inf, -np.inf])
    def test_scale_must_be_finite_and_positive(self, tmp_path, scale):
        path = tmp_path / "d.pgm"
        with pytest.raises(ValueError, match="scale must be finite and positive"):
            formats.write_pgm16(path, np.array([[1.0, 2.0]]), scale=scale)
        assert not path.exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, tmp_path, bad):
        path = tmp_path / "d.pgm"
        with pytest.raises(ValueError, match="finite"):
            formats.write_pgm16(path, np.array([[1.0, bad]]), scale=0.001)
        assert not path.exists()


_WRITERS = {
    "pgm": formats.write_pnm,
    "ppm": formats.write_pnm,
    "pfm": formats.write_pfm,
    "pgm16": lambda path, data: formats.write_pgm16(path, data, scale=0.5),
}
_READERS = {"pgm": formats.read_pnm, "ppm": formats.read_pnm,
            "pfm": formats.read_pfm, "pgm16": formats.read_pgm16}


@st.composite
def valid_files(draw):
    """A kind and the values of one small valid file of that kind."""
    kind = draw(st.sampled_from(sorted(_READERS)))
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "pfm":
        data = rng.standard_normal((h, w)).astype(np.float32)
    elif kind == "pgm16":
        data = rng.integers(0, 65536, (h, w)) * 0.5
    else:
        data = rng.integers(0, 256, (h, w, 3) if kind == "ppm" else (h, w),
                            dtype=np.uint8)
    return kind, data


@settings(max_examples=50, deadline=None)
@given(spec=valid_files())
def test_every_strict_prefix_raises_parse_error(tmp_path_factory, spec):
    kind, data = spec
    path = tmp_path_factory.mktemp("prefix") / f"f.{kind}"
    _WRITERS[kind](path, data)
    whole = path.read_bytes()
    assert np.array_equal(_READERS[kind](path), data)
    for end in range(len(whole)):
        path.write_bytes(whole[:end])
        with pytest.raises(ParseError):
            _READERS[kind](path)


_SIDES = st.integers(1, 40)


@settings(max_examples=50, deadline=None)
@given(data=hnp.arrays(np.uint8, st.one_of(st.tuples(_SIDES, _SIDES),
                                           st.tuples(_SIDES, _SIDES, st.just(3)))))
def test_pnm_round_trip_is_byte_exact(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("pnm") / "f.pnm"
    formats.write_pnm(path, data)
    back = formats.read_pnm(path)
    assert back.dtype == np.uint8 and back.shape == data.shape
    assert back.tobytes() == data.tobytes()


# One or more whitespace bytes, then any mix of whitespace and ``#`` comments
# running to a CR or LF.
_COMMENT = st.tuples(st.binary(max_size=8), st.sampled_from([b"\n", b"\r"])).map(
    lambda t: b"#" + t[0].replace(b"\r", b"").replace(b"\n", b"") + t[1])
_GAP = st.tuples(
    st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"]),
    st.lists(st.one_of(st.sampled_from([b" ", b"\t", b"\r\n", b"\x0b", b"\x0c"]),
                       _COMMENT), max_size=4)).map(lambda t: t[0] + b"".join(t[1]))


@settings(max_examples=100, deadline=None)
@given(gaps=st.lists(_GAP, min_size=3, max_size=3),
       data=hnp.arrays(np.uint8, st.tuples(_SIDES, _SIDES)))
def test_pnm_header_tolerates_whitespace_runs_and_comments(tmp_path_factory, gaps,
                                                           data):
    height, width = data.shape
    path = tmp_path_factory.mktemp("header") / "f.pgm"
    path.write_bytes(b"P5" + gaps[0] + b"%d" % width + gaps[1] + b"%d" % height
                     + gaps[2] + b"255\n" + data.tobytes())
    assert formats.read_pnm(path).tobytes() == data.tobytes()


@settings(max_examples=50, deadline=None)
@given(data=hnp.arrays(np.float32, st.tuples(_SIDES, _SIDES),
                       elements=st.floats(width=32, allow_infinity=False)),
       kind=st.sampled_from(["depth", "disparity"]))
def test_pfm_loads_as_float64_with_holes_marked(tmp_path_factory, data, kind):
    """NaN holes stay NaN; non-positive depths and negative disparities
    become NaN; every other sample is the float32 value widened."""
    path = tmp_path_factory.mktemp("pfm") / "m.pfm"
    formats.write_pfm(path, data)
    expected = data.astype(np.float64)
    expected[~(expected > 0) if kind == "depth" else expected < 0] = np.nan
    loaded = load_depth_map(path, kind=kind)
    assert loaded.dtype == np.float64
    np.testing.assert_array_equal(loaded, expected)


@settings(max_examples=50, deadline=None)
@given(counts=hnp.arrays(np.int64, st.tuples(_SIDES, _SIDES),
                         elements=st.integers(0, 65535)),
       scale=st.floats(1e-4, 1e4))
def test_pgm16_round_trip_recovers_counts(tmp_path_factory, counts, scale):
    path = tmp_path_factory.mktemp("pgm16") / "m.pgm"
    formats.write_pgm16(path, counts * scale, scale=scale)
    values = formats.read_pgm16(path)
    assert np.array_equal(np.round(values / scale), counts)
