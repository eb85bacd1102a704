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


class TestWritePgm16:
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
