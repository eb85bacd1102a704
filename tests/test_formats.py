"""File formats: header dimension checks, truncation, 16-bit PGM writing,
round trips, the readers against the whole-file oracles."""

import io
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from depthlens import estimation, formats, imaging
from depthlens.errors import ParseError
from depthlens.estimation import load_depth_map
from depthlens.imaging import RasterImage

from helpers import strip_values, write_pfm, write_pgm16
from oracles import (reference_decimal, reference_load_depth_map, reference_read_pfm,
                     reference_read_pgm16, reference_read_pnm)


class TestDimensionChecks:
    def test_pfm_zero_dimensions(self, tmp_path):
        path = tmp_path / "z.pfm"
        path.write_bytes(b"Pf\n0 0\n-1.0\n")
        with pytest.raises(ParseError) as err:
            formats.read_pfm(path)
        assert err.value.byte_offset is not None

    def test_pgm16_negative_dimensions(self, tmp_path):
        # a dimension is ASCII digits, so a sign makes it no number at all
        path = tmp_path / "n.pgm"
        path.write_bytes(b"P5\n-3 4\n65535\n" + bytes(24))
        with pytest.raises(ParseError, match=r"^bad width b'-3' \(byte offset 2\)$"):
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

    @pytest.mark.parametrize("scale, order", [(b"-1.0", "<f4"), (b"1.0", ">f4")])
    def test_either_byte_order_reads_as_native_float32(self, tmp_path, scale, order):
        """The writer emits little-endian only; a big-endian map must still
        come back as the native float32 values, bit for bit."""
        values = np.array([[1.5, -2.25, np.nan], [3e38, -0.0, 1e-45]], np.float32)
        path = tmp_path / "m.pfm"
        path.write_bytes(b"Pf\n3 2\n" + scale + b"\n"
                         + values[::-1].astype(order).tobytes())
        got = formats.read_pfm(path)
        assert got.dtype == np.dtype(np.float32)
        assert got.tobytes() == values.tobytes()


class TestReadPgm16:
    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "0", "-0.001"])
    def test_sidecar_scale_must_be_finite_and_positive(self, tmp_path, text):
        path = tmp_path / "d.pgm"
        write_pgm16(path, np.array([[1.0, 2.0]]), scale=0.001)
        (tmp_path / "d.pgm.scale").write_text(text + "\n")
        with pytest.raises(ParseError, match="bad scale value"):
            formats.read_pgm16(path)

    @pytest.mark.parametrize("text", ["1e300", "3.5e38", "1e-50", "1e-46"])
    def test_sidecar_scale_must_be_finite_and_positive_in_float32(self, tmp_path, text):
        # Finite and positive as a float64, but inf or 0.0 once narrowed.
        path = tmp_path / "d.pgm"
        write_pgm16(path, np.array([[0.0, 2.0]]), scale=1.0)
        (tmp_path / "d.pgm.scale").write_text(text + "\n")
        with pytest.raises(ParseError, match="bad scale value"):
            formats.read_pgm16(path)

    def test_scaled_count_must_fit_float32(self, tmp_path):
        path = tmp_path / "d.pgm"
        write_pgm16(path, np.array([[0.0, 65535.0]]), scale=1.0)
        (tmp_path / "d.pgm.scale").write_text("1e35\n")
        with pytest.raises(ParseError, match="overflows float32"):
            formats.read_pgm16(path)

    def test_largest_count_at_the_largest_scale_that_fits(self, tmp_path):
        # The largest float32 scale at which 65535 counts stay finite.
        f32max = np.finfo(np.float32).max
        scale = float(np.nextafter(f32max / np.float32(65535), np.float32(0)))
        path = tmp_path / "d.pgm"
        write_pgm16(path, np.array([[0.0, 65535.0]]), scale=1.0)
        (tmp_path / "d.pgm.scale").write_text(f"{scale!r}\n")
        got = formats.read_pgm16(path)
        assert got.dtype == np.float32
        expected = np.array([[0.0, 65535.0]], np.float32) * np.float32(scale)
        assert got.tobytes() == expected.tobytes()
        assert got[0, 0] == 0.0 and np.isfinite(got[0, 1])


class TestNumbersAreNotCoerced:
    """Header dimensions and maxvals are ASCII digits and scales are plain
    decimal floats: ``int()`` and ``float()`` alone would read ``1_0`` as 10
    and ``+3`` as 3."""

    @pytest.mark.parametrize("read, head, message", [
        (formats.read_pnm, b"P5 1_0 +3 25_5\n", "bad width b'1_0' (byte offset 2)"),
        (formats.read_pnm, b"P5 10 +3 255\n", "bad height b'+3' (byte offset 5)"),
        (formats.read_pnm, b"P5 10 3 25_5\n", "bad maxval b'25_5' (byte offset 7)"),
        (formats.read_pnm, b"P6 1 1 +255\n", "bad maxval b'+255' (byte offset 6)"),
        (formats.read_pgm16, b"P5 2 1 6_5535\n", "bad maxval b'6_5535' (byte offset 6)"),
        (formats.read_pfm, b"Pf 2 1 -1_0.0\n", "bad scale b'-1_0.0' (byte offset 6)"),
        (formats.read_pfm, b"Pf +2 1 -1.0\n", "bad width b'+2' (byte offset 2)"),
    ])
    def test_header(self, tmp_path, read, head, message):
        path = tmp_path / "f.map"
        path.write_bytes(head + bytes(90))
        (tmp_path / "f.map.scale").write_text("0.5\n")
        with pytest.raises(ParseError) as err:
            read(path)
        assert str(err.value) == message

    @pytest.mark.parametrize("text", ["0.5_0", "1_0", "1e1_0"])
    def test_sidecar_scale(self, tmp_path, text):
        path = tmp_path / "d.pgm"
        write_pgm16(path, np.array([[1.0, 2.0]]), scale=0.5)
        (tmp_path / "d.pgm.scale").write_text(text + "\n")
        with pytest.raises(ParseError, match="^bad scale value in "):
            formats.read_pgm16(path)

    @settings(max_examples=300, deadline=None)
    @given(text=st.text("0123456789_+-.eEinftyaINFTYA", max_size=9))
    def test_decimal_is_the_float_grammar(self, text):
        token = text.encode()
        try:
            expected = ("float", reference_decimal(token))
        except ValueError:
            expected = ("error",)
        try:
            got = ("float", formats._decimal(token))
        except ValueError:
            got = ("error",)
        assert repr(got) == repr(expected)  # repr: nan equals nan


class TestWritePgm16:
    @pytest.mark.parametrize("scale", [0.0, -0.5, np.nan, np.inf, -np.inf])
    def test_scale_must_be_finite_and_positive(self, tmp_path, scale):
        path = tmp_path / "d.pgm"
        with pytest.raises(ValueError, match="scale must be finite and positive"):
            write_pgm16(path, np.array([[1.0, 2.0]]), scale=scale)
        assert not path.exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, tmp_path, bad):
        path = tmp_path / "d.pgm"
        with pytest.raises(ValueError, match="finite"):
            write_pgm16(path, np.array([[1.0, bad]]), scale=0.001)
        assert not path.exists()


_WRITERS = {
    "pgm": formats.write_pnm,
    "ppm": formats.write_pnm,
    "pfm": write_pfm,
    "pgm16": lambda path, data: write_pgm16(path, data, scale=0.5),
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


@pytest.mark.parametrize("shape", [(1080, 1920), (1080, 1920, 3)])
def test_pnm_write_sends_the_array_buffer(tmp_path, shape):
    """A 1080p write allocates under 1 MiB: the file is written from the
    array's own buffer, with no bytes copy of the raster."""
    data = np.random.default_rng(0).integers(0, 256, shape, dtype=np.uint8)
    path = tmp_path / "f.pnm"
    tracemalloc.start()
    try:
        formats.write_pnm(path, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert path.read_bytes().endswith(data.tobytes())


@pytest.mark.parametrize("data", [np.array([[300.0, -1.0], [np.nan, 7.0]]),
                                  np.array([[True, False]]), np.array([[1, 2]], np.int64),
                                  np.zeros((2, 2, 3), np.uint16)],
                         ids=["float64", "bool", "int64", "uint16"])
def test_pnm_write_rejects_non_uint8_arrays(tmp_path, data):
    """300.0 would be written as 44, -1.0 as 255, NaN as 0 and True as 1."""
    path = tmp_path / "f.pnm"
    with pytest.raises(ValueError, match=f"^raster must be uint8, got {data.dtype}$"):
        formats.write_pnm(path, data)
    assert not path.exists()


@pytest.mark.parametrize("shape", [(0, 5), (3, 0), (0, 0, 3)])
def test_pnm_write_rejects_arrays_without_pixels(tmp_path, shape):
    """A header of 0 width or height is one ``read_pnm`` rejects, so the
    writer refuses the array before it opens the file."""
    path = tmp_path / "f.pnm"
    with pytest.raises(ValueError, match="^raster needs at least one pixel$"):
        formats.write_pnm(path, np.zeros(shape, np.uint8))
    assert not path.exists()


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
def test_pfm_loads_as_float32_with_holes_marked(tmp_path_factory, data, kind):
    """NaN holes stay NaN; non-positive depths and negative disparities
    become NaN; every other sample is the file's float32 value."""
    path = tmp_path_factory.mktemp("pfm") / "m.pfm"
    write_pfm(path, data)
    expected = data.copy()
    expected[~(expected > 0) if kind == "depth" else expected < 0] = np.nan
    loaded = load_depth_map(path, kind=kind)
    assert loaded.dtype == np.float32
    np.testing.assert_array_equal(loaded, expected)


@settings(max_examples=50, deadline=None)
@given(counts=hnp.arrays(np.int64, st.tuples(_SIDES, _SIDES),
                         elements=st.integers(0, 65535)),
       scale=st.floats(1e-4, 1e4))
def test_pgm16_round_trip_recovers_counts(tmp_path_factory, counts, scale):
    path = tmp_path_factory.mktemp("pgm16") / "m.pgm"
    write_pgm16(path, counts * scale, scale=scale)
    values = formats.read_pgm16(path)
    assert values.dtype == np.float32
    assert np.array_equal(np.round(values.astype(np.float64) / scale), counts)
    # counts widened to float32, then scaled in float32
    expected = counts.astype(np.float32) * np.float32(scale)
    assert values.tobytes() == expected.tobytes()


# Values a float map may hold: any float32, with NaN, the infinities, -0.0
# and subnormals drawn often.
_SPECIAL = [np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-45, -1e-45,
            float(np.finfo(np.float32).smallest_normal) / 2]
_MAP_VALUES = st.one_of(st.floats(width=32), st.sampled_from(_SPECIAL))
# A header comment of up to twice the buffered reader's size, so that the
# header parser's reads cross a refill of the buffer.
_LONG_COMMENT = st.integers(0, 2 * io.DEFAULT_BUFFER_SIZE).map(
    lambda n: b" #" + b"c" * n + b"\n")


def _damaged(draw, magic: bytes, width: int, height: int, third: bytes,
             raster: bytes) -> bytes:
    """A file of that header and raster, whole or damaged: cut short, a
    header byte replaced, or the magic changed."""
    gaps = draw(st.lists(st.one_of(_GAP, _LONG_COMMENT), min_size=3, max_size=3))
    data = (magic + gaps[0] + b"%d" % width + gaps[1] + b"%d" % height + gaps[2]
            + third + b"\n" + raster)
    damage = draw(st.sampled_from(["none", "cut", "byte", "magic"]))
    if damage == "cut":
        data = data[:draw(st.integers(0, len(data) - 1))]
    elif damage == "byte":
        at = draw(st.integers(0, len(data) - len(raster) - 1))
        data = data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1:]
    elif damage == "magic":
        data = draw(st.sampled_from([b"PF", b"P6", b"P2", b"Pf", b"P5"])) + data[2:]
    return data


@st.composite
def pnm_files(draw):
    """The bytes of one binary PGM or PPM, whole or damaged."""
    h, w = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    magic, channels = draw(st.sampled_from([(b"P5", 1), (b"P6", 3)]))
    raster = draw(st.binary(min_size=h * w * channels, max_size=h * w * channels))
    return _damaged(draw, magic, w, h, b"255", raster)


@st.composite
def map_files(draw):
    """The bytes of one PFM (either byte order) or 16-bit PGM, whole or
    damaged, and its sidecar text (None: no sidecar)."""
    h, w = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    if draw(st.booleans()):
        values = draw(hnp.arrays(np.float32, (h, w), elements=_MAP_VALUES))
        order = draw(st.sampled_from(["<f4", ">f4"]))
        magic, third = b"Pf", b"-1.0" if order == "<f4" else b"1.0"
        raster = values[::-1].astype(order).tobytes()
        sidecar = None
    else:
        values = draw(hnp.arrays(np.uint16, (h, w)))
        magic, third = b"P5", b"65535"
        raster = values.astype(">u2").tobytes()
        sidecar = draw(st.one_of(st.none(), st.sampled_from(
            ["0.001", "0.5", "1e35", "3.5e38", "nan", "-1"]),
            st.floats(1e-6, 1e6).map(repr)))
    return _damaged(draw, magic, w, h, third, raster), sidecar


def _outcome(read, *args):
    """A reader's shape and values as float64 bytes, or its ParseError's
    text and offset."""
    try:
        values = np.asarray(read(*args), dtype=np.float64)
        return "values", values.shape, values.tobytes()
    except ParseError as exc:
        return "error", str(exc), exc.byte_offset


@settings(max_examples=200, deadline=None)
@given(data=pnm_files())
def test_pnm_reader_matches_the_whole_file_reader(tmp_path_factory, data):
    """``read_pnm`` returns the whole-file oracle's raster, shape and bytes;
    a damaged file raises the oracle's ParseError, text and byte offset,
    headers longer than the buffered reader's first read included."""
    path = tmp_path_factory.mktemp("pnm") / "f.pnm"
    path.write_bytes(data)
    assert _outcome(formats.read_pnm, path) == _outcome(reference_read_pnm, path)


@settings(max_examples=300, deadline=None)
@given(spec=map_files(), kind=st.sampled_from(["depth", "disparity"]),
       strip=st.sampled_from([1, 7, 64]))
def test_streamed_readers_match_the_whole_file_readers(tmp_path_factory, spec, kind,
                                                       strip):
    """Each map reader and ``load_depth_map`` return the whole-file oracle's
    values, compared widened to float64, bit for bit (NaN payloads, signed
    zeros and subnormals included), with heights of 1 and heights that are not a
    multiple of the strip rows; a damaged file raises the oracle's
    ParseError, text and byte offset, headers longer than the buffered
    reader's first read included."""
    data, sidecar = spec
    path = tmp_path_factory.mktemp("map") / "m.map"
    path.write_bytes(data)
    if sidecar is not None:
        (path.parent / "m.map.scale").write_text(sidecar + "\n")
    with strip_values(strip):
        for read, reference in [(formats.read_pfm, reference_read_pfm),
                                (formats.read_pgm16, reference_read_pgm16)]:
            assert _outcome(read, path) == _outcome(reference, path)
        assert (_outcome(load_depth_map, path, kind)
                == _outcome(reference_load_depth_map, path, kind))


@pytest.mark.parametrize("read, head", [
    (formats.read_pnm, b"P5 2#c 1 255\n"), (formats.read_pgm16, b"P5 2#c 1 65535\n"),
    (formats.read_pfm, b"Pf 2#c 1 -1.0\n")])
def test_a_hash_inside_a_token_is_part_of_it(tmp_path, read, head):
    """Only a ``#`` where a token would start opens a comment."""
    path = tmp_path / "f.map"
    path.write_bytes(head + bytes(8))
    with pytest.raises(ParseError) as err:
        read(path)
    assert str(err.value) == "bad width b'2#c' (byte offset 2)"


@pytest.mark.parametrize("magic, read", [(b"P5", formats.read_pnm),
                                         (b"Pf", formats.read_pfm),
                                         (b"P5", formats.read_pgm16)])
@pytest.mark.parametrize("at", ["magic", "width", "third"])
def test_a_header_token_over_64_bytes_fails_at_its_start(tmp_path, magic, read, at):
    """A token of 64 bytes is read; one of 65 fails where it starts."""
    third = b"-1.0" if read is formats.read_pfm else (
        b"255" if read is formats.read_pnm else b"65535")
    (tmp_path / "m.map.scale").write_text("0.5\n")
    path = tmp_path / "m.map"
    index = {"magic": 0, "width": 1, "third": 3}[at]
    for size, ok in [(64, True), (65, False)]:
        tokens = [magic, b"2", b"1", third]
        if at == "magic":
            tokens[0] = magic + b"x" * (size - 2)
        elif at == "width":
            tokens[1] = b"0" * (size - 1) + b"2"
        else:
            tokens[3] = (b"0" * (size - len(third)) + third if third != b"-1.0"
                         else b"-" + b"0" * (size - 4) + b"1.0")
        assert len(tokens[index]) == size
        start = sum(len(t) + 1 for t in tokens[:index])
        path.write_bytes(b" ".join(tokens) + b"\n" + bytes(8))
        outcome = _outcome(read, path)
        if ok:
            assert "too long" not in str(outcome)
            assert outcome[0] == ("error" if at == "magic" else "values")
        else:
            assert outcome == ("error", f"header token too long (byte offset {start})",
                               start)


@pytest.mark.parametrize("read", [formats.read_pnm, formats.read_pfm, formats.read_pgm16])
def test_a_two_megabyte_token_fails_with_a_short_message(tmp_path, read):
    path = tmp_path / "big.map"
    path.write_bytes(b"P5" + bytes(2 * 1024 * 1024))
    with pytest.raises(ParseError) as err:
        read(path)
    assert str(err.value) == "header token too long (byte offset 0)"


_MAX_HEADER = 64 * 1024
_HEADS = [(b"P5", b"255", formats.read_pnm, reference_read_pnm),
          (b"Pf", b"-1.0", formats.read_pfm, reference_read_pfm),
          (b"P5", b"65535", formats.read_pgm16, reference_read_pgm16)]


@pytest.mark.parametrize("magic, third, read, reference", _HEADS,
                         ids=["pnm", "pfm", "pgm16"])
@pytest.mark.parametrize("gap", [b"#" + b"c" * 2 * 1024 * 1024 + b"\n",
                                 b" " * 2 * 1024 * 1024], ids=["comment", "spaces"])
def test_a_two_megabyte_header_gap_fails_at_the_cap(tmp_path, magic, third, read,
                                                    reference, gap):
    """A comment or a whitespace run is read up to the header cap, no
    further, and fails there."""
    path = tmp_path / "m.map"
    (tmp_path / "m.map.scale").write_text("0.5\n")
    path.write_bytes(magic + b" " + gap + b" 2 1 " + third + b"\n" + bytes(8))
    with pytest.raises(ParseError) as err:
        read(path)
    assert str(err.value) == f"header too long (byte offset {_MAX_HEADER})"
    assert _outcome(read, path) == _outcome(reference, path)


@pytest.mark.parametrize("magic, third, read, reference", _HEADS,
                         ids=["pnm", "pfm", "pgm16"])
@pytest.mark.parametrize("pad", [b" ", b"#"], ids=["spaces", "comment"])
def test_header_gaps_around_the_cap_match_the_oracle(tmp_path, magic, third, read,
                                                     reference, pad):
    """Padding before each token puts its start at each offset around the
    cap: a token may start at the cap, but a gap byte at the cap or past it
    (other than the one that ends a token) fails at that byte."""
    (tmp_path / "m.map.scale").write_text("0.5\n")
    path = tmp_path / "m.map"
    tokens = [magic, b"2", b"1", third]
    for index in range(4):
        before = b"".join(t + b" " for t in tokens[:index])
        for start in range(_MAX_HEADER - 6, _MAX_HEADER + 2):
            width = start - len(before)
            gap = (b" " * width if pad == b" " else
                   b"#" + b"c" * (width - 2) + b"\n")
            path.write_bytes(before + gap + b" ".join(tokens[index:]) + b"\n"
                             + bytes(8))
            outcome = _outcome(read, path)
            assert outcome == _outcome(reference, path)
            # the gap is [len(before), start): the byte that ends a token is
            # not in it, so token index + 1 may start at the cap plus one
            assert outcome[0] == ("error" if start > _MAX_HEADER else "values")


@pytest.mark.parametrize("third", [b"-1.0", b"1.0", b"65535"])
def test_header_ending_at_any_offset_around_the_first_read(tmp_path, third):
    """A comment pads the header so that its last token ends at each offset
    within 8 bytes of the buffered reader's refill at
    ``io.DEFAULT_BUFFER_SIZE``: a token that a refill cuts (``1.0`` as
    ``1.``, ``65535`` as ``655``) must be read whole, as the oracle does."""
    magic, read, reference = ((b"P5", formats.read_pgm16, reference_read_pgm16)
                              if third == b"65535" else
                              (b"Pf", formats.read_pfm, reference_read_pfm))
    raster = bytes(range(1, 25))  # 3x2 float32, or 3x2 counts and 12 spare bytes
    (tmp_path / "m.map.scale").write_text("0.5\n")
    for end in range(io.DEFAULT_BUFFER_SIZE - 8, io.DEFAULT_BUFFER_SIZE + 9):
        head = magic + b" 3 2 #"
        head += b"c" * (end - len(head) - len(third) - 1) + b"\n" + third
        assert len(head) == end
        for tail in [b"\n" + raster, b"\n" + raster[:10], b"\n", b""]:
            path = tmp_path / "m.map"
            path.write_bytes(head + tail)
            assert _outcome(read, path) == _outcome(reference, path)
            assert _outcome(read, path)[0] == ("values" if len(tail) > 11 else "error")


@pytest.mark.parametrize("fmt", ["pfm", "pgm16"])
def test_load_depth_map_peak_is_the_frame(tmp_path, fmt):
    """A 1080p map load allocates its float32 frame, 4 bytes a pixel, and
    at most 1 MiB more: no copy of the file's bytes, no float64 frame, no
    frame-sized mask."""
    rng = np.random.default_rng(0)
    path = tmp_path / "m.map"
    if fmt == "pfm":
        values = rng.standard_normal((1080, 1920)).astype(np.float32)
        values[::7, ::5] = np.nan
        write_pfm(path, values)
    else:
        write_pgm16(path, rng.integers(0, 65536, (1080, 1920)) * 0.001, scale=0.001)
    tracemalloc.start()
    try:
        loaded = load_depth_map(path, kind="depth")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.shape == (1080, 1920)
    assert peak <= 4 * 1080 * 1920 + 2 ** 20


_SIGNALING = np.array([[0x7F800001, 0x3FC00000, 0xFF800001],
                       [0x40400000, 0x7FA00000, 0x40800000]], np.uint32)


@pytest.mark.parametrize("order", ["<", ">"])
@pytest.mark.parametrize("rescale", [None, 2.0])
def test_a_signaling_nan_in_a_pfm_map_reads_without_a_warning(tmp_path, order, rescale):
    """Signaling NaN samples (0x7F800001, 0xFF800001, 0x7FA00000) are holes.
    Widened to float64, by a load with ``rescale``, a float64 read or a
    strip read into a loss's float64 buffer, each becomes a quiet NaN, and
    no read warns (the suite makes a warning an error). Without
    ``rescale`` the float32 frame keeps the file's bits."""
    path = tmp_path / "level_1.pfm"
    path.write_bytes(b"Pf\n3 2\n" + (b"-1.0" if order == "<" else b"1.0") + b"\n"
                     + _SIGNALING[::-1].astype(order + "u4").tobytes())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        whole = load_depth_map(path, "disparity", rescale)
        wide = formats.read_pfm(path, np.float64)
        streamed = estimation.FileMap(path, "disparity", rescale)
        strips = [streamed.read(slice(row, row + 1)) for row in range(2)]
        into = [streamed.read(slice(row, row + 1), out=np.empty((1, 3))) for row in range(2)]
        mean = estimation.masked_mean(streamed, np.ones((2, 3), bool))
    if rescale is None:
        assert whole.view(np.uint32).tobytes() == _SIGNALING.tobytes()
    with np.errstate(invalid="ignore"):
        widened = whole.astype(np.float64)
    assert np.isnan(wide).sum() == np.isnan(widened).sum() == 3
    assert np.concatenate(strips).tobytes() == whole.tobytes()
    assert np.concatenate(into).tobytes() == widened.tobytes()
    assert mean == estimation.masked_mean(whole, np.ones((2, 3), bool))


@st.composite
def mutated_files(draw):
    """A binary PGM or PPM, a PFM of either byte order or a 16-bit PGM, its
    raster any bytes (signaling NaNs and overflowing counts included), then
    mutated one to four times: a byte set, bytes inserted or deleted
    anywhere, or the file cut."""
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    magic, third, px = draw(st.sampled_from([
        (b"P5", b"255", 1), (b"P6", b"255", 3), (b"Pf", b"-1.0", 4), (b"Pf", b"1.0", 4),
        (b"P5", b"65535", 2)]))
    data = bytearray(b"%s\n%d %d\n%s\n" % (magic, w, h, third))
    data += draw(st.binary(min_size=h * w * px, max_size=h * w * px))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        mutation = draw(st.sampled_from(["set", "insert", "delete", "cut"]))
        if mutation == "set" and at < len(data):
            data[at] = draw(st.integers(0, 255))
        elif mutation == "insert":
            data[at:at] = draw(st.binary(min_size=1, max_size=8))
        elif mutation == "delete":
            del data[at:at + draw(st.integers(1, 8))]
        elif mutation == "cut":
            del data[at:]
    return bytes(data)


def _or_parse_error(make):
    """What ``make`` returns, or None for a ParseError; any other exception,
    or a warning, fails."""
    try:
        return make()
    except ParseError:
        return None


def _map_or_parse_error(read):
    """What ``read`` returns, which must be an array, or None for a
    ParseError."""
    values = _or_parse_error(read)
    assert values is None or isinstance(values, np.ndarray)


@settings(max_examples=300, deadline=None)
@given(data=mutated_files(), rewrite=mutated_files(),
       sidecar=st.sampled_from(["0.25", "0.001", "1e35", "3.5e38", "1e-50", "nan", "-1"]),
       kind=st.sampled_from(["depth", "disparity"]), strip=st.sampled_from([1, 7, 2 ** 16]))
def test_mutated_files_give_a_map_a_raster_or_parse_error(tmp_path_factory, data, rewrite,
                                                          sidecar, kind, strip):
    """Every reader of a mutated raster or map file, with a sidecar scale,
    returns an array or raises ``ParseError``, and warns of nothing: the
    raster readers, ``load_depth_map`` with and without ``rescale``, and
    every strip and crop read of a level's streamed map, also after its
    file is rewritten with other bytes, as is a loaded raster's before its
    pixels are read."""
    path = tmp_path_factory.mktemp("fuzz") / "m.map"
    path.write_bytes(data)
    (path.parent / "m.map.scale").write_text(sidecar + "\n")
    with warnings.catch_warnings(), strip_values(strip):
        warnings.simplefilter("error")
        _map_or_parse_error(lambda: formats.read_pnm(path))
        for rescale in (None, 2.0):
            _map_or_parse_error(lambda: load_depth_map(path, kind, rescale))
        rasters = [_or_parse_error(lambda: RasterImage.load(path)) for _ in range(2)]
        streamed = [_or_parse_error(lambda: estimation.FileMap(path, kind, rescale))
                    for rescale in (None, 2.0)]
        for raster, rewritten in zip(rasters, (False, True)):
            if rewritten:
                path.write_bytes(rewrite)
            if raster is not None:
                _map_or_parse_error(lambda: raster.data)
            for fmap in filter(None, streamed):
                height, width = fmap.shape
                for rows in imaging._strips(height, width):
                    _map_or_parse_error(lambda: fmap.read(rows))
                    _map_or_parse_error(lambda: fmap.read(
                        rows, out=np.empty((rows.stop - rows.start, width))))
                _map_or_parse_error(lambda: fmap[1:height, 1:width])
