"""Command-line surface: happy paths, exit codes, self-consistency."""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from depthlens import cli, defense, formats
from depthlens.cli import main
from depthlens.imaging import (AttackProfile, BlurPlacement, LensKind, LensRegion,
                               RasterImage, apply_attack_transform)

from helpers import noise_image, textured_image, concave_sweep_fixture


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(out):
    pairs = {}
    for token in out.split():
        if "=" in token:
            key, value = token.split("=", 1)
            pairs[key] = value
    return pairs


class TestOpticsCommand:
    def test_concave_expected_depth(self, capsys):
        code, out, _ = run(capsys, "optics", "--lens", "concave", "--f", "0.20",
                           "--db", "0.04", "--do1", "6", "--fc", "0.026")
        assert code == 0
        kv = parse_kv(out)
        assert float(kv["expected_depth_m"]) == pytest.approx(6.42, abs=0.01)
        assert kv["scenario"] == "concave"
        assert kv["feasible"] == "true"

    def test_pass_through(self, capsys):
        code, out, _ = run(capsys, "optics", "--lens", "none",
                           "--db", "0.04", "--do1", "6", "--fc", "0.026")
        assert code == 0
        kv = parse_kv(out)
        assert float(kv["expected_depth_m"]) == 6.0
        assert kv["scenario"] == "pass_through"

    def test_singular_exits_one(self, capsys):
        code, _, err = run(capsys, "optics", "--lens", "convex", "--f", "0.20",
                           "--db", "0.04", "--do1", "0.20", "--fc", "0.026")
        assert code == 1
        assert "singular" in err

    def test_invalid_geometry_exits_two(self, capsys):
        code, _, _ = run(capsys, "optics", "--lens", "concave", "--f", "0.20",
                         "--db", "-1", "--do1", "6", "--fc", "0.026")
        assert code == 2

    @pytest.mark.parametrize("lens,flag", [
        (lens, flag) for lens in ("concave", "convex", "none")
        for flag in ("--f", "--db", "--do1", "--fc")
        if (lens, flag) != ("none", "--f")])  # pass-through reads no --f
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_input_exits_two(self, capsys, lens, flag, value):
        argv = {"--f": "0.2", "--db": "0.04", "--do1": "6", "--fc": "0.026"}
        argv[flag] = value
        code, out, err = run(capsys, "optics", "--lens", lens,
                             *(token for pair in argv.items() for token in pair))
        assert (code, out) == (2, "")
        assert "must be finite" in err

    def test_underflowing_magnification_exits_one(self, capsys):
        code, out, err = run(capsys, "optics", "--lens", "convex", "--f", "1e-300",
                             "--db", "0.04", "--do1", "1e300", "--fc", "0.026")
        assert (code, out) == (1, "")
        assert err.startswith("error: singular configuration: ")

    def test_table_matches_per_cell_invocations(self, capsys):
        code, out, _ = run(capsys, "optics", "--table", "concave", "--fc", "0.026")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("lens,f_m,d_b_m,d_o1_m")
        assert len(lines) == 1 + 36
        # middle cell cross-checked against a single invocation
        cell = lines[1 + 7].split(",")
        f, db, do1, depth = cell[1], cell[2], cell[3], float(cell[7])
        code, out, _ = run(capsys, "optics", "--lens", "concave", "--f",
                           str(abs(float(f))), "--db", db, "--do1", do1,
                           "--fc", "0.026")
        kv = parse_kv(out)
        assert float(kv["expected_depth_m"]) == pytest.approx(depth, rel=1e-6)


class TestSimulateCommand:
    def test_identity_profile_bit_identical(self, tmp_path, capsys):
        src = tmp_path / "in.pgm"
        dst = tmp_path / "out.pgm"
        img = noise_image((40, 40), seed=3)
        img.save(src)
        code, _, _ = run(capsys, "simulate", "--input", str(src), "--output",
                         str(dst), "--scale", "1", "--blur", "0")
        assert code == 0
        assert dst.read_bytes() == src.read_bytes()

    def test_level_attack_respects_masks(self, tmp_path, capsys):
        src = tmp_path / "in.pgm"
        dst = tmp_path / "out.pgm"
        textured_image((128, 128), seed=4).save(src)
        code, _, _ = run(capsys, "simulate", "--input", str(src), "--output",
                         str(dst), "--lens-kind", "concave", "--level", "1",
                         "--region", "circle", "--cx", "64", "--cy", "64",
                         "--radius", "30", "--emit-masks", str(tmp_path / "m"))
        assert code == 0
        out_img = RasterImage.load(dst).data
        src_img = RasterImage.load(src).data
        in_mask = RasterImage.load(tmp_path / "m_in.pgm").data > 0
        out_mask = RasterImage.load(tmp_path / "m_out.pgm").data > 0
        assert (in_mask ^ out_mask).all()
        # level 1 concave: rescale confined to the circle, blur radius 1
        # confined to out-of-lens; pixels outside the dilated union untouched
        changed = out_img != src_img
        assert changed.any()
        assert changed[in_mask].any() or changed[out_mask].any()

    def test_missing_input_exit_two(self, tmp_path, capsys):
        code, _, err = run(capsys, "simulate", "--input",
                           str(tmp_path / "nope.pgm"), "--output",
                           str(tmp_path / "o.pgm"), "--scale", "1", "--blur", "0")
        assert code == 2

    def test_config_file_supplies_defaults(self, tmp_path, capsys):
        src = tmp_path / "in.pgm"
        dst = tmp_path / "out.pgm"
        noise_image((24, 24), seed=5).save(src)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input = {src}\noutput = {dst}\nscale = 1\nblur = 0\n")
        code, _, _ = run(capsys, "simulate", "--config", str(cfg))
        assert code == 0
        assert dst.read_bytes() == src.read_bytes()

    def test_placement_override_without_level(self, tmp_path, capsys):
        src = tmp_path / "in.pgm"
        dst = tmp_path / "out.pgm"
        textured_image((64, 64), seed=6).save(src)
        code, out, _ = run(capsys, "simulate", "--input", str(src), "--output",
                           str(dst), "--scale", "1.2", "--blur", "3", "--placement",
                           "in_lens", "--region", "circle", "--cx", "32", "--cy",
                           "32", "--radius", "16")
        assert code == 0
        assert parse_kv(out)["placement"] == "in_lens"
        profile = AttackProfile(1, LensRegion.circle(32, 32, 16), 1.2, 3,
                                BlurPlacement.IN_LENS)
        expected = apply_attack_transform(RasterImage.load(src), profile)
        assert np.array_equal(RasterImage.load(dst).data, expected.data)


class TestOptimizeCommand:
    def test_proxy_sweep_csv(self, tmp_path, capsys):
        image, box, region, _, y_tar = concave_sweep_fixture(seed=42)
        src = tmp_path / "benign.pgm"
        image.save(src)
        boxes = tmp_path / "boxes.txt"
        boxes.write_text(f"{box.x_min} {box.y_min} {box.x_max} {box.y_max}\n")
        out_csv = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "optimize", "--input", str(src), "--mode",
                         "targeted", "--lens-kind", "concave", "--boxes",
                         str(boxes), "--region", "circle", "--cx", "96",
                         "--cy", "96", "--radius", "60", "--estimator", "proxy",
                         "--fiducial-height", "1.5", "--focal-px", "700",
                         "--y-tar", str(y_tar), "--output", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0] == "alpha,mode,best_level,best_loss,metric_name,metric_value"
        assert len(lines) == 5
        assert all(line.split(",")[4] == "AER" for line in lines[1:])

    def test_untargeted_metric_column(self, tmp_path, capsys):
        image, box, region, _, _ = concave_sweep_fixture(seed=43)
        src = tmp_path / "benign.pgm"
        image.save(src)
        boxes = tmp_path / "boxes.txt"
        boxes.write_text(f"{box.x_min} {box.y_min} {box.x_max} {box.y_max}\n")
        code, out, _ = run(capsys, "optimize", "--input", str(src), "--mode",
                           "untargeted", "--lens-kind", "concave", "--boxes",
                           str(boxes), "--region", "circle", "--cx", "96",
                           "--cy", "96", "--radius", "60", "--estimator", "proxy",
                           "--fiducial-height", "1.5", "--focal-px", "700",
                           "--alphas", "0.1")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[1].split(",")[4] == "ADR"

    def test_external_missing_level_marks_row_and_exits_zero(self, tmp_path, capsys):
        maps = tmp_path / "maps"
        maps.mkdir()
        formats.write_pfm(maps / "benign.pfm", np.full((8, 8), 1.0, np.float32))
        for lv in (1, 2, 3, 4, 5, 6, 8, 9):  # level 7 missing
            formats.write_pfm(maps / f"level_{lv}.pfm",
                              np.full((8, 8), 1.3, np.float32))
        src = tmp_path / "benign.pgm"
        RasterImage(np.full((8, 8), 120, np.uint8)).save(src)
        boxes = tmp_path / "boxes.txt"
        boxes.write_text("2 2 6 6\n")
        code, out, _ = run(capsys, "optimize", "--input", str(src), "--mode",
                           "untargeted", "--lens-kind", "concave", "--boxes",
                           str(boxes), "--region", "circle", "--cx", "4",
                           "--cy", "4", "--radius", "3", "--estimator",
                           "external", "--maps", str(maps), "--alphas", "0.1,0.2")
        assert code == 0
        body = out.strip().split("\n")[1:]
        assert len(body) == 2
        assert all(",failed," in line for line in body)

    @pytest.mark.parametrize("focal_px", ["0", "-700", "nan", "inf"])
    def test_bad_focal_px_exits_two(self, tmp_path, capsys, focal_px):
        image, box, _, _, _ = concave_sweep_fixture(seed=42)
        src = tmp_path / "benign.pgm"
        image.save(src)
        boxes = tmp_path / "boxes.txt"
        boxes.write_text(f"{box.x_min} {box.y_min} {box.x_max} {box.y_max}\n")
        code, out, err = run(capsys, "optimize", "--input", str(src), "--mode",
                             "untargeted", "--lens-kind", "concave", "--boxes",
                             str(boxes), "--fiducial-height", "1.5",
                             "--focal-px", focal_px)
        assert (code, out) == (2, "")
        assert "focal length must be finite and positive" in err

    def test_baseline_is_not_an_option(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--baseline", "0.54"])
        assert exc.value.code == 2
        cfg = tmp_path / "c.cfg"
        cfg.write_text("baseline = 0.54\n")
        code, _, err = run(capsys, "optimize", "--config", str(cfg))
        assert code == 2
        assert "unknown config key 'baseline'" in err

    @pytest.mark.parametrize("rescale", ["0", "-2", "nan", "inf"])
    def test_non_positive_rescale_exits_two(self, tmp_path, capsys, rescale):
        maps = tmp_path / "maps"
        maps.mkdir()
        for tag in ["benign"] + [f"level_{lv}" for lv in range(1, 10)]:
            formats.write_pfm(maps / f"{tag}.pfm", np.full((8, 8), 1.0, np.float32))
        src = tmp_path / "benign.pgm"
        RasterImage(np.full((8, 8), 120, np.uint8)).save(src)
        boxes = tmp_path / "boxes.txt"
        boxes.write_text("2 2 6 6\n")
        code, out, err = run(capsys, "optimize", "--input", str(src), "--mode",
                             "untargeted", "--lens-kind", "concave", "--boxes",
                             str(boxes), "--estimator", "external", "--maps",
                             str(maps), "--rescale", rescale)
        assert code == 2
        assert out == ""
        assert "rescale" in err


class TestMetricsCommand:
    def test_adr_scalars(self, capsys):
        code, out, _ = run(capsys, "metrics", "--kind", "adr", "--attacked",
                           "0.36", "--benign", "0.28")
        assert code == 0
        assert float(out.split("=")[1]) == pytest.approx(0.285714, abs=1e-5)

    def test_aer_scalars(self, capsys):
        code, out, _ = run(capsys, "metrics", "--kind", "aer", "--attacked",
                           "11.57", "--target", "11.79")
        assert code == 0
        assert float(out.split("=")[1]) == pytest.approx(0.0186599, abs=1e-6)

    def test_map_mode(self, tmp_path, capsys):
        att = tmp_path / "att.pfm"
        ben = tmp_path / "ben.pfm"
        formats.write_pfm(att, np.full((6, 6), 0.36, np.float32))
        formats.write_pfm(ben, np.full((6, 6), 0.28, np.float32))
        boxes = tmp_path / "boxes.txt"
        boxes.write_text("1 1 5 5\n")
        code, out, _ = run(capsys, "metrics", "--kind", "adr", "--attacked-map",
                           str(att), "--benign-map", str(ben), "--map-kind",
                           "disparity", "--boxes", str(boxes))
        assert code == 0
        assert float(out.split("=")[1]) == pytest.approx(0.2857, abs=1e-3)

    def test_bad_kind_exits_two(self, capsys):
        code, _, _ = run(capsys, "metrics", "--kind", "mse", "--attacked", "1",
                         "--benign", "1")
        assert code == 2

    def test_benign_map_without_boxes_exits_two(self, tmp_path, capsys):
        ben = tmp_path / "m.pfm"
        formats.write_pfm(ben, np.full((6, 6), 0.28, np.float32))
        code, _, err = run(capsys, "metrics", "--kind", "adr", "--attacked", "5",
                           "--benign-map", str(ben))
        assert code == 2
        assert "missing required option --boxes" in err

    def test_empty_boxes_file_exits_two(self, tmp_path, capsys):
        att = tmp_path / "att.pfm"
        formats.write_pfm(att, np.full((6, 6), 0.36, np.float32))
        boxes = tmp_path / "empty.txt"
        boxes.write_text("# no boxes\n")
        code, _, err = run(capsys, "metrics", "--kind", "aer", "--attacked-map",
                           str(att), "--target", "0.3", "--boxes", str(boxes))
        assert code == 2
        assert f"no boxes in {boxes}" in err


class TestDefendCommand:
    def test_sharp_fixture_clean(self, tmp_path, capsys):
        src = tmp_path / "sharp.pgm"
        noise_image((96, 96), seed=0).save(src)
        code, out, _ = run(capsys, "defend", "--input", str(src),
                           "--method", "varlap")
        assert code == 0
        assert "verdict=clean" in out

    def test_blurred_fixture_flagged(self, tmp_path, capsys):
        from depthlens.imaging import box_blur
        src = tmp_path / "blurred.pgm"
        img = noise_image((96, 96), seed=0)
        box_blur(img, np.ones((96, 96), bool), 4).save(src)
        code, out, _ = run(capsys, "defend", "--input", str(src),
                           "--method", "varlap")
        assert code == 0
        assert "verdict=blurred" in out

    def test_lbp_writes_mask(self, tmp_path, capsys):
        from depthlens.imaging import box_blur
        src = tmp_path / "half.pgm"
        img = noise_image((128, 128), seed=2)
        mask = np.zeros((128, 128), bool)
        mask[:, :64] = True
        box_blur(img, mask, 4).save(src)
        out_mask = tmp_path / "mask.pgm"
        code, out, _ = run(capsys, "defend", "--input", str(src), "--method",
                           "lbp", "--mask-out", str(out_mask))
        assert code == 0
        assert "verdict=blurred" in out
        written = RasterImage.load(out_mask).data
        assert (written[:, :64] > 0).mean() > 0.9

    @pytest.mark.parametrize("method,default", [
        ("varlap", defense.DEFAULT_VARLAP_THRESHOLD),
        ("lbp", defense.DEFAULT_LBP_SCORE_THRESHOLD)])
    def test_threshold_defaults_to_the_method_default(self, tmp_path, capsys,
                                                       method, default):
        src = tmp_path / "img.pgm"
        noise_image((64, 64), seed=1).save(src)
        code, out, _ = run(capsys, "defend", "--input", str(src), "--method", method)
        assert code == 0
        assert float(parse_kv(out)["threshold"]) == default
        code, out, _ = run(capsys, "defend", "--input", str(src), "--method", method,
                           "--threshold", "0")
        assert code == 0
        assert parse_kv(out)["threshold"] == "0"
        assert parse_kv(out)["verdict"] == "clean"

    def test_negative_lbp_delta_exits_two(self, tmp_path, capsys):
        src = tmp_path / "img.pgm"
        noise_image((64, 64), seed=1).save(src)
        code, out, err = run(capsys, "defend", "--input", str(src), "--method",
                             "lbp", "--delta", "-5")
        assert (code, out) == (2, "")
        assert "delta" in err

    def test_unsupported_method_exits_two(self, tmp_path, capsys):
        src = tmp_path / "img.pgm"
        noise_image((64, 64), seed=1).save(src)
        code, _, err = run(capsys, "defend", "--input", str(src),
                           "--method", "hifst")
        assert code == 2
        assert "unsupported" in err

    def test_tiny_image_exits_two(self, tmp_path, capsys):
        src = tmp_path / "tiny.pgm"
        RasterImage(np.zeros((2, 2), np.uint8)).save(src)
        code, _, _ = run(capsys, "defend", "--input", str(src),
                         "--method", "varlap")
        assert code == 2


class TestScenarioCommand:
    def test_benign_defaults(self, capsys):
        code, out, _ = run(capsys, "scenario")
        assert code == 0
        assert out.startswith("STOPPED gap=")
        assert float(out.split("=")[1]) == pytest.approx(2.0, abs=0.15)

    def test_attacked_ratio(self, capsys, tmp_path):
        log = tmp_path / "ticks.csv"
        code, out, _ = run(capsys, "scenario", "--ratio", "1.5",
                           "--log", str(log))
        assert code == 0
        assert out.startswith("COLLISION speed=")
        assert float(out.split("\n")[0].split("=")[1]) == pytest.approx(4.16, abs=0.1)
        header = log.read_text().split("\n")[0]
        assert header == "t,true_gap,perceived_gap,speed,accel,braking"

    def test_ratio_from_optics(self, capsys):
        code, out, _ = run(capsys, "scenario", "--ratio-from-optics", "--lens",
                           "concave", "--f", "0.20", "--db", "0.12", "--do1",
                           "6", "--fc", "0.026")
        assert code == 0
        first = out.split("\n")[0]
        assert first.startswith("ratio=")
        assert float(first.split("=")[1]) == pytest.approx(8.78 / 6.0, abs=0.01)

    def test_invalid_config_exits_two(self, capsys):
        code, _, _ = run(capsys, "scenario", "--dt", "0.5")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["--gap0", "nan"], ["--speed", "nan"], ["--max-time", "inf"],
        ["--dt", "nan"], ["--sigma", "inf"], ["--ratio", "nan"],
        ["--max-decel", "inf"], ["--margin", "nan"]])
    def test_non_finite_input_exits_two(self, capsys, argv):
        code, out, err = run(capsys, "scenario", *argv)
        assert (code, out) == (2, "")
        assert "must be finite" in err

    def test_unknown_lens_with_ratio_from_optics_exits_two(self, capsys):
        code, _, err = run(capsys, "scenario", "--ratio-from-optics", "--lens",
                           "banana", "--f", "0.20", "--db", "0.12", "--do1", "6",
                           "--fc", "0.026")
        assert code == 2
        assert "banana" in err


def test_module_entry_point_matches_main(capsys):
    argv = ["optics", "--lens", "none", "--do1", "6", "--fc", "0.026", "--db", "0.04"]
    code, out, _ = run(capsys, *argv)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "depthlens.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (code, out)
    assert out


class TestConfigResolution:
    def test_explicit_zero_flags_beat_config(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("sigma = 0.5\nseed = 7\n")
        configured, plain = tmp_path / "configured.csv", tmp_path / "plain.csv"
        code, out, _ = run(capsys, "scenario", "--config", str(cfg), "--sigma", "0",
                           "--seed", "0", "--log", str(configured))
        assert code == 0
        _, plain_out, _ = run(capsys, "scenario", "--log", str(plain))
        assert out.split("\n")[0] == plain_out.split("\n")[0]
        assert configured.read_bytes() == plain.read_bytes()

    def test_hash_inside_value_is_kept(self, tmp_path, capsys):
        (tmp_path / "out").mkdir()
        log = tmp_path / "out" / "a#b.csv"
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"# whole-line comment\n   # indented comment\nlog = {log}\n")
        code, _, _ = run(capsys, "scenario", "--config", str(cfg))
        assert code == 0
        assert log.is_file()
        assert not (tmp_path / "out" / "a").exists()

    def test_unknown_key_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("sigma = 0.1\nwidth = 3\n")
        code, _, err = run(capsys, "scenario", "--config", str(cfg))
        assert code == 2
        assert "unknown config key 'width'" in err

    @pytest.mark.parametrize("word", ["maybe", "ture", "", "2", "y", "truee"])
    def test_bool_word_outside_the_list_exits_two(self, tmp_path, capsys, word):
        # A misspelt "true" must not quietly run with the flag off.
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"ratio = 1.5\nratio_from_optics = {word}\n")
        code, out, err = run(capsys, "scenario", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert "config key 'ratio_from_optics'" in err
        assert "Traceback" not in err

    def test_bad_config_number_names_its_key(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("sigma = abc\n")
        code, out, err = run(capsys, "scenario", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith("error: config key 'sigma': ")
        assert "'abc'" in err


_PARSER, _COMMANDS = cli.build_parser()
_OPTIONS = [(name, dest) for name, command in _COMMANDS.items()
            for dest in command.options]
_BOOL_WORDS = ["1", "true", "yes", "on", "TRUE", "0", "false", "no", "off"]


def _values(parse):
    """(command-line text, config text, resolved value) for one option type."""
    if parse is int:
        ints = st.one_of(st.just(0), st.integers(-10 ** 6, 10 ** 6))
        return ints.map(lambda v: (str(v), str(v), v))
    if parse is float:
        floats = st.one_of(st.just(0.0), st.floats(-1e6, 1e6, allow_nan=False))
        return floats.map(lambda v: (repr(v), repr(v), v))
    if parse is str:
        # '#' anywhere in a value is data; only whole-line comments exist.
        # argparse reads "--x=--" as no value, so no value starts with "-".
        text = st.text(alphabet="ab/._-#=07", max_size=10).filter(
            lambda v: not v.startswith("-"))
        return text.map(lambda v: (v, v, v))
    return st.sampled_from(_BOOL_WORDS).map(
        lambda w: (None, w, w.lower() in ("1", "true", "yes", "on")))


@pytest.mark.parametrize("name,dest", _OPTIONS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_flag_beats_config_beats_default(name, dest, data):
    """Every registered option: an explicit flag (even 0, 0.0 or "") wins over
    the config file, the file wins over the registered default, and no other
    option moves off its default."""
    command = _COMMANDS[name]
    parse, default = command.options[dest]
    flag_text, _, flag_value = data.draw(_values(parse))
    _, file_text, file_value = data.draw(_values(parse))
    use_flag = data.draw(st.booleans())
    use_file = data.draw(st.booleans())
    key = data.draw(st.sampled_from([dest, dest.replace("_", "-")]))
    option = "--" + dest.replace("_", "-")
    argv = [name]
    if use_flag and flag_text is None:  # a store_true flag
        argv.append(option)
        flag_value = True
    elif use_flag:
        argv.append(f"{option}={flag_text}")
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text("# settings\n" + (f"{key} = {file_text}\n" if use_file else ""))
        ns = _PARSER.parse_args(argv + ["--config", str(cfg)])
        cli._resolve(ns, command)
    expected = flag_value if use_flag else file_value if use_file else default
    assert getattr(ns, dest) == expected
    assert type(getattr(ns, dest)) is type(expected)
    for other, (_, other_default) in command.options.items():
        if other != dest:
            assert getattr(ns, other) == other_default


# Invocations that read float options: each reads every float flag it names,
# and together they name every registered float option.
_FLOAT_READERS = [
    ["optics", "--lens", "convex", "--f", "0.2", "--db", "0.04", "--do1", "6",
     "--fc", "0.026"],
    ["optics", "--table", "concave", "--fc", "0.026"],
    ["simulate", "--input", "{img}", "--output", "{out}", "--level", "2",
     "--scale", "1.2", "--region", "circle", "--cx", "8", "--cy", "8",
     "--radius", "5"],
    ["optimize", "--input", "{img}", "--mode", "targeted", "--lens-kind",
     "concave", "--boxes", "{boxes}", "--region", "circle", "--cx", "8",
     "--cy", "8", "--radius", "5", "--y-tar", "0.43", "--fiducial-height",
     "1.5", "--focal-px", "700", "--alphas", "0.1"],
    ["optimize", "--input", "{img}", "--mode", "untargeted", "--lens-kind",
     "convex", "--boxes", "{boxes}", "--estimator", "external", "--maps",
     "{maps}", "--rescale", "2", "--alphas", "0.1"],
    ["metrics", "--kind", "adr", "--attacked", "0.36", "--benign", "0.28"],
    ["metrics", "--kind", "aer", "--attacked", "0.36", "--target", "0.43"],
    ["defend", "--input", "{img}", "--method", "varlap", "--threshold", "100"],
    ["defend", "--input", "{img}", "--method", "lbp", "--threshold", "0.15"],
    ["scenario", "--gap0", "40", "--speed", "10", "--max-decel", "6",
     "--margin", "2", "--dt", "0.01", "--max-time", "60", "--sigma", "0.1",
     "--ratio", "1.2"],
    ["scenario", "--ratio-from-optics", "--lens", "concave", "--f", "0.2",
     "--db", "0.04", "--do1", "6", "--fc", "0.026"],
]


def _float_flags(name):
    return {"--" + dest.replace("_", "-")
            for dest, (parse, _) in _COMMANDS[name].options.items() if parse is float}


_FLOAT_CASES = [(argv, i) for argv in _FLOAT_READERS
                for i, token in enumerate(argv) if token in _float_flags(argv[0])]


@pytest.fixture(scope="module")
def reader_files(tmp_path_factory):
    """Input files of the float-reading invocations: an image with a dark
    fiducial, its box, and a directory of maps for the external estimator."""
    tmp = tmp_path_factory.mktemp("readers")
    data = np.full((16, 16), 200, np.uint8)
    data[6:10, 6:10] = 0
    RasterImage(data).save(tmp / "in.pgm")
    (tmp / "boxes.txt").write_text("4 4 12 12\n")
    maps = tmp / "maps"
    maps.mkdir()
    for tag in ["benign"] + [f"level_{lv}" for lv in range(1, 10)]:
        formats.write_pfm(maps / f"{tag}.pfm", np.full((16, 16), 1.0, np.float32))
    return {"img": str(tmp / "in.pgm"), "out": str(tmp / "out.pgm"),
            "boxes": str(tmp / "boxes.txt"), "maps": str(maps)}


def test_every_float_option_has_a_reading_invocation():
    registered = {(name, dest) for name, command in _COMMANDS.items()
                  for dest, (parse, _) in command.options.items() if parse is float}
    covered = {(argv[0], argv[i][2:].replace("-", "_")) for argv, i in _FLOAT_CASES}
    assert covered == registered


@pytest.mark.parametrize("argv", _FLOAT_READERS, ids=lambda argv: argv[0])
def test_float_reading_invocations_run(capsys, reader_files, argv):
    code, _, err = run(capsys, *(token.format(**reader_files) for token in argv))
    assert (code, err) == (0, "")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("argv,index", _FLOAT_CASES,
                         ids=[f"{argv[0]}{argv[i]}" for argv, i in _FLOAT_CASES])
def test_non_finite_float_option_exits_two(capsys, reader_files, argv, index, value):
    """Every float option of every subcommand: NaN or an infinity is a usage
    error that names the rule, never a result, a traceback or a different
    complaint."""
    argv = [token.format(**reader_files) for token in argv]
    argv[index:index + 2] = [f"{argv[index]}={value}"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "must be finite" in err
    assert "Traceback" not in err
