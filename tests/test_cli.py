"""Command-line surface: happy paths, exit codes, self-consistency."""

import argparse
import contextlib
import io
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from depthlens import attack_opt, cli, defense, formats, scenario
from depthlens.cli import main
from depthlens.errors import EmptyMask
from depthlens.estimation import DETECTION_THRESHOLDS, Box, FiducialSpec, load_depth_map
from depthlens.imaging import (AttackProfile, BlurPlacement, LensKind, LensRegion,
                               RasterImage, apply_attack_transform, region_masks)

from helpers import noise_image, textured_image, concave_sweep_fixture, write_pfm
from oracles import dense_box_mask, two_step_masked_mean


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


@pytest.fixture
def pnm_reads(monkeypatch):
    """The paths ``formats.read_pnm`` reads, in order."""
    paths = []
    read_pnm = formats.read_pnm
    monkeypatch.setattr(formats, "read_pnm",
                        lambda path, out=None: paths.append(path) or read_pnm(path, out))
    return paths


class TestInputReads:
    """An input raster's pixels are read on their first use, once, and not
    at all by a command that uses only its size."""

    def _sweep_inputs(self, tmp_path):
        image, box, _, _, _ = concave_sweep_fixture(seed=42)
        src = tmp_path / "benign.pgm"
        image.save(src)
        boxes = tmp_path / "boxes.txt"
        boxes.write_text(f"{box.x_min} {box.y_min} {box.x_max} {box.y_max}\n")
        return ["optimize", "--input", str(src), "--mode", "untargeted", "--lens-kind",
                "concave", "--boxes", str(boxes), "--region", "circle", "--cx", "96",
                "--cy", "96", "--radius", "60", "--alphas", "0.1,0.3"]

    def test_an_external_map_search_reads_no_pixels(self, tmp_path, capsys, pnm_reads):
        argv = self._sweep_inputs(tmp_path)
        maps = tmp_path / "maps"
        maps.mkdir()
        rng = np.random.default_rng(1)
        for tag in ["benign"] + [f"level_{level}" for level in range(1, 10)]:
            write_pfm(maps / f"{tag}.pfm", rng.uniform(0.5, 2.0, (192, 192)).astype(np.float32))
        code, out, err = run(capsys, *argv, "--estimator", "external", "--maps", str(maps))
        assert (code, err) == (0, "")
        assert len(out.strip().split("\n")) == 3
        assert pnm_reads == []

    def test_a_proxy_search_reads_its_input_once(self, tmp_path, capsys, pnm_reads):
        argv = self._sweep_inputs(tmp_path)
        code, _, err = run(capsys, *argv, "--fiducial-height", "1.5", "--focal-px", "700")
        assert (code, err) == (0, "")
        assert pnm_reads == [argv[2]]

    @pytest.mark.parametrize("region", [[], ["--region", "circle", "--cx", "20",
                                             "--cy", "30", "--radius", "15"]])
    def test_simulate_and_defend_read_their_input_once(self, tmp_path, capsys, pnm_reads,
                                                       region):
        src, dst = str(tmp_path / "in.ppm"), str(tmp_path / "out.ppm")
        noise_image((48, 40, 3), seed=2).save(src)
        assert run(capsys, "simulate", "--input", src, "--output", dst, "--level", "4",
                   *region)[0] == 0
        assert run(capsys, "defend", "--input", dst, "--method", "lbp")[0] == 0
        assert pnm_reads == [src, dst]

    @pytest.mark.parametrize("lens_kind", ["concave", "convex"])
    @pytest.mark.parametrize("region", [[], ["--region", "circle", "--cx", "20",
                                             "--cy", "30", "--radius", "15"]])
    def test_simulate_in_place_writes_the_bytes_of_two_paths(self, tmp_path, capsys,
                                                             lens_kind, region):
        src, dst = tmp_path / "in.ppm", tmp_path / "out.ppm"
        noise_image((48, 40, 3), seed=3).save(src)
        argv = ["--lens-kind", lens_kind, "--level", "6", *region]
        assert run(capsys, "simulate", "--input", str(src), "--output", str(dst),
                   *argv)[0] == 0
        assert run(capsys, "simulate", "--input", str(src), "--output", str(src),
                   *argv)[0] == 0
        assert src.read_bytes() == dst.read_bytes()

    @pytest.mark.parametrize("lens_kind", ["concave", "convex"])
    def test_a_full_frame_render_holds_no_frame_sized_mask(self, tmp_path, capsys,
                                                           lens_kind):
        """A 1080p full-frame simulate allocates the input and output frames
        and strips: under 3 MiB more, where one bool mask takes 2 MB."""
        src, dst = str(tmp_path / "in.pgm"), str(tmp_path / "out.pgm")
        noise_image((1080, 1920), seed=4).save(src)
        tracemalloc.start()
        try:
            code = main(["simulate", "--input", src, "--output", dst,
                         "--lens-kind", lens_kind, "--level", "5"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 2 * 1080 * 1920 + 3 * 2 ** 20


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
        write_pfm(maps / "benign.pfm", np.full((8, 8), 1.0, np.float32))
        for lv in (1, 2, 3, 4, 5, 6, 8, 9):  # level 7 missing
            write_pfm(maps / f"level_{lv}.pfm",
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

    def test_default_full_frame_region_scores_every_alpha(self, tmp_path, capsys):
        # a full-frame lens leaves no out-of-lens pixel, so L_out is 0
        image, box, _, _, _ = concave_sweep_fixture(seed=42)
        src = tmp_path / "benign.pgm"
        image.save(src)
        boxes = tmp_path / "boxes.txt"
        boxes.write_text(f"{box.x_min} {box.y_min} {box.x_max} {box.y_max}\n")
        code, out, err = run(capsys, "optimize", "--input", str(src), "--mode",
                             "untargeted", "--lens-kind", "concave", "--boxes",
                             str(boxes), "--fiducial-height", "1.5",
                             "--focal-px", "700", "--alphas", "0.1,0.5")
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert [row[:2] for row in rows] == [["0.1", "untargeted"], ["0.5", "untargeted"]]
        assert all(1 <= int(row[2]) <= 9 and row[4] == "ADR" for row in rows)

    def test_failed_row_reasons_reach_stderr(self, tmp_path, capsys):
        # every attacked map is NaN outside the lens circle, so L_out has no
        # valid pixel and every alpha fails at level 1
        maps = tmp_path / "maps"
        maps.mkdir()
        write_pfm(maps / "benign.pfm", np.full((8, 8), 1.0, np.float32))
        attacked = np.full((8, 8), np.nan, np.float32)
        attacked[region_masks(8, 8, LensRegion.circle(4, 4, 3))] = 1.3
        for lv in range(1, 10):
            write_pfm(maps / f"level_{lv}.pfm", attacked)
        src = tmp_path / "benign.pgm"
        RasterImage(np.full((8, 8), 120, np.uint8)).save(src)
        boxes = tmp_path / "boxes.txt"
        boxes.write_text("2 2 6 6\n")
        code, out, err = run(capsys, "optimize", "--input", str(src), "--mode",
                             "untargeted", "--lens-kind", "concave", "--boxes",
                             str(boxes), "--region", "circle", "--cx", "4",
                             "--cy", "4", "--radius", "3", "--estimator",
                             "external", "--maps", str(maps), "--alphas", "0.1,0.5")
        assert code == 0
        assert out == ("alpha,mode,best_level,best_loss,metric_name,metric_value\n"
                       "0.1,untargeted,,,failed,nan\n"
                       "0.5,untargeted,,,failed,nan\n")
        assert err == ("error: alpha 0.1: level 1: no valid pixel under the mask\n"
                       "error: alpha 0.5: level 1: no valid pixel under the mask\n")

    def test_failed_row_reasons_reach_stderr_beside_output_file(self, tmp_path,
                                                               capsys):
        maps = tmp_path / "maps"
        maps.mkdir()
        for tag in ["benign"] + [f"level_{lv}" for lv in (1, 2, 3, 4, 5, 6, 8, 9)]:
            write_pfm(maps / f"{tag}.pfm", np.full((8, 8), 1.0, np.float32))
        src = tmp_path / "benign.pgm"
        RasterImage(np.full((8, 8), 120, np.uint8)).save(src)
        boxes = tmp_path / "boxes.txt"
        boxes.write_text("2 2 6 6\n")
        out_csv = tmp_path / "sweep.csv"
        code, out, err = run(capsys, "optimize", "--input", str(src), "--mode",
                             "untargeted", "--lens-kind", "concave", "--boxes",
                             str(boxes), "--region", "circle", "--cx", "4",
                             "--cy", "4", "--radius", "3", "--estimator",
                             "external", "--maps", str(maps), "--alphas", "0.25",
                             "--output", str(out_csv))
        assert (code, out) == (0, f"wrote {out_csv}\n")
        assert out_csv.read_text().endswith("0.25,untargeted,,,failed,nan\n")
        assert err.startswith("error: alpha 0.25: level 7: ")
        assert "level_7" in err and err.count("\n") == 1

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
        if focal_px in ("nan", "inf"):  # the option's parser rejects these
            assert err == f"error: option --focal-px: must be finite, got '{focal_px}'\n"
        else:
            assert "focal length must be finite and positive" in err

    def test_baseline_is_not_an_option(self, tmp_path, capsys):
        assert run(capsys, "optimize", "--baseline", "0.54") == (
            2, "", "error: unrecognized arguments: --baseline 0.54\n")
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
            write_pfm(maps / f"{tag}.pfm", np.full((8, 8), 1.0, np.float32))
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
        write_pfm(att, np.full((6, 6), 0.36, np.float32))
        write_pfm(ben, np.full((6, 6), 0.28, np.float32))
        boxes = tmp_path / "boxes.txt"
        boxes.write_text("1 1 5 5\n")
        code, out, _ = run(capsys, "metrics", "--kind", "adr", "--attacked-map",
                           str(att), "--benign-map", str(ben), "--map-kind",
                           "disparity", "--boxes", str(boxes))
        assert code == 0
        assert float(out.split("=")[1]) == pytest.approx(0.2857, abs=1e-3)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_map_mode_mean_is_the_full_frame_masked_mean(self, tmp_path_factory, data):
        """The box crop holds the masked pixels in the same order, so the
        mean is equal, and a box off the frame is an empty mask."""
        h, w = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        values = rng.normal(0.3, 0.2, (h, w)).astype(np.float32)
        values[rng.random((h, w)) < data.draw(st.floats(0, 1))] = np.nan
        x0, y0 = data.draw(st.integers(-15, 15)), data.draw(st.integers(-15, 15))
        box = Box(x0, y0, x0 + data.draw(st.integers(1, 15)),
                  y0 + data.draw(st.integers(1, 15)))
        tmp = tmp_path_factory.mktemp("metrics")
        write_pfm(tmp / "m.pfm", values)
        (tmp / "boxes.txt").write_text(f"{box.x_min} {box.y_min} {box.x_max} {box.y_max}\n")
        ns = argparse.Namespace(boxes=str(tmp / "boxes.txt"),
                                map_kind=data.draw(st.sampled_from(["depth", "disparity"])))
        full = load_depth_map(tmp / "m.pfm", kind=ns.map_kind)
        try:
            want = two_step_masked_mean(full, dense_box_mask(box, w, h))
        except EmptyMask:
            with pytest.raises(EmptyMask):
                cli._box_mean(ns, tmp / "m.pfm")
            return
        assert cli._box_mean(ns, tmp / "m.pfm") == want

    def test_bad_kind_exits_two(self, capsys):
        code, _, _ = run(capsys, "metrics", "--kind", "mse", "--attacked", "1",
                         "--benign", "1")
        assert code == 2

    def test_benign_map_without_boxes_exits_two(self, tmp_path, capsys):
        ben = tmp_path / "m.pfm"
        write_pfm(ben, np.full((6, 6), 0.28, np.float32))
        code, _, err = run(capsys, "metrics", "--kind", "adr", "--attacked", "5",
                           "--benign-map", str(ben))
        assert code == 2
        assert "missing required option --boxes" in err

    def test_empty_boxes_file_exits_two(self, tmp_path, capsys):
        att = tmp_path / "att.pfm"
        write_pfm(att, np.full((6, 6), 0.36, np.float32))
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

    @pytest.mark.parametrize("source", ["missing.pgm", "img.pgm"])
    def test_mask_out_with_varlap_exits_two_before_any_output(self, tmp_path, capsys,
                                                               source):
        # rejected before the image is loaded: a missing input does not mask it
        noise_image((64, 64), seed=1).save(tmp_path / "img.pgm")
        mask = tmp_path / "m.pgm"
        code, out, err = run(capsys, "defend", "--input", str(tmp_path / source),
                             "--method", "varlap", "--mask-out", str(mask))
        assert (code, out, err) == (2, "", "error: --mask-out needs the lbp method\n")
        assert not mask.exists()

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

    def test_negative_seed_exits_two_naming_it(self, capsys):
        code, out, err = run(capsys, "scenario", "--sigma", "0.5", "--seed", "-1")
        assert (code, out) == (2, "")
        assert err == "error: option --seed: must be >= 0, got '-1'\n"

    def test_unknown_lens_with_ratio_from_optics_exits_two(self, capsys):
        code, _, err = run(capsys, "scenario", "--ratio-from-optics", "--lens",
                           "banana", "--f", "0.20", "--db", "0.12", "--do1", "6",
                           "--fc", "0.026")
        assert code == 2
        assert "banana" in err


def test_parser_is_built_once_and_keeps_no_state_between_calls(capsys):
    assert cli.build_parser() is cli.build_parser()
    first = run(capsys, "scenario")
    assert run(capsys, "scenario", "--gap0", "30", "--ratio", "0.5") != first
    assert run(capsys, "scenario") == first


@pytest.mark.parametrize("argv,message", [
    (["scenario", "--baseline", "3"], "unrecognized arguments: --baseline 3"),
    (["scenario", "--gap0"], "argument --gap0: expected one argument"),
    (["scenario", "--ratio-from-optics=1"], "argument --ratio-from-optics: "),
    (["sceanrio"], "argument command: invalid choice: 'sceanrio'"),
    ([], "the following arguments are required: command")])
def test_argparse_usage_errors_return_two_with_one_line(capsys, argv, message):
    """What argparse rejects is reported like every other usage error: main()
    returns 2 with one error line, no usage text and no SystemExit."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert "usage:" not in err


@pytest.mark.parametrize("argv", [["-h"], ["scenario", "-h"], ["defend", "--help"]])
def test_help_still_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 0
    assert captured.out.startswith("usage: depthlens") and captured.err == ""


def test_module_entry_point_matches_main(capsys):
    argv = ["optics", "--lens", "none", "--do1", "6", "--fc", "0.026", "--db", "0.04"]
    code, out, _ = run(capsys, *argv)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "depthlens.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (code, out)
    assert out


_CIRCLE_AT = ["simulate", "--input", "g.pgm", "--output", "o.pgm", "--level", "3",
              "--region", "circle"]


@pytest.mark.parametrize("argv, err", [
    ([*_CIRCLE_AT, "--cx", "3", "--cy", "3", "--radius", "1e200"],
     "error: circle radius squared must be finite, got 1e+200\n"),
    ([*_CIRCLE_AT, "--cx", "1e200", "--cy", "3", "--radius", "3"],
     "error: lens region does not intersect the frame\n"),
    (["scenario", "--config", "bad_byte.cfg"],
     "error: bad_byte.cfg:2: non-UTF-8 byte in b'seed = 1\\xff'\n"),
], ids=["huge_radius", "far_center", "bad_config_byte"])
def test_overflowing_and_undecodable_input_exits_two_with_one_line(tmp_path, argv, err):
    """In a plain interpreter, where NumPy's warnings reach stderr: one error
    line, no traceback and no warning."""
    RasterImage(np.arange(64, dtype=np.uint8).reshape(8, 8)).save(tmp_path / "g.pgm")
    (tmp_path / "bad_byte.cfg").write_bytes(b"sigma = 0.5\nseed = 1\xff\n")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "depthlens.cli", *argv], cwd=tmp_path,
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", err)


def test_a_far_center_fails_each_optimize_row_without_a_warning(tmp_path):
    maps = tmp_path / "maps"
    maps.mkdir()
    for tag in ["benign"] + [f"level_{lv}" for lv in range(1, 10)]:
        write_pfm(maps / f"{tag}.pfm", np.full((8, 8), 1.0, np.float32))
    RasterImage(np.full((8, 8), 120, np.uint8)).save(tmp_path / "g.pgm")
    (tmp_path / "boxes.txt").write_text("2 2 6 6\n")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "depthlens.cli", "optimize", "--input", "g.pgm", "--mode",
         "untargeted", "--lens-kind", "concave", "--boxes", "boxes.txt", "--region",
         "circle", "--cx", "1e200", "--cy", "3", "--radius", "3", "--estimator",
         "external", "--maps", "maps", "--alphas", "0.1,0.5"],
        cwd=tmp_path, capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stderr == (
        "error: alpha 0.1: level 1: lens region does not intersect the frame\n"
        "error: alpha 0.5: level 1: lens region does not intersect the frame\n")


def test_a_huge_speed_brakes_at_once(capsys):
    # speed**2 overflows: the stopping distance is infinite, so the first
    # tick brakes, and the gap is gone after it
    code, out, err = run(capsys, "scenario", "--speed", "1e200")
    assert (code, out, err) == (0, "COLLISION speed=1e+200\n", "")


def test_a_huge_deceleration_stops_without_a_warning(capsys):
    # the block's speeds fall past -1e308 after the stop tick
    code, out, err = run(capsys, "scenario", "--max-decel", "1e308")
    assert (code, out, err) == (0, "STOPPED gap=2\n", "")


class TestConfigResolution:
    def test_undecodable_byte_names_its_line(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(b"# noise\r\nsigma = 0.5\r\nseed = \xe9\xff\r\n")
        code, out, err = run(capsys, "scenario", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == f"error: {cfg}:3: non-UTF-8 byte in b'seed = \\xe9\\xff'\n"

    def test_utf8_values_and_crlf_lines_are_read(self, tmp_path, capsys):
        log = tmp_path / "résumé 日.csv"
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(f"# été\r\nsigma = 0.5\r\nlog = {log}\r\n".encode("utf-8"))
        code, out, err = run(capsys, "scenario", "--config", str(cfg))
        assert (code, err) == (0, "")
        assert out.endswith(f"wrote {log}\n")
        _, plain, _ = run(capsys, "scenario", "--sigma", "0.5")
        assert out.split("\n")[0] == plain.split("\n")[0]

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

    @pytest.mark.parametrize("first,second", [("sigma", "sigma"),
                                              ("max-time", "max_time")])
    def test_duplicate_key_exits_two_naming_both_lines(self, tmp_path, capsys,
                                                       first, second):
        # the last of two entries used to win silently
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{first} = 0.5\n# noise off\n{second} = 0\n")
        code, out, err = run(capsys, "scenario", "--config", str(cfg))
        assert (code, out) == (2, "")
        key = first.replace("-", "_")
        assert err == f"error: {cfg}:3: duplicate key {key!r}, first set on line 1\n"

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


def _values(parse):
    """(command-line text, config text, resolved value) for one option's
    parser; a switch takes no command-line text."""
    floats = st.one_of(st.just(0.0), st.floats(-1e6, 1e6, allow_nan=False))
    if isinstance(parse, cli._Int):
        high = 10 ** 6 if parse.high is None else parse.high
        ints = st.one_of(st.sampled_from([parse.low, high]), st.integers(parse.low, high))
        return ints.map(lambda v: (str(v), str(v), v))
    if parse is cli._finite:
        return floats.map(lambda v: (repr(v), repr(v), v))
    if parse is cli._floats:
        lists = st.lists(floats, min_size=1, max_size=4)
        return lists.map(lambda v: (",".join(map(repr, v)),) * 2 + (tuple(v),))
    if parse is str:
        # '#' anywhere in a value is data; only whole-line comments exist.
        # argparse reads "--x=--" as no value, so no value starts with "-".
        text = st.text(alphabet="ab/._-#=07", max_size=10).filter(
            lambda v: not v.startswith("-"))
        return text.map(lambda v: (v, v, v))
    assert isinstance(parse, cli._Words)
    words = st.sampled_from(list(parse.words))
    if parse.any_case:
        words = words.flatmap(lambda w: st.sampled_from([w, w.upper(), w.title()]))
    flag_text = (lambda w: None) if parse is cli._SWITCH else (lambda w: w)
    return words.map(lambda w: (flag_text(w), w, parse(w)))


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
    if use_flag and flag_text is None:  # a switch
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


_WORD_OPTIONS = [(name, dest) for name, command in _COMMANDS.items()
                 for dest, (parse, _) in command.options.items()
                 if isinstance(parse, cli._Words)]
# (subcommand, option, how its text arrives); a switch takes no flag text
_WORD_CASES = [(name, dest, via) for name, dest in _WORD_OPTIONS
               for via in ("flag", "config")
               if (via, _COMMANDS[name].options[dest][0]) != ("flag", cli._SWITCH)]


_LENS_WORDS = ["concave", "convex"]
_SWITCH_WORDS = ["1", "true", "yes", "on", "0", "false", "no", "off"]


def test_every_word_option_is_registered_with_its_words():
    assert {(name, dest): list(_COMMANDS[name].options[dest][0].words)
            for name, dest in _WORD_OPTIONS} == {
        ("optics", "lens"): _LENS_WORDS + ["none"], ("optics", "table"): _LENS_WORDS,
        ("simulate", "lens_kind"): _LENS_WORDS,
        ("simulate", "placement"): ["in_lens", "out_of_lens"],
        ("simulate", "region"): ["full", "circle"],
        ("optimize", "mode"): ["targeted", "untargeted"],
        ("optimize", "lens_kind"): _LENS_WORDS,
        ("optimize", "region"): ["full", "circle"],
        ("optimize", "estimator"): ["proxy", "external"],
        ("optimize", "map_kind"): ["disparity", "depth"],
        ("metrics", "kind"): ["adr", "aer"],
        ("metrics", "map_kind"): ["depth", "disparity"],
        ("defend", "method"): ["varlap", "lbp"], ("scenario", "lens"): _LENS_WORDS,
        ("scenario", "ratio_from_optics"): _SWITCH_WORDS}


def _word_argv(name, dest, via, word, tmp):
    if via == "flag":
        return [name, f"--{dest.replace('_', '-')}={word}"]
    cfg = Path(tmp) / "run.cfg"
    cfg.write_text(f"{dest} = {word}\n")
    return [name, "--config", str(cfg)]


@pytest.mark.parametrize("name,dest,via", _WORD_CASES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_unlisted_word_exits_two_listing_the_accepted_words(name, dest, via, data):
    """A word outside the option's list is a usage error from main(), never
    argparse's SystemExit, with one stderr line naming the option or key,
    the word and every accepted word, whether or not the run reads it."""
    parse = _COMMANDS[name].options[dest][0]
    listed = list(parse.words)
    word = data.draw(st.one_of(
        st.text(alphabet="abcnoeuvx_019.", max_size=8),
        st.sampled_from(listed).map(lambda w: w + "x"),
        st.sampled_from(listed).map(str.upper)).filter(
            lambda w: (w.lower() if parse.any_case else w) not in parse.words))
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = main(_word_argv(name, dest, via, word, tmp))
    source = (f"option --{dest.replace('_', '-')}" if via == "flag"
              else f"config key {dest!r}")
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue() == (f"error: {source}: unsupported word {word!r}; "
                              f"accepted: {', '.join(listed)}\n")


def _word_value(dest, word):
    """What a word should resolve to: a switch's word its bool, the enum
    member where an enum exists, else the word itself."""
    if dest == "ratio_from_optics":
        return word.lower() in _SWITCH_WORDS[:4]
    enum = {"lens": LensKind, "lens_kind": LensKind, "table": LensKind,
            "placement": BlurPlacement, "mode": attack_opt.Mode}.get(dest)
    return word if enum is None or word == "none" else enum(word)


@pytest.mark.parametrize("name,dest,via", _WORD_CASES)
def test_every_accepted_word_resolves_to_its_value(tmp_path, name, dest, via):
    command = _COMMANDS[name]
    parse = command.options[dest][0]
    for word in parse.words:
        for text in [word, word.upper(), word.title()] if parse.any_case else [word]:
            ns = _PARSER.parse_args(_word_argv(name, dest, via, text, tmp_path))
            cli._resolve(ns, command)
            want = _word_value(dest, text)
            assert getattr(ns, dest) == want
            assert type(getattr(ns, dest)) is type(want)


def _reads_numbers(parse):
    """Whether an option's registered parser reads numbers: a float, or a
    comma list of them (--alphas)."""
    try:
        value = parse("0.5")
    except ValueError:
        return False
    return type(value) is float or value == (0.5,)


_NUMBER_OPTIONS = [(name, dest) for name, command in _COMMANDS.items()
                   for dest, (parse, _) in command.options.items()
                   if _reads_numbers(parse)]


def test_number_options_are_the_float_options_and_alphas():
    floats = {(name, dest) for name, command in _COMMANDS.items()
              for dest, (parse, _) in command.options.items() if parse is cli._finite}
    assert set(_NUMBER_OPTIONS) == floats | {("optimize", "alphas")}


@pytest.mark.parametrize("name,dest", _NUMBER_OPTIONS, ids=[
    f"{name}--{dest.replace('_', '-')}" for name, dest in _NUMBER_OPTIONS])
@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
def test_unread_non_finite_number_exits_two(tmp_path, capsys, name, dest, via, value):
    """Every number option, and each item of --alphas, given as the one option
    of its subcommand, so that no handler reads it: NaN or an infinity is
    still a usage error, from the registered parser, with an empty stdout."""
    text = f"0.1,{value}" if dest == "alphas" else value
    source = (f"option --{dest.replace('_', '-')}" if via == "flag"
              else f"config key {dest!r}")
    assert run(capsys, *_word_argv(name, dest, via, text, tmp_path)) == (
        2, "", f"error: {source}: must be finite, got {value!r}\n")


# Each integer option's range (high None: no upper bound) and how its
# message states it.
_INT_RANGES = {
    ("simulate", "level"): (1, 9, "in 1..9"),
    ("simulate", "blur"): (0, None, ">= 0"),
    ("optimize", "detect_threshold"): (0, 255, "in 0..255"),
    ("defend", "window"): (8, None, ">= 8"),
    ("defend", "delta"): (0, None, ">= 0"),
    ("scenario", "seed"): (0, None, ">= 0"),
}


def test_varlap_with_lbp_only_values_out_of_range_exits_two(tmp_path, capsys):
    """--window and --delta only matter to LBP; out of range they are still
    usage errors under --method varlap, reported before the image is read."""
    noise_image((24, 24), seed=5).save(tmp_path / "g.pgm")
    assert run(capsys, "defend", "--input", str(tmp_path / "g.pgm"), "--method",
               "varlap", "--window", "3", "--delta", "-5") == (
        2, "", "error: option --window: must be >= 8, got '3'\n")


def test_every_integer_option_is_range_checked():
    ints = {(name, dest): (parse.low, parse.high) for name, command in _COMMANDS.items()
            for dest, (parse, _) in command.options.items() if isinstance(parse, cli._Int)}
    assert ints == {key: (low, high) for key, (low, high, _) in _INT_RANGES.items()}
    assert not any(parse is int for command in _COMMANDS.values()
                   for parse, _ in command.options.values())


def test_library_guarded_ranges_are_read_from_the_library():
    """The option parser pre-empts four library guards with the guard's own
    bounds, so each rule is stated once."""
    window, _ = _COMMANDS["defend"].options["window"]
    delta, _ = _COMMANDS["defend"].options["delta"]
    threshold, _ = _COMMANDS["optimize"].options["detect_threshold"]
    seed, _ = _COMMANDS["scenario"].options["seed"]
    assert (window.low, window.high) == (defense.MIN_TILE_PX, None)
    assert (delta.low, delta.high) == (defense.MIN_LBP_DELTA, None)
    assert (threshold.low, threshold.high) == DETECTION_THRESHOLDS
    assert (seed.low, seed.high) == (scenario.MIN_SEED, None)
    image = noise_image((24, 24), seed=5)
    defense.lbp_sharpness_map(image, window=defense.MIN_TILE_PX)
    with pytest.raises(ValueError, match="window must be >= 8 px, got 7"):
        defense.lbp_sharpness_map(image, window=defense.MIN_TILE_PX - 1)
    defense.lbp_sharpness_map(image, lbp_threshold=defense.MIN_LBP_DELTA)
    with pytest.raises(ValueError, match="^lbp delta must be non-negative, got -1$"):
        defense.lbp_sharpness_map(image, lbp_threshold=defense.MIN_LBP_DELTA - 1)
    config = dict(initial_gap_m=40.0, ego_speed_mps=10.0, max_decel_mps2=6.0,
                  safety_margin_m=2.0)
    scenario.ScenarioConfig(**config, seed=scenario.MIN_SEED)
    with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
        scenario.ScenarioConfig(**config, seed=scenario.MIN_SEED - 1)
    low, high = DETECTION_THRESHOLDS
    for bad in (low - 1, high + 1):
        with pytest.raises(ValueError, match="detection threshold must be an 8-bit level"):
            FiducialSpec(1.5, detection_threshold=bad)
    for good in DETECTION_THRESHOLDS:
        FiducialSpec(1.5, detection_threshold=good)


@pytest.mark.parametrize("name,dest", list(_INT_RANGES),
                         ids=[f"{n}--{d.replace('_', '-')}" for n, d in _INT_RANGES])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_unread_out_of_range_integer_exits_two(name, dest, data):
    """Any integer outside the option's range, just outside included, from a
    flag or the config file, as the one option of its subcommand, which no
    handler reads: exit 2, an empty stdout and one line naming the source."""
    low, high, bounds = _INT_RANGES[name, dest]
    below = st.one_of(st.just(low - 1), st.integers(-10 ** 9, low - 1))
    value = data.draw(below if high is None else st.one_of(
        below, st.just(high + 1), st.integers(high + 1, 10 ** 9)))
    via = data.draw(st.sampled_from(["flag", "config"]))
    source = (f"option --{dest.replace('_', '-')}" if via == "flag"
              else f"config key {dest!r}")
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = main(_word_argv(name, dest, via, str(value), tmp))
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue() == f"error: {source}: must be {bounds}, got '{value}'\n"


_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
_FULLWIDTH = str.maketrans("0123456789", "０１２３４５６７８９")


def _coerced_spellings(digits):
    """Spellings of a number that int() or float() read as ``digits``: a
    plus sign, a digit separator, and non-ASCII decimal digits."""
    return ["+" + digits, digits[0] + "_" + digits[1:] if len(digits) > 1 else "0_" + digits,
            digits.translate(_ARABIC_INDIC), digits.translate(_FULLWIDTH)]


@pytest.mark.parametrize("name,dest", list(_INT_RANGES),
                         ids=[f"{n}--{d.replace('_', '-')}" for n, d in _INT_RANGES])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_integer_options_take_only_ascii_digits(tmp_path, capsys, name, dest, via):
    """A spelling that int() reads as an in-range value, as the one option of
    its subcommand: exit 2, an empty stdout and one line naming the source."""
    value = str(_INT_RANGES[name, dest][0] + 1)
    source = (f"option --{dest.replace('_', '-')}" if via == "flag"
              else f"config key {dest!r}")
    for text in _coerced_spellings(value):
        assert int(text) == int(value)
        assert run(capsys, *_word_argv(name, dest, via, text, tmp_path)) == (
            2, "", f"error: {source}: must be ASCII digits after an optional minus, "
                   f"got {text!r}\n")


@pytest.mark.parametrize("name,dest", _NUMBER_OPTIONS, ids=[
    f"{name}--{dest.replace('_', '-')}" for name, dest in _NUMBER_OPTIONS])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_number_options_take_only_ascii_without_separators(tmp_path, capsys, name,
                                                           dest, via):
    """A spelling with a digit separator or non-ASCII digits, which float()
    reads, is a usage error whether or not the run reads the option; a plus
    sign stays a valid float."""
    source = (f"option --{dest.replace('_', '-')}" if via == "flag"
              else f"config key {dest!r}")
    for value in _coerced_spellings("40")[1:] + ["0.5_0", "٠.٥"]:
        assert float(value) in (40.0, 0.5)
        text = f"0.1,{value}" if dest == "alphas" else value
        assert run(capsys, *_word_argv(name, dest, via, text, tmp_path)) == (
            2, "", f"error: {source}: must be an ASCII number without '_', "
                   f"got {value!r}\n")


@pytest.mark.parametrize("argv", [["scenario", "--seed", "1_0"],
                                  ["scenario", "--gap0", "4_0"],
                                  ["scenario", "--gap0", "٤٠"],
                                  ["simulate", "--input", "x.pgm", "--output", "y.pgm",
                                   "--level", "+3"]])
def test_coerced_numbers_from_the_reported_runs_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: option {argv[-2]}: must be ")


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
    # a circle region, so some pixel lies outside the lens and the row does
    # not fail; its flags are written --flag=value because the invocation
    # above already covers them
    ["optimize", "--input", "{img}", "--mode", "untargeted", "--lens-kind",
     "convex", "--boxes", "{boxes}", "--region", "circle", "--cx=8", "--cy=8",
     "--radius=5", "--estimator", "external", "--maps", "{maps}", "--rescale",
     "2", "--alphas", "0.1"],
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
            for dest, (parse, _) in _COMMANDS[name].options.items()
            if parse is cli._finite}


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
        write_pfm(maps / f"{tag}.pfm", np.full((16, 16), 1.0, np.float32))
    return {"img": str(tmp / "in.pgm"), "out": str(tmp / "out.pgm"),
            "boxes": str(tmp / "boxes.txt"), "maps": str(maps)}


def test_every_float_option_has_a_reading_invocation():
    registered = {(name, dest) for name, command in _COMMANDS.items()
                  for dest, (parse, _) in command.options.items() if parse is cli._finite}
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
