"""CLI byte-identity corpus: invocations of all six subcommands, valid and
invalid, each pinned in ``cli_corpus.json`` to its exit code and the SHA-256
of its stdout, its stderr and every file it writes.

    python tests/cli_corpus.py --record    # rewrite cli_corpus.json

``tests/test_cli_corpus.py`` runs every entry against the file. The inputs
are 160x120 rasters, maps and text files generated here from fixed seeds;
no binary fixture is committed. Every invocation runs in one directory that
holds them, with relative paths, so messages naming a file are the same on
any machine. A re-record changes what the CLI is pinned to: each entry it
changes needs its reason in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np

from depthlens.cli import main
from depthlens.imaging import RasterImage
from helpers import write_pfm, write_pgm16

CORPUS_JSON = Path(__file__).with_name("cli_corpus.json")
W, H = 160, 120

_OPTICS = ["--f", "0.2", "--db", "0.04", "--do1", "6", "--fc", "0.026"]
_SIM = ["simulate", "--input", "gray.pgm"]
_OPT = ["optimize", "--input", "gray.pgm", "--boxes", "boxes.txt"]
_PROXY = ["--fiducial-height", "1.5", "--focal-px", "700"]
_CIRCLE = ["--region", "circle", "--cx", "80", "--cy", "60", "--radius", "45"]
_OPTICS_LENS = ["--lens", "concave", *_OPTICS]

# name -> (argv, files the invocation may write)
CASES: dict[str, tuple[list[str], list[str]]] = {
    # optics: the four scenarios, pass-through, both tables, the error exits
    "optics_concave": (["optics", "--lens", "concave", *_OPTICS], []),
    "optics_convex_near_lens": (["optics", "--lens", "convex", *_OPTICS], []),
    "optics_convex_far_lens": (["optics", "--lens", "convex", "--f", "0.2", "--db", "0.3",
                                "--do1", "6", "--fc", "0.026"], []),
    "optics_convex_near_object": (["optics", "--lens", "convex", "--f", "0.5", "--db",
                                   "0.04", "--do1", "0.3", "--fc", "0.026"], []),
    "optics_pass_through": (["optics", "--lens", "none", "--db", "0.04", "--do1", "6",
                             "--fc", "0.026"], []),
    "optics_table_concave": (["optics", "--table", "concave", "--fc", "0.026"], []),
    "optics_table_convex": (["optics", "--table", "convex", "--fc", "0.026"], []),
    "optics_singular": (["optics", "--lens", "convex", "--f", "0.2", "--db", "0.04",
                         "--do1", "0.2", "--fc", "0.026"], []),
    "optics_nan_f": (["optics", "--lens", "concave", "--f", "nan", "--db", "0.04",
                      "--do1", "6", "--fc", "0.026"], []),
    "optics_table_unused_nan": (["optics", "--table", "concave", "--fc", "0.026",
                                 "--do1", "nan"], []),
    "optics_bad_lens": (["optics", "--lens", "banana", *_OPTICS], []),
    "optics_bad_table": (["optics", "--table", "banana", "--fc", "0.026"], []),
    "optics_table_unused_bad_lens": (["optics", "--table", "convex", "--fc", "0.026",
                                      "--lens", "banana"], []),
    "optics_bad_float_flag": (["optics", "--lens", "concave", "--f", "abc", "--db",
                               "0.04", "--do1", "6", "--fc", "0.026"], []),
    # library guards the option parser leaves to the library: a zero focal
    # length, and a combined magnification that underflows to zero
    "optics_zero_f": (["optics", "--lens", "concave", "--f", "0", "--db", "0.04",
                       "--do1", "6", "--fc", "0.026"], []),
    "optics_magnification_underflows": (["optics", "--lens", "concave", "--f", "1e-200",
                                         "--db", "0.04", "--do1", "6", "--fc",
                                         "1e-200"], []),
    # simulate: gray and RGB, masks, overrides, config, the error exits
    "simulate_gray_circle_masks": ([*_SIM, "--output", "sim_a.pgm", "--lens-kind",
                                    "convex", "--level", "5", *_CIRCLE,
                                    "--emit-masks", "sim_masks"],
                                   ["sim_a.pgm", "sim_masks_in.pgm",
                                    "sim_masks_out.pgm"]),
    "simulate_rgb_full": (["simulate", "--input", "rgb.ppm", "--output", "sim_b.ppm",
                           "--level", "3"], ["sim_b.ppm"]),
    "simulate_overrides": ([*_SIM, "--output", "sim_c.pgm", "--scale", "1.2", "--blur",
                            "2", "--placement", "out_of_lens", *_CIRCLE], ["sim_c.pgm"]),
    "simulate_config": ([*_SIM, "--output", "sim_d.pgm", "--config", "sim.cfg"],
                        ["sim_d.pgm"]),
    "simulate_no_profile": ([*_SIM, "--output", "sim_e.pgm"], ["sim_e.pgm"]),
    "simulate_missing_input": (["simulate", "--input", "missing.pgm", "--output",
                                "sim_f.pgm", "--level", "2"], ["sim_f.pgm"]),
    "simulate_bad_level_flag": ([*_SIM, "--output", "sim_g.pgm", "--level", "abc"],
                                ["sim_g.pgm"]),
    "simulate_bad_level_config": ([*_SIM, "--output", "sim_h.pgm", "--config",
                                   "bad_level.cfg"], ["sim_h.pgm"]),
    "simulate_bad_placement": ([*_SIM, "--output", "sim_i.pgm", "--level", "2",
                                "--placement", "sideways"], ["sim_i.pgm"]),
    "simulate_bad_region": ([*_SIM, "--output", "sim_j.pgm", "--level", "2",
                             "--region", "square"], ["sim_j.pgm"]),
    "simulate_level_out_of_range": ([*_SIM, "--output", "sim_l.pgm", "--level", "10"],
                                    ["sim_l.pgm"]),
    "simulate_bad_lens_kind": ([*_SIM, "--output", "sim_k.pgm", "--level", "2",
                                "--lens-kind", "prism"], ["sim_k.pgm"]),
    "simulate_circle_off_frame": ([*_SIM, "--output", "sim_m.pgm", "--level", "2",
                                   "--region", "circle", "--cx", "500", "--cy", "500",
                                   "--radius", "20"], ["sim_m.pgm"]),
    # render paths: a blur without a rescale, a rescale without a blur, the
    # identity profile, and an RGB circle, whose strips are merged by the
    # bitwise select
    "simulate_blur_only_circle": ([*_SIM, "--output", "sim_n.pgm", "--blur", "2",
                                   *_CIRCLE], ["sim_n.pgm"]),
    "simulate_scale_only_circle": ([*_SIM, "--output", "sim_r.pgm", "--scale", "0.8",
                                    "--blur", "0", *_CIRCLE], ["sim_r.pgm"]),
    "simulate_identity_profile": ([*_SIM, "--output", "sim_o.pgm", "--scale", "1",
                                   "--blur", "0"], ["sim_o.pgm"]),
    "simulate_rgb_convex_circle": (["simulate", "--input", "rgb.ppm", "--output",
                                    "sim_p.ppm", "--lens-kind", "convex", "--level", "4",
                                    *_CIRCLE], ["sim_p.ppm"]),
    "simulate_subpixel_radius": ([*_SIM, "--output", "sim_q.pgm", "--level", "2",
                                  "--region", "circle", "--cx", "80", "--cy", "60",
                                  "--radius", "0.5"], ["sim_q.pgm"]),
    # a radius whose square overflows, and a center whose offsets' squares do
    "simulate_huge_radius": ([*_SIM, "--output", "sim_s.pgm", "--level", "3", "--region",
                              "circle", "--cx", "3", "--cy", "3", "--radius", "1e200"],
                             ["sim_s.pgm"]),
    "simulate_far_center": ([*_SIM, "--output", "sim_t.pgm", "--level", "3", "--region",
                             "circle", "--cx", "1e200", "--cy", "3", "--radius", "3"],
                            ["sim_t.pgm"]),
    "simulate_tiny_scale": ([*_SIM, "--output", "sim_u.pgm", "--scale", "1e-307", "--blur",
                             "0", *_CIRCLE], ["sim_u.pgm"]),
    # optimize: proxy and external on LE/BE PFM and PGM16, boxes on, across
    # and off the frame, both modes, the error exits
    "optimize_proxy_targeted": ([*_OPT, "--mode", "targeted", "--lens-kind", "concave",
                                 *_CIRCLE, *_PROXY, "--output", "opt_a.csv"],
                                ["opt_a.csv"]),
    "optimize_proxy_untargeted_full": ([*_OPT, "--mode", "untargeted", "--lens-kind",
                                        "convex", *_PROXY, "--alphas", "0.1,0.5"], []),
    "optimize_pfm_le_disparity": ([*_OPT, "--mode", "untargeted", "--lens-kind",
                                   "concave", *_CIRCLE, "--estimator", "external",
                                   "--maps", "maps_le"], []),
    "optimize_pfm_be_depth_targeted": ([*_OPT, "--mode", "targeted", "--lens-kind",
                                        "convex", *_CIRCLE, "--estimator", "external",
                                        "--maps", "maps_be", "--map-kind", "depth",
                                        "--y-tar", "9.5"], []),
    # a full-frame lens on precomputed maps: nothing lies outside the lens,
    # so every level's out-of-lens loss is 0
    "optimize_pfm_full_frame_targeted": ([*_OPT, "--mode", "targeted", "--lens-kind",
                                          "concave", "--estimator", "external", "--maps",
                                          "maps_le", "--alphas", "0.1,0.9"], []),
    # a lens small enough that the out-of-lens loss keeps more values
    # (about 17k) than one pairwise-sum subtree of the masked mean holds
    "optimize_pfm_small_lens": ([*_OPT, "--mode", "untargeted", "--lens-kind", "concave",
                                 "--region", "circle", "--cx", "80", "--cy", "60",
                                 "--radius", "20", "--estimator", "external", "--maps",
                                 "maps_le", "--alphas", "0.3"], []),
    "optimize_pgm16_rescaled": ([*_OPT, "--mode", "untargeted", "--lens-kind",
                                 "concave", *_CIRCLE, "--estimator", "external",
                                 "--maps", "maps_pgm", "--rescale", "2",
                                 "--alphas", "0.2,0.3"], []),
    # +inf depths at the same pixels of every map: inf - inf is no warning
    "optimize_pfm_matching_inf": ([*_OPT, "--mode", "untargeted", "--lens-kind",
                                   "concave", *_CIRCLE, "--estimator", "external",
                                   "--maps", "maps_inf", "--map-kind", "depth",
                                   "--alphas", "0.1"], []),
    "optimize_boxes_across": (["optimize", "--input", "gray.pgm", "--boxes",
                               "boxes_across.txt", "--mode", "untargeted",
                               "--lens-kind", "concave", *_CIRCLE, "--estimator",
                               "external", "--maps", "maps_le", "--alphas", "0.1"], []),
    "optimize_boxes_off": (["optimize", "--input", "gray.pgm", "--boxes",
                            "boxes_off.txt", "--mode", "untargeted", "--lens-kind",
                            "concave", *_CIRCLE, "--estimator", "external", "--maps",
                            "maps_le", "--alphas", "0.1"], []),
    "optimize_empty_boxes": (["optimize", "--input", "gray.pgm", "--boxes",
                              "boxes_empty.txt", "--mode", "untargeted",
                              "--lens-kind", "concave", *_PROXY], []),
    "optimize_bad_mode": ([*_OPT, "--mode", "sideways", "--lens-kind", "concave",
                           *_PROXY], []),
    "optimize_bad_estimator": ([*_OPT, "--mode", "untargeted", "--lens-kind",
                                "concave", "--estimator", "oracle"], []),
    "optimize_bad_map_kind": ([*_OPT, "--mode", "untargeted", "--lens-kind", "concave",
                               "--estimator", "external", "--maps", "maps_le",
                               "--map-kind", "dpeth", "--alphas", "0.1"], []),
    "optimize_bad_alphas": ([*_OPT, "--mode", "untargeted", "--lens-kind", "concave",
                             *_PROXY, "--alphas", "0.1,abc"], []),
    "optimize_maps_without_benign": ([*_OPT, "--mode", "untargeted", "--lens-kind",
                                      "concave", *_CIRCLE, "--estimator", "external",
                                      "--maps", "maps_no_benign", "--alphas", "0.1"], []),
    "optimize_level_map_dims_differ": ([*_OPT, "--mode", "untargeted", "--lens-kind",
                                        "concave", *_CIRCLE, "--estimator", "external",
                                        "--maps", "maps_small_level", "--alphas", "0.1"],
                                       []),
    # maps of half the input's width and height: the lens circle and the
    # vehicle box are in the input's pixels, so every row fails at the
    # benign map, and the CSV is still written
    "optimize_maps_dims_differ_input": (["optimize", "--input", "gray.pgm", "--boxes",
                                         "boxes_half.txt", "--mode", "untargeted",
                                         "--lens-kind", "concave", "--region", "circle",
                                         "--cx", "120", "--cy", "90", "--radius", "30",
                                         "--estimator", "external", "--maps", "maps_half",
                                         "--alphas", "0.5", "--output", "opt_c.csv"],
                                        ["opt_c.csv"]),
    # signaling NaN samples in every map, read with a rescale that widens
    # them to float64: they are holes, and nothing is printed on stderr
    "optimize_pfm_signaling_nan_rescaled": ([*_OPT, "--mode", "untargeted", "--lens-kind",
                                             "concave", *_CIRCLE, "--estimator",
                                             "external", "--maps", "maps_snan",
                                             "--rescale", "2", "--alphas", "0.3"], []),
    "optimize_detect_threshold_zero": ([*_OPT, "--mode", "untargeted", "--lens-kind",
                                        "concave", *_PROXY, "--detect-threshold", "0",
                                        "--alphas", "0.1"], []),
    # the external estimator reads no render, yet a circle that misses the
    # frame still fails every row at level 1
    "optimize_external_far_center": ([*_OPT, "--mode", "untargeted", "--lens-kind",
                                      "concave", "--region", "circle", "--cx", "1e200",
                                      "--cy", "60", "--radius", "20", "--estimator",
                                      "external", "--maps", "maps_le", "--alphas", "0.1"],
                                     []),
    "optimize_external_circle_off_frame": ([*_OPT, "--mode", "untargeted", "--lens-kind",
                                            "concave", "--region", "circle", "--cx", "500",
                                            "--cy", "500", "--radius", "20", "--estimator",
                                            "external", "--maps", "maps_le", "--alphas",
                                            "0.1,0.5"], []),
    # an alpha out of [0, 1] after a valid one, and a rescale constant of 0
    "optimize_alpha_out_of_range": ([*_OPT, "--mode", "untargeted", "--lens-kind",
                                     "concave", *_CIRCLE, "--estimator", "external",
                                     "--maps", "maps_le", "--alphas", "0.1,1.5"], []),
    "optimize_rescale_zero": ([*_OPT, "--mode", "untargeted", "--lens-kind", "concave",
                               *_CIRCLE, "--estimator", "external", "--maps",
                               "maps_pgm", "--rescale", "0", "--alphas", "0.1"], []),
    # a benign map of 0: every level scores, but the ADR has no denominator,
    # so every row fails with its reason and the CSV is still written
    "optimize_zero_benign_map": ([*_OPT, "--mode", "untargeted", "--lens-kind", "concave",
                                  *_CIRCLE, "--estimator", "external", "--maps",
                                  "maps_zero_benign", "--alphas", "0.1,0.5", "--output",
                                  "opt_b.csv"], ["opt_b.csv"]),
    # metrics: scalar and map modes, the error exits
    "metrics_adr_scalars": (["metrics", "--kind", "adr", "--attacked", "0.36",
                             "--benign", "0.28"], []),
    "metrics_aer_scalars": (["metrics", "--kind", "aer", "--attacked", "11.57",
                             "--target", "11.79"], []),
    "metrics_adr_maps": (["metrics", "--kind", "adr", "--attacked-map",
                          "maps_le/level_5.pfm", "--benign-map", "maps_le/benign.pfm",
                          "--boxes", "boxes.txt"], []),
    "metrics_aer_map_disparity": (["metrics", "--kind", "aer", "--attacked-map",
                                   "maps_pgm/level_2.pgm", "--map-kind", "disparity",
                                   "--target", "0.5", "--boxes", "boxes.txt"], []),
    "metrics_bad_kind": (["metrics", "--kind", "mse", "--attacked", "1", "--benign",
                          "2"], []),
    "metrics_unused_bad_map_kind": (["metrics", "--kind", "adr", "--attacked", "1",
                                     "--benign", "2", "--map-kind", "dpeth"], []),
    "metrics_missing_benign": (["metrics", "--kind", "adr", "--attacked", "1"], []),
    "metrics_bad_magic_map": (["metrics", "--kind", "adr", "--attacked-map",
                               "bad_magic.pfm", "--benign", "1", "--boxes", "boxes.txt"],
                              []),
    "metrics_bad_scale_sidecar": (["metrics", "--kind", "aer", "--attacked-map",
                                   "bad_scale.pgm", "--target", "1", "--boxes",
                                   "boxes.txt"], []),
    "metrics_nan_pfm_scale": (["metrics", "--kind", "aer", "--attacked-map",
                               "nan_scale.pfm", "--target", "1", "--boxes", "boxes.txt"],
                              []),
    "metrics_color_pfm": (["metrics", "--kind", "aer", "--attacked-map", "color.pfm",
                           "--target", "1", "--boxes", "boxes.txt"], []),
    "metrics_pgm16_no_sidecar": (["metrics", "--kind", "aer", "--attacked-map",
                                  "no_sidecar.pgm", "--target", "1", "--boxes",
                                  "boxes.txt"], []),
    "metrics_pgm16_overflow": (["metrics", "--kind", "aer", "--attacked-map",
                                "overflow.pgm", "--target", "1", "--boxes", "boxes.txt"],
                               []),
    "metrics_zero_benign": (["metrics", "--kind", "adr", "--attacked", "1", "--benign",
                             "0"], []),
    "metrics_zero_target": (["metrics", "--kind", "aer", "--attacked", "1", "--target",
                             "0"], []),
    "metrics_sidecar_zero_in_float32": (["metrics", "--kind", "aer", "--attacked-map",
                                         "tiny_scale.pgm", "--target", "1", "--boxes",
                                         "boxes.txt"], []),
    "metrics_coerced_pfm_scale": (["metrics", "--kind", "aer", "--attacked-map",
                                   "coerced_scale.pfm", "--target", "1", "--boxes",
                                   "boxes.txt"], []),
    # box files: a line of three numbers, a word, an empty box, and numbers
    # int() would read (6_4 as 64, +40 as 40)
    "metrics_box_three_fields": (["metrics", "--kind", "aer", "--attacked-map",
                                  "maps_le/level_5.pfm", "--target", "1", "--boxes",
                                  "boxes_three.txt"], []),
    "metrics_box_word": (["metrics", "--kind", "aer", "--attacked-map",
                          "maps_le/level_5.pfm", "--target", "1", "--boxes",
                          "boxes_word.txt"], []),
    "metrics_box_empty": (["metrics", "--kind", "aer", "--attacked-map",
                           "maps_le/level_5.pfm", "--target", "1", "--boxes",
                           "boxes_flat.txt"], []),
    "metrics_box_coerced": (["metrics", "--kind", "aer", "--attacked-map",
                             "maps_le/level_5.pfm", "--target", "1", "--boxes",
                             "boxes_coerced.txt"], []),
    # a box file with a non-ASCII byte on its second line
    "metrics_box_non_ascii": (["metrics", "--kind", "aer", "--attacked-map",
                               "maps_le/level_5.pfm", "--target", "1", "--boxes",
                               "boxes_non_ascii.txt"], []),
    # defend: both methods, the mask, the error exits
    "defend_varlap_gray": (["defend", "--input", "gray.pgm", "--method", "varlap"], []),
    "defend_lbp_rgb_mask": (["defend", "--input", "rgb.ppm", "--method", "lbp",
                             "--window", "16", "--delta", "10", "--threshold", "0.2",
                             "--mask-out", "def_a.pgm"], ["def_a.pgm"]),
    "defend_bad_method": (["defend", "--input", "gray.pgm", "--method", "hifst"], []),
    "defend_bad_method_config": (["defend", "--input", "gray.pgm", "--config",
                                  "bad_method.cfg"], []),
    "defend_varlap_mask_out": (["defend", "--input", "gray.pgm", "--method", "varlap",
                                "--mask-out", "def_b.pgm"], ["def_b.pgm"]),
    "defend_varlap_rgb": (["defend", "--input", "rgb.ppm", "--method", "varlap"], []),
    # 50 divides neither 160 nor 120; 200 exceeds both
    "defend_lbp_partial_tiles": (["defend", "--input", "gray.pgm", "--method", "lbp",
                                  "--window", "50", "--mask-out", "def_c.pgm"],
                                 ["def_c.pgm"]),
    "defend_lbp_window_over_frame": (["defend", "--input", "rgb.ppm", "--method", "lbp",
                                      "--window", "200", "--mask-out", "def_d.pgm"],
                                     ["def_d.pgm"]),
    "defend_truncated_pgm": (["defend", "--input", "truncated.pgm", "--method",
                              "varlap"], []),
    "defend_bad_width": (["defend", "--input", "bad_width.pgm", "--method", "varlap"], []),
    "defend_truncated_header": (["defend", "--input", "cut_header.pgm", "--method",
                                 "varlap"], []),
    "defend_unsupported_maxval": (["defend", "--input", "maxval.pgm", "--method",
                                   "varlap"], []),
    "defend_bad_dimensions": (["defend", "--input", "zero_dims.pgm", "--method",
                               "varlap"], []),
    "defend_tiny_pgm": (["defend", "--input", "tiny.pgm", "--method", "varlap"], []),
    "defend_lbp_tiny_pgm": (["defend", "--input", "tiny.pgm", "--method", "lbp"], []),
    "defend_coerced_numbers": (["defend", "--input", "coerced.pgm", "--method",
                                "varlap"], []),
    "defend_long_header_token": (["defend", "--input", "long_token.pgm", "--method",
                                  "varlap"], []),
    # a header comment that runs past the 64 KiB header cap
    "defend_long_header_comment": (["defend", "--input", "long_comment.pgm", "--method",
                                    "varlap"], []),
    "defend_varlap_unused_bad_window": (["defend", "--input", "gray.pgm", "--method",
                                         "varlap", "--window", "3", "--delta", "-5"], []),
    # scenario: noise-free and noisy with tick logs, optics ratio, configs,
    # the error exits
    "scenario_defaults": (["scenario"], []),
    "scenario_ratio_log": (["scenario", "--ratio", "1.5", "--log", "sc_a.csv"],
                           ["sc_a.csv"]),
    "scenario_noisy_log": (["scenario", "--sigma", "0.5", "--seed", "3", "--log",
                            "sc_b.csv"], ["sc_b.csv"]),
    "scenario_ratio_from_optics": (["scenario", "--ratio-from-optics", *_OPTICS_LENS],
                                   []),
    "scenario_config": (["scenario", "--config", "scenario.cfg"], []),
    "scenario_timeout": (["scenario", "--max-time", "0.5"], []),
    "scenario_unused_bad_lens": (["scenario", "--lens", "banana"], []),
    "scenario_unused_nan": (["scenario", "--f", "nan"], []),
    "scenario_bad_switch_config": (["scenario", "--config", "bad_switch.cfg"], []),
    "scenario_bad_number_config": (["scenario", "--config", "bad_number.cfg"], []),
    "scenario_unknown_key": (["scenario", "--config", "unknown_key.cfg"], []),
    "scenario_duplicate_key": (["scenario", "--config", "duplicate_key.cfg"], []),
    "scenario_bad_seed_flag": (["scenario", "--seed", "1.5"], []),
    "scenario_negative_seed": (["scenario", "--sigma", "0.5", "--seed", "-1"], []),
    "scenario_unknown_option": (["scenario", "--baseline", "3"], []),
    "scenario_config_without_equals": (["scenario", "--config", "no_equals.cfg"], []),
    # numbers int() and float() would read: 1_0 as 10, Arabic-Indic 40
    "scenario_coerced_seed": (["scenario", "--sigma", "0.5", "--seed", "1_0"], []),
    "scenario_coerced_gap0": (["scenario", "--gap0", "\u0664\u0660"], []),
    "scenario_coarse_dt": (["scenario", "--dt", "0.1"], []),
    # a dt too small to move the gap: the run stops at the tick bound
    "scenario_dt_too_fine": (["scenario", "--dt", "1e-300"], []),
    "scenario_negative_sigma": (["scenario", "--sigma", "-1"], []),
    # a speed whose square overflows brakes at once; a deceleration whose
    # speeds overflow past the stop tick
    "scenario_huge_speed": (["scenario", "--speed", "1e200"], []),
    "scenario_huge_decel": (["scenario", "--max-decel", "1e308"], []),
    # a config file with a byte that is not UTF-8 on its second line
    "scenario_bad_byte_config": (["scenario", "--config", "bad_byte.cfg"], []),
}

_CONFIGS = {
    "sim.cfg": "# simulate settings\nlens-kind = convex\nlevel = 4\nregion = circle\n"
               "cx = 70\ncy = 50\nradius = 30\nplacement = in_lens\n",
    "bad_level.cfg": "level = abc\n",
    "bad_method.cfg": "method = hifst\n",
    "scenario.cfg": "sigma = 0.25\nseed = 11\nratio_from_optics = TRUE\nlens = convex\n"
                    "f = 0.2\ndb = 0.04\ndo1 = 6\nfc = 0.026\n",
    "bad_switch.cfg": "ratio = 1.5\nratio_from_optics = maybe\n",
    "bad_number.cfg": "sigma = abc\n",
    "unknown_key.cfg": "sigma = 0.1\nwidth = 3\n",
    "duplicate_key.cfg": "sigma = 0.5\nsigma = 0\n",
    "no_equals.cfg": "sigma 0.5\n",
}


def _write_pfm_big_endian(path: Path, values: np.ndarray) -> None:
    h, w = values.shape
    path.write_bytes(b"Pf\n%d %d\n1.0\n" % (w, h)
                     + np.ascontiguousarray(values[::-1], dtype=">f4").tobytes())


def make_fixtures(directory: Path) -> None:
    """Write every input the corpus reads into ``directory``."""
    rng = np.random.default_rng(20240811)
    blocks = rng.integers(110, 256, (H // 8, W // 8))
    gray = np.kron(blocks, np.ones((8, 8), dtype=np.int64)).astype(np.uint8)
    gray[45:75, 70:90] = 10  # the fiducial the proxy estimator detects
    RasterImage(gray).save(directory / "gray.pgm")
    rgb = rng.integers(0, 256, (H, W, 3)).astype(np.uint8)
    RasterImage(rgb).save(directory / "rgb.ppm")

    (directory / "boxes.txt").write_text("# vehicle\n64 40 96 80\n")
    (directory / "boxes_across.txt").write_text("140 100 200 160\n")
    (directory / "boxes_off.txt").write_text("200 150 240 180\n")
    (directory / "boxes_empty.txt").write_text("# no boxes\n")
    (directory / "boxes_three.txt").write_text("64 40 96\n")
    (directory / "boxes_word.txt").write_text("64 40 96 eighty\n")
    (directory / "boxes_flat.txt").write_text("64 40 64 80\n")
    (directory / "boxes_coerced.txt").write_text("6_4 +40 9_6 80\n")
    (directory / "boxes_non_ascii.txt").write_bytes("64 40 96 80\n10 20 30 4\u00e9\n"
                                                   .encode("utf-8"))
    for name, text in _CONFIGS.items():
        (directory / name).write_text(text)
    (directory / "bad_byte.cfg").write_bytes(b"sigma = 0.5\nseed = 1\xff\n")
    # malformed inputs: a raster cut short, a map of no known format, and a
    # 16-bit map whose sidecar scale is not a number
    (directory / "truncated.pgm").write_bytes((directory / "gray.pgm").read_bytes()[:-7])
    (directory / "bad_magic.pfm").write_bytes(b"P7\n4 4\n-1.0\n" + bytes(64))
    (directory / "bad_scale.pgm").write_bytes(b"P5\n4 4\n65535\n" + bytes(32))
    (directory / "bad_scale.pgm.scale").write_text("abc\n")
    # header exits: a width that is no number, a header cut inside a
    # comment, an 8-bit raster of maxval 65535, zero dimensions, and a raster
    # too small for the defense
    (directory / "bad_width.pgm").write_bytes(b"P5 x 2 255\n" + bytes(4))
    (directory / "cut_header.pgm").write_bytes(b"P5 3 # cut")
    (directory / "maxval.pgm").write_bytes(b"P5\n4 4\n65535\n" + bytes(32))
    (directory / "zero_dims.pgm").write_bytes(b"P5\n0 4\n255\n")
    (directory / "tiny.pgm").write_bytes(b"P5\n2 2\n255\n" + bytes([10, 200, 30, 40]))
    # numbers int() would read: 1_0 as 10, +3 as 3, 25_5 as 255
    (directory / "coerced.pgm").write_bytes(b"P5 1_0 +3 25_5\n" + bytes(range(30)))
    # a width of 100 digits: longer than any header token may be
    (directory / "long_token.pgm").write_bytes(b"P5 " + b"1" * 100 + b" 2 255\n"
                                               + bytes(8))
    (directory / "long_comment.pgm").write_bytes(b"P5 #" + b"c" * 70000 + b"\n8 8 255\n"
                                                 + bytes(64))
    # map exits: a NaN scale, the color PFM magic, a 16-bit map with no
    # sidecar, and one whose largest count overflows float32 at its scale
    (directory / "nan_scale.pfm").write_bytes(b"Pf\n4 4\nnan\n" + bytes(64))
    (directory / "color.pfm").write_bytes(b"PF\n4 4\n-1.0\n" + bytes(192))
    (directory / "no_sidecar.pgm").write_bytes(b"P5\n4 4\n65535\n" + bytes(32))
    (directory / "overflow.pgm").write_bytes(b"P5\n4 4\n65535\n" + b"\xff" * 32)
    (directory / "overflow.pgm.scale").write_text("1e35\n")
    # a sidecar scale that is 0.0 once narrowed to float32, and a PFM scale
    # float() would read as -1.0
    (directory / "tiny_scale.pgm").write_bytes(b"P5\n4 4\n65535\n" + bytes(32))
    (directory / "tiny_scale.pgm.scale").write_text("1e-50\n")
    (directory / "coerced_scale.pfm").write_bytes(b"Pf\n%d %d\n-1_0\n" % (W, H)
                                                  + np.ones(W * H, "<f4").tobytes())

    ys, xs = np.mgrid[0:H, 0:W]
    base = 0.2 + 0.6 * (ys / H) + 0.05 * rng.random((H, W))
    lens = (xs - 80) ** 2 + (ys - 60) ** 2 <= 45 ** 2
    for sub in ("maps_le", "maps_be", "maps_pgm", "maps_inf"):
        (directory / sub).mkdir()
    for level in range(10):
        tag = "benign" if level == 0 else f"level_{level}"
        values = base * np.where(lens, 1.0 - 0.04 * level, 1.0 + 0.01 * level)
        values += 0.01 * rng.random((H, W))
        holed = values.copy()
        holed[rng.random((H, W)) < 0.02] = np.nan
        write_pfm(directory / "maps_le" / f"{tag}.pfm", holed.astype(np.float32))
        _write_pfm_big_endian(directory / "maps_be" / f"{tag}.pfm", 10.0 * values)
        write_pgm16(directory / "maps_pgm" / f"{tag}.pgm", values, 1e-4)
        values[50:54, 70:74] = np.inf
        write_pfm(directory / "maps_inf" / f"{tag}.pfm", 10.0 * values)
    # map directories that fail every level: no benign map, and level maps
    # smaller than the benign map
    (directory / "maps_no_benign").mkdir()
    (directory / "maps_small_level").mkdir()
    for level in range(1, 10):
        name = f"level_{level}.pfm"
        (directory / "maps_no_benign" / name).write_bytes(
            (directory / "maps_le" / name).read_bytes())
        write_pfm(directory / "maps_small_level" / name, np.ones((H // 2, W), np.float32))
    (directory / "maps_small_level" / "benign.pfm").write_bytes(
        (directory / "maps_le" / "benign.pfm").read_bytes())
    # level maps whose benign map is 0 everywhere
    (directory / "maps_zero_benign").mkdir()
    write_pfm(directory / "maps_zero_benign" / "benign.pfm", np.zeros((H, W), np.float32))
    for level in range(1, 10):
        name = f"level_{level}.pfm"
        (directory / "maps_zero_benign" / name).write_bytes(
            (directory / "maps_le" / name).read_bytes())
    # maps of half the input's width and height, and a box inside them (the
    # last fixture, so that no seeded draw above moves)
    (directory / "maps_half").mkdir()
    (directory / "boxes_half.txt").write_text("10 10 40 40\n")
    for level in range(10):
        tag = "benign" if level == 0 else f"level_{level}"
        write_pfm(directory / "maps_half" / f"{tag}.pfm",
                  np.full((H // 2, W // 2), 1.0 + 0.01 * level, np.float32))
    # maps_le's maps with signaling NaN samples, of either sign, in and out
    # of the lens and the vehicle box (made last, and with no seeded draw)
    (directory / "maps_snan").mkdir()
    for level in range(10):
        name = "benign.pfm" if level == 0 else f"level_{level}.pfm"
        data = bytearray((directory / "maps_le" / name).read_bytes())
        raster = len(data) - 4 * W * H
        for pixel, bits in [(3 * W + 5, b"\x01\x00\x80\x7f"),
                            (60 * W + 80, b"\x01\x00\x80\xff"),
                            (100 * W + 10 + level, b"\x00\x00\xa0\x7f")]:
            data[raster + 4 * pixel:raster + 4 * pixel + 4] = bits
        (directory / "maps_snan" / name).write_bytes(bytes(data))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(argv: list[str], outputs: list[str]) -> dict:
    """Run one invocation in the current directory: its exit code, returned
    or raised as ``SystemExit``, and the digests of what it wrote. A warning
    is an error, so a run that warns fails instead of being pinned."""
    for name in outputs:
        Path(name).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps its usage text to COLUMNS
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), warnings.catch_warnings(), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    files = {name: _sha(Path(name).read_bytes()) if Path(name).exists() else None
             for name in outputs}
    return {"argv": argv, "exit": code, "stdout": _sha(out.getvalue().encode()),
            "stderr": _sha(err.getvalue().encode()), "files": files}


@contextlib.contextmanager
def in_directory(path: Path):
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


def record(path: Path = CORPUS_JSON) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        make_fixtures(Path(tmp))
        with in_directory(Path(tmp)):
            entries = {name: run_case(argv, outputs)
                       for name, (argv, outputs) in CASES.items()}
    lines = [f" {json.dumps(name)}: {json.dumps(entry)}"
             for name, entry in entries.items()]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")  # one entry a line
    print(f"recorded {len(entries)} invocations in {path}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python tests/cli_corpus.py --record")
    record()
