"""The CLI corpus reaches every ``src/`` statement but an allow-listed few.

``corpus_reach.py`` runs all of ``cli_corpus.CASES`` under a line tracer in
a fresh interpreter. A statement that no invocation runs must be listed
below with the reason the CLI cannot reach it; new code the CLI cannot
reach fails here until it is listed or removed, and a listed statement
that the corpus starts to reach (or that is deleted) fails until its entry
goes.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import depthlens

TESTS = Path(__file__).resolve().parent

# (module, enclosing qualname, first source line of the statement)
ALLOWED = [
    # a Protocol method: the interface, never called
    ("attack_opt", "Estimator.estimate_map", "..."),
    # library guards the CLI pre-empts: it gives a targeted mode its
    # default y_tar, and passes a non-empty --alphas list
    ("attack_opt", "LossConfig.__post_init__",
     'raise ValueError("targeted mode needs a y_tar")'),
    ("attack_opt", "alpha_sweep", 'raise ValueError("alpha list must not be empty")'),
    # the console script's entry point; the corpus calls main() in process
    ("cli", "console_main", "raise SystemExit(main())"),
    ("cli", "<module>", "console_main()"),
    # --window and --delta are range-checked by the option parser
    ("defense", "lbp_sharpness_map",
     'raise ValueError(f"window must be >= {MIN_TILE_PX} px, got {window}")'),
    ("defense", "lbp_sharpness_map",
     'raise ValueError(f"lbp delta must be non-negative, got {lbp_threshold}")'),
    # every float option is checked finite by the option parser, and
    # --detect-threshold is range-checked there
    ("errors", "check_finite",
     "raise ValueError(f\"{name.replace('_', ' ')} must be finite, got {value}\")"),
    # the CLI passes only the bool masks it builds: to the blur and the means
    ("errors", "check_bool",
     "raise ValueError(f\"{name.replace('_', ' ')} must be bool, got {array.dtype}\")"),
    ("estimation", "FiducialSpec.__post_init__",
     'raise ValueError("detection threshold must be an 8-bit level")'),
    # --map-kind takes "depth" or "disparity" only
    ("estimation", "_is_pgm16",
     "raise ValueError(f\"kind must be 'depth' or 'disparity', got {kind!r}\")"),
    # the CLI builds masks and references from the map's own shape
    ("estimation", "masked_mean",
     'raise ValueError(f"mask shape {mask.shape} does not match map {values.shape}")'),
    ("estimation", "masked_mean", "raise ValueError("),
    # the CLI's proxy uses the default near and far depths
    ("estimation", "ProxyDepthMapper.__init__",
     'raise ValueError(f"far depth {far_m} must exceed near depth {near_m}")'),
    ("estimation", "ProxyDepthMapper.__init__",
     'raise ValueError(f"depth span {near_m} to {far_m} overflows the brightness ramp")'),
    # only whole-frame readers of a proxy map, such as tests and oracles,
    # index it other than by a box or read it as an array; a file map
    # refuses both, and the CLI does neither
    ("estimation", "StripMap.__getitem__", "return np.asarray(self)[key]"),
    ("estimation", "StripMap.__array__",
     'raise TypeError(f"a {type(self).__name__} is read by row strips, not whole")'),
    ("estimation", "ProxyMap.__array__",
     "return np.asarray(self.read(slice(None)), dtype=dtype)"),
    # the optimizer always passes a tag
    ("estimation", "DirectoryMapEstimator.estimate_map",
     'raise ValueError("file-backed estimator needs an evaluation tag")'),
    # the file shrank between the size check and the read, or a loaded
    # image's file changed shape before its pixels were read: races no
    # corpus entry can stage
    ("formats", "_read_into",
     'raise ParseError(f"raster truncated: read {got} of {buf.nbytes} bytes")'),
    ("formats", "read_pnm",
     'raise ParseError(f"raster shape {shape} does not match {out.shape}")'),
    # a level map's file rewritten with another header between the search's
    # estimate_map call and a loss's read of it
    ("formats", "MapFile.read",
     'raise ParseError(f"{self.path}: map header changed after it was read")'),
    # the CLI builds rasters, and writes files, only from what it read or
    # rendered: uint8, gray or RGB, with at least one pixel
    ("imaging", "RasterImage.__init__",
     'raise ValueError(f"raster must be uint8, got {data.dtype}")'),
    ("imaging", "RasterImage.__init__",
     'raise ValueError(f"raster must be (h, w) or (h, w, 3), got {data.shape}")'),
    ("imaging", "RasterImage.__init__", 'raise ValueError("raster needs at least one pixel")'),
    # frame sizes, --blur and --level are checked by the readers and the
    # option parser; the CLI always passes a mask of the frame's shape
    ("imaging", "region_masks", 'raise ValueError("mask dimensions must be positive")'),
    ("imaging", "box_blur", "raise ValueError("),
    ("imaging", "box_blur", 'raise ValueError("blur radius must be non-negative")'),
    ("imaging", "AttackProfile.__post_init__",
     'raise BadLevel(f"level must be an integer in {LEVELS[0]}..{LEVELS[-1]}, "'),
    ("imaging", "AttackProfile.__post_init__",
     'raise ValueError(f"blur radius must be a non-negative integer, "'),
    # --seed is range-checked by the option parser
    ("scenario", "ScenarioConfig.__post_init__",
     'raise ValueError(f"seed must be non-negative, got {self.seed}")'),
]


def test_unreached_statements_are_the_allow_list():
    src = Path(depthlens.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(TESTS)]))
    run = subprocess.run([sys.executable, str(TESTS / "corpus_reach.py")], env=env,
                         capture_output=True, text=True, timeout=300, check=True)
    unreached = json.loads(run.stdout)
    found = Counter((module, qualname, text) for module, qualname, _, text in unreached)
    allowed = Counter(ALLOWED)
    where = {(m, q, t): f"{m}.py:{line}" for m, q, line, t in unreached}
    assert not found - allowed, "unreached, not allow-listed: " + ", ".join(
        f"{where[key]} {key}" for key in found - allowed)
    assert not allowed - found, f"allow-listed, but reached or gone: {allowed - found}"
