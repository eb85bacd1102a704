"""Input generator for the depthlens benchmark.

Writes every input one workload needs, derived only from ``--seed``, plus a
``manifest.json`` listing the op cycle: each op is a short chain of CLI calls
(argv relative to the output directory) and the files each call writes.

The generator runs in its own process so that building frames and maps does
not raise the high-water RSS of the process that times the ops. It imports
numpy but not depthlens: the inputs must not depend on the code under test,
so the raster and map formats are written here directly.

    python3 perfbench/gen.py --workload attack_search_proxy --seed 0 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

WORKLOADS = ("attack_search_proxy", "attack_search_maps", "render_and_detect",
             "braking_sweep")

FRAME_W, FRAME_H = 1920, 1080
ATTACK_SPECS = 8          # op cycle length of both attack_search workloads
RADIUS_RANGE = (150, 500)  # circle radius, px
FIDUCIAL_HEIGHT_M = 1.5
FOCAL_PX = 1400.0
MAP_SCALE = 0.001         # disparity units per 16-bit count
OPTICS_F = (0.20, 0.30, 0.50)          # the CLI optics table grid
OPTICS_DB = (0.02, 0.04, 0.08, 0.12)
OPTICS_DO1 = (6.0, 9.0, 12.0)
CAMERA_FC = 0.026


def rng_for(workload: str, seed: int, stream: str = "") -> np.random.Generator:
    """Independent, reproducible stream per (seed, workload, purpose)."""
    tag = [ord(c) for c in f"{workload}/{stream}"]
    return np.random.default_rng([int(seed)] + tag)


# ------------------------------------------------------------ raw writers ----

def write_pgm(path: str, gray: np.ndarray) -> None:
    h, w = gray.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (w, h))
        fh.write(np.ascontiguousarray(gray, dtype=np.uint8).tobytes())


def write_ppm(path: str, rgb: np.ndarray) -> None:
    h, w = rgb.shape[:2]
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (w, h))
        fh.write(np.ascontiguousarray(rgb, dtype=np.uint8).tobytes())


def write_pfm(path: str, values: np.ndarray) -> None:
    """Grayscale little-endian PFM, rows stored bottom-up."""
    h, w = values.shape
    with open(path, "wb") as fh:
        fh.write(b"Pf\n%d %d\n-1.0\n" % (w, h))
        fh.write(np.ascontiguousarray(values[::-1], dtype="<f4").tobytes())


def write_pgm16(path: str, values: np.ndarray, scale: float) -> None:
    """16-bit big-endian PGM of ``scale``-unit counts plus its sidecar."""
    counts = np.round(values / scale).astype(">u2")
    h, w = counts.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n65535\n" % (w, h))
        fh.write(counts.tobytes())
    with open(path + ".scale", "w", encoding="ascii") as fh:
        fh.write(f"{scale!r}\n")


# ---------------------------------------------------------------- scenes ----

def blocky_texture(rng, height: int, width: int, block: int = 24,
                   lo: int = 110, hi: int = 250) -> np.ndarray:
    """Random gray blocks. ``lo`` stays above the proxy's detection threshold
    (96) so only the fiducial is ever detected."""
    cells = rng.integers(lo, hi + 1, size=(-(-height // block), -(-width // block)))
    tex = np.repeat(np.repeat(cells, block, axis=0), block, axis=1)
    return tex[:height, :width].astype(np.uint8)


def attack_scene(rng, radius: float, width: int = FRAME_W, height: int = FRAME_H):
    """Gray frame: blocky texture outside a circle, a bright field inside it
    and a dark fiducial at its center.

    Returns ``(frame, (cx, cy), box, fiducial_px)``; ``box`` is the
    fiducial's bounding box grown by a margin, in ``x0 y0 x1 y1``
    inclusive-exclusive pixels, and ``fiducial_px`` its height. The box
    lies within 0.55 * radius of the center, so even the strongest concave
    rescale pulls no texture into it.
    """
    cx = float(rng.integers(int(np.ceil(radius)), width - int(np.ceil(radius))))
    cy = float(rng.integers(int(np.ceil(radius)), height - int(np.ceil(radius))))
    frame = blocky_texture(rng, height, width)
    ys = np.arange(height, dtype=np.float64)[:, None]
    xs = np.arange(width, dtype=np.float64)[None, :]
    frame[(xs - cx) ** 2 + (ys - cy) ** 2 <= radius ** 2] = 235
    fh, fw = max(8, round(0.22 * radius)), max(5, round(0.12 * radius))
    top, left = int(round(cy - fh / 2)), int(round(cx - fw / 2))
    frame[top:top + fh, left:left + fw] = 20
    margin = max(3, round(0.08 * radius))
    box = (left - margin, top - margin, left + fw + margin, top + fh + margin)
    return frame, (cx, cy), box, fh


def attack_radii(rng, count: int) -> list[float]:
    """Radii drawn from RADIUS_RANGE in antithetic pairs of equal total area.

    Render cost grows with the in-lens area, so each consecutive pair of ops
    costs about the same whatever the seed; the run loop always finishes a
    pair (``round`` in the manifest).
    """
    lo, hi = RADIUS_RANGE[0] ** 2, RADIUS_RANGE[1] ** 2
    radii = []
    for _ in range(count // 2):
        area = float(rng.uniform(lo, hi))
        radii += [round(np.sqrt(area), 2), round(np.sqrt(lo + hi - area), 2)]
    return radii


def disparity_maps(rng, holes: bool, width: int = FRAME_W, height: int = FRAME_H):
    """Benign plus nine attacked disparity maps (float32, roughly 2..50).

    A smooth ground-plane ramp with texture; each level shifts and warps the
    benign map a little more. With ``holes``, small NaN squares mark invalid
    pixels, as real estimator output has.
    """
    ys = np.linspace(0.0, 1.0, height)[:, None]
    xs = np.linspace(0.0, 1.0, width)[None, :]
    base = 4.0 + 36.0 * ys ** 1.5 + 3.0 * np.sin(6.0 * xs + 2.0 * ys)
    base = base + rng.normal(0.0, 0.4, size=(height, width))
    maps = {"benign": base}
    for level in range(1, 10):
        warp = 1.0 + 0.03 * level * np.cos(4.0 * xs - 3.0 * ys + level)
        maps[f"level_{level}"] = base * warp + rng.normal(0.0, 0.2 + 0.05 * level,
                                                          size=(height, width))
    out = {}
    for tag, values in maps.items():
        values = np.clip(values, 2.0, 50.0).astype(np.float32)
        if holes:
            for _ in range(200):
                y, x = rng.integers(0, height - 8), rng.integers(0, width - 8)
                values[y:y + 8, x:x + 8] = np.nan
        out[tag] = values
    return out


def rgb_scene(rng, width: int = FRAME_W, height: int = FRAME_H) -> np.ndarray:
    """Colour frame: blocky texture on a gradient with fine pixel noise."""
    ys = np.linspace(0.0, 1.0, height)[:, None, None]
    xs = np.linspace(0.0, 1.0, width)[None, :, None]
    grad = 60.0 * ys + 40.0 * xs * np.array([1.0, 0.5, -0.5])
    blocks = np.stack([blocky_texture(rng, height, width, block=32, lo=30, hi=200)
                       for _ in range(3)], axis=-1).astype(np.float64)
    noise = rng.integers(-12, 13, size=(height, width, 3))
    return np.clip(blocks + grad + noise, 0, 255).astype(np.uint8)


# ------------------------------------------------------------- workloads ----

def _call(argv, outputs=()):
    return {"argv": [str(a) for a in argv], "outputs": list(outputs)}


def gen_attack(out: str, seed: int, external: bool) -> dict:
    workload = "attack_search_maps" if external else "attack_search_proxy"
    rng = rng_for("attack_search", seed)  # both workloads share the scenes
    os.makedirs(os.path.join(out, "in"), exist_ok=True)
    os.makedirs(os.path.join(out, "out"), exist_ok=True)
    map_sets = ("maps_pfm", "maps_pgm")
    benign_maps = {}
    if external:
        map_rng = rng_for(workload, seed, "maps")
        for name in map_sets:
            os.makedirs(os.path.join(out, name), exist_ok=True)
            maps = disparity_maps(map_rng, holes=(name == "maps_pfm"))
            for tag, values in maps.items():
                if name == "maps_pfm":
                    write_pfm(os.path.join(out, name, f"{tag}.pfm"), values)
                else:
                    write_pgm16(os.path.join(out, name, f"{tag}.pgm"), values, MAP_SCALE)
            benign_maps[name] = maps["benign"]
            del maps

    ops = []
    for k, radius in enumerate(attack_radii(rng, ATTACK_SPECS)):
        frame, (cx, cy), box, fiducial_px = attack_scene(rng, radius)
        kind = ("concave", "convex")[k % 2]
        mode = ("targeted", "untargeted")[(k // 2) % 2]
        frame_path = f"in/frame_{k}.pgm"
        boxes_path = f"in/boxes_{k}.txt"
        write_pgm(os.path.join(out, frame_path), frame)
        with open(os.path.join(out, boxes_path), "w", encoding="ascii") as fh:
            fh.write("%d %d %d %d\n" % box)
        argv = ["optimize", "--input", frame_path, "--mode", mode,
                "--lens-kind", kind, "--boxes", boxes_path, "--region", "circle",
                "--cx", cx, "--cy", cy, "--radius", radius,
                "--output", "out/sweep.csv"]
        factor = float(rng.uniform(0.6, 1.5))
        if external:
            name = map_sets[(k + k // 4) % 2]
            argv += ["--estimator", "external", "--maps", name]
            x0, y0, x1, y1 = box
            vehicle = float(np.nanmean(benign_maps[name][y0:y1, x0:x1]))
        else:
            argv += ["--estimator", "proxy", "--fiducial-height", FIDUCIAL_HEIGHT_M,
                     "--focal-px", FOCAL_PX]
            vehicle = FOCAL_PX * FIDUCIAL_HEIGHT_M / fiducial_px
        if mode == "targeted":
            argv += ["--y-tar", round(vehicle * factor, 6)]
        ops.append({"calls": [_call(argv, ["out/sweep.csv"])]})
    return {"round": 2, "ops": ops}


def gen_render(out: str, seed: int) -> dict:
    rng = rng_for("render_and_detect", seed)
    os.makedirs(os.path.join(out, "in"), exist_ok=True)
    os.makedirs(os.path.join(out, "out"), exist_ok=True)
    write_ppm(os.path.join(out, "in/frame.ppm"), rgb_scene(rng))
    ops = []
    for k in range(36):  # every (level, lens kind, window) combination once
        level = 1 + k % 9
        kind = ("concave", "convex")[(k // 2) % 2]
        window = (8, 32)[k % 2]
        ops.append({"calls": [
            _call(["simulate", "--input", "in/frame.ppm", "--output", "out/attacked.ppm",
                   "--lens-kind", kind, "--level", level, "--region", "full"],
                  ["out/attacked.ppm"]),
            _call(["defend", "--input", "out/attacked.ppm", "--method", "varlap"]),
            _call(["defend", "--input", "out/attacked.ppm", "--method", "lbp",
                   "--window", window, "--mask-out", "out/mask.pgm"],
                  ["out/mask.pgm"]),
        ]})
    return {"round": 4, "ops": ops}


def gen_braking(out: str, seed: int) -> dict:
    """One op per (optics cell, lens sign).

    gap0 and speed come from a stratified design: the 72 ops split each range
    into 72 strata, op k takes gap stratum 5k mod 72 and speed stratum 29k
    mod 72 (a fixed lattice, so every prefix of the cycle mixes short and
    long runs), and the seed places each value within its stratum. Every
    seed thus spans both ranges evenly and the costliest op stays alike.
    """
    rng = rng_for("braking_sweep", seed)
    os.makedirs(os.path.join(out, "out"), exist_ok=True)
    cells = [(f, db, do1) for f in OPTICS_F for db in OPTICS_DB for do1 in OPTICS_DO1]
    n = 2 * len(cells)
    k = np.arange(n)
    gaps = 100.0 + 300.0 * ((5 * k) % n + rng.uniform(size=n)) / n
    speeds = 10.0 + 20.0 * ((29 * k) % n + rng.uniform(size=n)) / n
    noise_seeds = rng.integers(0, 2 ** 31, size=n)
    ops = []
    for k in range(n):
        f, db, do1 = cells[k // 2]
        argv = ["scenario", "--ratio-from-optics", "--lens", ("concave", "convex")[k % 2],
                "--f", f, "--db", db, "--do1", do1, "--fc", CAMERA_FC,
                "--dt", 0.001, "--gap0", round(float(gaps[k]), 3),
                "--speed", round(float(speeds[k]), 3), "--log", "out/ticks.csv"]
        if (k // 2) % 2:
            argv += ["--sigma", 0.5, "--seed", int(noise_seeds[k])]
        ops.append({"calls": [_call(argv, ["out/ticks.csv"])]})
    return {"round": n, "ops": ops}


def generate(workload: str, seed: int, out: str) -> dict:
    if workload == "attack_search_proxy":
        manifest = gen_attack(out, seed, external=False)
    elif workload == "attack_search_maps":
        manifest = gen_attack(out, seed, external=True)
    elif workload == "render_and_detect":
        manifest = gen_render(out, seed)
    elif workload == "braking_sweep":
        manifest = gen_braking(out, seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    manifest = {"workload": workload, "seed": seed, **manifest}
    with open(os.path.join(out, "manifest.json"), "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=1)
    return manifest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="empty directory to fill")
    ns = ap.parse_args(argv)
    os.makedirs(ns.out, exist_ok=True)
    generate(ns.workload, ns.seed, ns.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
