"""Command-line surface.

Six subcommands: ``optics`` (expected-depth math and the full sweep table),
``simulate`` (attacked-image synthesis), ``optimize`` (loss-driven level
search), ``metrics`` (distortion / error rates), ``defend`` (blur
detection), ``scenario`` (closed-loop braking runs).

Conventions shared by all commands:

* units are meters / seconds / pixels throughout;
* every option can also come from a ``key = value`` config file via
  ``--config``; an option resolves flag > config file > registered default,
  a line is a comment only when its first non-blank character is ``#``, a
  switch reads 1/true/yes/on or 0/false/no/off in any case, and a value that
  does not parse is a usage error naming its key;
* human-readable numbers print with 6 significant digits, CSV output keeps
  full float precision;
* exit codes: 0 success, 1 domain error (singular / infeasible geometry),
  2 usage or I/O error; a NaN or infinite number is a usage error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace

import numpy as np

from . import attack_opt, defense, estimation, metrics, optics, scenario
from .errors import DepthlensError, SingularConfiguration
from .imaging import (AttackProfile, BlurPlacement, LensKind, LensRegion,
                      RasterImage, apply_attack_transform, level_to_profile,
                      region_masks)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def _config_bool(raw: str) -> bool:
    if raw.lower() not in _BOOL_WORDS:
        raise ValueError(f"expected one of {', '.join(_BOOL_WORDS)}, got {raw!r}")
    return _BOOL_WORDS[raw.lower()]


class _Command:
    """One subcommand: its parser, its handler and the option registry, which
    maps each option to the parser of its config-file value and its one
    default. The argparse parser leaves every option at None, so
    ``_resolve`` can tell an explicit flag from an unset one."""

    def __init__(self, subparsers, name: str, help_text: str, handler):
        self.name = name
        self.handler = handler
        self.parser = subparsers.add_parser(name, help=help_text)
        self.parser.add_argument("--config", default=None,
                                 help="key = value file supplying defaults")
        self.options: dict[str, tuple[object, object]] = {}

    def opt(self, flag: str, default=None, **kwargs):
        action = self.parser.add_argument(flag, **kwargs)
        self.options[action.dest] = (kwargs.get("type", str), default)

    def flag(self, flag: str, **kwargs):
        action = self.parser.add_argument(flag, action="store_true", default=None, **kwargs)
        self.options[action.dest] = (_config_bool, False)


def _load_config_file(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = line.split("=", 1)
            entries[key.strip().replace("-", "_")] = value.strip()
    return entries


def _resolve(ns: argparse.Namespace, command: _Command) -> None:
    """Fill every option the command line left unset: the config file's
    entry if it has one, else the registered default."""
    entries = _load_config_file(ns.config) if ns.config else {}
    for key in entries:
        if key not in command.options:
            raise ValueError(f"unknown config key {key!r}")
    for dest, (parse, default) in command.options.items():
        if getattr(ns, dest) is None:  # an explicit flag wins, even 0 or 0.0
            try:
                setattr(ns, dest, parse(entries[dest]) if dest in entries else default)
            except ValueError as exc:
                raise ValueError(f"config key {dest!r}: {exc}") from None


def _require(ns, *names):
    for name in names:
        if getattr(ns, name, None) is None:
            raise ValueError(f"missing required option --{name.replace('_', '-')}")


def _parse_region(ns) -> LensRegion:
    if ns.region == "full":
        return LensRegion.full_frame()
    if ns.region == "circle":
        _require(ns, "cx", "cy", "radius")
        return LensRegion.circle(ns.cx, ns.cy, ns.radius)
    raise ValueError(f"region must be 'full' or 'circle', got {ns.region!r}")


def _lens_kind(name: str) -> LensKind:
    try:
        return LensKind(name)
    except ValueError:
        raise ValueError(f"lens kind must be concave or convex, got {name!r}") from None


def _lens_spec(ns) -> optics.LensSpec:
    """The attack lens named by --lens, its --f magnitude signed by kind."""
    _require(ns, "f")
    concave = _lens_kind(ns.lens) is LensKind.CONCAVE
    return optics.LensSpec(-abs(ns.f) if concave else abs(ns.f))


def _first_box(ns) -> estimation.Box:
    """The first box of the --boxes file; the file must hold one."""
    _require(ns, "boxes")
    boxes = estimation.load_boxes(ns.boxes)
    if not boxes:
        raise ValueError(f"no boxes in {ns.boxes}")
    return boxes[0]


# ---------------------------------------------------------------- optics ----

def _add_optics(sub) -> _Command:
    cmd = _Command(sub, "optics", "closed-form expected depth for a lens stack",
                   cmd_optics)
    cmd.opt("--lens", type=str, help="concave | convex | none (pass-through)")
    cmd.opt("--f", type=float, help="attack lens focal length magnitude, m")
    cmd.opt("--db", type=float, help="attack lens to camera lens gap, m")
    cmd.opt("--do1", type=float, help="object to attack lens distance, m")
    cmd.opt("--fc", type=float, help="camera focal length, m")
    cmd.opt("--table", type=str,
            help="emit the full (f, d_b, d_o1) sweep CSV for concave|convex")
    return cmd


def cmd_optics(ns) -> int:
    if ns.table:
        concave = _lens_kind(ns.table) is LensKind.CONCAVE
        _require(ns, "fc")
        cells = list(optics.expected_depth_grid(concave, ns.fc))  # before any output
        print("lens,f_m,d_b_m,d_o1_m,m_total,m_ori,depth_ratio,expected_depth_m")
        for f, d_b, d_o1, result in cells:
            depth = result.depth_ratio * d_o1
            print(f"{ns.table},{f!r},{d_b!r},{d_o1!r},{result.m_total!r},"
                  f"{result.m_ori!r},{result.depth_ratio!r},{depth!r}")
        return 0

    _require(ns, "lens", "do1", "fc", "db")
    camera = optics.CameraSpec(focal_length_m=ns.fc, lens_gap_m=ns.db)
    lens = None if ns.lens == "none" else _lens_spec(ns)
    geom = optics.AttackGeometry(ns.do1, lens, camera)
    result = optics.combined_magnification(geom)
    scenario_name = result.scenario.value if result.scenario else "pass_through"
    feasible = result.scenario.feasible_in_ad if result.scenario else True
    print(f"scenario={scenario_name} feasible={str(feasible).lower()}")
    print(f"m1={_fmt(result.m1)} m2={_fmt(result.m2)}")
    print(f"m_total={_fmt(result.m_total)} m_ori={_fmt(result.m_ori)}")
    print(f"depth_ratio={_fmt(result.depth_ratio)}")
    print(f"expected_depth_m={_fmt(result.depth_ratio * ns.do1)}")
    return 0


# -------------------------------------------------------------- simulate ----

def _add_simulate(sub) -> _Command:
    cmd = _Command(sub, "simulate", "render an attacked image", cmd_simulate)
    cmd.opt("--input", type=str, help="benign PGM/PPM")
    cmd.opt("--output", type=str, help="attacked image path")
    cmd.opt("--lens-kind", type=str, default="concave", help="concave | convex")
    cmd.opt("--level", type=int, help="discrete attack level 1..9")
    cmd.opt("--scale", type=float, help="override rescale factor")
    cmd.opt("--blur", type=int, help="override blur radius, px")
    cmd.opt("--placement", type=str, help="override: in_lens | out_of_lens")
    cmd.opt("--region", type=str, default="full", help="full (default) | circle")
    cmd.opt("--cx", type=float, help="circle center x, px")
    cmd.opt("--cy", type=float, help="circle center y, px")
    cmd.opt("--radius", type=float, help="circle radius, px")
    cmd.opt("--emit-masks", type=str,
            help="prefix for <prefix>_in.pgm / <prefix>_out.pgm mask dumps")
    return cmd


def _build_profile(ns, region: LensRegion) -> AttackProfile:
    """The --level profile, or the identity (scale 1, blur 0) without one,
    with --scale, --blur and --placement applied on top."""
    if ns.level is None and ns.scale is None and ns.blur is None:
        raise ValueError("give --level or an explicit --scale/--blur profile")
    kind = _lens_kind(ns.lens_kind)
    if ns.level is None:
        profile = replace(level_to_profile(kind, 1, region=region),
                          scale_factor=1.0, blur_radius=0)
    else:
        profile = level_to_profile(kind, ns.level, region=region)
    placement = None if ns.placement is None else BlurPlacement(ns.placement)
    overrides = {"scale_factor": ns.scale, "blur_radius": ns.blur,
                 "blur_placement": placement}
    return replace(profile, **{k: v for k, v in overrides.items() if v is not None})


def cmd_simulate(ns) -> int:
    _require(ns, "input", "output")
    image = RasterImage.load(ns.input)
    region = _parse_region(ns)
    profile = _build_profile(ns, region)
    attacked = apply_attack_transform(image, profile)
    attacked.save(ns.output)
    print(f"wrote {ns.output} scale={_fmt(profile.scale_factor)} "
          f"blur={profile.blur_radius} placement={profile.blur_placement.value}")
    if ns.emit_masks:
        inside = region_masks(image.width, image.height, region)
        for suffix, mask in (("in", inside), ("out", ~inside)):
            path = f"{ns.emit_masks}_{suffix}.pgm"
            RasterImage(mask * np.uint8(255)).save(path)
            print(f"wrote {path}")
    return 0


# -------------------------------------------------------------- optimize ----

def _add_optimize(sub) -> _Command:
    cmd = _Command(sub, "optimize", "brute-force level search over alphas", cmd_optimize)
    cmd.opt("--input", type=str, help="benign PGM/PPM")
    cmd.opt("--mode", type=str, help="targeted | untargeted")
    cmd.opt("--lens-kind", type=str, help="concave | convex")
    cmd.opt("--alphas", type=str, default="0.1,0.2,0.3,0.4",
            help="comma list, default 0.1,0.2,0.3,0.4")
    cmd.opt("--boxes", type=str, help="vehicle bounding-box file (first box used)")
    cmd.opt("--region", type=str, default="full", help="full (default) | circle")
    cmd.opt("--cx", type=float, help="circle center x, px")
    cmd.opt("--cy", type=float, help="circle center y, px")
    cmd.opt("--radius", type=float, help="circle radius, px")
    cmd.opt("--estimator", type=str, default="proxy", help="proxy (default) | external")
    cmd.opt("--maps", type=str, help="map directory for the external estimator")
    cmd.opt("--map-kind", type=str, default="disparity",
            help="disparity (default) | depth")
    cmd.opt("--rescale", type=float, help="divide external disparities by this")
    cmd.opt("--y-tar", type=float, help="target value for targeted mode")
    cmd.opt("--fiducial-height", type=float, help="proxy fiducial height, m")
    cmd.opt("--focal-px", type=float, help="proxy focal length, px")
    cmd.opt("--detect-threshold", type=int,
            default=estimation.FiducialSpec.detection_threshold,
            help="proxy blob threshold (default 96)")
    cmd.opt("--output", type=str, help="CSV path (default stdout)")
    return cmd


def cmd_optimize(ns) -> int:
    _require(ns, "input", "mode", "lens_kind")
    image = RasterImage.load(ns.input)
    mode = attack_opt.Mode(ns.mode)
    kind = _lens_kind(ns.lens_kind)
    region = _parse_region(ns)
    box = _first_box(ns)
    alphas = [float(a) for a in ns.alphas.split(",")]

    if ns.estimator == "proxy":
        _require(ns, "fiducial_height", "focal_px")
        fiducial = estimation.FiducialSpec(
            physical_height_m=ns.fiducial_height,
            detection_threshold=ns.detect_threshold, reference_box=box)
        estimator = estimation.ProxyDepthMapper(fiducial, ns.focal_px)
    elif ns.estimator == "external":
        _require(ns, "maps")
        estimator = estimation.DirectoryMapEstimator(
            ns.maps, kind=ns.map_kind, rescale=ns.rescale)
    else:
        raise ValueError(f"estimator must be proxy or external, got {ns.estimator!r}")

    y_tar = ns.y_tar
    if y_tar is None and mode is attack_opt.Mode.TARGETED:
        y_tar = attack_opt.DEFAULT_Y_TAR[kind]
    cfg = attack_opt.LossConfig(alpha=alphas[0], mode=mode, vehicle_box=box,
                                region=region, y_tar=y_tar)
    rows = attack_opt.alpha_sweep(image, estimator, cfg, alphas, kind)
    for row in rows:
        if row.failed:
            print(f"error: alpha {row.alpha!r}: {row.error}", file=sys.stderr)
    csv_text = attack_opt.sweep_to_csv(rows)
    if ns.output:
        with open(ns.output, "w", encoding="ascii") as fh:
            fh.write(csv_text)
        print(f"wrote {ns.output}")
    else:
        sys.stdout.write(csv_text)
    return 0


# ---------------------------------------------------------------- metrics ----

def _add_metrics(sub) -> _Command:
    cmd = _Command(sub, "metrics", "attack distortion / error rates", cmd_metrics)
    cmd.opt("--kind", type=str, help="adr | aer")
    cmd.opt("--attacked", type=float, help="attacked reading (scalar mode)")
    cmd.opt("--benign", type=float, help="benign reading (adr)")
    cmd.opt("--target", type=float, help="target value (aer)")
    cmd.opt("--attacked-map", type=str, help="attacked map file (map mode)")
    cmd.opt("--benign-map", type=str, help="benign map file (adr map mode)")
    cmd.opt("--map-kind", type=str, default="depth", help="depth (default) | disparity")
    cmd.opt("--boxes", type=str, help="mask box file (first box used)")
    return cmd


def _box_mean(ns, map_path) -> float:
    """Mean of the map file's valid pixels under the first --boxes box."""
    box = _first_box(ns)
    crop = estimation.load_depth_map(map_path, kind=ns.map_kind)[box.slices()]
    return estimation.masked_mean(crop, np.ones(crop.shape, dtype=bool))


def cmd_metrics(ns) -> int:
    _require(ns, "kind")
    if ns.kind not in ("adr", "aer"):
        raise ValueError(f"kind must be adr or aer, got {ns.kind!r}")

    if ns.attacked_map:
        attacked = _box_mean(ns, ns.attacked_map)
    else:
        _require(ns, "attacked")
        attacked = ns.attacked

    if ns.kind == "adr":
        if ns.benign_map:
            benign = _box_mean(ns, ns.benign_map)
        else:
            _require(ns, "benign")
            benign = ns.benign
        print(f"adr={_fmt(metrics.adr(attacked, benign))}")
    else:
        _require(ns, "target")
        print(f"aer={_fmt(metrics.aer(attacked, ns.target))}")
    return 0


# ----------------------------------------------------------------- defend ----

def _add_defend(sub) -> _Command:
    cmd = _Command(sub, "defend", "blur detection verdicts", cmd_defend)
    cmd.opt("--input", type=str, help="image to score")
    cmd.opt("--method", type=str, help="varlap | lbp")
    cmd.opt("--threshold", type=float, help="verdict threshold (method default)")
    cmd.opt("--window", type=int, default=defense.DEFAULT_TILE_PX,
            help="lbp tile size, px (default 32)")
    cmd.opt("--delta", type=int, default=defense.DEFAULT_LBP_DELTA,
            help="lbp neighbor delta (default 20)")
    cmd.opt("--mask-out", type=str, help="write the blur mask PGM here (lbp)")
    return cmd


def cmd_defend(ns) -> int:
    _require(ns, "input", "method")
    image = RasterImage.load(ns.input)
    # Without --threshold each method applies its own default.
    threshold = {} if ns.threshold is None else {"threshold": ns.threshold}
    if ns.method == "varlap":
        verdict = defense.varlap_verdict(image, **threshold)
    elif ns.method == "lbp":
        sharpness = defense.lbp_sharpness_map(image, window=ns.window,
                                              lbp_threshold=ns.delta)
        verdict = defense.segment_blur(sharpness, **threshold)
    else:
        raise ValueError(f"unsupported method {ns.method!r} (varlap or lbp)")
    print(verdict.report_line())
    if ns.mask_out:
        if verdict.blur_mask is None:
            raise ValueError("--mask-out needs the lbp method")
        RasterImage(verdict.blur_mask * np.uint8(255)).save(ns.mask_out)
        print(f"wrote {ns.mask_out}")
    return 0


# --------------------------------------------------------------- scenario ----

def _add_scenario(sub) -> _Command:
    cmd = _Command(sub, "scenario", "closed-loop braking run", cmd_scenario)
    defaults = scenario.ScenarioConfig  # class attributes hold field defaults
    cmd.opt("--gap0", type=float, default=40.0, help="initial gap, m (default 40)")
    cmd.opt("--speed", type=float, default=10.0, help="ego speed, m/s (default 10)")
    cmd.opt("--max-decel", type=float, default=6.0,
            help="braking deceleration, m/s^2 (default 6)")
    cmd.opt("--margin", type=float, default=2.0, help="safety margin, m (default 2)")
    cmd.opt("--dt", type=float, default=defaults.dt_s, help="tick, s (default 0.01)")
    cmd.opt("--max-time", type=float, default=defaults.max_sim_time_s,
            help="simulation cap, s (default 60)")
    cmd.opt("--sigma", type=float, default=defaults.noise_sigma_m,
            help="perception noise sigma, m (default 0)")
    cmd.opt("--seed", type=int, default=defaults.seed, help="noise seed (default 0)")
    cmd.opt("--ratio", type=float, default=defaults.depth_ratio,
            help="perceived/true depth ratio")
    cmd.flag("--ratio-from-optics", help="derive the ratio from lens geometry")
    cmd.opt("--lens", type=str, help="concave | convex (with --ratio-from-optics)")
    cmd.opt("--f", type=float, help="attack lens focal length magnitude, m")
    cmd.opt("--db", type=float, help="lens gap, m")
    cmd.opt("--do1", type=float, help="object distance, m")
    cmd.opt("--fc", type=float, help="camera focal length, m")
    cmd.opt("--log", type=str, help="write the tick CSV here")
    return cmd


def cmd_scenario(ns) -> int:
    ratio = ns.ratio
    if ns.ratio_from_optics:
        _require(ns, "lens", "f", "db", "do1", "fc")
        geom = optics.AttackGeometry(
            ns.do1, _lens_spec(ns),
            optics.CameraSpec(focal_length_m=ns.fc, lens_gap_m=ns.db))
        ratio = optics.combined_magnification(geom).depth_ratio
        print(f"ratio={_fmt(ratio)}")
    cfg = scenario.ScenarioConfig(
        initial_gap_m=ns.gap0, ego_speed_mps=ns.speed, max_decel_mps2=ns.max_decel,
        safety_margin_m=ns.margin, depth_ratio=ratio, dt_s=ns.dt,
        noise_sigma_m=ns.sigma, max_sim_time_s=ns.max_time, seed=ns.seed)
    outcome, ticks = scenario.run_scenario(cfg)
    print(scenario.outcome_summary(outcome))
    if ns.log:
        with open(ns.log, "w", encoding="ascii") as fh:
            fh.write(scenario.ticks_to_csv(ticks, cfg))
        print(f"wrote {ns.log}")
    return 0


# ------------------------------------------------------------------- main ----

@functools.cache  # one parser per process; parse_args leaves it unchanged
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, _Command]]:
    parser = argparse.ArgumentParser(
        prog="depthlens",
        description="optical-lens tampering toolkit for monocular depth pipelines")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = [add(sub) for add in (_add_optics, _add_simulate, _add_optimize,
                                     _add_metrics, _add_defend, _add_scenario)]
    return parser, {cmd.name: cmd for cmd in commands}


def main(argv=None) -> int:
    parser, commands = build_parser()
    ns = parser.parse_args(argv)
    command = commands[ns.command]
    try:
        _resolve(ns, command)
        return command.handler(ns)
    except SingularConfiguration as exc:
        print(f"error: singular configuration: {exc}", file=sys.stderr)
        return 1
    except (DepthlensError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
