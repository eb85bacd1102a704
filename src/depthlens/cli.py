"""Command-line surface.

Six subcommands: ``optics`` (expected-depth math and the full sweep table),
``simulate`` (attacked-image synthesis), ``optimize`` (loss-driven level
search), ``metrics`` (distortion / error rates), ``defend`` (blur
detection), ``scenario`` (closed-loop braking runs).

Conventions shared by all commands:

* units are meters / seconds / pixels throughout;
* every option can also come from a ``key = value`` config file via
  ``--config``; an option resolves flag > config file > registered default,
  a line is a comment only when its first non-blank character is ``#``, and
  a malformed line (a key set twice names both lines) raises ``ParseError``;
* flag text and config text go through the option's one registered parser
  and fail alike (``option --x: ...``, ``config key 'x': ...``); a word
  option arrives as its enum member or word, and its message lists the
  words it accepts; a switch reads 1/true/yes/on or 0/false/no/off in any case;
* human-readable numbers print with 6 significant digits, CSV output keeps
  full float precision;
* exit codes: 0 success, 1 domain error (singular / infeasible geometry),
  2 usage or I/O error; a NaN or infinite number, and an integer outside
  its option's range, is a usage error, caught by the option's parser
  whether or not the run reads it, and argparse's own usage errors (an
  unknown flag) exit 2 with one ``error:`` line too.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import replace

import numpy as np

from . import attack_opt, defense, estimation, formats, metrics, optics, scenario
from .errors import REPORTED_ERRORS, ParseError, SingularConfiguration
from .imaging import (LEVELS, AttackProfile, BlurPlacement, LensKind, LensRegion,
                      RasterImage, apply_attack_transform, level_to_profile,
                      region_masks)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


class _Words:
    """Parser of a word option: an Enum's values map to its members, bare
    words to themselves; any other word is a ValueError listing them."""

    def __init__(self, words, any_case: bool = False):
        if isinstance(words, type):
            words = {member.value: member for member in words}
        self.words = words if isinstance(words, dict) else {w: w for w in words}
        self.any_case = any_case

    def __call__(self, text: str):
        try:
            return self.words[text.lower() if self.any_case else text]
        except KeyError:
            raise ValueError(f"unsupported word {text!r}; accepted: "
                             f"{', '.join(self.words)}") from None


_LENS_KIND = _Words(LensKind)
_SWITCH = _Words({**dict.fromkeys(("1", "true", "yes", "on"), True),
                  **dict.fromkeys(("0", "false", "no", "off"), False)}, any_case=True)


def _finite(text: str) -> float:
    """Parser of a number option. NaN and infinities are rejected here, so a
    value that the run never reads is checked too; so are the ``_``
    separators and non-ASCII digits that float() alone would take."""
    value = float(text)
    if "_" in text or not text.isascii():
        raise ValueError(f"must be an ASCII number without '_', got {text!r}")
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {text!r}")
    return value


class _Int:
    """Parser of an integer option in ``low..high`` (``high`` None: no upper
    bound). Like ``_finite``, it checks a value that the run never reads."""

    def __init__(self, low: int, high: int | None = None):
        self.low, self.high = low, high

    def __call__(self, text: str) -> int:
        value = int(text)
        # int() alone would also take "+3", "1_0" and non-ASCII digits
        if not (text.isascii() and text.removeprefix("-").isdigit()):
            raise ValueError(f"must be ASCII digits after an optional minus, got {text!r}")
        if value < self.low or self.high is not None and value > self.high:
            bounds = (f">= {self.low}" if self.high is None
                      else f"in {self.low}..{self.high}")
            raise ValueError(f"must be {bounds}, got {text!r}")
        return value


def _floats(text: str) -> tuple[float, ...]:
    """Parser of a comma-separated list of numbers."""
    return tuple(_finite(item) for item in text.split(","))


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors (an unknown flag, a flag without
    its value) raise ValueError, so that ``main`` reports them as it reports
    every other usage error: one ``error:`` line and exit 2."""

    def error(self, message):
        raise ValueError(message)


class _Command:
    """One subcommand: its parser, its handler and the option registry, which
    maps each option to the parser of its text and its one default. The
    argparse parser keeps every option as text and leaves an unset one at
    None, so ``_resolve`` can tell an explicit flag from an unset one."""

    def __init__(self, subparsers, name: str, help_text: str, handler):
        self.name = name
        self.handler = handler
        self.parser = subparsers.add_parser(name, help=help_text)
        self.parser.add_argument("--config", help="key = value file supplying defaults")
        self.options: dict[str, tuple[object, object]] = {}

    def opt(self, flag: str, parse=str, default=None, help="", **kwargs):
        """Register an option; its help text gains the words it accepts and
        its default from the registry, so neither is written twice."""
        if isinstance(parse, _Words) and parse is not _SWITCH:
            help = " | ".join(parse.words) + (f"; {help}" if help else "")
        if default is not None:
            help += f" (default {getattr(default, 'value', default)})"
        action = self.parser.add_argument(flag, help=help, **kwargs)
        self.options[action.dest] = (parse, default)


def _load_config_file(path: str, known) -> dict[str, tuple[int, str]]:
    """Each key's line number and value text; every key must be ``known``,
    and a malformed line raises ``ParseError``."""
    entries: dict[str, tuple[int, str]] = {}
    for lineno, raw, line in formats._text_lines(path, "utf-8"):
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in known:
            raise ParseError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in entries:
            raise ParseError(f"{path}:{lineno}: duplicate key {key!r}, "
                             f"first set on line {entries[key][0]}")
        entries[key] = lineno, value.strip()
    return entries


def _resolve(ns: argparse.Namespace, command: _Command) -> None:
    """Turn every option into its value: the flag's text if one was given
    (even "0" or ""), else the config file's entry, each read by the
    option's registered parser; else the registered default."""
    entries = _load_config_file(ns.config, command.options) if ns.config else {}
    for dest, (parse, default) in command.options.items():
        text, source = getattr(ns, dest), f"option --{dest.replace('_', '-')}"
        if text is None and dest in entries:
            text, source = entries[dest][1], f"config key {dest!r}"
        try:
            setattr(ns, dest, default if text is None else parse(text))
        except ValueError as exc:
            raise ValueError(f"{source}: {exc}") from None


def _require(ns, *names):
    for name in names:
        if getattr(ns, name, None) is None:
            raise ValueError(f"missing required option --{name.replace('_', '-')}")


def _add_region_options(cmd: _Command) -> None:
    cmd.opt("--region", _Words(("full", "circle")), "full")
    cmd.opt("--cx", _finite, help="circle center x, px")
    cmd.opt("--cy", _finite, help="circle center y, px")
    cmd.opt("--radius", _finite, help="circle radius, px")


def _parse_region(ns) -> LensRegion:
    if ns.region == "full":
        return LensRegion.full_frame()
    _require(ns, "cx", "cy", "radius")
    return LensRegion.circle(ns.cx, ns.cy, ns.radius)


def _magnification(ns) -> optics.OpticsResult:
    """The lens stack of --do1, --db and --fc behind the attack lens named by
    --lens (none: no lens), its --f magnitude signed by kind."""
    _require(ns, "lens", "do1", "fc", "db")
    camera = optics.CameraSpec(focal_length_m=ns.fc, lens_gap_m=ns.db)
    lens = None
    if ns.lens != "none":
        _require(ns, "f")
        lens = optics.LensSpec(-abs(ns.f) if ns.lens is LensKind.CONCAVE else abs(ns.f))
    return optics.combined_magnification(optics.AttackGeometry(ns.do1, lens, camera))


def _first_box(ns) -> estimation.Box:
    """The first box of the --boxes file; the file must hold one."""
    _require(ns, "boxes")
    boxes = estimation.load_boxes(ns.boxes)
    if not boxes:
        raise ParseError(f"no boxes in {ns.boxes}")
    return boxes[0]


# ---------------------------------------------------------------- optics ----

def _add_optics(sub) -> _Command:
    cmd = _Command(sub, "optics", "closed-form expected depth for a lens stack",
                   cmd_optics)
    cmd.opt("--lens", _Words({**_LENS_KIND.words, "none": "none"}), help="none: no lens")
    cmd.opt("--f", _finite, help="attack lens focal length magnitude, m")
    cmd.opt("--db", _finite, help="attack lens to camera lens gap, m")
    cmd.opt("--do1", _finite, help="object to attack lens distance, m")
    cmd.opt("--fc", _finite, help="camera focal length, m")
    cmd.opt("--table", _LENS_KIND, help="emit the full (f, d_b, d_o1) sweep CSV")
    return cmd


def cmd_optics(ns) -> int:
    if ns.table is not None:
        _require(ns, "fc")
        # every cell before any output
        cells = list(optics.expected_depth_grid(ns.table is LensKind.CONCAVE, ns.fc))
        print("lens,f_m,d_b_m,d_o1_m,m_total,m_ori,depth_ratio,expected_depth_m")
        for f, d_b, d_o1, result in cells:
            depth = result.depth_ratio * d_o1
            print(f"{ns.table.value},{f!r},{d_b!r},{d_o1!r},{result.m_total!r},"
                  f"{result.m_ori!r},{result.depth_ratio!r},{depth!r}")
        return 0

    result = _magnification(ns)
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
    cmd.opt("--input", help="benign PGM/PPM")
    cmd.opt("--output", help="attacked image path")
    cmd.opt("--lens-kind", _LENS_KIND, LensKind.CONCAVE)
    cmd.opt("--level", _Int(LEVELS[0], LEVELS[-1]),
            help=f"discrete attack level {LEVELS[0]}..{LEVELS[-1]}")
    cmd.opt("--scale", _finite, help="override rescale factor")
    cmd.opt("--blur", _Int(0), help="override blur radius, px")
    cmd.opt("--placement", _Words(BlurPlacement), help="override")
    _add_region_options(cmd)
    cmd.opt("--emit-masks",
            help="prefix for <prefix>_in.pgm / <prefix>_out.pgm mask dumps")
    return cmd


def _build_profile(ns, region: LensRegion) -> AttackProfile:
    """The --level profile, or the identity (scale 1, blur 0) without one,
    with --scale, --blur and --placement applied on top."""
    if ns.level is None and ns.scale is None and ns.blur is None:
        raise ValueError("give --level or an explicit --scale/--blur profile")
    if ns.level is None:
        profile = replace(level_to_profile(ns.lens_kind, 1, region=region),
                          scale_factor=1.0, blur_radius=0)
    else:
        profile = level_to_profile(ns.lens_kind, ns.level, region=region)
    overrides = {"scale_factor": ns.scale, "blur_radius": ns.blur,
                 "blur_placement": ns.placement}
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
    cmd.opt("--input", help="benign PGM/PPM")
    cmd.opt("--mode", _Words(attack_opt.Mode))
    cmd.opt("--lens-kind", _LENS_KIND)
    cmd.opt("--alphas", _floats, (0.1, 0.2, 0.3, 0.4), help="comma list")
    cmd.opt("--boxes", help="vehicle bounding-box file (first box used)")
    _add_region_options(cmd)
    cmd.opt("--estimator", _Words(("proxy", "external")), "proxy")
    cmd.opt("--maps", help="map directory for the external estimator")
    cmd.opt("--map-kind", _Words(("disparity", "depth")), "disparity")
    cmd.opt("--rescale", _finite, help="divide external disparities by this")
    cmd.opt("--y-tar", _finite, help="target value for targeted mode")
    cmd.opt("--fiducial-height", _finite, help="proxy fiducial height, m")
    cmd.opt("--focal-px", _finite, help="proxy focal length, px")
    cmd.opt("--detect-threshold", _Int(*estimation.DETECTION_THRESHOLDS),
            estimation.FiducialSpec.detection_threshold,
            help="proxy blob threshold")
    cmd.opt("--output", help="CSV path (default stdout)")
    return cmd


def cmd_optimize(ns) -> int:
    _require(ns, "input", "mode", "lens_kind")
    image = RasterImage.load(ns.input)
    region = _parse_region(ns)
    box = _first_box(ns)

    if ns.estimator == "proxy":
        _require(ns, "fiducial_height", "focal_px")
        fiducial = estimation.FiducialSpec(
            physical_height_m=ns.fiducial_height,
            detection_threshold=ns.detect_threshold, reference_box=box)
        estimator = estimation.ProxyDepthMapper(fiducial, ns.focal_px)
    else:
        _require(ns, "maps")
        estimator = estimation.DirectoryMapEstimator(
            ns.maps, kind=ns.map_kind, rescale=ns.rescale)

    y_tar = ns.y_tar
    if y_tar is None and ns.mode is attack_opt.Mode.TARGETED:
        y_tar = attack_opt.DEFAULT_Y_TAR[ns.lens_kind]
    cfg = attack_opt.LossConfig(alpha=ns.alphas[0], mode=ns.mode, vehicle_box=box,
                                region=region, y_tar=y_tar)
    rows = attack_opt.alpha_sweep(image, estimator, cfg, ns.alphas, ns.lens_kind)
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
    cmd.opt("--kind", _Words(("adr", "aer")))
    cmd.opt("--attacked", _finite, help="attacked reading (scalar mode)")
    cmd.opt("--benign", _finite, help="benign reading (adr)")
    cmd.opt("--target", _finite, help="target value (aer)")
    cmd.opt("--attacked-map", help="attacked map file (map mode)")
    cmd.opt("--benign-map", help="benign map file (adr map mode)")
    cmd.opt("--map-kind", _Words(("depth", "disparity")), "depth")
    cmd.opt("--boxes", help="mask box file (first box used)")
    return cmd


def _box_mean(ns, map_path) -> float:
    """Mean of the map file's valid pixels under the first --boxes box."""
    box = _first_box(ns)
    crop = estimation.load_depth_map(map_path, kind=ns.map_kind)[box.slices()]
    return estimation.masked_mean(crop, np.ones(crop.shape, dtype=bool))


def cmd_metrics(ns) -> int:
    _require(ns, "kind")
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
    cmd.opt("--input", help="image to score")
    cmd.opt("--method", _Words(("varlap", "lbp")))
    cmd.opt("--threshold", _finite, help="verdict threshold (method default)")
    cmd.opt("--window", _Int(defense.MIN_TILE_PX), defense.DEFAULT_TILE_PX,
            help="lbp tile size, px")
    cmd.opt("--delta", _Int(defense.MIN_LBP_DELTA), defense.DEFAULT_LBP_DELTA,
            help="lbp neighbor delta")
    cmd.opt("--mask-out", help="write the blur mask PGM here (lbp)")
    return cmd


def cmd_defend(ns) -> int:
    _require(ns, "input", "method")
    if ns.mask_out and ns.method != "lbp":
        raise ValueError("--mask-out needs the lbp method")
    image = RasterImage.load(ns.input)
    # Without --threshold each method applies its own default.
    threshold = {} if ns.threshold is None else {"threshold": ns.threshold}
    if ns.method == "varlap":
        verdict = defense.varlap_verdict(image, **threshold)
    else:
        sharpness = defense.lbp_sharpness_map(image, window=ns.window,
                                              lbp_threshold=ns.delta)
        verdict = defense.segment_blur(sharpness, **threshold)
    print(verdict.report_line())
    if ns.mask_out:
        RasterImage(verdict.blur_mask * np.uint8(255)).save(ns.mask_out)
        print(f"wrote {ns.mask_out}")
    return 0


# --------------------------------------------------------------- scenario ----

def _add_scenario(sub) -> _Command:
    cmd = _Command(sub, "scenario", "closed-loop braking run", cmd_scenario)
    defaults = scenario.ScenarioConfig  # class attributes hold field defaults
    cmd.opt("--gap0", _finite, 40.0, help="initial gap, m")
    cmd.opt("--speed", _finite, 10.0, help="ego speed, m/s")
    cmd.opt("--max-decel", _finite, 6.0, help="braking deceleration, m/s^2")
    cmd.opt("--margin", _finite, 2.0, help="safety margin, m")
    cmd.opt("--dt", _finite, defaults.dt_s, help="tick, s")
    cmd.opt("--max-time", _finite, defaults.max_sim_time_s, help="simulation cap, s")
    cmd.opt("--sigma", _finite, defaults.noise_sigma_m, help="perception noise sigma, m")
    cmd.opt("--seed", _Int(scenario.MIN_SEED), defaults.seed, help="noise seed")
    cmd.opt("--ratio", _finite, defaults.depth_ratio, help="perceived/true depth ratio")
    cmd.opt("--ratio-from-optics", _SWITCH, False, action="store_const", const="1",
            help="derive the ratio from lens geometry")
    cmd.opt("--lens", _LENS_KIND, help="with --ratio-from-optics")
    cmd.opt("--f", _finite, help="attack lens focal length magnitude, m")
    cmd.opt("--db", _finite, help="lens gap, m")
    cmd.opt("--do1", _finite, help="object distance, m")
    cmd.opt("--fc", _finite, help="camera focal length, m")
    cmd.opt("--log", help="write the tick CSV here")
    return cmd


def cmd_scenario(ns) -> int:
    ratio = ns.ratio
    if ns.ratio_from_optics:
        ratio = _magnification(ns).depth_ratio
        print(f"ratio={_fmt(ratio)}")
    cfg = scenario.ScenarioConfig(
        initial_gap_m=ns.gap0, ego_speed_mps=ns.speed, max_decel_mps2=ns.max_decel,
        safety_margin_m=ns.margin, depth_ratio=ratio, dt_s=ns.dt,
        noise_sigma_m=ns.sigma, max_sim_time_s=ns.max_time, seed=ns.seed)
    outcome, ticks = scenario.run_scenario(cfg)
    print(scenario.outcome_summary(outcome))
    if ns.log:
        with open(ns.log, "w", encoding="ascii") as fh:
            scenario.ticks_to_csv(ticks, cfg, fh)
        print(f"wrote {ns.log}")
    return 0


# ------------------------------------------------------------------- main ----

@functools.cache  # one parser per process; parse_args leaves it unchanged
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, _Command]]:
    parser = _Parser(
        prog="depthlens",
        description="optical-lens tampering toolkit for monocular depth pipelines")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = [add(sub) for add in (_add_optics, _add_simulate, _add_optimize,
                                     _add_metrics, _add_defend, _add_scenario)]
    return parser, {cmd.name: cmd for cmd in commands}


def main(argv=None) -> int:
    parser, commands = build_parser()
    try:
        ns = parser.parse_args(argv)
        command = commands[ns.command]
        _resolve(ns, command)
        return command.handler(ns)
    except SingularConfiguration as exc:
        print(f"error: singular configuration: {exc}", file=sys.stderr)
        return 1
    except REPORTED_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
