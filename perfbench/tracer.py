"""Span tracer for the depthlens benchmark.

The tracer records spans from outside the package: it swaps each public
function of interest for a timing wrapper at every module attribute that
binds it (``from .imaging import apply_attack_transform`` makes a second
binding in ``attack_opt`` and a third in ``cli``), and swaps methods on their
classes. ``remove()`` puts every original object back.

Spans carry name, start, end, parent span, op id and a few attributes
(pixels rendered, bytes read, ticks logged). They stay in memory until the
run writes them out. ``summarize`` turns them into the per-layer metrics,
reported per op.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import weakref
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    op: int | None
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self, index: int) -> dict:
        return {"id": index, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, **self.attrs}


def _file_bytes(path) -> dict:
    return {"bytes": os.path.getsize(path)}


def _render_attrs(tracer, args, kwargs, result) -> dict:
    image, profile = args[0], args[1]
    tracer.last_render = weakref.ref(result)
    return {"level": profile.level, "px": image.width * image.height}


def _estimate_attrs(tracer, args, kwargs, result) -> dict:
    image = args[1] if len(args) > 1 else kwargs.get("image")
    last = tracer.last_render() if tracer.last_render is not None else None
    return {"reads_render": last is not None and image is last}


PACKAGE = "depthlens"

# (module, attribute or Class.method, attribute hook). Per-tick scenario
# functions (perceive, controller, step) are left alone: 15k+ calls per op
# would drown the loop in tracing cost; ticks are counted from the log.
TARGETS = (
    ("imaging", "region_masks", None),
    ("imaging", "scale_region", None),
    ("imaging", "box_blur", None),
    ("imaging", "level_to_profile", None),
    ("imaging", "apply_attack_transform", _render_attrs),
    ("imaging", "RasterImage.to_gray", None),
    ("estimation", "ProxyDepthMapper.estimate_map", _estimate_attrs),
    ("estimation", "DirectoryMapEstimator.estimate_map", _estimate_attrs),
    ("estimation", "load_depth_map", None),
    ("estimation", "masked_mean", None),
    ("formats", "read_pnm", lambda t, a, k, r: _file_bytes(a[0])),
    ("formats", "read_pfm", lambda t, a, k, r: _file_bytes(a[0])),
    ("formats", "read_pgm16", lambda t, a, k, r: _file_bytes(a[0])),
    ("formats", "write_pnm", lambda t, a, k, r: _file_bytes(a[0])),
    ("metrics", "adr", None),
    ("metrics", "aer", None),
    ("attack_opt", "optimize_level", None),
    ("attack_opt", "loss_out", None),
    ("attack_opt", "loss_vehicle_targeted", None),
    ("attack_opt", "loss_vehicle_untargeted", None),
    ("defense", "varlap_verdict", None),
    ("defense", "lbp_sharpness_map", None),
    ("defense", "segment_blur", None),
    ("optics", "combined_magnification", None),
    ("scenario", "run_scenario", lambda t, a, k, r: {"ticks": len(r[1])}),
    ("scenario", "ticks_to_csv", None),
)

# Span names whose summed time is one per-layer metric.
LOSS_SPANS = ("attack_opt.loss_out", "attack_opt.loss_vehicle_targeted",
              "attack_opt.loss_vehicle_untargeted")


class Tracer:
    """Collects spans; ``install``/``remove`` patch and restore the package."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self.last_render = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans ----
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name} closed out of order")
        return span

    def wrap(self, fn, name: str, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = tracer.close(index)
            if hook is not None:
                span.attrs.update(hook(tracer, args, kwargs, result))
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    # ---------------------------------------------------------- patching ----
    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for module_name, attr, hook in TARGETS:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            name = f"{module_name}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, meth, self.wrap(cls.__dict__[meth], name, hook))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(original, name, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner, key: str, new) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, new)

    def remove(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)
        self.last_render = None


# ---------------------------------------------------------------- summary ----

def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval covered by the
    union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.duration - covered)
    return out


def summarize(spans: list[Span], n_ops: int) -> dict[str, float]:
    """Per-layer metrics from the spans of ``n_ops`` traced ops, per op."""
    selfs = self_times(spans)
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    attr_sum: dict[tuple[str, str], float] = {}
    for span, self_s in zip(spans, selfs):
        total[span.name] = total.get(span.name, 0.0) + span.duration
        own[span.name] = own.get(span.name, 0.0) + self_s
        calls[span.name] = calls.get(span.name, 0) + 1
        for key in ("px", "bytes", "ticks"):
            if key in span.attrs:
                attr_sum[span.name, key] = attr_sum.get((span.name, key), 0) + span.attrs[key]

    def ms(name):
        return 1e3 * total.get(name, 0.0) / n_ops

    def self_ms(name):
        return 1e3 * own.get(name, 0.0) / n_ops

    def per_op(name):
        return calls.get(name, 0) / n_ops

    renders = [s for s in spans if s.name == "imaging.apply_attack_transform"]
    levels = {(s.op, s.attrs["level"]) for s in renders}
    gray_parents = {s.parent for s in spans if s.name == "imaging.to_gray"}
    read = sum(1 for i, s in enumerate(spans)
               if s.name == "estimation.estimate_map" and s.attrs.get("reads_render")
               and i in gray_parents)
    ticks = attr_sum.get(("scenario.run_scenario", "ticks"), 0)
    read_bytes = sum(attr_sum.get((f"formats.{n}", "bytes"), 0)
                     for n in ("read_pnm", "read_pfm", "read_pgm16"))
    return {
        "imaging.scale_region.ms": ms("imaging.scale_region"),
        "imaging.box_blur.ms": ms("imaging.box_blur"),
        "imaging.apply_attack_transform.self_ms": self_ms("imaging.apply_attack_transform"),
        "imaging.apply_attack_transform.calls": per_op("imaging.apply_attack_transform"),
        "imaging.region_masks.calls": per_op("imaging.region_masks"),
        "imaging.region_masks.ms": ms("imaging.region_masks"),
        "imaging.mpx_rendered": attr_sum.get(("imaging.apply_attack_transform", "px"), 0)
        / 1e6 / n_ops,
        "imaging.to_gray.calls": per_op("imaging.to_gray"),
        "imaging.to_gray.ms": ms("imaging.to_gray"),
        "estimation.estimate_map.calls": per_op("estimation.estimate_map"),
        "estimation.estimate_map.self_ms": self_ms("estimation.estimate_map"),
        "estimation.load_depth_map.ms": ms("estimation.load_depth_map"),
        "estimation.masked_mean.ms": ms("estimation.masked_mean"),
        "attack_opt.renders_per_level": len(renders) / len(levels) if levels else 0.0,
        "attack_opt.render_read_ratio": read / len(renders) if renders else 0.0,
        "attack_opt.loss_ms": sum(ms(n) for n in LOSS_SPANS),
        "attack_opt.optimize_level.self_ms": self_ms("attack_opt.optimize_level"),
        "attack_opt.optimize_level.calls": per_op("attack_opt.optimize_level"),
        "formats.read_pfm.ms": ms("formats.read_pfm"),
        "formats.read_pgm16.ms": ms("formats.read_pgm16"),
        "formats.read_pnm.ms": ms("formats.read_pnm"),
        "formats.write_pnm.ms": ms("formats.write_pnm"),
        "formats.mb_read": read_bytes / 1e6 / n_ops,
        "formats.mb_written": attr_sum.get(("formats.write_pnm", "bytes"), 0) / 1e6 / n_ops,
        "defense.lbp_sharpness_map.ms": ms("defense.lbp_sharpness_map"),
        "defense.varlap_verdict.ms": ms("defense.varlap_verdict"),
        "defense.segment_blur.ms": ms("defense.segment_blur"),
        "optics.combined_magnification.calls": per_op("optics.combined_magnification"),
        "scenario.run_scenario.ms": ms("scenario.run_scenario"),
        "scenario.ticks": ticks / n_ops,
        "scenario.us_per_tick": 1e6 * total.get("scenario.run_scenario", 0.0) / ticks
        if ticks else 0.0,
        "scenario.ticks_to_csv.ms": ms("scenario.ticks_to_csv"),
        "cli.self_ms": self_ms("cli.main"),
    }
