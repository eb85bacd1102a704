"""Tests of the benchmark itself (not collected by the package's test suite).

    python3 -m pytest -q perfbench/bench_selftest.py
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from depthlens import attack_opt, cli, estimation, imaging, metrics  # noqa: E402


def tree_digest(root: Path) -> dict:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_byte_deterministic_per_seed(tmp_path, workload):
    gen.generate(workload, 3, str(tmp_path / "a"))
    gen.generate(workload, 3, str(tmp_path / "b"))
    gen.generate(workload, 4, str(tmp_path / "c"))
    a, b, c = (tree_digest(tmp_path / n) for n in "abc")
    assert a == b
    assert a != c


class FlipByte:
    """Stands in for ``depthlens.cli``: runs the real command, then flips one
    byte of the file it wrote."""

    def __init__(self, path: str):
        self.path = path

    def main(self, argv):
        code = cli.main(argv)
        with open(self.path, "r+b") as fh:
            fh.seek(100)
            byte = fh.read(1)
            fh.seek(100)
            fh.write(bytes([byte[0] ^ 1]))
        return code


def test_flipped_output_byte_fails_the_digest_gate(tmp_path, monkeypatch):
    manifest = gen.generate("braking_sweep", run.DEFAULT_SEED, str(tmp_path))
    golden = run.load_golden("braking_sweep", run.DEFAULT_SEED)
    assert golden is not None, "golden.json lacks braking_sweep"
    monkeypatch.chdir(tmp_path)
    good = run.Runner(cli, manifest, golden).run_op(0)
    assert good.error is None
    bad = run.Runner(FlipByte("out/ticks.csv"), manifest, golden).run_op(0)
    assert bad.error == "digest differs from golden: out/ticks.csv"


class Broken:
    def __init__(self, outcome):
        self.outcome = outcome

    def main(self, argv):
        if isinstance(self.outcome, Exception):
            raise self.outcome
        return self.outcome


@pytest.mark.parametrize("outcome, expected", [
    (2, "exit 2"), (RuntimeError("boom"), "RuntimeError: boom")])
def test_nonzero_exit_or_exception_fails_the_op(tmp_path, monkeypatch, outcome, expected):
    manifest = gen.generate("braking_sweep", 1, str(tmp_path))
    monkeypatch.chdir(tmp_path)
    result = run.Runner(Broken(outcome), manifest, None).run_op(0)
    assert expected in result.error


def test_failed_sweep_row_fails_the_op(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("sweep.csv").write_text(run.SWEEP_HEADER + "\n"
                                 + "0.1,targeted,3,1.0,AER,0.5\n" * 3
                                 + "0.4,targeted,,,failed,nan\n")
    argv = ["optimize", "--mode", "targeted", "--output", "sweep.csv"]
    with pytest.raises(run.OpFailed, match="failed"):
        run.check_call(argv, "wrote sweep.csv\n", None)


def test_self_time_subtracts_the_union_of_children():
    S = tracing.Span
    spans = [
        S("root", 0.0, None, 0, end=10.0),
        S("a", 1.0, 0, 0, end=4.0),
        S("a.child", 2.0, 1, 0, end=3.0),
        S("b", 3.5, 0, 0, end=6.0),   # overlaps a: union of a and b is 1..6
        S("c", 9.0, 0, 0, end=12.0),  # runs past its parent: only 9..10 counts
    ]
    assert tracing.self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 1.0, 2.5, 3.0])


def test_tracer_wraps_every_binding_site_and_restores_them():
    sites = {
        (attack_opt, "apply_attack_transform"), (attack_opt, "region_masks"),
        (attack_opt, "level_to_profile"), (cli, "apply_attack_transform"),
        (cli, "region_masks"), (cli, "level_to_profile"),
        (attack_opt, "masked_mean"), (attack_opt, "adr"), (attack_opt, "aer"),
        (imaging, "apply_attack_transform"), (estimation, "masked_mean"),
        (metrics, "adr"), (imaging.RasterImage, "to_gray"),
        (estimation.ProxyDepthMapper, "estimate_map"),
        (estimation.DirectoryMapEstimator, "estimate_map"),
    }
    modules = [m for n, m in sys.modules.items() if n.startswith("depthlens")]
    before = {(m, k): v for m in modules for k, v in vars(m).items()}
    methods = {(o, k): o.__dict__[k] for o, k in sites if isinstance(o, type)}
    t = tracing.Tracer()
    t.install()
    try:
        for owner, key in sites:
            assert getattr(owner.__dict__[key], "__wrapped_by_tracer__", False), (owner, key)
    finally:
        t.remove()
    after = {(m, k): v for m in modules for k, v in vars(m).items()}
    assert all(after[key] is value for key, value in before.items())
    assert all(o.__dict__[k] is v for (o, k), v in methods.items())


def traced_summary(argvs) -> dict:
    t = tracing.Tracer()
    t.install()
    try:
        for op, argv in enumerate(argvs):
            t.op = op
            span = t.open("cli.main")
            try:
                assert cli.main(argv) == 0
            finally:
                t.close(span)
    finally:
        t.remove()
    return tracing.summarize(t.spans, len(argvs))


@pytest.fixture
def small_scene(tmp_path, monkeypatch):
    """A 320x180 attack scene, its boxes file and a PFM map set."""
    monkeypatch.chdir(tmp_path)
    rng = gen.rng_for("selftest", 0)
    frame, (cx, cy), box, _ = gen.attack_scene(rng, 50.0, width=320, height=180)
    gen.write_pgm("frame.pgm", frame)
    Path("boxes.txt").write_text("%d %d %d %d\n" % box)
    os.mkdir("maps")
    for tag, values in gen.disparity_maps(rng, holes=False, width=320, height=180).items():
        gen.write_pfm(f"maps/{tag}.pfm", values)
    return ["optimize", "--input", "frame.pgm", "--mode", "untargeted",
            "--lens-kind", "convex", "--boxes", "boxes.txt", "--region", "circle",
            "--cx", str(cx), "--cy", str(cy), "--radius", "50", "--output", "sweep.csv"]


def test_exact_waste_counts_of_a_four_alpha_search(small_scene):
    """Pinned counts of today's per-alpha optimizer: 4 alphas x 9 levels."""
    proxy = traced_summary([small_scene + ["--estimator", "proxy", "--fiducial-height",
                                           "1.5", "--focal-px", "1400"]])
    maps = traced_summary([small_scene + ["--estimator", "external", "--maps", "maps"]])
    for counts in (proxy, maps):
        assert counts["imaging.apply_attack_transform.calls"] == 36
        assert counts["estimation.estimate_map.calls"] == 40
        assert counts["attack_opt.renders_per_level"] == 4.0
    assert proxy["attack_opt.render_read_ratio"] == 1.0
    assert maps["attack_opt.render_read_ratio"] == 0.0


def test_braking_op_touches_no_imaging(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    counts = traced_summary([["scenario", "--ratio-from-optics", "--lens", "concave",
                              "--f", "0.2", "--db", "0.04", "--do1", "6", "--fc", "0.026",
                              "--log", "ticks.csv"]])
    imaging_metrics = {k: v for k, v in counts.items() if k.startswith("imaging.")}
    assert set(imaging_metrics.values()) == {0.0}
    assert counts["optics.combined_magnification.calls"] == 1
    assert counts["scenario.ticks"] == len(Path("ticks.csv").read_text().splitlines()) - 1
