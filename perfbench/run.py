"""depthlens benchmark: seeded 1080p CLI workloads, checked and timed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The program under test is ``src/depthlens``
of the same checkout; nothing needs building.

Each op is a fixed chain of ``depthlens.cli.main(argv)`` calls run in this
process with stdout captured. Load is a closed loop: one client, one thread;
the next op starts when the previous one ends. A separate process first
writes every input from the seed (``gen.py``), so input generation never
shows in this process's peak RSS. Ops run in whole rounds (see the
manifest's ``round``) until ``--seconds`` have passed.

Every op is checked. It fails on a nonzero exit, an exception, a sweep CSV
with a ``failed`` row, a broken output schema or invariant, and, on the
default seed, any output whose SHA-256 differs from ``golden.json``.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the same ops
twice, untraced then traced, checks that both give identical bytes, and
prints the per-layer metrics; spans go to ``.perfbench_out/``. The last
stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from gen import WORKLOADS  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402

DEFAULT_SEED = 0
SETUP_REPEATS = 7
SETUP_CODE = "import depthlens.cli as cli; cli.build_parser()"
SWEEP_HEADER = "alpha,mode,best_level,best_loss,metric_name,metric_value"
TICK_HEADER = "t,true_gap,perceived_gap,speed,accel,braking"
NUM = r"[-+0-9.eE]+|nan|inf"
OUTCOME_RE = re.compile(rf"^(STOPPED gap=({NUM})|COLLISION speed=({NUM})|TIMEOUT)$")
VERDICT_RE = re.compile(rf"^verdict=(blurred|clean) score=({NUM}) threshold=({NUM})$")
SIMULATE_RE = re.compile(rf"^wrote \S+ scale=({NUM}) blur=\d+ placement=(in_lens|out_of_lens)$")


class OpFailed(Exception):
    """An op's outputs failed a check."""


@dataclass
class OpResult:
    index: int
    spec: int
    seconds: float
    digests: dict
    error: str | None = None


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def digest_of(digests: dict) -> str:
    text = "".join(f"{k} {v}\n" for k, v in sorted(digests.items()))
    return hashlib.sha256(text.encode()).hexdigest()


# ------------------------------------------------------------ invariants ----

def _pnm_header(path: str) -> tuple[bytes, int, int]:
    with open(path, "rb") as fh:
        magic, w, h, maxval = fh.read(64).split(maxsplit=4)[:4]
    if maxval != b"255":
        raise OpFailed(f"{path}: maxval {maxval!r}")
    return magic, int(w), int(h)


def check_call(argv: list[str], stdout: str, input_shape: tuple[int, int] | None) -> None:
    """Schema and invariant checks that hold on every seed."""
    lines = stdout.splitlines()
    command = argv[0]
    if command == "optimize":
        out = argv[argv.index("--output") + 1]
        with open(out, encoding="ascii") as fh:
            rows = fh.read().splitlines()
        if rows[:1] != [SWEEP_HEADER] or len(rows) != 5:
            raise OpFailed(f"sweep CSV schema: {rows[:1]} with {len(rows) - 1} rows")
        mode = argv[argv.index("--mode") + 1]
        for row in rows[1:]:
            alpha, row_mode, level, loss, name, value = row.split(",")
            if name == "failed":
                raise OpFailed(f"sweep row failed: {row}")
            if row_mode != mode or not 1 <= int(level) <= 9 or name not in ("AER", "ADR"):
                raise OpFailed(f"sweep row invariant: {row}")
            if not (math.isfinite(float(loss)) and math.isfinite(float(value))):
                raise OpFailed(f"sweep row not finite: {row}")
        if lines != [f"wrote {out}"]:
            raise OpFailed(f"optimize stdout {lines!r}")
    elif command == "simulate":
        if len(lines) != 1 or not SIMULATE_RE.match(lines[0]):
            raise OpFailed(f"simulate stdout {lines!r}")
        out = argv[argv.index("--output") + 1]
        if _pnm_header(out) != (b"P6", *input_shape):
            raise OpFailed(f"{out}: header {_pnm_header(out)}")
    elif command == "defend":
        if not lines or not VERDICT_RE.match(lines[0]):
            raise OpFailed(f"defend stdout {lines!r}")
        if "--mask-out" in argv:
            out = argv[argv.index("--mask-out") + 1]
            if lines[1:] != [f"wrote {out}"] or _pnm_header(out) != (b"P5", *input_shape):
                raise OpFailed(f"mask {out}: {lines[1:]!r}")
    elif command == "scenario":
        out = argv[argv.index("--log") + 1]
        if (len(lines) != 3 or not lines[0].startswith("ratio=")
                or not OUTCOME_RE.match(lines[1]) or lines[2] != f"wrote {out}"):
            raise OpFailed(f"scenario stdout {lines!r}")
        with open(out, encoding="ascii") as fh:
            head = [fh.readline().rstrip("\n") for _ in range(3)]
        if head[0].startswith("# seed="):
            head = head[1:]
        if head[0] != TICK_HEADER or not head[1]:
            raise OpFailed(f"tick CSV schema: {head!r}")


# ------------------------------------------------------------------- ops ----

class Runner:
    """Executes manifest ops in-process and checks their outputs."""

    def __init__(self, cli, manifest: dict, golden: list | None):
        self.cli = cli
        self.ops = manifest["ops"]
        self.round = manifest["round"]
        self.golden = golden

    def _call(self, argv: list[str], tracer: Tracer | None) -> str:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    code = self.cli.main(argv)
                else:
                    span = tracer.open("cli.main")
                    try:
                        code = self.cli.main(argv)
                    finally:
                        tracer.close(span)
        except SystemExit as exc:
            code = exc.code
        if code != 0:
            raise OpFailed(f"exit {code}: {err.getvalue().strip()}")
        return out.getvalue()

    def run_op(self, index: int, tracer: Tracer | None = None) -> OpResult:
        spec = index % len(self.ops)
        calls = self.ops[spec]["calls"]
        for call in calls:
            for path in call["outputs"]:
                if os.path.exists(path):
                    os.remove(path)
        if tracer is not None:
            tracer.op = index
        gc.collect()
        stdouts, error = [], None
        start = time.perf_counter()
        try:
            for call in calls:
                stdouts.append(self._call(call["argv"], tracer))
        except OpFailed as exc:
            error = str(exc)
        except Exception as exc:  # any crash of the program is a failed op
            error = "".join(traceback.format_exception(exc, limit=-3)).strip()
        elapsed = time.perf_counter() - start
        digests = {}
        if error is None:
            try:
                digests = self.verify(calls, stdouts)
            except (OpFailed, OSError, ValueError, IndexError) as exc:
                error = f"check: {exc}"
        if error is None and self.golden is not None:
            expected = self.golden[spec]
            bad = sorted(k for k in expected.keys() | digests.keys()
                         if digests.get(k) != expected.get(k))
            if bad:
                error = f"digest differs from golden: {', '.join(bad)}"
        return OpResult(index, spec, elapsed, digests, error)

    def verify(self, calls: list[dict], stdouts: list[str]) -> dict:
        digests = {}
        shape = None
        for n, (call, stdout) in enumerate(zip(calls, stdouts)):
            argv = call["argv"]
            if argv[0] == "simulate":
                shape = _pnm_header(argv[argv.index("--input") + 1])[1:]
            check_call(argv, stdout, shape)
            digests[f"call{n}.stdout"] = hashlib.sha256(stdout.encode()).hexdigest()
            for path in call["outputs"]:
                digests[path] = sha256_file(path)
        return digests

    def indices(self, seconds: float):
        """Op indices 0, 1, 2, ... in whole rounds until ``seconds`` pass."""
        start = time.perf_counter()
        index = 0
        while not (index and index % self.round == 0
                   and time.perf_counter() - start >= seconds):
            yield index
            index += 1


# ------------------------------------------------------------------ main ----

def import_cli():
    sys.path.insert(0, str(SRC))
    import depthlens.cli as cli
    if Path(cli.__file__).resolve().parent != (SRC / "depthlens").resolve():
        raise SystemExit(f"error: imported depthlens from {cli.__file__}, not {SRC}")
    return cli


def load_golden(workload: str, seed: int) -> list | None:
    path = HERE / "golden.json"
    if seed != DEFAULT_SEED or not path.exists():
        return None
    return json.loads(path.read_text()).get("workloads", {}).get(workload)


def generate(workload: str, seed: int, out: Path) -> dict:
    subprocess.run([sys.executable, str(HERE / "gen.py"), "--workload", workload,
                    "--seed", str(seed), "--out", str(out)], check=True, timeout=170)
    return json.loads((out / "manifest.json").read_text())


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing the CLI and building
    its parser, as every CLI invocation does (one unmeasured warm-up)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                       check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times[1:])


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def combined_digest(results: list[OpResult], n_specs: int) -> tuple[int, str]:
    """One digest over the first pass through the op cycle, so two commits
    can be compared byte for byte on any seed."""
    first = results[:n_specs]
    text = "".join(f"{r.spec} {digest_of(r.digests)}\n" for r in first)
    return len(first), hashlib.sha256(text.encode()).hexdigest()


def report_ops(label: str, results: list[OpResult], n_specs: int) -> None:
    failed = [r for r in results if r.error]
    for r in failed[:10]:
        print(f"FAILED {label} op {r.index} (spec {r.spec}): {r.error}")
    specs, digest = combined_digest(results, n_specs)
    print(f"{label}: {len(results)} ops, {len(failed)} failed; combined sha256 "
          f"over specs 0..{specs - 1}: {digest}")


def end_to_end(ns, cli, manifest, golden) -> tuple[list[OpResult], dict]:
    setup_s = measure_setup()
    runner = Runner(cli, manifest, golden)
    results = [runner.run_op(index) for index in runner.indices(ns.seconds)]
    busy = sum(r.seconds for r in results)
    done = sum(1 for r in results if r.error is None)
    metrics = {
        "ops_per_s": (done / busy, "ops/s"),
        "op_s_p50": (statistics.median(r.seconds for r in results), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    report_ops(ns.workload, results, len(manifest["ops"]))
    print(f"op_s_p50 is the median of {len(results)} samples")
    return results, metrics


def per_layer(ns, cli, manifest, golden) -> tuple[list[OpResult], dict]:
    """Each op runs twice, untraced and traced, in alternating order so that
    neither side always gets the warmer caches; together the pairs take about
    ``--seconds``."""
    runner = Runner(cli, manifest, golden)
    tracer = Tracer()
    plain, traced, cpu = [], [], 0.0
    for index in runner.indices(ns.seconds / 2):
        for use_tracer in ((False, True) if index % 2 == 0 else (True, False)):
            if use_tracer:
                tracer.install()
                try:
                    traced.append(runner.run_op(index, tracer))
                finally:
                    tracer.remove()
            else:
                cpu0 = cpu_seconds()
                plain.append(runner.run_op(index))
                cpu += cpu_seconds() - cpu0
    for p, t in zip(plain, traced):
        if t.error is None and t.digests != p.digests:
            t.error = "traced outputs differ from the untraced run"
    layers = summarize(tracer.spans, len(traced))
    layers["process.cpu_s_per_op"] = cpu / len(plain)
    layers["tracing.overhead_ratio"] = (sum(p.seconds for p in plain)
                                        / sum(t.seconds for t in traced))
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    spans_path = out / f"spans-{ns.workload}-s{ns.seed}.jsonl"
    with open(spans_path, "w", encoding="ascii") as fh:
        for i, span in enumerate(tracer.spans):
            fh.write(json.dumps(span.to_json(i)) + "\n")
    report_ops(f"{ns.workload} untraced", plain, len(manifest["ops"]))
    report_ops(f"{ns.workload} traced", traced, len(manifest["ops"]))
    print(f"wrote {len(tracer.spans)} spans to {spans_path.relative_to(ROOT)}")
    units = {m["name"]: m["unit"]
             for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    return plain + traced, {name: (value, units[name]) for name, value in layers.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0,
                    help="timed length; ops run in whole rounds until it passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    if not (SRC / "depthlens" / "cli.py").is_file():
        print(f"error: no depthlens sources under {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{ns.workload}-s{ns.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    cwd = os.getcwd()
    try:
        manifest = generate(ns.workload, ns.seed, work)
        cli = import_cli()
        golden = load_golden(ns.workload, ns.seed)
        print(f"{ns.workload} seed={ns.seed}: {len(manifest['ops'])} op specs, "
              + ("golden digests checked" if golden else "schema and invariant checks"))
        os.chdir(work)
        measure = per_layer if ns.trace else end_to_end
        results, metrics = measure(ns, cli, manifest, golden)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    failed = sum(1 for r in results if r.error)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
