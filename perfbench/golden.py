"""Record the golden output digests the benchmark checks on the default seed.

    python3 perfbench/golden.py [WORKLOAD ...]

Runs every op of each workload's cycle once on the default seed, untimed,
and stores the SHA-256 of each output (stdout of every call, sweep CSV,
attacked raster, blur mask, tick CSV) in ``perfbench/golden.json``. Any
failed op aborts the recording. Re-record only when a change is meant to
alter output bytes, and say so: a speed-up that changes a digest is a
regression.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys

from run import DEFAULT_SEED, HERE, ROOT, Runner, generate, import_cli
from gen import WORKLOADS


def record(workload: str, cli) -> list[dict]:
    work = ROOT / ".perfbench_work" / f"golden-{workload}-{os.getpid()}"
    work.mkdir(parents=True)
    cwd = os.getcwd()
    try:
        manifest = generate(workload, DEFAULT_SEED, work)
        os.chdir(work)
        runner = Runner(cli, manifest, golden=None)
        results = [runner.run_op(index) for index in range(len(manifest["ops"]))]
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    failed = [r for r in results if r.error]
    if failed:
        raise SystemExit(f"{workload}: op {failed[0].index} failed: {failed[0].error}")
    print(f"{workload}: {len(results)} ops recorded")
    return [r.digests for r in results]


def main(argv: list[str]) -> int:
    path = HERE / "golden.json"
    golden = json.loads(path.read_text()) if path.exists() else {"workloads": {}}
    golden["seed"] = DEFAULT_SEED
    cli = import_cli()
    for workload in argv or WORKLOADS:
        golden["workloads"][workload] = record(workload, cli)
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
