"""Quick self-check of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selfcheck.py

For every workload, in both modes, runs one tiny round and asserts that
the result line names exactly the metrics of BENCHMARK.json, each with
its unit, and that no operation failed.  Then asserts that the benchmark
exits nonzero, without a result line, where the package source is absent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def result(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            done = result(ROOT, workload, trace)
            assert done.returncode == 0, done.stderr[-2000:]
            line = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(line) == {"correct", "attempted", "failed", "metrics"}, line.keys()
            units = {name: m["unit"] for name, m in line["metrics"].items()}
            assert units == expected[trace], set(units) ^ set(expected[trace])
            assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1, done.stdout[-2000:]
            if trace == 0:
                assert line["metrics"]["success_rate"]["value"] == 1.0
            print(f"ok {workload} trace={trace}: {len(units)} metrics, {line['attempted']} operations")

    (HERE / "out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=HERE / "out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = result(bare, "bounds_mix", 0)
        assert done.returncode != 0 and not done.stdout.strip(), done.stdout[-2000:]
        print(f"ok without src/: exit {done.returncode}")
    finally:
        shutil.rmtree(bare)
    return 0


if __name__ == "__main__":
    sys.exit(main())
