"""A/B runs of the benchmark: a parent revision against this checkout.

    python3 tools/ab.py --parent HEAD~1 --pr 13 --title "..." \\
        --claim bounds_mix:throughput_ops_s --trace-seeds 7

Run it from anywhere inside the repository.  The parent revision's
committed files are exported (`git archive`) into a temporary directory;
the change is this checkout's working tree.  For each workload that
`BENCHMARK.json` declares (or those of them that `--workloads` names)
and each pair k = 1 … `--pairs` (seed k) this script runs

    python3 perfbench/run.py --workload W --seed k --seconds S --trace 0

once in each tree, S being `BENCHMARK.json`'s `run_seconds`, one run at
a time, the side that runs first alternating from pair to pair.  Each
tree runs its own `perfbench/` and imports its own `src/`.  It then
writes `BENCH_<pr>.json` at the root of the checkout: for every
end-to-end metric of `BENCHMARK.json`, the parent's median and quartiles
(inclusive method), the change's median, the number of pairs the change
won (ties count for neither side, the direction taken from
`BENCHMARK.json`), every run, and whether the change's median is within
the metric's bound.  With `--claim W:metric` the record says whether
that gain is shown: the change wins at least nine tenths of the pairs
and the medians differ by more than the parent's interquartile range.
`--trace-seeds` adds, per workload, one `--trace 1` pair per seed and
the medians of every per-layer metric the workload enters.  Each seed
gives one traced run per side, so a per-layer figure from one seed is a
single run: its `pairs` is 1 and its quartiles are equal, which shows no
spread.  A per-layer comparison needs several seeds (`--trace-seeds
7,8,9,10,11`).

A run that exits nonzero or prints no result line stops the driver with
its output.  The parent's temporary tree is removed at the end.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

#: A run at --seconds 30 takes 20-48 s on a 2-core Xeon; this is well past
#: it.
RUN_TIMEOUT_S = 600


def _git(root: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(root), *args], capture_output=True, text=True, check=True
    ).stdout.strip()


def export(root: Path, revision: str, into: Path) -> str:
    """Write the committed files of `revision` under `into`; its full hash."""
    commit = _git(root, "rev-parse", "--verify", f"{revision}^{{commit}}")
    into.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "-C", str(root), "archive", "--format=tar", commit],
        capture_output=True,
        check=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return commit


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The metrics of one benchmark run in `tree`: {name: value}."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    argv = [
        sys.executable,
        "perfbench/run.py",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(trace),
    ]
    proc = subprocess.run(
        argv, cwd=tree, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        raise SystemExit(
            f"run failed in {tree}: {' '.join(argv[1:])} exited {proc.returncode}\n"
            f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}"
        )
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    metrics["_correct"] = bool(result.get("correct"))
    metrics["_failed"] = result.get("failed")
    return metrics


def summary(parent: list, change: list, better: str) -> dict:
    """Medians, the parent's quartiles and the pairs the change won."""
    if better == "higher":
        won = sum(c > p for p, c in zip(parent, change))
    else:
        won = sum(c < p for p, c in zip(parent, change))
    if len(parent) > 1:
        q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    else:
        q1 = q3 = parent[0]
    return {
        "parent_median": statistics.median(parent),
        "change_median": statistics.median(change),
        "parent_q1": q1,
        "parent_q3": q3,
        "change_better_pairs": won,
        "pairs": len(parent),
        "parent_runs": parent,
        "change_runs": change,
    }


def within_bound(stats: dict, better: str, bound: float) -> bool:
    """The change's median is no worse than the parent's by more than
    `bound`, a fraction of the parent's median."""
    parent, change = stats["parent_median"], stats["change_median"]
    if better == "higher":
        return change >= parent * (1.0 - bound)
    return change <= parent * (1.0 + bound)


def claim_shown(stats: dict) -> bool:
    """At least nine tenths of the pairs won, and the medians apart by more
    than the parent's interquartile range."""
    spread = stats["parent_q3"] - stats["parent_q1"]
    gap = abs(stats["change_median"] - stats["parent_median"])
    return 10 * stats["change_better_pairs"] >= 9 * stats["pairs"] and gap > spread


def machine() -> str:
    """Cores, processor model and the versions the runs used."""
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            names = [line.split(":", 1)[1] for line in fh if line.startswith("model name")]
        model = names[0].strip() if names else model
    except OSError:
        pass
    versions = []
    for package in ("numpy", "scipy"):
        try:
            versions.append(f"{package} {importlib.metadata.version(package)}")
        except importlib.metadata.PackageNotFoundError:
            pass
    cores = f"{os.cpu_count()}-core {platform.machine()} machine ({model})"
    return ", ".join([cores, f"Python {platform.python_version()}", *versions])


def main(argv=None) -> int:
    root = Path(_git(Path(__file__).resolve().parent, "rev-parse", "--show-toplevel"))
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent revision")
    parser.add_argument("--pr", type=int, required=True, help="number in BENCH_<pr>.json")
    parser.add_argument("--title", default="", help="the change's title")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--claim", help="W:metric, the gain the change claims")
    parser.add_argument(
        "--trace-seeds",
        default="",
        help="comma-separated seeds, one --trace 1 pair each; one seed is one "
        "run per side, so compare layers over several",
    )
    args = parser.parse_args(argv)

    seconds = declared["run_seconds"]
    end_to_end = {m["name"]: m for m in declared["end_to_end"]}
    per_layer = {m["name"]: m for m in declared["per_layer"]}
    workloads = [w for w in args.workloads.split(",") if w]
    unknown = set(workloads) - set(names)
    if unknown or args.pairs < 1:
        parser.error(f"unknown workloads {sorted(unknown)}" if unknown else "--pairs < 1")
    claim = None
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        if workload not in workloads or metric not in end_to_end:
            parser.error(f"--claim {args.claim}: not a measured workload:metric")
        claim = (workload, metric)
    trace_seeds = [int(s) for s in args.trace_seeds.split(",") if s]
    out = root / f"BENCH_{args.pr}.json"

    scratch = Path(tempfile.mkdtemp(prefix="ab-"))
    try:
        parent_commit = export(root, args.parent, scratch / "parent")
        trees = {"parent": scratch / "parent", "change": root}

        record = {
            "pr": args.pr,
            "title": args.title,
            "machine": machine(),
            "command": f"python3 perfbench/run.py --workload <w> --seed <s> "
            f"--seconds {seconds:g} --trace 0",
            "protocol": (
                f"tools/ab.py: {args.pairs} alternating parent/change pairs per "
                f"workload, the side that runs first alternating, one seed per pair "
                f"(seeds 1-{args.pairs}); "
                f"parent {parent_commit[:7]}, change the working tree of "
                f"{_git(root, 'rev-parse', '--short', 'HEAD')}"
            ),
            "claim": None,
            "workloads": {},
        }
        for workload in workloads:
            runs = {"parent": [], "change": []}
            for seed in range(1, args.pairs + 1):
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                for side in order:
                    runs[side].append(run_once(trees[side], workload, seed, seconds, 0))
                    print(f"{workload} seed {seed} {side}: done", file=sys.stderr)
            block = {}
            for name, spec in end_to_end.items():
                if all(name in r for r in runs["parent"] + runs["change"]):
                    stats = summary(
                        [r[name] for r in runs["parent"]],
                        [r[name] for r in runs["change"]],
                        spec["better"],
                    )
                    stats["within_bound"] = within_bound(stats, spec["better"], spec["bound"])
                    block[name] = stats
            block["all_runs_correct"] = all(
                r["_correct"] and not r["_failed"] for r in runs["parent"] + runs["change"]
            )
            record["workloads"][workload] = block
            if trace_seeds:
                traced = {"parent": [], "change": []}
                for k, seed in enumerate(trace_seeds):
                    order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                    for side in order:
                        traced[side].append(
                            run_once(trees[side], workload, seed, seconds, 1)
                        )
                metrics = {}
                for name, spec in per_layer.items():
                    values = [r.get(name) for r in traced["parent"] + traced["change"]]
                    # A layer the workload never enters reads 0 in every run.
                    if None not in values and any(values):
                        metrics[name] = summary(
                            [r[name] for r in traced["parent"]],
                            [r[name] for r in traced["change"]],
                            spec["better"],
                        )
                record[f"{workload}_trace"] = {
                    "command": f"python3 perfbench/run.py --workload {workload} "
                    f"--seed <s> --seconds {seconds:g} --trace 1",
                    "seeds": trace_seeds,
                    "metrics": metrics,
                }
        if claim:
            stats = record["workloads"][claim[0]][claim[1]]
            record["claim"] = {
                "workload": claim[0],
                "metric": claim[1],
                "rule": "change better in >= 9/10 of the pairs and |median change - "
                "median parent| > parent Q3 - Q1",
                "shown": claim_shown(stats),
            }
        out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {out}", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
