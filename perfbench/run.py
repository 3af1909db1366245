"""Benchmark of markov_fuzzy: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload bounds_mix --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
Workloads (see workloads.py and perfbench/README.md):

    bounds_mix     in-process bounds queries, belief tables, q sweeps, oracle
    dense_kernels  in-process table kernels at n = 16, 18, 20, 22
    cli_cold       fresh `python -m markov_fuzzy` processes

Each workload is one closed-loop client in this process, without threads.
A run measures a fixed number of whole rounds, set by --seconds alone
(see `rounds`), so that every commit is measured on the same operations.
Latencies are scaled to the reference machine's speed (see speed.py).
`--trace 0` prints the end-to-end metrics, measured untraced.  `--trace 1`
runs half as many rounds, each twice, untraced and then traced, and prints
the per-layer metrics; the spans go to perfbench/out/.  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import probes
import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("bounds_mix", "dense_kernels", "cli_cold")
#: Rounds a run measures at --seconds 30; other values scale in proportion.
#: Constants, never re-measured: the round count of a run depends on
#: --seconds only, not on the program.  At 30 a run takes 20-48 s on the
#: reference machine (see README.md), input generation, probes and set-up
#: included.
ROUNDS_PER_30S = {"bounds_mix": 20, "dense_kernels": 6, "cli_cold": 5}
#: Fewest rounds in a run.
MIN_ROUNDS = 2
#: A run that is still measuring after this many seconds stops after the
#: current round and says so, so that it ends within the 180 s allowed.
MAX_MEASURE_S = 140.0
#: Fresh interpreters timed for setup_s.
SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
#: The tail percentile is the highest one with at least this many samples beyond it.
TAIL_BEYOND = 10
#: Round number of the untimed warm-up, outside the measured rounds.
WARMUP_ROUND = 1 << 30
#: Most errors printed in the report.
SHOWN_ERRORS = 5


class Phase:
    """Latencies and failures of one measured loop, round by round.

    `latencies` are raw seconds; `rounds()` and `scaled()` multiply each
    by its speed scale in `scales` (see `run_round` and speed.py).
    """

    def __init__(self):
        self.latencies: list = []
        self.kinds: list = []
        self.round_ends: list = []
        self.scales: list = []
        self.failed = 0
        self.errors: list = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def rounds(self, scaled: bool = True) -> list:
        starts = [0] + self.round_ends[:-1]
        return [
            [t * (s if scaled else 1.0) for t, s in zip(self.latencies[a:b], self.scales[a:b])]
            for a, b in zip(starts, self.round_ends)
        ]

    def scaled(self) -> list:
        return [t for r in self.rounds() for t in r]

    def throughput(self, scaled: bool = True) -> float:
        """Operations of one round over the median time of a round."""
        return statistics.median(len(r) / math.fsum(r) for r in self.rounds(scaled))

    def p50(self, scaled: bool = True) -> float:
        """Median over the rounds of each round's median latency."""
        return statistics.median(statistics.median(r) for r in self.rounds(scaled))


def run_round(phase: Phase, ops, api, probe, tracer=None) -> None:
    """One operation at a time; latency is the time inside `op.run`.

    The speed probe is timed before and after the round, or between the
    operations, and each latency is scaled by the geometric mean of the
    two probes either side of it.  Probes and output checks are outside
    the timed region.

    The round starts from a collected heap, so that what the garbage
    collector still holds from earlier rounds, which depends on their
    seeded order, does not move `peak_rss_mb`.  Garbage left within the
    round (the compile_formula closure cycle, see README.md) still counts.
    """
    gc.collect()
    before = probe.scale()
    scales = []
    for op in ops:
        error = None
        t0 = perf_counter()
        try:
            if tracer is None:
                result = op.run(api)
            else:
                with tracer.operation(len(phase.latencies), op.kind):
                    result = op.run(api)
        except Exception as exc:  # a failed operation is counted, not fatal
            error = f"{op.kind} n={op.n}: {type(exc).__name__}: {exc}"
        t1 = perf_counter()
        if error is None:
            try:
                error = op.check(result)
            except Exception as exc:  # malformed output
                error = f"{op.kind} n={op.n}: unreadable output: {type(exc).__name__}: {exc}"
        phase.latencies.append(t1 - t0)
        phase.kinds.append(op.kind if op.n == 0 else f"{op.kind}/n{op.n}")
        if error is not None:
            phase.failed += 1
            phase.errors.append(error)
        result = None
        if probe.per_op:
            after = probe.scale()
            scales.append(math.sqrt(before * after))
            before = after
    if not probe.per_op:
        scales = [math.sqrt(before * probe.scale())] * len(ops)
    phase.scales += scales
    phase.round_ends.append(len(phase.latencies))


def rounds(name: str, seconds: float, trace: bool) -> int:
    """Rounds in a run, in proportion to `seconds`.

    A traced run pairs each round, so it runs half as many.
    """
    count = max(MIN_ROUNDS, round(ROUNDS_PER_30S[name] * seconds / 30))
    return math.ceil(count / 2) if trace else count


def run_rounds(workload, count: int, *runners) -> int:
    """Rounds 0 .. count-1, each given to every runner; returns the rounds run.

    A round's inputs are generated before it starts.  With two runners the
    same round runs untraced and then traced, so that both see the same
    inputs and nearly the same machine state.
    """
    start = perf_counter()
    for r in range(count):
        ops = workload.round(r)
        for runner in runners:
            runner(ops)
        if perf_counter() - start >= MAX_MEASURE_S:
            return r + 1
    return count


def tail(latencies) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): highest percentile with >= 10 beyond."""
    ordered = sorted(latencies)
    count = len(ordered)
    beyond = min(TAIL_BEYOND, count - 1)
    rank = count - beyond - 1
    return ordered[rank], 100.0 * (rank + 1) / count, beyond


def by_class(phase: Phase) -> list[str]:
    """Count and median latency of each operation kind and arity."""
    classes: dict = {}
    for latency, kind in zip(phase.latencies, phase.kinds):
        classes.setdefault(kind, []).append(latency)
    return [
        f"  {kind}: {len(values)} operations, median {statistics.median(values) * 1e3:.3f} ms"
        for kind, values in sorted(classes.items())
    ]


def peak_rss_mib(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def environment() -> list[str]:
    import numpy
    import scipy

    return [
        f"nproc {os.cpu_count()}, {platform.machine()}, python {platform.python_version()}, "
        f"numpy {numpy.__version__}, scipy {scipy.__version__}"
    ]


def import_package(trace: bool):
    """Import markov_fuzzy from the checkout, with the linprog span if tracing."""
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracing.install_linprog_span(tracer)
    sys.path.insert(0, str(SRC))
    import markov_fuzzy

    if Path(markov_fuzzy.__file__).resolve().parent != (SRC / "markov_fuzzy").resolve():
        raise RuntimeError(f"imported markov_fuzzy from {markov_fuzzy.__file__}, not {SRC}")
    return markov_fuzzy, tracer


def make_workload(name, seed, tiny, mf, workdir, env):
    if name == "bounds_mix":
        return workloads.BoundsMix(seed, tiny, mf)
    if name == "dense_kernels":
        return workloads.DenseKernels(seed, tiny)
    return workloads.CliCold(seed, tiny, workdir, env)


def end_to_end(phase: Phase, setup: list, children: bool) -> dict:
    value, _, _ = tail(phase.scaled())
    return {
        "setup_s": (statistics.median(setup), "s"),
        "throughput_ops_s": (phase.throughput(), "1/s"),
        "latency_p50_ms": (phase.p50() * 1e3, "ms"),
        "latency_tail_ms": (value * 1e3, "ms"),
        "success_rate": (1.0 - phase.failed / phase.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mib(children), "MiB"),
    }


def cli_metrics(phase: Phase | None, workload, env, workdir, checks: Phase) -> dict:
    """cli.* metrics, zero for the in-process workloads (phase None).

    The cli_timer.py calls are checked operations too: each must exit
    0 and print as many bytes as the subprocess call on the same input.
    """
    out = {"cli.output_bytes": (0.0, "bytes")}
    for sub in workloads.CLI_SUBCOMMANDS:
        for part in ("wall_ms", "import_ms", "main_ms"):
            out[f"cli.{sub}.{part}"] = (0.0, "ms")
    if phase is None:
        return out
    first = [len(workload.first_output[sub]) for sub in workloads.CLI_SUBCOMMANDS]
    out["cli.output_bytes"] = (float(sum(first)), "bytes")
    for sub, expected_bytes in zip(workloads.CLI_SUBCOMMANDS, first):
        walls = [t for t, k in zip(phase.latencies, phase.kinds) if k == sub]
        out[f"cli.{sub}.wall_ms"] = (statistics.median(walls) * 1e3, "ms")
        argv, _ = workload.cases[sub]
        split = probes.cli_split(env, workdir, argv)
        out[f"cli.{sub}.import_ms"] = (split["import_ms"], "ms")
        out[f"cli.{sub}.main_ms"] = (split["main_ms"], "ms")
        checks.latencies.append((split["import_ms"] + split["main_ms"]) / 1e3)
        checks.kinds.append(sub)
        if split["exit"] != 0 or split["stdout_bytes"] != expected_bytes:
            checks.failed += 1
            checks.errors.append(
                f"in-process {sub}: exit {split['exit']}, {split['stdout_bytes']} bytes"
            )
    return out


def write_spans(tracer, name: str, seed: int) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{name}-seed{seed}.json"
    columns = ["name", "start", "end", "parent", "op", "n", "extra"]
    path.write_text(json.dumps({"columns": columns, "spans": tracer.spans}), encoding="utf-8")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="small sizes, one round (used by selfcheck.py)"
    )
    args = parser.parse_args(argv)

    if not (SRC / "markov_fuzzy" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    env = probes.child_env(SRC)
    trace = bool(args.trace)
    count = 1 if args.tiny else rounds(args.workload, args.seconds, trace)
    in_process = args.workload != "cli_cold"
    report = environment()

    setup_repeats = 0 if trace else 1 if args.tiny else SETUP_REPEATS
    setup = probes.import_seconds(env, setup_repeats, speed.Probe("cli_cold", env))
    # Made before the linprog span is installed, so that its solves are never traced.
    probe = speed.Probe(args.workload, env)
    mf, tracer = import_package(trace) if in_process else (None, None)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload = make_workload(args.workload, args.seed, args.tiny, mf, workdir, env)
        api = tracing.build_api(mf) if in_process else None
        if in_process:
            # Untimed warm-up: first-call set-up inside numpy and scipy.
            warm = workload
            if args.workload == "dense_kernels":
                warm = workloads.DenseKernels(args.seed, tiny=True)
            for op in warm.round(WARMUP_ROUND)[:20]:
                op.run(api)
        plain = Phase()
        phases = [plain]

        def run_plain(ops):
            run_round(plain, ops, api, probe)

        if not trace:
            done = run_rounds(workload, count, run_plain)
            metrics = end_to_end(plain, setup, children=not in_process)
            value, percentile, beyond = tail(plain.scaled())
            report.append(
                f"latency_tail_ms is p{percentile:.2f} of {plain.attempted} operations "
                f"({beyond} beyond it)"
            )
            report.append(
                f"speed scale: median {statistics.median(probe.scales):.4f}, "
                f"range {min(probe.scales):.4f}-{max(probe.scales):.4f} over "
                f"{len(probe.scales)} probes"
            )
            report.append(
                f"unscaled: throughput {plain.throughput(False):.6g} 1/s, "
                f"p50 {plain.p50(False) * 1e3:.6g} ms, tail {tail(plain.latencies)[0] * 1e3:.6g} ms"
            )
            report += by_class(plain)
        else:
            traced = Phase()
            if in_process:
                traced_api = tracing.build_api(mf, tracer)

                def run_traced(ops):
                    tracer.active = True
                    with tracing.boundary_spans(tracer, mf):
                        run_round(traced, ops, traced_api, probe, tracer)
                    tracer.active = False

            else:
                tracer = tracing.Tracer()

                def run_traced(ops):
                    run_round(traced, ops, None, probe, tracer)

            done = run_rounds(workload, count, run_plain, run_traced)
            checks = Phase()
            phases += [traced, checks]
            metrics = tracing.span_metrics(tracer.spans)
            metrics.update(
                cli_metrics(None if in_process else plain, workload, env, workdir, checks)
            )
            metrics.update(
                {k: (v, "ms") for k, v in probes.import_breakdown(env, IMPORTTIME_REPEATS).items()}
            )
            overhead = (plain.throughput() / traced.throughput() - 1.0) * 100.0
            metrics["trace.overhead_pct"] = (overhead, "%")
            spans = write_spans(tracer, args.workload, args.seed)
            report.append(f"spans written to {spans.relative_to(ROOT)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report.append(f"{done} of {count} rounds measured")
    if done < count:
        report.append(f"warning: stopped after {MAX_MEASURE_S:.0f} s; figures are not comparable")

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    errors = [e for p in phases for e in p.errors]
    report += [f"error: {e}" for e in errors[:SHOWN_ERRORS]]
    report += [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    for line in report:
        print(line)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
