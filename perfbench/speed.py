"""Speed probes: the time metrics of a run on the reference machine's scale.

The reference machine (see README.md) shares its cores with other
guests.  Its speed moves by 20-30% for tens of seconds to minutes at a
time, for every kind of work at once, and CPU time moves with wall time.
Raw times of ten runs of the same code then spread by 13-33%
(IQR / median), more than the change a later commit must be told from.

Before and after each round of `bounds_mix`, and between the operations
of the other two workloads, the benchmark times a probe: one or two
fixed tasks that do the same kind of work as the operations but run none
of markov_fuzzy's code.  A probe's

    scale = geometric mean over the tasks of (reference seconds / seconds),

each task's time on the reference machine over its time now, and each
latency is multiplied by the geometric mean of the scales either side.
A change to markov_fuzzy moves the latencies and not the probe, so it
moves a scaled figure by the same share as the raw one.  A change that
slows the machine between operations (a thread left running, say) would
slow the probe too, and be partly hidden.
"""

from __future__ import annotations

import math
import subprocess
import sys
from time import perf_counter

import numpy as np

#: A fresh interpreter that takes longer is killed and the run fails.
TIMEOUT_S = 60

_LP_SIZE = 16
_TABLE = 1 << 21
_LOOP = 30_000


def _best(task, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = perf_counter()
        task()
        times.append(perf_counter() - start)
    return min(times)


def _linprog_task():
    """Three HiGHS solves of a fixed 16-variable LP, as exact_bounds runs them.

    Binds the linprog that scipy has when it is called.
    """
    from scipy.optimize import linprog

    cost = np.arange(float(_LP_SIZE))
    ones = np.ones((1, _LP_SIZE))

    def task():
        for _ in range(3):
            linprog(cost, A_eq=ones, b_eq=[1.0], bounds=(0, 1), method="highs")

    return task


def _table_task():
    """Two multiply-add and sum passes over a fixed 16 MiB float64 table.

    The table and its buffer stay allocated, 32 MiB of peak_rss_mb.
    """
    table = np.random.default_rng(0).random(_TABLE)
    buffer = np.empty_like(table)

    def task():
        for _ in range(2):
            np.multiply(table, 1.0001, out=buffer)
            np.add(buffer, table, out=buffer)
            buffer.sum()

    return task


def _loop_task():
    """A fixed pure-Python integer loop."""

    def task():
        total = 0
        for i in range(_LOOP):
            total += i * i % 7
        return total

    return task


def _interpreter_task(env: dict, imports: str):
    """A fresh interpreter importing `imports`."""
    argv = [sys.executable, "-c", f"import {imports}"]

    def task():
        subprocess.run(argv, env=env, capture_output=True, timeout=TIMEOUT_S, check=True)

    return task


class Probe:
    """Times the workload's probe; `scale()` times it once and returns its scale.

    `tasks` holds (task, best of, seconds on the reference machine), the
    last the task's median there: a constant that fixes the unit, not the
    result.  `per_op` says whether the probe is timed between operations
    or only before and after each round.
    """

    def __init__(self, workload: str, env: dict):
        if workload == "bounds_mix":
            self.tasks = [(_linprog_task(), 3, 0.0066)]
            self.per_op = False
        elif workload == "dense_kernels":
            # Python-level parsing and compiling, and passes over large tables.
            self.tasks = [(_loop_task(), 3, 0.0025), (_table_task(), 3, 0.0075)]
            self.per_op = True
        else:
            # Interpreter start-up, pure-Python modules and C extensions.
            self.tasks = [
                (_interpreter_task(env, "json, decimal, email.message, argparse"), 1, 0.103),
                (_interpreter_task(env, "numpy"), 1, 0.239),
            ]
            self.per_op = True
        self.scales: list = []

    def scale(self) -> float:
        logs = [math.log(ref / _best(task, repeats)) for task, repeats, ref in self.tasks]
        scale = math.exp(math.fsum(logs) / len(logs))
        self.scales.append(scale)
        return scale
