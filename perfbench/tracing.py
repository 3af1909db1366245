"""Spans recorded from outside the package, and the per-layer metrics they give.

A span is one call from the benchmark into a public function of a
markov_fuzzy module, or one call across a module boundary that the
benchmark patches (dsl -> bounds.PartialJointSpec, dsl ->
quantifiers.BeliefTable, bounds -> scipy.optimize.linprog).  Spans are
kept in memory as lists

    [name, start, end, parent, op, n, extra]

where `parent` is the index of the enclosing span (-1 for none), `op` the
operation id, `n` the arity the call worked at (0 if none) and `extra`
the LP iteration count (linprog) or the computed bytes moved (joints
kernels).  Self time is a span's duration minus that of its children.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from time import perf_counter
from types import SimpleNamespace


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = -1
        self.active = False
        self._stack: list = []

    def call(self, name, fn, args, kwargs, tag=None, extra=None):
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent, self.op, 0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            record[1], record[2] = start, end
        if tag is not None:
            record[5] = tag(args, result)
        if extra is not None:
            record[6] = extra(args, result)
        return result

    def wrap(self, name, fn, tag=None, extra=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, tag, extra)

        return traced

    @contextmanager
    def operation(self, op_id: int, kind: str):
        """Root span of one benchmark operation."""
        self.op = op_id
        parent = len(self.spans)
        self.spans.append([f"op.{kind}", perf_counter(), 0.0, -1, op_id, 0, 0])
        self._stack.append(parent)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[parent][2] = perf_counter()


def install_linprog_span(tracer: Tracer) -> None:
    """Route scipy.optimize.linprog through a span while the tracer is active.

    Installed before markov_fuzzy is imported, so both an import-time
    `from scipy.optimize import linprog` and a later lazy import find it.
    """
    import scipy.optimize

    real = scipy.optimize.linprog

    def linprog(*args, **kwargs):
        if not tracer.active:
            return real(*args, **kwargs)
        return tracer.call(
            "bounds.linprog", real, args, kwargs, extra=lambda a, r: int(r.nit)
        )

    scipy.optimize.linprog = linprog


def _table_bytes(n: int) -> int:
    return 8 << n


# Span name, the package attribute it wraps, the arity it reports, and the
# computed minimum bytes it moves (float64 tables, int64 truth tables).
_API = (
    ("dsl.parse_formula", "parse_formula", None, None),
    ("dsl.parse_model", "parse_model", None, None),
    ("dsl.parse_joint", "parse_joint", lambda a, r: r.arity, None),
    ("boolfuncs.formula_variables", "formula_variables", None, None),
    ("boolfuncs.compile_formula", "compile_formula", lambda a, r: len(a[1]), None),
    ("bounds.exact_bounds", "exact_bounds", lambda a, r: a[0].arity, None),
    ("bounds.brute_force_bounds", "brute_force_bounds", None, None),
    ("connectives.q_family", "q_bounds", None, None),
    ("connectives.q_family", "and_q", None, None),
    ("connectives.q_family", "or_q", None, None),
    ("connectives.q_family", "implies_q", None, None),
    ("joints.pair_from_pq", "pair_from_pq", None, None),
    (
        "joints.independent_product",
        "independent_product",
        lambda a, r: r.arity,
        lambda a, r: _table_bytes(r.arity) + 8 * r.arity,
    ),
    (
        "joints.make_joint",
        "make_joint",
        lambda a, r: r.arity,
        lambda a, r: 2 * _table_bytes(r.arity),
    ),
    (
        "joints.marginal",
        "marginal",
        lambda a, r: a[0].arity,
        lambda a, r: _table_bytes(a[0].arity) + _table_bytes(r.arity),
    ),
    (
        "joints.pushforward",
        "pushforward",
        lambda a, r: a[0].arity,
        lambda a, r: 2 * _table_bytes(a[0].arity) + _table_bytes(r.arity),
    ),
    ("quantifiers.BeliefTable", "BeliefTable", None, None),
    ("quantifiers.exists_bounds", "exists_bounds", None, None),
    ("quantifiers.forall_bounds", "forall_bounds", None, None),
    ("quantifiers.exists_exact", "exists_exact", None, None),
    ("quantifiers.sample_exists", "sample_exists", None, lambda a, r: r.n_samples),
    ("quantifiers.exists_truncated", "exists_truncated", None, None),
)

#: Kernels whose computed traffic is reported at n = 22.
KERNELS = ("independent_product", "make_joint", "marginal", "pushforward")


def build_api(mf, tracer: Tracer | None = None) -> SimpleNamespace:
    """The package functions the workloads call, span-wrapped when tracing.

    `exists_truncated` is consumed into a list in both modes, so that its
    span covers the work and not just the creation of a generator.
    """
    api = {}
    for name, attr, tag, extra in _API:
        fn = getattr(mf, attr)
        if attr == "exists_truncated":
            fn = lambda joints, _gen=fn: list(_gen(joints))  # noqa: E731
        api[attr] = fn if tracer is None else tracer.wrap(name, fn, tag, extra)
    api["SamplingStrategy"] = mf.SamplingStrategy
    return SimpleNamespace(**api)


@contextmanager
def boundary_spans(tracer: Tracer, mf):
    """Spans for the model classes that dsl.parse_model constructs."""
    dsl = mf.dsl
    saved = dsl.PartialJointSpec, dsl.BeliefTable
    dsl.PartialJointSpec = tracer.wrap("bounds.PartialJointSpec", saved[0])
    dsl.BeliefTable = tracer.wrap("quantifiers.BeliefTable", saved[1])
    try:
        yield
    finally:
        dsl.PartialJointSpec, dsl.BeliefTable = saved


def span_metrics(spans) -> dict:
    """Per-layer metrics of the in-process layers, as name -> (value, unit).

    A layer that the workload never calls reports 0 calls and 0 ms, and an
    arity it never reaches reports 0 ms.
    """
    by_name: dict = {}
    child_ms = [0.0] * len(spans)
    for index, (name, start, end, parent, _op, _n, _extra) in enumerate(spans):
        by_name.setdefault(name, []).append(index)
        if parent >= 0:
            child_ms[parent] += (end - start) * 1e3

    def ms(index):
        return (spans[index][2] - spans[index][1]) * 1e3

    def busy(name):
        return math.fsum(ms(i) for i in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def at(name, n):
        values = [ms(i) for i in by_name.get(name, ()) if spans[i][5] == n]
        return math.fsum(values) / len(values) if values else 0.0

    out = {}

    def put(key, value, unit):
        out[key] = (float(value), unit)

    for name in ("dsl.parse_formula", "dsl.parse_model", "dsl.parse_joint"):
        put(f"{name}.calls", calls(name), "count")
        put(f"{name}.busy_ms", busy(name), "ms")
    for n in (16, 18):
        put(f"dsl.parse_joint.ms_n{n}", at("dsl.parse_joint", n), "ms")

    put("boolfuncs.formula_variables.busy_ms", busy("boolfuncs.formula_variables"), "ms")
    name = "boolfuncs.compile_formula"
    put(f"{name}.calls", calls(name), "count")
    put(f"{name}.busy_ms", busy(name), "ms")
    for n in (16, 18, 20, 22):
        put(f"{name}.ms_n{n}", at(name, n), "ms")

    put("bounds.PartialJointSpec.busy_ms", busy("bounds.PartialJointSpec"), "ms")
    name = "bounds.exact_bounds"
    solves = by_name.get(name, ())
    put(f"{name}.calls", len(solves), "count")
    put(f"{name}.busy_ms", busy(name), "ms")
    put(f"{name}.self_ms", math.fsum(ms(i) - child_ms[i] for i in solves), "ms")
    for n in range(2, 13):
        put(f"{name}.ms_n{n}", at(name, n), "ms")
    lp = by_name.get("bounds.linprog", ())
    put("bounds.linprog.calls", len(lp), "count")
    put("bounds.linprog.busy_ms", busy("bounds.linprog"), "ms")
    iterations = sum(spans[i][6] for i in lp)
    put("bounds.linprog.iterations", iterations / len(lp) if lp else 0.0, "iter/solve")
    put("bounds.lp_solves_per_query", len(lp) / len(solves) if solves else 0.0, "ratio")
    put("bounds.brute_force_bounds.calls", calls("bounds.brute_force_bounds"), "count")
    put("bounds.brute_force_bounds.busy_ms", busy("bounds.brute_force_bounds"), "ms")

    for name in ("connectives.q_family", "joints.pair_from_pq"):
        put(f"{name}.calls", calls(name), "count")
        put(f"{name}.busy_ms", busy(name), "ms")

    for kernel in KERNELS:
        name = f"joints.{kernel}"
        for n in (16, 18, 20, 22):
            put(f"{name}.ms_n{n}", at(name, n), "ms")
        put(f"{name}.busy_ms", busy(name), "ms")
        big = [i for i in by_name.get(name, ()) if spans[i][5] == 22]
        seconds = math.fsum(ms(i) for i in big) / 1e3
        moved = sum(spans[i][6] for i in big)
        put(f"{name}.min_gb_s_n22", moved / seconds / 1e9 if seconds else 0.0, "GB/s")

    put("quantifiers.BeliefTable.busy_ms", busy("quantifiers.BeliefTable"), "ms")
    put("quantifiers.exists_bounds.calls", calls("quantifiers.exists_bounds"), "count")
    for name in (
        "quantifiers.exists_bounds",
        "quantifiers.forall_bounds",
        "quantifiers.exists_truncated",
    ):
        put(f"{name}.busy_ms", busy(name), "ms")
    name = "quantifiers.sample_exists"
    put(f"{name}.calls", calls(name), "count")
    put(f"{name}.busy_ms", busy(name), "ms")
    drawn = sum(spans[i][6] for i in by_name.get(name, ()))
    put(f"{name}.samples_per_s", drawn / (busy(name) / 1e3) if drawn else 0.0, "1/s")
    return out
