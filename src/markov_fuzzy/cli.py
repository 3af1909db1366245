"""Command-line front end.

Subcommands:

    eval      confidence of a quantifier-free formula under a full joint
    bounds    exact confidence interval under a partial spec
    sweep     the q-parametrized binary connective family as CSV
    quantify  existential bounds or the sampling estimator over a table

Formula variables bind to coordinates in first-appearance order: the
first variable mentioned is coordinate 1 (and matches marginal 1 of a
spec document).  Exit codes: 0 success, 1 a missing dependency (numpy),
2 input/parse error, 3 semantic mismatch, 4 arity over the active cap,
5 LP solver failure; `_EXIT_CODES` is the one place that maps errors to
them.  MARKOV_FUZZY_MAX_ARITY lowers the cap (it can never raise it above
the built-in N_MAX).

Only `quantify sample` and the `bounds` and `quantify bounds` calls that
solve an LP (with the package's own simplex) need numpy, loaded on first
array use.  `eval` and `sweep` are plain Python, bit for bit equal to the
library's array kernels (`eval` checks its table with `joints._joint_cells`,
`make_joint`'s checks on a list), and `bounds` and `quantify bounds` stay
numpy-free when every part takes a closed form: marginals, two variables,
or literals over a tree of pairs.  Nor does the package load
`dataclasses`: `import markov_fuzzy` takes about 10 ms of such a call.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import reduce
from itertools import compress
from operator import add

from ._common import N_MAX, check_belief
from .boolfuncs import _UNEXPANDED, _truth_bits, compile_formula
from .bounds import PartialJointSpec, exact_bounds
from .connectives import _clamped_q, _connectives, _pair_cells, _q_range, q_bounds
from .dsl import _joint_document, parse_formula, parse_model
from .errors import (
    ArityMismatch,
    ArityTooLarge,
    DuplicateVariable,
    InvalidParameter,
    MarginalMismatch,
    MultiOutput,
    SchemaError,
    SolverError,
    UnboundVariable,
    UnexpandedQuantifier,
    UnsupportedLiftPolicy,
)
from .joints import _joint_cells
from .quantifiers import BeliefTable, SamplingStrategy, exists_bounds, sample_exists

EXIT_OK = 0
EXIT_MISSING = 1
EXIT_INPUT = 2
EXIT_SEMANTIC = 3
EXIT_LIMIT = 4
EXIT_SOLVER = 5

_SEMANTIC_ERRORS = (
    ArityMismatch,
    UnboundVariable,
    DuplicateVariable,
    MultiOutput,
    MarginalMismatch,
    UnsupportedLiftPolicy,
)

#: The exit code of each error `main` catches; the first match wins.
_EXIT_CODES = (
    (ArityTooLarge, EXIT_LIMIT),
    (_SEMANTIC_ERRORS, EXIT_SEMANTIC),
    (SolverError, EXIT_SOLVER),
    ((ValueError, OSError), EXIT_INPUT),
    (ImportError, EXIT_MISSING),
)

#: The connectives the classic closed forms name, by their truth tables as
#: 4-bit masks: bit a set when the connective is true at assignment a.
_CLASSIC_KINDS = {0b1000: "and", 0b1110: "or", 0b1101: "implies"}


def _active_cap() -> int:
    raw = os.environ.get("MARKOV_FUZZY_MAX_ARITY")
    if raw is None:
        return N_MAX
    try:
        value = int(raw)
    except ValueError:
        raise SchemaError(
            f"MARKOV_FUZZY_MAX_ARITY must be an integer, got {raw!r}"
        ) from None
    if value < 0:
        raise SchemaError("MARKOV_FUZZY_MAX_ARITY must be nonnegative")
    return min(N_MAX, value)


def _check_cap(arity: int) -> None:
    cap = _active_cap()
    if arity > cap:
        raise ArityTooLarge(f"arity {arity} exceeds the active cap {cap}")


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_model(args, kind, message):
    model = parse_model(_read(args.input))
    if not isinstance(model, kind):
        raise SchemaError(message)
    return model


def _emit(args, default, header, rows, obj=None) -> None:
    """Print `rows` under `header` as CSV, or `obj` as JSON, in the format
    --format names (else `default`).  `obj` defaults to the rows as objects
    keyed by the header, built only for JSON.  CSV cells: text as it is,
    numbers in 17 significant digits with a '.' decimal point, enough to
    round-trip; every row (a tuple) has the cell types of the first."""
    rows = list(rows)
    if (args.format or default) == "json":
        if obj is None:
            obj = [dict(zip(header, row)) for row in rows]
        print(json.dumps(obj))
        return
    cells = rows[0] if rows else ()
    template = ",".join("%s" if isinstance(c, str) else "%.17g" for c in cells)
    lines = [",".join(header), *(template % row for row in rows)]
    sys.stdout.write("\n".join(lines) + "\n")


def _compile(formula_text: str, expected_arity: int):
    """The formula compiled over its variables in first-appearance order.
    The parser's record marks a quantified formula, which is refused
    whatever the model's arity and however many variables it names."""
    ast = parse_formula(formula_text)
    names, form = ast._parsed
    if form is None:
        raise UnexpandedQuantifier(_UNEXPANDED)
    if len(names) != expected_arity:
        raise ArityMismatch(
            f"formula mentions {len(names)} variables but the model has "
            f"arity {expected_arity}"
        )
    return compile_formula(ast, names)


#: Selectors of the true and the false cells from the binary digits of a
#: truth table's bits, lowest assignment first.
_TRUE_CELLS = bytes.maketrans(b"01", b"\0\1")
_FALSE_CELLS = bytes.maketrans(b"01", b"\1\0")


def _cmd_eval(args) -> int:
    arity, probs = _joint_document(_read(args.input))
    probs = _joint_cells(arity, probs)
    _check_cap(arity)
    f = _compile(args.formula, arity)
    # pushforward's np.add.at: each outcome summed from 0.0 in index order.
    digits = format(_truth_bits(f._formula, range(arity)), f"0{len(probs)}b")
    digits = digits[::-1].encode()
    p_false, p_true = (
        reduce(add, compress(probs, digits.translate(cells)), 0.0)
        for cells in (_FALSE_CELLS, _TRUE_CELLS)
    )
    rows = [("false", p_false), ("true", p_true)]
    obj = {"true": p_true, "distribution": dict(rows)}
    _emit(args, "json", ("outcome", "probability"), rows, obj)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    model = _load_model(
        args, PartialJointSpec, "bounds requires a marginal spec document"
    )
    _check_cap(model.arity)
    f = _compile(args.formula, model.arity)
    interval = exact_bounds(model, f)
    result = {"lo": interval.lo, "hi": interval.hi}
    # The classic closed forms bound a two-variable connective given its
    # marginals alone; a pairwise q or independence pins it tighter.
    if model.arity == 2 and not model.pairwise and not model.independent:
        kind = _CLASSIC_KINDS.get(_truth_bits(f._formula, [0, 1]))
        if kind is not None:
            result["classic"] = {"kind": kind, "lo": f"{kind}_min", "hi": f"{kind}_max"}
    _emit(args, "json", ("lo", "hi"), [(interval.lo, interval.hi)], result)
    return EXIT_OK


def _q_grid(q_min: float, q_max: float, steps: int) -> list:
    """`np.linspace(q_min, q_max, steps).tolist()` bit for bit, or [q_min] if
    q_min == q_max; InvalidParameter if `steps` values cannot be allocated."""
    if steps == 1 or q_min == q_max:
        return [q_min]
    try:
        qs = [q_max] * steps
    except (MemoryError, OverflowError):
        raise InvalidParameter(
            f"--steps = {steps} is too large: its {8 * steps} "
            "bytes of q values cannot be allocated"
        ) from None
    # numpy's step == 0 branch (gh-5437) is left out: ranges >= 2**-53 never underflow.
    step = (q_max - q_min) / (steps - 1)
    for i in range(steps - 1):
        qs[i] = i * step + q_min
    return qs


def _sweep_columns(p1: float, p2: float, qs, f) -> list:
    """The sweep's columns over the q grid: q, `and_q`, `or_q`, `implies_q`
    and, for a compiled formula f, `pushforward(pair_from_pq(p1, p2, q), f)`,
    from one check of the beliefs, one of each q (`_feasible_q`'s two
    parts) and the scalar path's own expressions, so every value equals
    the scalar one bit for bit."""
    p1, p2 = check_belief(p1, "p1"), check_belief(p2, "p2")
    q_range = _q_range(p1, p2)
    triples = [(p1, p2, _clamped_q(p1, p2, q_range, q)) for q in qs]
    values = zip(*[_connectives(*triple) for triple in triples])
    columns = [[float(q) for q in qs], *map(list, values)]
    if f is not None:
        mask = _truth_bits(f._formula, [0, 1])
        true_cells = [a for a in range(4) if mask >> a & 1]
        # pushforward's sum of pair_from_pq's cells: from 0.0, in index order.
        tables = (_pair_cells(*triple) for triple in triples)
        cells = ([max(table[a], 0.0) for a in true_cells] for table in tables)
        columns.append([reduce(add, row, 0.0) for row in cells])
    return columns


def _cmd_sweep(args) -> int:
    if args.steps < 1:
        raise InvalidParameter("--steps must be >= 1")
    model = _load_model(
        args, PartialJointSpec, "sweep requires a marginal spec document"
    )
    if model.arity != 2:
        raise ArityMismatch(f"sweep requires exactly 2 marginals, got {model.arity}")
    if model.independent or model.pairwise:
        raise SchemaError("sweep requires a marginals-only spec")
    p1, p2 = model.marginals
    b = q_bounds(p1, p2)
    qs = _q_grid(b.q_min, b.q_max, args.steps)

    f = _compile(args.formula, 2) if args.formula else None
    header = ["q", "and_q", "or_q", "implies_q"]
    if f is not None:
        header.append("formula")
    _emit(args, "csv", header, zip(*_sweep_columns(p1, p2, qs, f)))
    return EXIT_OK


def _cmd_quantify(args) -> int:
    model = _load_model(
        args, BeliefTable, "quantify requires a belief-table document"
    )
    if args.mode == "bounds":
        interval = exists_bounds(model)
        result = {"lo": interval.lo, "hi": interval.hi}
        _emit(args, "json", ("lo", "hi"), [(interval.lo, interval.hi)], result)
        return EXIT_OK
    # sample mode
    if args.samples < 1:
        raise InvalidParameter("--samples must be >= 1")
    if not 0.0 < args.delta < 1.0:
        raise InvalidParameter("--delta must be in (0, 1)")
    if args.tuple_length is not None and args.tuple_length < 1:
        raise InvalidParameter("--tuple-length must be >= 1")
    length = args.tuple_length or len(model.universe)
    if length < 1:
        raise SchemaError("cannot sample from an empty universe")
    strategy = SamplingStrategy(tuple_length=length, seed=args.seed)
    estimate = sample_exists(model, strategy, args.samples)
    result = {
        "mean": estimate.mean,
        "radius": estimate.hoeffding_radius(args.delta),
        "n": estimate.n_samples,
        "seed": estimate.seed,
    }
    row = (result["mean"], result["radius"], str(result["n"]), str(result["seed"]))
    _emit(args, "json", ("mean", "radius", "n", "seed"), [row], result)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="markov-fuzzy",
        description="Probabilistic fuzzy-logic engine over joint Boolean tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    eval_p = sub.add_parser("eval", help="evaluate a formula under a full joint")
    eval_p.add_argument("--formula", required=True, help="quantifier-free formula")
    eval_p.add_argument("--input", required=True, help="joint-table JSON file")
    eval_p.add_argument("--format", choices=("json", "csv"))
    eval_p.set_defaults(handler=_cmd_eval)

    bounds_p = sub.add_parser("bounds", help="exact bounds under a partial spec")
    bounds_p.add_argument("--formula", required=True)
    bounds_p.add_argument("--input", required=True, help="marginal-spec JSON file")
    bounds_p.add_argument("--format", choices=("json", "csv"))
    bounds_p.set_defaults(handler=_cmd_bounds)

    sweep_p = sub.add_parser("sweep", help="sweep q across its feasible range (n=2)")
    sweep_p.add_argument("--input", required=True, help="marginal-spec JSON file")
    sweep_p.add_argument("--formula", help="optional formula column")
    sweep_p.add_argument("--steps", type=int, default=11, help="number of rows")
    sweep_p.add_argument("--format", choices=("json", "csv"))
    sweep_p.set_defaults(handler=_cmd_sweep)

    quant_p = sub.add_parser("quantify", help="existential bounds or estimate")
    quant_p.add_argument("mode", choices=("bounds", "sample"))
    quant_p.add_argument("--input", required=True, help="belief-table JSON file")
    quant_p.add_argument("--samples", type=int, default=10000)
    quant_p.add_argument("--seed", type=int, default=0)
    quant_p.add_argument("--delta", type=float, default=0.05)
    quant_p.add_argument(
        "--tuple-length",
        type=int,
        help="sampled tuple length (default: universe size)",
    )
    quant_p.add_argument("--format", choices=("json", "csv"))
    quant_p.set_defaults(handler=_cmd_quantify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValueError, OSError, SolverError, ImportError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    raise SystemExit(main())
