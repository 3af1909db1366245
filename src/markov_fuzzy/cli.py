"""Command-line front end.

Subcommands:

    eval      confidence of a quantifier-free formula under a full joint
    bounds    exact confidence interval under a partial spec
    sweep     the q-parametrized binary connective family as CSV
    quantify  existential bounds or the sampling estimator over a table

Formula variables bind to coordinates in first-appearance order: the
first variable mentioned is coordinate 1 (and matches marginal 1 of a
spec document).  Exit codes: 0 success, 2 input/parse error, 3 semantic
mismatch, 4 arity over the active cap, 5 LP solver failure.
MARKOV_FUZZY_MAX_ARITY lowers the cap (it can never raise it above the
built-in N_MAX).

scipy is imported on the first `exact_bounds` LP solve, so `bounds` is the
only subcommand that loads it; the others need numpy alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from ._common import EPS_SIMPLEX, N_MAX
from .boolfuncs import (
    and_function,
    compile_formula,
    formula_variables,
    implies_function,
    or_function,
)
from .bounds import PartialJointSpec, exact_bounds
from .connectives import _feasible_q, q_bounds
from .dsl import parse_formula, parse_joint, parse_model
from .errors import (
    ArityMismatch,
    ArityTooLarge,
    DuplicateVariable,
    MarginalMismatch,
    MultiOutput,
    NotNormalized,
    SchemaError,
    SolverError,
    UnboundVariable,
    UnsupportedLiftPolicy,
)
from .joints import pushforward
from .quantifiers import BeliefTable, SamplingStrategy, exists_bounds, sample_exists

EXIT_OK = 0
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


def _fmt(x: float) -> str:
    """17 significant digits, '.' decimal point, enough to round-trip."""
    return format(float(x), ".17g")


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


def _emit_json(obj) -> None:
    print(json.dumps(obj))


def _emit_csv(header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = (cell if isinstance(cell, str) else _fmt(cell) for cell in row)
        lines.append(",".join(cells))
    sys.stdout.write("\n".join(lines) + "\n")


def _compile(formula_text: str, expected_arity: int):
    ast = parse_formula(formula_text)
    names = formula_variables(ast)
    if len(names) != expected_arity:
        raise ArityMismatch(
            f"formula mentions {len(names)} variables but the model has "
            f"arity {expected_arity}"
        )
    return compile_formula(ast, names)


def _cmd_eval(args) -> int:
    dist = parse_joint(_read(args.input))
    _check_cap(dist.arity)
    f = _compile(args.formula, dist.arity)
    out = pushforward(dist, f)
    p_false, p_true = float(out.probs[0]), float(out.probs[1])
    if (args.format or "json") == "json":
        _emit_json(
            {"true": p_true, "distribution": {"false": p_false, "true": p_true}}
        )
    else:
        _emit_csv(("outcome", "probability"), [("false", p_false), ("true", p_true)])
    return EXIT_OK


def _cmd_bounds(args) -> int:
    model = parse_model(_read(args.input))
    if not isinstance(model, PartialJointSpec):
        raise SchemaError("bounds requires a marginal spec document")
    _check_cap(model.arity)
    f = _compile(args.formula, model.arity)
    interval = exact_bounds(model, f)
    result = {"lo": interval.lo, "hi": interval.hi}
    if model.arity == 2:
        for kind, gate in (
            ("and", and_function()),
            ("or", or_function()),
            ("implies", implies_function()),
        ):
            if f == gate:
                result["classic"] = {
                    "kind": kind,
                    "lo": f"{kind}_min",
                    "hi": f"{kind}_max",
                }
                break
    if (args.format or "json") == "json":
        _emit_json(result)
    else:
        _emit_csv(("lo", "hi"), [(interval.lo, interval.hi)])
    return EXIT_OK


def _clip01(x: np.ndarray) -> np.ndarray:
    """Elementwise `clip01`, with the same comparisons (signed zeros kept)."""
    return np.where(x < 0.0, 0.0, np.where(x > 1.0, 1.0, x))


def _check_normalized(table: np.ndarray) -> None:
    """Column-wise `JointBooleanDist` normalisation check of a table."""
    sums = table.sum(axis=0)
    bad = np.abs(sums - 1.0) > 4 * EPS_SIMPLEX
    if bad.any():
        raise NotNormalized(f"probabilities sum to {float(sums[np.argmax(bad)])}")


def _sweep_columns(p1: float, p2: float, qs: np.ndarray, f) -> list:
    """The sweep's columns over the whole q grid at once.

    Each column repeats, elementwise and in the same operation order, the
    float expressions of `and_q`, `or_q`, `implies_q` and, for the formula,
    `pushforward(pair_from_pq(p1, p2, q), f)`, so every value equals the
    scalar one bit for bit.
    """
    # An interval holds the whole grid iff it holds the grid's two ends.
    for end in (qs.min(), qs.max()):
        _feasible_q(p1, p2, end)
    b = q_bounds(p1, p2)
    q = np.where(b.q_min > qs, b.q_min, qs)
    q = np.where(b.q_max < q, b.q_max, q)
    columns = [
        qs,
        _clip01(p1 + p2 + q - 1.0),
        _clip01(1.0 - q),
        _clip01(p2 + q),
    ]
    if f is not None:
        # Rows in table-index order: p_FF, p_TF, p_FT, p_TT.
        pair = np.maximum(
            np.stack([q, (1.0 - p2) - q, (1.0 - p1) - q, p1 + p2 - 1.0 + q]), 0.0
        )
        _check_normalized(pair)
        pushed = np.zeros((2, qs.size))
        for index, value in enumerate(f.table.tolist()):
            pushed[value] += pair[index]
        _check_normalized(pushed)
        columns.append(pushed[1])
    return [column.tolist() for column in columns]


def _cmd_sweep(args) -> int:
    if args.steps < 1:
        print("error: --steps must be >= 1", file=sys.stderr)
        return EXIT_INPUT
    model = parse_model(_read(args.input))
    if not isinstance(model, PartialJointSpec):
        raise SchemaError("sweep requires a marginal spec document")
    if model.arity != 2:
        raise ArityMismatch(f"sweep requires exactly 2 marginals, got {model.arity}")
    if model.independent or model.pairwise:
        raise SchemaError("sweep requires a marginals-only spec")
    p1, p2 = model.marginals
    b = q_bounds(p1, p2)
    if b.q_min == b.q_max:
        qs = np.array([b.q_min])
    else:
        qs = np.linspace(b.q_min, b.q_max, args.steps)

    f = _compile(args.formula, 2) if args.formula else None
    header = ["q", "and_q", "or_q", "implies_q"]
    if f is not None:
        header.append("formula")
    columns = _sweep_columns(p1, p2, qs, f)
    if (args.format or "csv") == "csv":
        _emit_csv(header, zip(*columns))
    else:
        _emit_json([dict(zip(header, row)) for row in zip(*columns)])
    return EXIT_OK


def _cmd_quantify(args) -> int:
    model = parse_model(_read(args.input))
    if not isinstance(model, BeliefTable):
        raise SchemaError("quantify requires a belief-table document")
    if args.mode == "bounds":
        interval = exists_bounds(model)
        if (args.format or "json") == "json":
            _emit_json({"lo": interval.lo, "hi": interval.hi})
        else:
            _emit_csv(("lo", "hi"), [(interval.lo, interval.hi)])
        return EXIT_OK
    # sample mode
    if args.samples < 1:
        print("error: --samples must be >= 1", file=sys.stderr)
        return EXIT_INPUT
    if not 0.0 < args.delta < 1.0:
        print("error: --delta must be in (0, 1)", file=sys.stderr)
        return EXIT_INPUT
    length = args.tuple_length if args.tuple_length else len(model.universe)
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
    if (args.format or "json") == "json":
        _emit_json(result)
    else:
        _emit_csv(
            ("mean", "radius", "n", "seed"),
            [
                (
                    result["mean"],
                    result["radius"],
                    str(result["n"]),
                    str(result["seed"]),
                )
            ],
        )
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
        default=0,
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
    except ArityTooLarge as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except _SEMANTIC_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    except SolverError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
