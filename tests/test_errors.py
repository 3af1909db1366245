"""Argument checks of the boolfuncs, bounds, connectives, dsl, joints and
quantifiers modules raise typed errors: each a MarkovFuzzyError that is
still a ValueError, so callers catching ValueError keep working."""

import numpy as np
import pytest

import markov_fuzzy as mf
from markov_fuzzy import And, Exists, Var, cli, errors
from markov_fuzzy.dsl import SourceSpan
from markov_fuzzy.errors import (
    ArityMismatch,
    BadCoordinate,
    Cancelled,
    DuplicateVariable,
    InvalidBelief,
    InvalidParameter,
    MarkovFuzzyError,
    NegativeMass,
    ParseError,
    SchemaError,
    UnexpandedQuantifier,
)


class HashableKey(tuple):
    """A pair key that hashes although it holds an unhashable label."""

    def __hash__(self):
        return 0


BELIEFS = {"a": 0.5, "b": 0.5}
DEEP_JSON = "[" * 100_000 + "]" * 100_000

#: Each check: the call and the error it raises.
RAISE_SITES = {
    "function table entry beyond arity_out bits": (
        ArityMismatch,
        lambda: mf.BooleanFunction(1, 1, np.array([0, 2])),
    ),
    "quantifier left in a compiled formula": (
        UnexpandedQuantifier,
        lambda: mf.compile_formula(Exists("x", "U", Var("P(x)")), ["P(x)"]),
    ),
    "compile ordering not iterable": (
        InvalidParameter,
        lambda: mf.compile_formula(Var("a"), 5),
    ),
    "compile ordering None": (
        InvalidParameter,
        lambda: mf.compile_formula(Var("a"), None),
    ),
    "compile ordering an unhashable name": (
        InvalidParameter,
        lambda: mf.compile_formula(mf.parse_formula("a"), [["a"]]),
    ),
    "compile ordering duplicates of mixed types": (
        DuplicateVariable,
        lambda: mf.compile_formula(Var("a"), [1, 1, "a", "a"]),
    ),
    "variable an unhashable name": (
        InvalidParameter,
        lambda: Var(["x"]),
    ),
    "model JSON nested beyond the recursion limit": (
        SchemaError,
        lambda: mf.parse_model('{"marginals": %s}' % DEEP_JSON),
    ),
    "joint JSON nested beyond the recursion limit": (
        SchemaError,
        lambda: mf.parse_joint(DEEP_JSON),
    ),
    "interval ends out of order": (
        InvalidParameter,
        lambda: mf.ConfidenceInterval(0.6, 0.4),
    ),
    "grid step outside (0, 0.1]": (
        InvalidParameter,
        lambda: mf.brute_force_bounds(
            mf.PartialJointSpec((0.5, 0.5)), mf.and_function(), grid_step=0.5
        ),
    ),
    "grid step an integer too large for a float": (
        InvalidParameter,
        lambda: mf.brute_force_bounds(
            mf.PartialJointSpec((0.5, 0.5)), mf.and_function(), 10**400
        ),
    ),
    "Hoeffding delta an integer too large for a float": (
        InvalidParameter,
        lambda: mf.SampleEstimate(0.5, 10, None).hoeffding_radius(10**400),
    ),
    "q to clamp NaN": (
        InvalidParameter,
        lambda: mf.clamp_q(0.5, 0.5, float("nan")),
    ),
    "unknown connective kind": (
        InvalidParameter,
        lambda: mf.classic(0.5, 0.5, "nand", "min"),
    ),
    "unknown connective flavor": (
        InvalidParameter,
        lambda: mf.classic(0.5, 0.5, "and", "mean"),
    ),
    "source span ending before its start": (
        InvalidParameter,
        lambda: SourceSpan(3, 1),
    ),
    "repeated alphabet label": (
        InvalidParameter,
        lambda: mf.FiniteDist(("a", "a"), [0.5, 0.5]),
    ),
    "alphabet label unhashable": (
        InvalidParameter,
        lambda: mf.FiniteDist(("a", ["b"]), [0.5, 0.5]),
    ),
    "label outside the alphabet": (
        InvalidParameter,
        lambda: mf.FiniteDist(("a", "b"), [0.5, 0.5]).prob("z"),
    ),
    "alphabet not iterable": (
        InvalidParameter,
        lambda: mf.FiniteDist(3, [1.0]),
    ),
    "pushforward value table not iterable": (
        InvalidParameter,
        lambda: mf.pushforward_finite(mf.make_joint(1, [0.5, 0.5]), 5),
    ),
    "assignment not iterable": (
        InvalidParameter,
        lambda: mf.make_joint(1, [0.5, 0.5]).prob(5),
    ),
    "function input not iterable": (
        InvalidParameter,
        lambda: mf.not_function()(5),
    ),
    "minterm not iterable": (
        InvalidParameter,
        lambda: mf.from_minterms(1, [5]),
    ),
    "assignment coordinate a string": (
        InvalidParameter,
        lambda: mf.make_joint(1, [0.5, 0.5]).prob(["x"]),
    ),
    "function input coordinate 2": (
        InvalidParameter,
        lambda: mf.not_function()([2]),
    ),
    "minterm coordinate 0.5": (
        InvalidParameter,
        lambda: mf.from_minterms(1, [(0.5,)]),
    ),
    "pushforward label unhashable": (
        InvalidParameter,
        lambda: mf.pushforward_finite(mf.make_joint(1, [0.5, 0.5]), ["a", {}]),
    ),
    "pairwise key of three coordinates": (
        BadCoordinate,
        lambda: mf.PartialJointSpec((0.5, 0.5), {(1, 2, 3): 0.1}),
    ),
    "pairwise key of names": (
        BadCoordinate,
        lambda: mf.PartialJointSpec((0.5, 0.5), {("x", "y"): 0.1}),
    ),
    "pairwise key holding an unhashable label": (
        BadCoordinate,
        lambda: mf.PartialJointSpec((0.5, 0.5), {HashableKey((1, [2])): 0.1}),
    ),
    "pairwise key holding an infinite coordinate": (
        BadCoordinate,
        lambda: mf.PartialJointSpec((0.5, 0.5), {(float("inf"), 2): 0.1}),
    ),
    "pairwise key of fractional coordinates": (
        BadCoordinate,
        lambda: mf.PartialJointSpec((0.5, 0.5), {(1.7, 2.2): 0.25}),
    ),
    "pairwise key holding a bool": (
        BadCoordinate,
        lambda: mf.PartialJointSpec((0.5, 0.5), {(True, 2): 0.25}),
    ),
    "pairwise key of digit strings": (
        BadCoordinate,
        lambda: mf.PartialJointSpec((0.5, 0.5), {("1", "2"): 0.25}),
    ),
    "pairwise key with an underscore": (
        SchemaError,
        lambda: mf.parse_model('{"marginals": [0.5, 0.5], "pairwise": {"1_0,2": 0.25}}'),
    ),
    "pairwise key with a sign and spaces": (
        SchemaError,
        lambda: mf.parse_model('{"marginals": [0.5, 0.5], "pairwise": {" +1 , 2": 0.25}}'),
    ),
    "pairwise key of non-ASCII digits": (
        SchemaError,
        lambda: mf.parse_model(
            '{"marginals": [0.5, 0.5], "pairwise": {"\\u0661,\\u0662": 0.25}}'
        ),
    ),
    "q_pair key a two-letter string": (
        SchemaError,
        lambda: mf.BeliefTable(("a", "b"), BELIEFS, {"ab": 0.1}),
    ),
    "q_pair key of three labels": (
        SchemaError,
        lambda: mf.BeliefTable(("a", "b"), BELIEFS, {"abc": 0.1}),
    ),
    "q_pair key holding an unhashable label": (
        SchemaError,
        lambda: mf.BeliefTable(("a", "b"), BELIEFS, {HashableKey(("a", ["b"])): 0.1}),
    ),
    "tuple_length a string": (
        InvalidParameter,
        lambda: mf.SamplingStrategy(tuple_length="x"),
    ),
    "tuple_length a float": (
        InvalidParameter,
        lambda: mf.SamplingStrategy(tuple_length=2.7),
    ),
    "tuple_length a bool": (
        InvalidParameter,
        lambda: mf.SamplingStrategy(tuple_length=True),
    ),
    "joint arity a float": (
        InvalidParameter,
        lambda: mf.make_joint(2.7, [0.25] * 4),
    ),
    "joint arity a bool": (
        InvalidParameter,
        lambda: mf.make_joint(True, [0.5, 0.5]),
    ),
    "joint arity negative": (
        InvalidParameter,
        lambda: mf.make_joint(-1, [1.0]),
    ),
    "function arity a float": (
        InvalidParameter,
        lambda: mf.BooleanFunction(2.0, 1, [0, 0, 0, 1]),
    ),
    "gate arity a string": (
        InvalidParameter,
        lambda: mf.and_function("3"),
    ),
    "marginal coordinate a float": (
        BadCoordinate,
        lambda: mf.marginal(mf.make_joint(2, [0.25] * 4), [1.7]),
    ),
    "marginal coordinate None": (
        BadCoordinate,
        lambda: mf.marginal(mf.make_joint(2, [0.25] * 4), [None]),
    ),
    "sample count a float": (
        InvalidParameter,
        lambda: mf.sample_exists(
            mf.BeliefTable(("a",), {"a": 0.5}), mf.SamplingStrategy(1), 2.9
        ),
    ),
    "sample count a digit string": (
        InvalidParameter,
        lambda: mf.sample_exists(
            mf.BeliefTable(("a",), {"a": 0.5}), mf.SamplingStrategy(1), "5"
        ),
    ),
    # A block of 8192 tuples of 10**11 uniforms is 6.5e15 bytes, beyond the
    # address space, so malloc fails under any overcommit setting; 2**62
    # fails numpy's own size check.  Neither allocates anything.
    "tuple_length whose block of uniforms malloc refuses": (
        InvalidParameter,
        lambda: mf.sample_exists(
            mf.BeliefTable(("a",), {"a": 0.5}),
            mf.SamplingStrategy(10**11, seed=1),
            8192,
        ),
    ),
    "marginal a string": (
        InvalidBelief,
        lambda: mf.PartialJointSpec(("x", 0.5)),
    ),
    "belief a string": (
        InvalidBelief,
        lambda: mf.BeliefTable(("a",), {"a": "x"}),
    ),
    "q connective marginal a string": (
        InvalidBelief,
        lambda: mf.and_q("x", 0.5, 0.2),
    ),
    "pairwise q None": (
        InvalidParameter,
        lambda: mf.PartialJointSpec((0.5, 0.5), {(1, 2): None}),
    ),
    "Hoeffding delta None": (
        InvalidParameter,
        lambda: mf.SampleEstimate(0.5, 10, None).hoeffding_radius(None),
    ),
    "grid step None": (
        InvalidParameter,
        lambda: mf.brute_force_bounds(
            mf.PartialJointSpec((0.5, 0.5)), mf.and_function(), None
        ),
    ),
    # float() reads numeric text and bools; every to_float caller refuses them.
    "marginal a bool": (
        InvalidBelief,
        lambda: mf.PartialJointSpec((True, 0.5)),
    ),
    "q connective q a numeric string": (
        InvalidParameter,
        lambda: mf.and_q(0.5, 0.5, "0.25"),
    ),
    "pairwise q a bool": (
        InvalidParameter,
        lambda: mf.PartialJointSpec((0.5, 0.5), {(1, 2): False}),
    ),
    "grid step a numeric string": (
        InvalidParameter,
        lambda: mf.brute_force_bounds(
            mf.PartialJointSpec((0.5, 0.5)), mf.and_function(), "0.05"
        ),
    ),
    "sampling weight a bool": (
        InvalidParameter,
        lambda: mf.SamplingStrategy(1, weights={"a": True, "b": False}),
    ),
    "Hoeffding delta bytes": (
        InvalidParameter,
        lambda: mf.SampleEstimate(0.5, 10, None).hoeffding_radius(b"0.5"),
    ),
    "joint probability a string": (
        InvalidParameter,
        lambda: mf.make_joint(1, ["x", 0.5]),
    ),
    # numpy reads a bool beside numbers as a number.
    "joint probability a bool beside an int": (
        InvalidParameter,
        lambda: mf.make_joint(1, [True, 0]),
    ),
    "joint probability a bool beside a float": (
        InvalidParameter,
        lambda: mf.make_joint(1, [False, 1.0]),
    ),
    "finite probability a bool beside a float": (
        InvalidParameter,
        lambda: mf.FiniteDist(("a", "b"), (True, 0.0)),
    ),
    "sampling weight None": (
        InvalidParameter,
        lambda: mf.SamplingStrategy(1, weights={"a": None, "b": 1.0}),
    ),
    "sampling weight a string": (
        InvalidParameter,
        lambda: mf.SamplingStrategy(1, weights={"a": "x", "b": 1.0}),
    ),
    "sampling weight an integer too large for a float": (
        NegativeMass,
        lambda: mf.SamplingStrategy(1, weights={"a": 10**400, "b": 1.0}),
    ),
    # NaN passes both "< 0" and "sum within EPS_SIMPLEX of 1" written as
    # "> EPS_SIMPLEX": every draw would land on "a".
    "sampling weight NaN": (
        NegativeMass,
        lambda: mf.SamplingStrategy(1, weights={"a": float("nan"), "b": 1.0}),
    ),
    "tuple_length beyond numpy's array size": (
        InvalidParameter,
        lambda: mf.sample_exists(
            mf.BeliefTable(("a",), {"a": 0.5}), mf.SamplingStrategy(2**62, seed=1), 5
        ),
    ),
}


@pytest.mark.parametrize("site", sorted(RAISE_SITES))
def test_raise_site(site):
    error, call = RAISE_SITES[site]
    with pytest.raises(error) as info:
        call()
    assert isinstance(info.value, MarkovFuzzyError)
    assert isinstance(info.value, ValueError)


def test_cli_maps_them_to_input_errors():
    """The CLI exits 2 on each, as on the bare ValueError before.  No CLI
    input reaches the one ArityMismatch, BooleanFunction's entry check, nor
    the one DuplicateVariable, an ordering with duplicates: the CLI
    compiles against a formula's own names."""
    for error, _ in RAISE_SITES.values():
        if error not in (ArityMismatch, DuplicateVariable):
            assert not issubclass(error, cli._SEMANTIC_ERRORS)


#: The README's exit code of each error the package raises (the base class
#: is never raised bare), and of the two builtins the CLI reads as bad input.
EXIT_CODES = {
    "InvalidBelief": 2,
    "NegativeMass": 2,
    "NotNormalized": 2,
    "ArityTooLarge": 4,
    "BadCoordinate": 2,
    "ArityMismatch": 3,
    "InfeasibleQ": 2,
    "UnboundVariable": 3,
    "DuplicateVariable": 3,
    "MultiOutput": 3,
    "InfeasibleSpec": 2,
    "EmptyUniverse": 2,
    "MarginalMismatch": 3,
    "UnsupportedLiftPolicy": 3,
    "SchemaError": 2,
    "InvalidParameter": 2,
    "UnexpandedQuantifier": 2,
    "SolverError": 5,
    "ParseError": 2,
    "FileNotFoundError": 2,
    "ValueError": 2,
}
ERROR_CLASSES = [
    value
    for value in vars(errors).values()
    if isinstance(value, type)
    and issubclass(value, MarkovFuzzyError)
    and value is not MarkovFuzzyError
] + [FileNotFoundError, ValueError]


@pytest.mark.parametrize("error", ERROR_CLASSES, ids=lambda error: error.__name__)
def test_cli_exit_code_of_each_error(monkeypatch, capsys, error):
    """Raised from a command, each error gives its exit code, no output and
    one `error: <Name>: <message>` line.  `Cancelled` escapes `main`: only a
    cancel callback raises it, and no command passes one."""

    def handler(args):
        raise error(f"{error.__name__} from the handler")

    monkeypatch.setattr(cli, "_cmd_eval", handler)
    argv = ["eval", "--formula", "P1", "--input", "unread.json"]
    if error is Cancelled:
        with pytest.raises(Cancelled):
            cli.main(argv)
        return
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (EXIT_CODES[error.__name__], "")
    assert err == f"error: {error.__name__}: {error.__name__} from the handler\n"


@pytest.mark.parametrize(
    "ast, error",
    [
        (Var("a b"), ParseError),
        (Var("exists"), ParseError),
        (Var("1x"), ParseError),
        (Exists("x", "U", And(Var("P(x)"), Var("Q(x)"))), ParseError),
        (Exists("x", "U", Exists("x", "U", Var("P(x)"))), DuplicateVariable),
    ],
)
def test_format_formula_of_a_tree_the_parser_refuses(ast, error):
    """format_formula prints any tree, but only the text of a tree that
    parse_formula can return parses back: a name that is no identifier or
    is a keyword, a variable applied to two families and a rebound
    variable do not."""
    with pytest.raises(error):
        mf.parse_formula(mf.format_formula(ast))
