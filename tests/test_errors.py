"""Argument checks of the boolfuncs, bounds, connectives, dsl, joints and
quantifiers modules raise typed errors: each a MarkovFuzzyError that is
still a ValueError, so callers catching ValueError keep working."""

import numpy as np
import pytest

import markov_fuzzy as mf
from markov_fuzzy import Exists, Var, cli
from markov_fuzzy.dsl import SourceSpan
from markov_fuzzy.errors import (
    ArityMismatch,
    BadCoordinate,
    InvalidParameter,
    MarkovFuzzyError,
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
    """The CLI exits 2 on each, as on the bare ValueError before; the one
    ArityMismatch, BooleanFunction's entry check, no CLI input reaches."""
    for error, _ in RAISE_SITES.values():
        if error is not ArityMismatch:
            assert not issubclass(error, cli._SEMANTIC_ERRORS)
