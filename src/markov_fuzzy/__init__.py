"""Probabilistic fuzzy logic over joint distributions on the Booleans.

Confidence in a predicate is a probability distribution on {false, true},
parametrized by the point being judged.  Logic connectives act on *joint*
confidence tables by pushforward through Boolean truth tables; with only
partial joint information (marginals, pairwise both-false confidences)
the package computes exact confidence bounds, and for quantifiers over
finite universes it provides exact values, bounds, truncation limits and
a seeded Monte-Carlo estimator.

numpy is loaded on first array use: the joint-table names below come from
`joints` when first read (PEP 562), and the other modules import numpy
inside the functions that build tables, solve, sample or sweep.
"""

from ._common import EPS_FEAS, EPS_SIMPLEX, N_MAX
from .boolfuncs import (
    And,
    BooleanFunction,
    Exists,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    Var,
    and_function,
    assignment_index,
    compile_formula,
    compose,
    formula_variables,
    from_minterms,
    identity_function,
    implies_function,
    index_assignment,
    not_function,
    or_function,
    product,
    to_minterms,
    xor_function,
)
from .bounds import (
    ConfidenceInterval,
    PartialJointSpec,
    brute_force_bounds,
    classic_binary_bounds,
    exact_bounds,
)
from .connectives import (
    QBounds,
    and_q,
    clamp_q,
    classic,
    de_morgan_dual,
    fuzzy_not,
    implies_q,
    or_q,
    q_bounds,
)
from .dsl import (
    SourceSpan,
    format_formula,
    parse_formula,
    parse_joint,
    parse_model,
)
from .quantifiers import (
    BeliefTable,
    SampleEstimate,
    SamplingStrategy,
    exists_bounds,
    exists_exact,
    exists_truncated,
    expand_quantifiers,
    forall_bounds,
    sample_exists,
)
from . import errors

__version__ = "0.1.0"

#: Names of `joints`, which imports numpy at load, bound on first read.
_JOINTS = ("FiniteDist", "JointBooleanDist", "independent_product", "make_joint")
_JOINTS += ("marginal", "pair_from_pq", "pushforward", "pushforward_finite")


def __getattr__(name):
    if name not in _JOINTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import joints

    value = globals()[name] = getattr(joints, name)
    return value


def __dir__():
    return sorted({*globals(), *_JOINTS})


__all__ = [
    "N_MAX",
    "EPS_SIMPLEX",
    "EPS_FEAS",
    # joint tables
    "JointBooleanDist",
    "FiniteDist",
    "make_joint",
    "independent_product",
    "marginal",
    "pair_from_pq",
    "pushforward",
    "pushforward_finite",
    "assignment_index",
    "index_assignment",
    # Boolean functions and formulas
    "BooleanFunction",
    "identity_function",
    "not_function",
    "and_function",
    "or_function",
    "implies_function",
    "xor_function",
    "compose",
    "product",
    "to_minterms",
    "from_minterms",
    "Var",
    "Not",
    "And",
    "Or",
    "Implies",
    "Exists",
    "Forall",
    "Formula",
    "compile_formula",
    "formula_variables",
    # connectives
    "QBounds",
    "fuzzy_not",
    "q_bounds",
    "clamp_q",
    "and_q",
    "or_q",
    "implies_q",
    "classic",
    "de_morgan_dual",
    # bounds
    "ConfidenceInterval",
    "PartialJointSpec",
    "exact_bounds",
    "brute_force_bounds",
    "classic_binary_bounds",
    # quantifiers
    "BeliefTable",
    "SamplingStrategy",
    "SampleEstimate",
    "exists_exact",
    "exists_bounds",
    "forall_bounds",
    "exists_truncated",
    "sample_exists",
    "expand_quantifiers",
    # text and model syntax
    "SourceSpan",
    "parse_formula",
    "format_formula",
    "parse_model",
    "parse_joint",
    "errors",
]
