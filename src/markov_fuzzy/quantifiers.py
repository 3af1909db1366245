"""Fuzzy existential and universal quantification over finite universes.

The confidence of "some point satisfies P" is fully determined by a joint
distribution over the per-point predicates (`exists_exact`); with only
marginal beliefs, and optionally pairwise both-false confidences, it is
bracketed by `exists_bounds`:

    lower:  best single point, and best pair 1 - q(x1, x2);
    upper:  sum of beliefs capped at 1, improved by greedily partitioning
            the universe into pairs with known q.

From marginals alone this is the exact Frechet pair.  With pairwise q it
is an outer bound: it contains the exact interval (`exact_bounds` of the
n-ary "or") but can be wider.

`forall_bounds` reduces to the existential case through negation.
`exists_truncated` follows a growing chain of explicit joints (the finite
truncations of a countable universe) and `sample_exists` estimates the
expected confidence of finding a witness under a sampling strategy, with a
distribution-free Hoeffding radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import islice
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from ._common import EPS_SIMPLEX, check_belief, clip01
from .boolfuncs import And, Exists, Forall, Formula, Or, Var, _fold, _with_children
from .bounds import ConfidenceInterval
from .connectives import _add_pair_q, and_q
from .errors import (
    BadCoordinate,
    EmptyUniverse,
    MarginalMismatch,
    SchemaError,
    UnboundVariable,
    UnsupportedLiftPolicy,
)
from .joints import JointBooleanDist, marginal

__all__ = [
    "BeliefTable",
    "SamplingStrategy",
    "SampleEstimate",
    "exists_exact",
    "exists_bounds",
    "forall_bounds",
    "exists_truncated",
    "sample_exists",
    "expand_quantifiers",
]

#: Tolerance for the marginal-consistency check between truncation levels.
TRUNCATION_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class BeliefTable:
    """Per-point beliefs over a finite universe, optionally with pairwise q.

    `q_pair` maps unordered pairs of distinct labels to the confidence that
    the predicate fails at both points; each value must be feasible for the
    pair of beliefs it constrains.
    """

    universe: tuple
    p: Mapping
    q_pair: Optional[Mapping] = None

    def __post_init__(self):
        labels = tuple(self.universe)
        if len(set(labels)) != len(labels):
            raise SchemaError("universe labels must be distinct")
        beliefs = dict(self.p)
        if set(beliefs) != set(labels):
            raise SchemaError(
                "belief map must cover exactly the universe labels"
            )
        beliefs = {x: check_belief(v, f"p({x})") for x, v in beliefs.items()}
        position = {x: i for i, x in enumerate(labels)}

        normalized: dict = {}
        for key, value in dict(self.q_pair or {}).items():
            a, b = key
            if a not in position or b not in position or a == b:
                raise SchemaError(f"bad q_pair key {key!r}")
            pair = (a, b) if position[a] < position[b] else (b, a)
            _add_pair_q(normalized, pair, beliefs[pair[0]], beliefs[pair[1]], value)
        object.__setattr__(self, "universe", labels)
        object.__setattr__(self, "p", beliefs)
        object.__setattr__(self, "q_pair", normalized)

    def q(self, a, b) -> Optional[float]:
        """Pairwise both-false confidence, if supplied (symmetric lookup)."""
        return self.q_pair.get((a, b), self.q_pair.get((b, a)))

    def negated(self) -> "BeliefTable":
        """Pointwise-negated table: p -> 1-p; a pair's q becomes the
        original confidence that both points satisfy the predicate."""
        neg_p = {x: 1.0 - v for x, v in self.p.items()}
        neg_q = {
            pair: and_q(self.p[pair[0]], self.p[pair[1]], q)
            for pair, q in self.q_pair.items()
        }
        return BeliefTable(self.universe, neg_p, neg_q)


def exists_exact(joint: JointBooleanDist) -> float:
    """Confidence that at least one predicate holds: 1 - P(all false)."""
    if joint.arity < 1:
        raise ValueError("existential quantification needs arity >= 1")
    return clip01(1.0 - float(joint.probs[0]))


def _greedy_pair_partition(table: BeliefTable) -> float:
    """Upper bound from a partition into pairs (plus leftover singletons),
    choosing pairs greedily by how much they improve on their singletons."""
    candidates = []
    for (a, b), q in table.q_pair.items():
        gain = table.p[a] + table.p[b] - (1.0 - q)
        candidates.append((-gain, a, b, q))
    candidates.sort(key=lambda item: (item[0], str(item[1]), str(item[2])))
    matched: set = set()
    total = 0.0
    for neg_gain, a, b, q in candidates:
        if a in matched or b in matched:
            continue
        matched.add(a)
        matched.add(b)
        total += 1.0 - q
    for x in table.universe:
        if x not in matched:
            total += table.p[x]
    return total


def exists_bounds(table: BeliefTable) -> ConfidenceInterval:
    """Bounds on the existential confidence from partial information.

    From the beliefs alone the result is exact: [max p, min(1, sum p)].
    With q_pair it is an outer bound, valid but possibly wider than the
    exact interval; e.g. three points at p = 0.4 with pairwise q = 0.3 give
    lo = 0.7 where the exact lower bound is 0.9.
    """
    if not table.universe:
        raise EmptyUniverse("cannot quantify over an empty universe")
    lo = max(table.p[x] for x in table.universe)
    for (a, b), q in table.q_pair.items():
        lo = max(lo, 1.0 - q)
    hi = min(1.0, math.fsum(table.p[x] for x in table.universe))
    if table.q_pair:
        hi = min(hi, _greedy_pair_partition(table))
    return ConfidenceInterval(clip01(lo), clip01(max(lo, hi)))


def forall_bounds(table: BeliefTable) -> ConfidenceInterval:
    """Bounds on the universal confidence, via negation of the table."""
    inner = exists_bounds(table.negated())
    return ConfidenceInterval(clip01(1.0 - inner.hi), clip01(1.0 - inner.lo))


def exists_truncated(
    joints: Iterable[JointBooleanDist],
) -> Iterator[float]:
    """Existential confidences along a chain of growing explicit joints.

    Each level must marginalize onto the previous one (checked entrywise to
    TRUNCATION_TOL); the emitted sequence is then non-decreasing up to
    1e-12, and any larger drop is reported as an inconsistency.
    """
    prev_dist = None
    prev_value = None
    for dist in joints:
        if prev_dist is not None:
            if dist.arity <= prev_dist.arity:
                raise MarginalMismatch(
                    f"truncation levels must grow: arity {dist.arity} after "
                    f"{prev_dist.arity}"
                )
            reduced = marginal(dist, range(1, prev_dist.arity + 1))
            defect = float(np.max(np.abs(reduced.probs - prev_dist.probs)))
            if defect > TRUNCATION_TOL:
                raise MarginalMismatch(
                    f"level of arity {dist.arity} does not marginalize onto "
                    f"the previous level (defect {defect})"
                )
        value = exists_exact(dist)
        if prev_value is not None and value < prev_value - 1e-12:
            raise MarginalMismatch(
                f"existential confidence dropped from {prev_value} to {value}"
            )
        yield value
        prev_dist = dist
        prev_value = value


# ---------------------------------------------------------------------------
# Sampling-strategy estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SamplingStrategy:
    """How to draw universe-point tuples.

    Either i.i.d. draws over the finite universe (`weights`; None means
    uniform) or an explicit caller-supplied stream of tuples.  Draws are
    produced by a counter-based generator (Philox), so the tuple at sample
    index k is a pure function of (seed, k) and runs are reproducible.
    """

    tuple_length: int
    seed: int = 0
    weights: Optional[Mapping] = None
    tuples: Optional[Iterable] = None

    def __post_init__(self):
        if int(self.tuple_length) < 1:
            raise ValueError("tuple_length must be >= 1")
        object.__setattr__(self, "tuple_length", int(self.tuple_length))
        if self.weights is not None:
            if self.tuples is not None:
                raise ValueError("supply either weights or a tuple stream, not both")
            w = {k: float(v) for k, v in dict(self.weights).items()}
            if any(v < 0.0 for v in w.values()):
                raise ValueError("weights must be nonnegative")
            if abs(math.fsum(w.values()) - 1.0) > EPS_SIMPLEX:
                raise ValueError("weights must sum to 1")
            object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class SampleEstimate:
    """Mean witness confidence over sampled tuples."""

    mean: float
    n_samples: int
    seed: Optional[int]

    def hoeffding_radius(self, delta: float) -> float:
        """Distribution-free confidence half-width sqrt(ln(2/d) / (2N))."""
        delta = float(delta)
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {delta}")
        return math.sqrt(math.log(2.0 / delta) / (2.0 * self.n_samples))


LiftPolicy = Union[str, Callable[[tuple], JointBooleanDist]]


def _draw_index_tuples(
    table: BeliefTable, strategy: SamplingStrategy, n_samples: int
) -> np.ndarray:
    labels = table.universe
    if strategy.weights is None:
        weights = np.full(len(labels), 1.0 / len(labels))
    else:
        unknown = set(strategy.weights) - set(labels)
        if unknown:
            raise ValueError(f"weights mention labels outside the universe: {unknown}")
        weights = np.array([strategy.weights.get(x, 0.0) for x in labels])
    cdf = np.cumsum(weights)
    cdf[-1] = 1.0
    rng = np.random.Generator(np.random.Philox(key=strategy.seed))
    uniforms = rng.random((n_samples, strategy.tuple_length))
    return np.searchsorted(cdf, uniforms, side="right")


def sample_exists(
    table: BeliefTable,
    strategy: SamplingStrategy,
    n_samples: int,
    lift: LiftPolicy = "independent",
) -> SampleEstimate:
    """Estimate the expected confidence of finding a witness tuple.

    Each sampled tuple is lifted to a joint distribution and scored with
    `exists_exact`.  Supported lift policies: "independent" (conditional
    independence across the tuple), "pairwise" (exact pair lift via the
    table's q_pair; tuples of length 2 only), or a callable returning an
    exact joint per tuple.  Chaining pairwise constraints across longer
    tuples is rejected rather than approximated.
    """
    n_samples = int(n_samples)
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if not table.universe:
        raise EmptyUniverse("cannot sample from an empty universe")
    labels = table.universe
    p_by_index = np.array([table.p[x] for x in labels])

    if strategy.tuples is not None:
        drawn = list(islice(iter(strategy.tuples), n_samples))
        if len(drawn) < n_samples:
            raise ValueError(
                f"tuple stream yielded {len(drawn)} tuples, need {n_samples}"
            )
        position = {x: i for i, x in enumerate(labels)}
        for t in drawn:
            if len(t) != strategy.tuple_length:
                raise ValueError(f"tuple {t!r} does not have length {strategy.tuple_length}")
        try:
            index_tuples = np.array(
                [[position[x] for x in t] for t in drawn], dtype=np.int64
            )
        except KeyError as exc:
            raise BadCoordinate(
                f"tuple stream names {exc.args[0]!r}, which is not in the universe"
            ) from None
    else:
        index_tuples = _draw_index_tuples(table, strategy, n_samples)

    if lift == "independent":
        miss = 1.0 - p_by_index[index_tuples]
        values = 1.0 - np.prod(miss, axis=1)
    elif lift == "pairwise":
        if strategy.tuple_length != 2:
            raise UnsupportedLiftPolicy(
                "pairwise lifts are defined for tuples of length 2 only"
            )
        values = np.empty(n_samples)
        for k, (i, j) in enumerate(index_tuples):
            a, b = labels[i], labels[j]
            if a == b:
                # The same predicate twice: the disjunction is itself.
                values[k] = table.p[a]
                continue
            q = table.q(a, b)
            if q is None:
                raise UnsupportedLiftPolicy(f"no q_pair entry for pair ({a}, {b})")
            values[k] = 1.0 - q
    elif callable(lift):
        values = np.empty(n_samples)
        for k, row in enumerate(index_tuples):
            joint = lift(tuple(labels[i] for i in row))
            values[k] = exists_exact(joint)
    else:
        raise UnsupportedLiftPolicy(f"unknown lift policy {lift!r}")

    mean = float(np.add.reduce(values) / n_samples)
    return SampleEstimate(mean=clip01(mean), n_samples=n_samples, seed=strategy.seed)


# ---------------------------------------------------------------------------
# Universe expansion for quantified formulas
# ---------------------------------------------------------------------------


def _instantiate(node: Formula, var: str, member: str) -> Formula:
    suffix = f"({var})"

    def rename(node, children):
        if isinstance(node, Var) and node.name.endswith(suffix):
            family = node.name[: -len(suffix)]
            return Var(f"{family}({member})")
        return _with_children(node, children)

    return _fold(node, rename)


def expand_quantifiers(
    ast: Formula, universes: Mapping[str, Sequence[str]]
) -> Formula:
    """Replace quantifiers by finite disjunctions/conjunctions over their
    declared universes, instantiating applications of belief families."""

    def expand(node, children):
        node = _with_children(node, children)
        if not isinstance(node, (Exists, Forall)):
            return node
        if node.universe not in universes:
            raise UnboundVariable(f"universe {node.universe!r} is not declared")
        members = list(universes[node.universe])
        if not members:
            raise EmptyUniverse(f"universe {node.universe!r} is empty")
        instances = [_instantiate(node.body, node.var, member) for member in members]
        return reduce(Or if isinstance(node, Exists) else And, instances)

    return _fold(ast, expand)
