"""Fuzzy existential and universal quantification over finite universes.

The confidence of "some point satisfies P" is fully determined by a joint
distribution over the per-point predicates (`exists_exact`); with only
marginal beliefs, and optionally pairwise both-false confidences, it is
bracketed by `exists_bounds`.  "Some x" is the "or" over the universe, the
Frechet "or" of the intervals of the q_pair graph's components (as in
`exact_bounds`' decomposition): [p, p] for a point no pair touches, or_q
for two joined points, else the LP of the "or" (outer over the LP cap).

`forall_bounds` reduces to the existential case through negation.
`exists_truncated` follows a growing chain of explicit joints (the finite
truncations of a countable universe) and `sample_exists` estimates the
expected confidence of finding a witness under a sampling strategy, with a
distribution-free Hoeffding radius.  Its draws map to labels by an indexed
("guide table") inverse-CDF search whose indices are bit-identical to
np.searchsorted's, and it streams in blocks of _SAMPLE_BLOCK tuples,
holding 8 bytes per sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import chain, islice
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Optional
from typing import Sequence, Union

from . import bounds
from ._common import EPS_SIMPLEX, check_belief, check_int, clip01
from .boolfuncs import And, Exists, Forall, Formula, Or, Var, _fold, _with_children
from .bounds import ConfidenceInterval
from .connectives import _add_pair_q, _frechet_or, _or_clamped, _pair_cells, and_q
from .errors import (
    BadCoordinate,
    EmptyUniverse,
    InvalidParameter,
    MarginalMismatch,
    NegativeMass,
    NotNormalized,
    SchemaError,
    UnboundVariable,
    UnsupportedLiftPolicy,
)

if TYPE_CHECKING:
    import numpy as np

    from .joints import JointBooleanDist

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
    the predicate fails at both points, each feasible for its two beliefs.
    Pairs with no common joint table make `exists_bounds` raise InfeasibleSpec.
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
            try:
                a, b = key
                known = a in position and b in position and a != b
            except (TypeError, ValueError):
                known = False
            # A string key would unpack into its characters.
            if isinstance(key, str) or not known:
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
        raise EmptyUniverse("existential quantification needs arity >= 1")
    return clip01(1.0 - float(joint.probs[0]))


def exists_bounds(table: BeliefTable) -> ConfidenceInterval:
    """Bounds on the existential confidence from partial information: the
    exact interval (`exact_bounds` of the n-ary "or") unless a component of
    the q_pair graph has over `LP_MAX_ARITY` points, and then an outer
    bound.  Pairs that admit no joint table raise InfeasibleSpec."""
    if not table.universe:
        raise EmptyUniverse("cannot quantify over an empty universe")
    touched = set(chain.from_iterable(table.q_pair))
    index = {x: k for k, x in enumerate(x for x in table.universe if x in touched)}
    edges = [(index[a], index[b]) for a, b in table.q_pair]
    roots = bounds._union_find(len(index), edges)[0]
    components: dict = {}
    for x, k in index.items():
        components.setdefault(roots[k], ([], []))[0].append(x)
    for pair, q in table.q_pair.items():
        components[roots[index[pair[0]]]][1].append((pair, q))
    ends = [_component_or(*component, table.p) for component in components.values()]
    los = [table.p[x] for x in table.universe if x not in touched]
    lo, hi = _frechet_or(los + [end[0] for end in ends], los + [end[1] for end in ends])
    return ConfidenceInterval(lo, hi)


def _component_or(labels: list, pairs: list, p: Mapping) -> tuple:
    """(lo, hi) of the "or" over a component of the q_pair graph: its labels
    in universe order and its ((a, b), q) pairs.  Over the LP cap, an outer
    bound: the best point or pair below, Hunter's (1976) bound above."""
    marginals = tuple(p[x] for x in labels)
    if len(labels) == 2:
        # BeliefTable has checked and clamped the pair's q already.
        value = _or_clamped(pairs[0][1])
        return value, value
    local = {x: k + 1 for k, x in enumerate(labels)}
    numbered = sorted(((local[a], local[b]), q) for (a, b), q in pairs)
    if len(labels) <= bounds.LP_MAX_ARITY:
        import numpy as np

        # The "or" is true on every assignment but the all-false one.
        cost = np.arange(1 << len(labels)) > 0
        return bounds._lp_bounds(marginals, numbered, cost, None)
    lo = max(max(marginals), *(1.0 - q for _, q in pairs))
    # Hunter: P(or) <= sum p - sum of P(both true) over a spanning forest;
    # Kruskal on the positive weights, heaviest first, finds the best one.
    weighted = [
        ((i, j), _pair_cells(marginals[i - 1], marginals[j - 1], q)[3])
        for (i, j), q in numbered
    ]
    heavy = sorted((w for w in weighted if w[1] > 0.0), key=lambda w: -w[1])
    forest = bounds._union_find(len(labels), [(i - 1, j - 1) for (i, j), _ in heavy])[1]
    hi = math.fsum([*marginals, *(-heavy[k][1] for k in forest)])
    return lo, max(lo, hi)


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
    import numpy as np

    from .joints import marginal

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
    produced by a counter-based generator (Philox) keyed by `seed`, an
    integer in [0, 2**128) (None draws a fresh key), so the tuple at sample
    index k is a pure function of (seed, k) and runs are reproducible.
    Uniforms map to labels by an indexed inverse-CDF search that returns
    exactly the indices of np.searchsorted(cdf, u, side="right"), and
    `sample_exists` draws them in blocks, keeping 8 bytes per sample.
    """

    tuple_length: int
    seed: Optional[int] = 0
    weights: Optional[Mapping] = None
    tuples: Optional[Iterable] = None

    def __post_init__(self):
        length = check_int(self.tuple_length, "tuple_length must be an integer")
        if length < 1:
            raise InvalidParameter("tuple_length must be >= 1")
        object.__setattr__(self, "tuple_length", length)
        seed = self.seed
        if seed is not None:
            what = "seed must be None or an integer in [0, 2**128)"
            seed = check_int(seed, what)
            if not 0 <= seed < 1 << 128:
                raise InvalidParameter(f"{what}, got {seed!r}")
            object.__setattr__(self, "seed", seed)
        if self.weights is not None:
            if self.tuples is not None:
                raise InvalidParameter(
                    "supply either weights or a tuple stream, not both"
                )
            w = {k: float(v) for k, v in dict(self.weights).items()}
            if any(v < 0.0 for v in w.values()):
                raise NegativeMass("weights must be nonnegative")
            if abs(math.fsum(w.values()) - 1.0) > EPS_SIMPLEX:
                raise NotNormalized("weights must sum to 1")
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
            raise InvalidParameter(f"delta must be in (0, 1), got {delta}")
        return math.sqrt(math.log(2.0 / delta) / (2.0 * self.n_samples))


LiftPolicy = Union[str, Callable[[tuple], "JointBooleanDist"]]


#: Rows per block of `sample_exists`.  A block's uniforms, indices and
#: lifted values stay in cache; only the per-sample values span all N.
_SAMPLE_BLOCK = 1 << 13


class _IndexedSearch:
    """Inverse-CDF lookup by indexed search (Chen and Asau 1974; Devroye,
    Non-Uniform Random Variate Generation, 1986, ch. III).

    `self(u)` equals np.searchsorted(cdf, u, side="right") index for index,
    for any u in [0, 1).  `slots` is a power of two >= 2 * len(cdf), so
    u * slots is exact and its integer part b names the slot
    [b/slots, (b+1)/slots) that holds u.  Every index searchsorted can
    return there lies in [lo[b], hi[b]]; starting from lo[b], `passes`
    rounds of branchless bisection make the same `cdf[j] <= u` comparisons
    over that window, against +inf past the end of cdf.  That holds too for
    a cumsum that overshoots 1.0 before its last entry is set to 1.0: every
    entry from the overshoot on exceeds u.
    """

    def __init__(self, cdf: np.ndarray):
        import numpy as np

        self.slots = 1 << (2 * cdf.size - 1).bit_length()
        edges = np.arange(self.slots + 1) / self.slots
        self.lo = np.searchsorted(cdf, edges[:-1], side="right")
        hi = np.searchsorted(cdf, edges[1:], side="left")
        self.passes = int((hi - self.lo).max()).bit_length()
        self.padded = np.concatenate([cdf, np.full(1 << self.passes, np.inf)])

    def __call__(self, u: np.ndarray) -> np.ndarray:
        import numpy as np

        idx = self.lo[(u * self.slots).astype(np.intp)]
        for bit in reversed(range(self.passes)):
            step = 1 << bit
            # Reading cdf[idx + step - 1] as padded[step - 1:][idx].
            hit = np.less_equal(self.padded[step - 1 :].take(idx), u)
            idx += hit * step if bit else hit
        return idx


def _drawn_blocks(table: BeliefTable, strategy: SamplingStrategy, n_samples: int):
    """Index tuples drawn i.i.d. from the strategy's weights, as a lazy
    sequence of blocks of _SAMPLE_BLOCK rows; the weights are checked now."""
    import numpy as np

    labels = table.universe
    if strategy.weights is None:
        weights = np.full(len(labels), 1.0 / len(labels))
    else:
        unknown = set(strategy.weights) - set(labels)
        if unknown:
            raise BadCoordinate(
                f"weights mention labels outside the universe: {unknown}"
            )
        weights = np.array([strategy.weights.get(x, 0.0) for x in labels])
    cdf = np.cumsum(weights)
    cdf[-1] = 1.0
    search = _IndexedSearch(cdf)
    # Philox continues its stream across calls: the blocks draw the same
    # uniforms as one (n_samples, tuple_length) call would.
    rng = np.random.Generator(np.random.Philox(key=strategy.seed))
    length = strategy.tuple_length

    def draw(rows: int) -> np.ndarray:
        try:
            return rng.random((rows, length))
        except (MemoryError, ValueError):
            raise InvalidParameter(
                f"tuple_length = {length} is too large: its {8 * rows * length} "
                "bytes of uniforms per block cannot be allocated"
            ) from None

    return (
        search(draw(min(_SAMPLE_BLOCK, n_samples - start)))
        for start in range(0, n_samples, _SAMPLE_BLOCK)
    )


def _score_stream(
    table: BeliefTable,
    strategy: SamplingStrategy,
    n_samples: int,
    lift: LiftPolicy,
    values: np.ndarray,
) -> None:
    """Read the caller's tuple stream and score it into `values`, block by
    block.  The first tuple of the wrong length (an element with no length
    among them) and the first label outside the universe (an unhashable
    one among them) are noted as they come, but nothing is raised until the
    stream has run out or yielded n_samples tuples; then a short stream is
    reported first, a bad length next, an unknown label after that, and an
    error of the lift (an unusable policy, or one raised while scoring)
    last.  Scoring stops at the first problem; reading and checking do
    not."""
    labels = table.universe
    length = strategy.tuple_length
    position = {x: i for i, x in enumerate(labels)}
    bad_tuple = bad_label = lift_error = None
    try:
        score = _lift_scorer(table, length, lift)
    except UnsupportedLiftPolicy as exc:
        score, lift_error = None, exc
    stream = iter(strategy.tuples)
    read = 0
    while read < n_samples:
        block = list(islice(stream, min(_SAMPLE_BLOCK, n_samples - read)))
        if not block:
            break
        start, read = read, read + len(block)
        if bad_tuple is None:
            bad_tuple = next((t for t in block if _length(t) != length), None)
        if bad_tuple is None and bad_label is None:
            bad_label, error = _score_block(
                block, position, length, score, values[start:read]
            )
            if error is not None:
                score, lift_error = None, error

    if read < n_samples:
        raise InvalidParameter(f"tuple stream yielded {read} tuples, need {n_samples}")
    if bad_tuple is not None:
        raise InvalidParameter(f"tuple {bad_tuple!r} does not have length {length}")
    if bad_label is not None:
        raise BadCoordinate(
            f"tuple stream names {bad_label[0]!r}, which is not in the universe"
        )
    if lift_error is not None:
        raise lift_error


def _length(item) -> Optional[int]:
    """len(item), or None for a stream element that has no length."""
    try:
        return len(item)
    except TypeError:
        return None


def _known(label, position: dict) -> bool:
    try:
        return label in position
    except TypeError:  # unhashable
        return False


def _score_block(block: list, position: dict, length: int, score, out: np.ndarray):
    """Index one block of the stream and, unless `score` is None, score it
    into `out`.  Returns (a 1-tuple of its first label outside the universe,
    unhashable ones included, the error scoring raised), each None when
    there is none; the block's index array is freed on return."""
    import numpy as np

    flat = map(position.__getitem__, chain.from_iterable(block))
    try:
        indices = np.fromiter(flat, dtype=np.intp, count=len(block) * length)
    except (KeyError, TypeError):
        labels = chain.from_iterable(block)
        return next((x,) for x in labels if not _known(x, position)), None
    if score is not None:
        try:
            score(indices.reshape(-1, length), out)
        except Exception as exc:  # held until the stream is known good
            return None, exc
    return None, None


def _lift_scorer(table: BeliefTable, tuple_length: int, lift: LiftPolicy):
    """score(block, out): the witness confidence of each index tuple of a
    block, written to out."""
    import numpy as np

    labels = table.universe
    p_by_index = np.array([table.p[x] for x in labels])
    if lift == "independent":
        miss = 1.0 - p_by_index

        def score(block, out):
            # Column by column, left to right: the order of np.prod(axis=1).
            np.copyto(out, miss[block[:, 0]])
            for column in range(1, tuple_length):
                out *= miss[block[:, column]]
            np.subtract(1.0, out, out=out)

    elif lift == "pairwise":
        if tuple_length != 2:
            raise UnsupportedLiftPolicy(
                "pairwise lifts are defined for tuples of length 2 only"
            )
        # Pair (i, j) has key i * k + j, in both orders: the same predicate
        # twice is the disjunction itself (p); a q_pair entry gives 1 - q.
        # Sorted keys take memory linear in the entries, where a k-by-k
        # table would grow with the square of the universe.
        k = len(labels)
        position = {x: i for i, x in enumerate(labels)}
        keys = [i * k + i for i in range(k)]
        scores = p_by_index.tolist()
        for (a, b), q in table.q_pair.items():
            i, j = position[a], position[b]
            keys += [i * k + j, j * k + i]
            scores += [1.0 - q] * 2
        order = np.argsort(keys)
        keys, scores = np.array(keys)[order], np.array(scores)[order]

        def score(block, out):
            first, second = block[:, 0], block[:, 1]
            wanted = first * k + second
            at = np.searchsorted(keys, wanted)
            np.minimum(at, keys.size - 1, out=at)
            known = keys[at] == wanted
            if not known.all():
                row = int(np.argmin(known))
                a, b = labels[first[row]], labels[second[row]]
                raise UnsupportedLiftPolicy(f"no q_pair entry for pair ({a}, {b})")
            np.take(scores, at, out=out)

    elif callable(lift):

        def score(block, out):
            for row, tup in enumerate(block.tolist()):
                out[row] = exists_exact(lift(tuple(labels[i] for i in tup)))

    else:
        raise UnsupportedLiftPolicy(f"unknown lift policy {lift!r}")
    return score


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

    Tuples are drawn or read, lifted and scored in blocks of _SAMPLE_BLOCK
    rows, so each sample holds 8 bytes, its score; a count whose scores or
    a tuple_length whose block cannot be allocated raises InvalidParameter.
    A tuple stream is checked as read; its errors are raised once it has
    run out or yielded n_samples tuples: a short stream first, then a tuple
    of the wrong length (or an element with no length), then a label
    outside the universe (an unhashable one included), then a lift error.
    """
    import numpy as np

    n_samples = check_int(n_samples, "n_samples must be an integer")
    if n_samples < 1:
        raise InvalidParameter("n_samples must be >= 1")
    if not table.universe:
        raise EmptyUniverse("cannot sample from an empty universe")
    if strategy.tuples is None:
        blocks = _drawn_blocks(table, strategy, n_samples)
    try:
        values = np.empty(n_samples)
    except (MemoryError, ValueError):
        raise InvalidParameter(
            f"n_samples = {n_samples} is too large: its {8 * n_samples} bytes "
            "of per-sample values cannot be allocated"
        ) from None
    if strategy.tuples is None:
        score = _lift_scorer(table, strategy.tuple_length, lift)
        for start, block in zip(range(0, n_samples, _SAMPLE_BLOCK), blocks):
            score(block, values[start : start + len(block)])
    else:
        _score_stream(table, strategy, n_samples, lift, values)

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
