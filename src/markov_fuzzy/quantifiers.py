"""Fuzzy existential and universal quantification over finite universes.

The confidence of "some point satisfies P" is fully determined by a joint
distribution over the per-point predicates (`exists_exact`); with only
marginal beliefs, and optionally pairwise both-false confidences, it is
bracketed by `exists_bounds`, the "or" over the universe, and
`forall_bounds`, the "and", both bounded by the engine of `exact_bounds`.
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
from functools import reduce
from itertools import chain, islice
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Optional
from typing import Sequence, Union

from . import bounds
from ._common import EPS_SIMPLEX, Frozen, FrozenValue, check_belief, check_int, clip01
from ._common import to_float
from .boolfuncs import _ALL, _ANY, _LEAF, And, Exists, Forall, Formula, Or, Var, _fold
from .boolfuncs import _with_children
from .bounds import ConfidenceInterval
from .connectives import _add_pair_q, _frechet_and, _frechet_or
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
from .joints import JointBooleanDist, marginal

if TYPE_CHECKING:
    import numpy as np

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


class BeliefTable(Frozen):
    """Per-point beliefs over a finite universe, optionally with pairwise q.

    `q_pair` maps unordered pairs of distinct labels to the confidence that
    the predicate fails at both points, each feasible for its two beliefs.
    Pairs with no common joint table make `exists_bounds` raise InfeasibleSpec
    where it is exact; its outer bound checks no joint.
    """

    _fields = ("universe", "p", "q_pair")

    def __init__(self, universe: tuple, p: Mapping, q_pair: Optional[Mapping] = None):
        labels = tuple(universe)
        if len(set(labels)) != len(labels):
            raise SchemaError("universe labels must be distinct")
        beliefs = dict(p)
        if set(beliefs) != set(labels):
            raise SchemaError(
                "belief map must cover exactly the universe labels"
            )
        beliefs = {x: check_belief(v, f"p({x})") for x, v in beliefs.items()}
        position = {x: i for i, x in enumerate(labels)}

        normalized: dict = {}
        for key, value in dict(q_pair or {}).items():
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
        self.__dict__.update(universe=labels, p=beliefs, q_pair=normalized)

    def q(self, a, b) -> Optional[float]:
        """Pairwise both-false confidence, if supplied (symmetric lookup)."""
        return self.q_pair.get((a, b), self.q_pair.get((b, a)))


def exists_exact(joint: JointBooleanDist) -> float:
    """Confidence that at least one predicate holds: 1 - P(all false)."""
    if joint.arity < 1:
        raise EmptyUniverse("existential quantification needs arity >= 1")
    return clip01(1.0 - float(joint.probs[0]))


def exists_bounds(table: BeliefTable) -> ConfidenceInterval:
    """Bounds on the existential confidence: the "or" over the universe.
    Exact unless a component of the q_pair graph that has a cycle has over
    `LP_MAX_ARITY` points, which takes the outer bound of `_literal_bounds`
    and checks no joint.  Elsewhere, pairs with none raise InfeasibleSpec."""
    return _quantified(table, _ANY)


def forall_bounds(table: BeliefTable) -> ConfidenceInterval:
    """Bounds on the universal confidence: the "and" over the universe,
    exact where `exists_bounds` is."""
    return _quantified(table, _ALL)


def _quantified(table: BeliefTable, kind: int) -> ConfidenceInterval:
    """The n-ary Frechet rule over the points: a point no pair names is its
    own marginal, and each component of the q_pair graph is one part."""
    if not table.universe:
        raise EmptyUniverse("cannot quantify over an empty universe")
    los = [table.p[x] for x in table.universe]
    frechet = _frechet_and if kind == _ALL else _frechet_or
    if not table.q_pair:
        return ConfidenceInterval(*frechet(los, los))
    position = {x: i for i, x in enumerate(table.universe)}
    pairs = sorted(((position[a], position[b]), q) for (a, b), q in table.q_pair.items())
    root = bounds._union_find(len(position), [pair for pair, _ in pairs])[0]
    components: dict = {}  # the pairs of each component, in order of first pair
    for pair in pairs:
        components.setdefault(root[pair[0][0]], []).append(pair)
    his = los.copy()
    for inside in components.values():
        coords = sorted({i for pair, _ in inside for i in pair})
        number = {i: k + 1 for k, i in enumerate(coords)}
        part = [((number[i], number[j]), q) for (i, j), q in inside]
        ps, local = tuple(los[i] for i in coords), range(len(coords))
        # No masks: the part rules read none, and masks 1 << t would take
        # memory quadratic in the size of a component.
        node = [kind, None, [[_LEAF, None, t] for t in local]]
        if len(coords) > bounds.LP_MAX_ARITY:
            ends = bounds._literal_bounds(ps, part, node, local)[:2]
        else:
            ends = bounds._part_bounds(ps, part, node, local, None)
        for i in coords[1:]:
            los[i] = his[i] = None
        los[coords[0]], his[coords[0]] = ends
    lo, hi = frechet(
        [lo for lo in los if lo is not None], [hi for hi in his if hi is not None]
    )
    return ConfidenceInterval(lo, hi)


def exists_truncated(
    joints: Iterable[JointBooleanDist],
) -> Iterator[float]:
    """Existential confidences along a chain of growing explicit joints.

    Each level must marginalize onto the previous one (checked entrywise to
    TRUNCATION_TOL); the emitted sequence is then non-decreasing up to
    1e-12, and any larger drop is reported as an inconsistency.
    """
    import numpy as np

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


class SamplingStrategy(Frozen):
    """How to draw universe-point tuples.

    Either i.i.d. draws over the finite universe (`weights`; None means
    uniform) or an explicit caller-supplied stream of tuples.  The weights
    keep a stricter rule than `make_joint`'s: no entry below zero and no
    division by their sum, which would move the draws of every seed.
    Draws are produced by a counter-based generator (Philox) keyed by
    `seed`, an integer in [0, 2**128) (None draws a fresh key), so the
    tuple at sample index k is a pure function of (seed, k) and runs are
    reproducible.
    Uniforms map to labels by an indexed inverse-CDF search that returns
    exactly the indices of np.searchsorted(cdf, u, side="right"), and
    `sample_exists` draws them in blocks, keeping 8 bytes per sample.
    """

    _fields = ("tuple_length", "seed", "weights", "tuples")

    def __init__(
        self,
        tuple_length: int,
        seed: Optional[int] = 0,
        weights: Optional[Mapping] = None,
        tuples: Optional[Iterable] = None,
    ):
        length = check_int(tuple_length, "tuple_length must be an integer")
        if length < 1:
            raise InvalidParameter("tuple_length must be >= 1")
        if seed is not None:
            what = "seed must be None or an integer in [0, 2**128)"
            seed = check_int(seed, what)
            if not 0 <= seed < 1 << 128:
                raise InvalidParameter(f"{what}, got {seed!r}")
        if weights is not None:
            if tuples is not None:
                raise InvalidParameter(
                    "supply either weights or a tuple stream, not both"
                )
            w = {k: to_float(v, f"weight {k!r}") for k, v in dict(weights).items()}
            # Written as "not (ok)" so that NaN fails the check too.
            if not all(0.0 <= v < math.inf for v in w.values()):
                raise NegativeMass("weights must be finite and nonnegative")
            if abs(math.fsum(w.values()) - 1.0) > EPS_SIMPLEX:
                raise NotNormalized("weights must sum to 1")
            weights = w
        self.__dict__.update(
            tuple_length=length, seed=seed, weights=weights, tuples=tuples
        )


class SampleEstimate(FrozenValue):
    """Mean witness confidence over sampled tuples."""

    _fields = ("mean", "n_samples", "seed")

    def __init__(self, mean: float, n_samples: int, seed: Optional[int]):
        self.__dict__.update(mean=mean, n_samples=n_samples, seed=seed)

    def hoeffding_radius(self, delta: float) -> float:
        """Distribution-free confidence half-width sqrt(ln(2/d) / (2N))."""
        delta = to_float(delta, "delta")
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


def _streamed_blocks(table: BeliefTable, strategy: SamplingStrategy, n_samples: int):
    """Index tuples read from the caller's stream, in blocks of _SAMPLE_BLOCK
    rows.  Each block is checked as it is read, and its first fault raises:
    a tuple of the wrong length (an element with no length among them), then
    a label outside the universe (an unhashable one among them), then a
    stream that ran out before n_samples tuples."""
    import numpy as np

    length = strategy.tuple_length
    position = {x: i for i, x in enumerate(table.universe)}
    stream = iter(strategy.tuples)
    for start in range(0, n_samples, _SAMPLE_BLOCK):
        rows = min(_SAMPLE_BLOCK, n_samples - start)
        block = list(islice(stream, rows))
        count = len(block)
        for item in block:
            if _length(item) != length:
                raise InvalidParameter(f"tuple {item!r} does not have length {length}")
        try:
            # The index array replaces the list: one block is held at a time.
            block = np.fromiter(
                map(position.__getitem__, chain.from_iterable(block)),
                dtype=np.intp,
                count=count * length,
            )
        except (KeyError, TypeError):
            label = next(x for x in chain.from_iterable(block) if not _known(x, position))
            raise BadCoordinate(
                f"tuple stream names {label!r}, which is not in the universe"
            ) from None
        if count < rows:
            raise InvalidParameter(
                f"tuple stream yielded {start + count} tuples, need {n_samples}"
            )
        yield block.reshape(rows, length)


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
    An unknown or unusable lift policy raises before any tuple is read.  A
    tuple stream is then read and checked block by block, and the first
    fault raises at once: within a block, a tuple of the wrong length (or an
    element with no length) first, then a label outside the universe (an
    unhashable one included), then a stream that ran out before n_samples
    tuples; an error raised while scoring a block stops reading there.
    """
    import numpy as np

    n_samples = check_int(n_samples, "n_samples must be an integer")
    if n_samples < 1:
        raise InvalidParameter("n_samples must be >= 1")
    if not table.universe:
        raise EmptyUniverse("cannot sample from an empty universe")
    if strategy.tuples is None:
        blocks = _drawn_blocks(table, strategy, n_samples)
    else:
        blocks = _streamed_blocks(table, strategy, n_samples)
    try:
        values = np.empty(n_samples)
    except (MemoryError, ValueError):
        raise InvalidParameter(
            f"n_samples = {n_samples} is too large: its {8 * n_samples} bytes "
            "of per-sample values cannot be allocated"
        ) from None
    score = _lift_scorer(table, strategy.tuple_length, lift)
    start = 0
    for block in blocks:
        score(block, values[start : start + len(block)])
        start += len(block)
        del block  # freed before the next block is read

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
