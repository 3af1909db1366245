"""Seeded inputs and the closed forms the benchmark checks outputs against.

Nothing here imports markov_fuzzy: every expected value is computed from
the paper's closed forms, or from the seeded table that generated an
input, and never by the code under test.

Formula trees are tuples: ("var", i) names coordinate i (1-based, the
text name is f"v{i}"), ("not", t), and (op, left, right) with op one of
"and", "or", "implies".
"""

from __future__ import annotations

import math

import numpy as np

BINARY = ("and", "or", "implies")
_SYMBOL = {"and": "&", "or": "|", "implies": "->"}


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------


def read_once(rng, coords) -> tuple:
    """Random read-once tree whose leaves are `coords` in left-to-right order."""
    if len(coords) == 1:
        node = ("var", int(coords[0]))
    else:
        cut = int(rng.integers(1, len(coords)))
        op = BINARY[int(rng.integers(3))]
        node = (op, read_once(rng, coords[:cut]), read_once(rng, coords[cut:]))
    if rng.random() < 0.2:
        node = ("not", node)
    return node


def chain(op: str, n: int) -> tuple:
    """v1 op v2 op ... op vn as a left-leaning tree."""
    node = ("var", 1)
    for i in range(2, n + 1):
        node = (op, node, ("var", i))
    return node


def text(node, names=None) -> str:
    """Fully parenthesized formula text; `names` maps coordinate -> name."""
    kind = node[0]
    if kind == "var":
        return names[node[1]] if names else f"v{node[1]}"
    if kind == "not":
        return "!" + _atom(node[1], names)
    return f"{_atom(node[1], names)} {_SYMBOL[kind]} {_atom(node[2], names)}"


def _atom(node, names) -> str:
    inner = text(node, names)
    return inner if node[0] in ("var", "not") else f"({inner})"


def prob_indep(node, ps) -> float:
    """Confidence of a read-once formula under independence (recursive form)."""
    kind = node[0]
    if kind == "var":
        return ps[node[1] - 1]
    if kind == "not":
        return 1.0 - prob_indep(node[1], ps)
    a, b = prob_indep(node[1], ps), prob_indep(node[2], ps)
    if kind == "and":
        return a * b
    if kind == "or":
        return 1.0 - (1.0 - a) * (1.0 - b)
    return 1.0 - a * (1.0 - b)


def truth(node, index: int) -> bool:
    """Formula value at one packed assignment (bit i-1 is coordinate i)."""
    kind = node[0]
    if kind == "var":
        return bool((index >> (node[1] - 1)) & 1)
    if kind == "not":
        return not truth(node[1], index)
    a, b = truth(node[1], index), truth(node[2], index)
    if kind == "and":
        return a and b
    if kind == "or":
        return a or b
    return (not a) or b


def truth_column(node, n: int) -> np.ndarray:
    """Formula value at every assignment of B^n (own evaluator, n <= 12)."""
    idx = np.arange(1 << n)

    def walk(t):
        kind = t[0]
        if kind == "var":
            return ((idx >> (t[1] - 1)) & 1).astype(bool)
        if kind == "not":
            return ~walk(t[1])
        a, b = walk(t[1]), walk(t[2])
        if kind == "and":
            return a & b
        if kind == "or":
            return a | b
        return ~a | b

    return walk(node)


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


def random_table(rng, n: int) -> np.ndarray:
    """Seeded joint table over B^n (flat Dirichlet)."""
    return rng.dirichlet(np.ones(1 << n))


def table_marginals(table: np.ndarray, n: int) -> list[float]:
    idx = np.arange(1 << n)
    return [math.fsum(table[((idx >> i) & 1) == 1]) for i in range(n)]


def table_both_false(table: np.ndarray, i: int, j: int) -> float:
    """P(coordinates i and j are both false), 1-based."""
    idx = np.arange(table.size)
    mask = (((idx >> (i - 1)) & 1) == 0) & (((idx >> (j - 1)) & 1) == 0)
    return math.fsum(table[mask])


def independent_table(ps) -> np.ndarray:
    """Product table built coordinate by coordinate with a bit mask."""
    idx = np.arange(1 << len(ps))
    table = np.ones(1 << len(ps))
    for i, p in enumerate(ps):
        table *= np.where((idx >> i) & 1, p, 1.0 - p)
    return table


def independent_entry(ps, index: int) -> float:
    out = 1.0
    for i, p in enumerate(ps):
        out *= p if (index >> i) & 1 else 1.0 - p
    return out


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def classic_bounds(kind: str, p1: float, p2: float) -> tuple[float, float]:
    """Marginals-only bounds of a binary connective."""
    if kind == "and":
        return max(0.0, p1 + p2 - 1.0), min(p1, p2)
    if kind == "or":
        return max(p1, p2), min(1.0, p1 + p2)
    return max(p2, 1.0 - p1), min(1.0, 1.0 - p1 + p2)


def frechet(kind: str, ps) -> tuple[float, float]:
    """Frechet bounds of an n-ary and/or from marginals only."""
    if kind == "and":
        return max(0.0, math.fsum(ps) - (len(ps) - 1)), min(ps)
    return max(ps), min(1.0, math.fsum(ps))


def exists_interval(ps) -> tuple[float, float]:
    return max(ps), min(1.0, math.fsum(ps))


def forall_interval(ps) -> tuple[float, float]:
    return max(0.0, 1.0 - math.fsum(1.0 - p for p in ps)), min(ps)


def exists_indep(ps) -> float:
    return 1.0 - math.prod(1.0 - p for p in ps)


def uniform_sample_exists(ps, length: int) -> float:
    """Expected witness confidence for i.i.d. uniform tuples, independent lift."""
    return 1.0 - (math.fsum(1.0 - p for p in ps) / len(ps)) ** length


def hoeffding(n_samples: int, delta: float) -> float:
    return math.sqrt(math.log(2.0 / delta) / (2.0 * n_samples))


def q_connectives(p1: float, p2: float, q: float) -> dict:
    """and/or/implies confidences of a pair with both-false confidence q."""
    return {"and": p1 + p2 + q - 1.0, "or": 1.0 - q, "implies": p2 + q}


def q_range(p1: float, p2: float) -> tuple[float, float, float]:
    return max(0.0, 1.0 - p1 - p2), (1.0 - p1) * (1.0 - p2), 1.0 - max(p1, p2)


def near(a: float, b: float, tol: float) -> bool:
    return abs(float(a) - float(b)) <= tol
