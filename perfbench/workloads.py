"""The three workloads: seeded rounds of operations, each with its output check.

An operation is `Op(kind, n, run, check)`: `run(api)` is the timed call
into the package and `check(result)` compares its output with an
independent closed form (see gen.py), returning None or a message.

Each workload is a stream of rounds.  A round has a fixed composition
(the same count of each kind and arity on every seed), in a seeded
order, and its inputs are generated before it starts.  A run measures a
fixed number of whole rounds (see run.py), so its operation mix, and the
operation class at each latency rank, are the same on every commit.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable

import numpy as np

import gen

# Tolerances of the checks: LP optima are compared with closed forms to
# the solver's feasibility tolerance, direct arithmetic much tighter.
LP_TOL = 1e-6
ARITH_TOL = 1e-9
SCALAR_TOL = 1e-12
SAMPLE_DELTA = 1e-9


@dataclass
class Op:
    kind: str
    n: int
    run: Callable
    check: Callable


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _some_pairs(rng, n: int) -> list:
    """Between 1 and n distinct coordinate pairs of 1..n, in ascending order."""
    pairs = list(combinations(range(1, n + 1), 2))
    count = int(rng.integers(1, min(n, len(pairs)) + 1))
    return [pairs[c] for c in sorted(rng.choice(len(pairs), size=count, replace=False))]


def _interval_check(kind, got, lo, hi, tol):
    if gen.near(got.lo, lo, tol) and gen.near(got.hi, hi, tol):
        return None
    return f"{kind}: got [{got.lo!r}, {got.hi!r}], expected [{lo!r}, {hi!r}]"


def _contains_check(kind, got, value, tol):
    if got.lo - tol <= value <= got.hi + tol:
        return None
    return f"{kind}: {value!r} outside [{got.lo!r}, {got.hi!r}]"


# ---------------------------------------------------------------------------
# bounds_mix
# ---------------------------------------------------------------------------

# The mix below is an assumption, not measured usage: no document of the
# project records how the package is called.  Each count follows a stated
# rule rather than a fit to where the latency percentiles fall.

#: Bounds queries per round by arity: round(40 / n), i.e. frequency
#: proportional to 1/n, a simple law for "weighted toward small n".
BOUNDS_ARITIES = {n: round(40 / n) for n in range(2, 13)}
#: One belief-table query per universe size 2..10; the kind cycles through
#: exists/forall, with and without q_pair.
BELIEF_SIZES = tuple(range(2, 11))
#: Two q-sweeps per binary connective.
SWEEPS_PER_ROUND = 6
SWEEP_POINTS = 21
#: One grid-oracle cross-check per n in {2, 3} ("rarely": 2 of 101 operations).
BRUTE_ARITIES = (2, 3)
BRUTE_STEP = 0.05

TINY_BOUNDS_ARITIES = {2: 4, 3: 3, 4: 2, 5: 1}
TINY_BELIEF_SIZES = (2, 3, 4)


def _bounds_query(rng, n: int, k: int) -> Op:
    """parse_model + parse_formula + formula_variables + compile + exact_bounds."""
    spec_kind = "independent" if k % 10 == 9 else "pairwise" if k % 3 == 1 else "marginals"
    if n == 2:
        formula_kind = ("and", "or", "implies", "read_once")[k % 4]
    else:
        formula_kind = ("and", "read_once", "or", "read_once")[k % 4]
    table = gen.random_table(rng, n)
    ps = gen.table_marginals(table, n)
    if formula_kind == "read_once":
        tree = gen.read_once(rng, list(range(1, n + 1)))
    else:
        tree = gen.chain(formula_kind, n)
    doc = {"marginals": ps}
    if spec_kind == "pairwise":
        doc["pairwise"] = {
            f"{i},{j}": gen.table_both_false(table, i, j) for i, j in _some_pairs(rng, n)
        }
    elif spec_kind == "independent":
        doc["independent"] = True
    spec_text = json.dumps(doc)
    formula = gen.text(tree)

    def run(api):
        model = api.parse_model(spec_text)
        ast = api.parse_formula(formula)
        names = api.formula_variables(ast)
        return api.exact_bounds(model, api.compile_formula(ast, names))

    label = f"bounds n={n} {spec_kind} {formula_kind}"
    if spec_kind == "independent":
        value = gen.prob_indep(tree, ps)
        check = lambda got: _interval_check(label, got, value, value, ARITH_TOL)  # noqa: E731
    elif spec_kind == "marginals" and formula_kind != "read_once":
        if formula_kind == "implies":
            lo, hi = gen.classic_bounds("implies", *ps)
        else:
            lo, hi = gen.frechet(formula_kind, ps)
        check = lambda got: _interval_check(label, got, lo, hi, LP_TOL)  # noqa: E731
    else:
        value = math.fsum(table[gen.truth_column(tree, n)])
        check = lambda got: _contains_check(label, got, value, LP_TOL)  # noqa: E731
    return Op("bounds", n, run, check)


def _belief_query(rng, size: int, k: int) -> Op:
    """parse_model of a belief table, then exists_bounds or forall_bounds."""
    labels = [f"x{i}" for i in range(1, size + 1)]
    with_q = k % 2 == 1
    universal = k % 4 >= 2
    doc = {"universe": labels}
    if with_q:
        table = gen.random_table(rng, size)
        ps = gen.table_marginals(table, size)
        doc["q_pair"] = {
            f"x{i},x{j}": gen.table_both_false(table, i, j) for i, j in _some_pairs(rng, size)
        }
        value = float(table[-1]) if universal else 1.0 - float(table[0])
    else:
        ps = rng.uniform(0.02, 0.98, size).tolist()
    doc["p"] = dict(zip(labels, ps))
    text = json.dumps(doc)

    def run(api):
        model = api.parse_model(text)
        return api.forall_bounds(model) if universal else api.exists_bounds(model)

    label = f"{'forall' if universal else 'exists'}_bounds u={size} q={with_q}"
    if with_q:
        check = lambda got: _contains_check(label, got, value, SCALAR_TOL)  # noqa: E731
    else:
        lo, hi = gen.forall_interval(ps) if universal else gen.exists_interval(ps)
        check = lambda got: _interval_check(label, got, lo, hi, SCALAR_TOL)  # noqa: E731
    return Op("belief", size, run, check)


def _q_sweep(rng, gates, k: int) -> Op:
    """q_bounds, the three q connectives and pair_from_pq + pushforward on a grid."""
    p1, p2 = rng.uniform(0.05, 0.95, 2).tolist()
    q_min, q_indep, q_max = gen.q_range(p1, p2)
    qs = np.linspace(q_min, q_max, SWEEP_POINTS).tolist()
    kind = gen.BINARY[k % 3]
    gate = gates[kind]

    def run(api):
        rows = []
        for q in qs:
            pushed = api.pushforward(api.pair_from_pq(p1, p2, q), gate)
            rows.append(
                (
                    api.and_q(p1, p2, q),
                    api.or_q(p1, p2, q),
                    api.implies_q(p1, p2, q),
                    float(pushed.probs[1]),
                )
            )
        return tuple(api.q_bounds(p1, p2)), rows

    def check(got):
        bounds, rows = got
        if not all(gen.near(a, b, SCALAR_TOL) for a, b in zip(bounds, (q_min, q_indep, q_max))):
            return f"q_bounds({p1!r}, {p2!r}) = {bounds}"
        for q, row in zip(qs, rows):
            want = gen.q_connectives(p1, p2, q)
            expected = (want["and"], want["or"], want["implies"], want[kind])
            if not all(gen.near(a, b, SCALAR_TOL) for a, b in zip(row, expected)):
                return f"q sweep ({p1!r}, {p2!r}, q={q!r}): {row} != {expected}"
        return None

    return Op("sweep", 2, run, check)


def _brute_force(rng, n: int, k: int) -> Op:
    """Grid-oracle cross-check of an and/or chain at n <= 3, marginals only."""
    kind = ("and", "or")[k % 2]
    ps = rng.uniform(0.1, 0.9, n).tolist()
    spec_text = json.dumps({"marginals": ps})
    formula = gen.text(gen.chain(kind, n))
    lo, hi = gen.frechet(kind, ps)

    def run(api):
        model = api.parse_model(spec_text)
        ast = api.parse_formula(formula)
        f = api.compile_formula(ast, api.formula_variables(ast))
        return api.brute_force_bounds(model, f, BRUTE_STEP)

    label = f"brute_force_bounds n={n} {kind}"
    return Op("brute", n, run, lambda got: _interval_check(label, got, lo, hi, n * BRUTE_STEP))


class BoundsMix:
    def __init__(self, seed: int, tiny: bool, mf):
        self.seed = seed
        self.arities = TINY_BOUNDS_ARITIES if tiny else BOUNDS_ARITIES
        self.sizes = TINY_BELIEF_SIZES if tiny else BELIEF_SIZES
        self.sweeps = 1 if tiny else SWEEPS_PER_ROUND
        self.gates = {
            "and": mf.and_function(),
            "or": mf.or_function(),
            "implies": mf.implies_function(),
        }

    def round(self, r: int) -> list:
        rng = _rng(self.seed, r)
        ops = []
        for n, count in self.arities.items():
            ops += [_bounds_query(rng, n, k) for k in range(count)]
        ops += [_belief_query(rng, size, k) for k, size in enumerate(self.sizes)]
        ops += [_q_sweep(rng, self.gates, k) for k in range(self.sweeps)]
        ops += [_brute_force(rng, n, k) for k, n in enumerate(BRUTE_ARITIES)]
        rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# dense_kernels
# ---------------------------------------------------------------------------

#: Operations per round by table arity: the frequency halves with each step
#: of two in n (8 : 4 : 2 : 1), a simple law for "weighted toward the
#: smaller sizes".  An assumption, like the bounds_mix counts.
DENSE_ARITIES = {16: 8, 18: 4, 20: 2, 22: 1}
TINY_DENSE_ARITIES = {8: 2, 10: 1, 12: 1}
#: parse_joint reads JSON text only up to this arity (a 2**18 table is
#: about 5 MB of text); larger tables go through make_joint.
JSON_MAX_ARITY = 18
DENSE_SAMPLES = 100_000
TUPLE_LENGTH = 3
CHECKED_ENTRIES = 16


def _dense_op(rng, n: int, k: int, samples: int) -> Op:
    """independent_product, make_joint/parse_joint, marginal, compile_formula,
    pushforward, exists_exact, exists_truncated and sample_exists at arity n."""
    ps = rng.uniform(0.05, 0.95, n).tolist()
    tree = gen.read_once(rng, (rng.permutation(n) + 1).tolist())
    formula = gen.text(tree)
    ordering = [f"v{i}" for i in range(1, n + 1)]
    coords = (rng.choice(n, size=int(rng.integers(1, 5)), replace=False) + 1).tolist()
    probe = rng.integers(0, 1 << n, CHECKED_ENTRIES)
    prefixes = (n // 4, n // 2)
    sample_seed = int(rng.integers(1 << 31))
    use_json = n <= JSON_MAX_ARITY and k % 2 == 1
    joint_text = (
        json.dumps({"arity": n, "probs": gen.independent_table(ps).tolist()})
        if use_json
        else None
    )

    # Table entries are read at a few probe indices inside the operation so
    # that each 2**n table can be freed as the pipeline moves on.
    def run(api):
        out = {}
        product = api.independent_product(ps)
        out["product"] = product.probs[probe].copy()
        joint = api.parse_joint(joint_text) if use_json else api.make_joint(n, product.probs)
        del product
        out["joint"] = joint.probs[probe].copy()
        out["marginal"] = api.marginal(joint, coords).probs.copy()
        f = api.compile_formula(api.parse_formula(formula), ordering)
        out["table"] = (f.arity_in, f.arity_out, f.table[probe].copy())
        out["pushed"] = api.pushforward(joint, f).probs.copy()
        del f
        out["exists"] = api.exists_exact(joint)
        levels = [api.independent_product(ps[:m]) for m in prefixes] + [joint]
        out["truncated"] = api.exists_truncated(levels)
        del levels, joint
        beliefs = api.BeliefTable(tuple(ordering), dict(zip(ordering, ps)))
        strategy = api.SamplingStrategy(TUPLE_LENGTH, seed=sample_seed)
        estimate = api.sample_exists(beliefs, strategy, samples)
        out["sample"] = (estimate.mean, estimate.n_samples)
        return out

    def check(got):
        label = f"dense n={n}"
        for key in ("product", "joint"):
            for index, value in zip(probe.tolist(), got[key].tolist()):
                want = gen.independent_entry(ps, index)
                if abs(value - want) > SCALAR_TOL * want:
                    return f"{label} {key}[{index}] = {value!r}, expected {want!r}"
        want = gen.independent_table([ps[c - 1] for c in coords])
        if got["marginal"].shape != want.shape or np.abs(got["marginal"] - want).max() > ARITH_TOL:
            return f"{label} marginal onto {coords}: {got['marginal']} != {want}"
        arity_in, arity_out, entries = got["table"]
        if (arity_in, arity_out) != (n, 1):
            return f"{label} compiled arities {(arity_in, arity_out)}"
        for index, value in zip(probe.tolist(), entries.tolist()):
            if value != int(gen.truth(tree, index)):
                return f"{label} truth table entry {index} = {value}"
        value = gen.prob_indep(tree, ps)
        if got["pushed"].shape != (2,) or not gen.near(got["pushed"][1], value, ARITH_TOL):
            return f"{label} pushforward {got['pushed']}, expected true = {value!r}"
        if not gen.near(got["exists"], gen.exists_indep(ps), ARITH_TOL):
            return f"{label} exists_exact {got['exists']!r}"
        want = [gen.exists_indep(ps[:m]) for m in prefixes + (n,)]
        if len(got["truncated"]) != 3 or not all(
            gen.near(a, b, ARITH_TOL) for a, b in zip(got["truncated"], want)
        ):
            return f"{label} exists_truncated {got['truncated']} != {want}"
        mean, drawn = got["sample"]
        want = gen.uniform_sample_exists(ps, TUPLE_LENGTH)
        if drawn != samples or abs(mean - want) > gen.hoeffding(samples, SAMPLE_DELTA):
            return f"{label} sample_exists mean {mean!r} (n={drawn}), expected {want!r}"
        return None

    return Op("dense_json" if use_json else "dense", n, run, check)


class DenseKernels:
    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.arities = TINY_DENSE_ARITIES if tiny else DENSE_ARITIES
        self.samples = DENSE_SAMPLES // 10 if tiny else DENSE_SAMPLES

    def round(self, r: int) -> list:
        rng = _rng(self.seed, r)
        ops = [
            _dense_op(rng, n, k, self.samples)
            for n, count in self.arities.items()
            for k in range(count)
        ]
        rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

CLI_SUBCOMMANDS = ("eval", "bounds", "sweep", "quantify_bounds", "quantify_sample", "sweep_large")
SWEEP_STEPS = 11
SWEEP_LARGE_STEPS = 20_000
CLI_SAMPLES = 20_000
CLI_DELTA = 0.05
#: A call that takes longer is killed and counts as failed.
CLI_TIMEOUT_S = 60
_LETTERS = "ABCDEFGH"


def _parse_csv(stdout: bytes):
    lines = stdout.decode().splitlines()
    return lines[0].split(","), [[float(x) for x in line.split(",")] for line in lines[1:]]


def _check_sweep(p1, p2, kind, steps, stdout):
    header, rows = _parse_csv(stdout)
    if header != ["q", "and_q", "or_q", "implies_q", "formula"]:
        return f"sweep header {header}"
    q_min, _, q_max = gen.q_range(p1, p2)
    qs = np.linspace(q_min, q_max, steps)
    if len(rows) != steps:
        return f"sweep has {len(rows)} rows, expected {steps}"
    for q, row in zip(qs.tolist(), rows):
        want = gen.q_connectives(p1, p2, row[0])
        expected = (q, want["and"], want["or"], want["implies"], want[kind])
        if not all(gen.near(a, b, SCALAR_TOL) for a, b in zip(row, expected)):
            return f"sweep row {row} != {expected}"
    return None


def _write(directory: Path, name: str, doc) -> str:
    (directory / name).write_text(json.dumps(doc), encoding="utf-8")
    return name


def _cli_inputs(rng, directory: Path, tiny: bool) -> dict:
    """argv and output check of each subcommand; the input files go in directory."""
    names = dict(enumerate(_LETTERS, start=1))
    cases = {}

    ps = rng.uniform(0.05, 0.95, 3).tolist()
    tree = gen.read_once(rng, [1, 2, 3])
    joint = _write(directory, "joint.json", {"arity": 3, "probs": gen.independent_table(ps).tolist()})
    value = gen.prob_indep(tree, ps)

    def check_eval(out, value=value):
        doc = json.loads(out)
        dist = doc["distribution"]
        if gen.near(doc["true"], value, ARITH_TOL) and gen.near(dist["false"], 1.0 - value, ARITH_TOL):
            return None
        return f"eval {doc}, expected true = {value!r}"

    cases["eval"] = (["eval", "--formula", gen.text(tree, names), "--input", joint], check_eval)

    kind = gen.BINARY[int(rng.integers(3))]
    ps = rng.uniform(0.05, 0.95, 2).tolist()
    spec = _write(directory, "spec.json", {"marginals": ps})
    lo, hi = gen.classic_bounds(kind, *ps)

    def check_bounds(out, lo=lo, hi=hi, kind=kind):
        doc = json.loads(out)
        classic = {"kind": kind, "lo": f"{kind}_min", "hi": f"{kind}_max"}
        if doc.get("classic") != classic:
            return f"bounds classic tag {doc.get('classic')}"
        if gen.near(doc["lo"], lo, LP_TOL) and gen.near(doc["hi"], hi, LP_TOL):
            return None
        return f"bounds {doc}, expected [{lo!r}, {hi!r}]"

    formula = gen.text(gen.chain(kind, 2), names)
    cases["bounds"] = (["bounds", "--formula", formula, "--input", spec], check_bounds)

    for sub, steps in (("sweep", SWEEP_STEPS), ("sweep_large", 200 if tiny else SWEEP_LARGE_STEPS)):
        p1, p2 = rng.uniform(0.05, 0.95, 2).tolist()
        kind = gen.BINARY[int(rng.integers(3))]
        spec = _write(directory, f"{sub}.json", {"marginals": [p1, p2]})
        formula = gen.text((kind, ("var", 1), ("var", 2)), names)
        argv = ["sweep", "--input", spec, "--steps", str(steps), "--formula", formula]
        if sub == "sweep_large":
            argv += ["--format", "csv"]
        check = lambda out, a=(p1, p2, kind, steps): _check_sweep(*a, out)  # noqa: E731
        cases[sub] = (argv, check)

    size = 4
    labels = [f"x{i}" for i in range(1, size + 1)]
    ps = rng.uniform(0.02, 0.3, size).tolist()
    table = _write(directory, "table.json", {"universe": labels, "p": dict(zip(labels, ps))})
    lo, hi = gen.exists_interval(ps)

    def check_quantify(out, lo=lo, hi=hi):
        doc = json.loads(out)
        if gen.near(doc["lo"], lo, SCALAR_TOL) and gen.near(doc["hi"], hi, SCALAR_TOL):
            return None
        return f"quantify bounds {doc}, expected [{lo!r}, {hi!r}]"

    cases["quantify_bounds"] = (["quantify", "bounds", "--input", table], check_quantify)

    samples = CLI_SAMPLES // 10 if tiny else CLI_SAMPLES
    seed = int(rng.integers(1 << 31))
    want = gen.uniform_sample_exists(ps, size)

    def check_sample(out, want=want, seed=seed, samples=samples):
        doc = json.loads(out)
        radius = gen.hoeffding(samples, CLI_DELTA)
        if (
            doc["n"] == samples
            and doc["seed"] == seed
            and gen.near(doc["radius"], radius, SCALAR_TOL)
            and abs(doc["mean"] - want) <= gen.hoeffding(samples, SAMPLE_DELTA)
        ):
            return None
        return f"quantify sample {doc}, expected mean {want!r}"

    argv = ["quantify", "sample", "--input", table, "--seed", str(seed), "--samples", str(samples)]
    cases["quantify_sample"] = (argv, check_sample)
    return cases


class CliCold:
    """Fresh `python -m markov_fuzzy` processes, one at a time."""

    def __init__(self, seed: int, tiny: bool, workdir: Path, env: dict):
        self.workdir = workdir
        self.env = env
        self.cases = _cli_inputs(_rng(seed, 0), workdir, tiny)
        self.first_output: dict = {}

    def _op(self, sub: str) -> Op:
        argv, check_output = self.cases[sub]
        command = [sys.executable, "-m", "markov_fuzzy", *argv]

        def run(api):
            done = subprocess.run(
                command,
                cwd=self.workdir,
                env=self.env,
                capture_output=True,
                timeout=CLI_TIMEOUT_S,
                check=False,
            )
            return done.returncode, done.stdout, done.stderr

        def check(got):
            code, stdout, stderr = got
            if code != 0:
                return f"{sub} exited {code}: {stderr.decode(errors='replace')[-300:]}"
            first = self.first_output.setdefault(sub, stdout)
            if stdout != first:
                return f"{sub} output differs from the first call on the same input"
            return check_output(stdout)

        return Op(sub, 0, run, check)

    def round(self, r: int) -> list:
        """The same six calls on the same inputs in every round."""
        return [self._op(sub) for sub in CLI_SUBCOMMANDS]

