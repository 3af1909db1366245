"""The package surface: public names, lazy numpy, and the README quick tour."""

import ast
import copy
import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import markov_fuzzy as mf
from markov_fuzzy import joints

README = Path(__file__).resolve().parent.parent / "README.md"

def test_every_public_name_resolves():
    """No public name is listed twice; each name of `__all__`, those of
    `joints` included, resolves by getattr and is listed by dir(), and a
    star import binds every one."""
    assert len(set(mf.__all__)) == len(mf.__all__)
    assert set(joints.__all__) <= set(mf.__all__)
    listed = dir(mf)
    for name in mf.__all__:
        getattr(mf, name)
        assert name in listed
    namespace: dict = {}
    exec("from markov_fuzzy import *", namespace)
    assert set(mf.__all__) <= set(namespace)
    for name in joints.__all__:
        assert namespace[name] is getattr(joints, name)
    with pytest.raises(AttributeError, match="no_such_name"):
        mf.no_such_name


SOLVE_AND_SAMPLE = """
import json, sys
if sys.argv[1] == "numpy first":
    import numpy
import markov_fuzzy as mf
loaded = "numpy" in sys.modules
pairwise = {(1, 2): 0.2, (2, 3): 0.15, (1, 3): 0.1}
ci = mf.exact_bounds(mf.PartialJointSpec((0.5, 0.6, 0.7), pairwise), mf.or_function(3))
table = mf.BeliefTable(("a", "b", "c"), {"a": 0.2, "b": 0.5, "c": 0.9})
est = mf.sample_exists(table, mf.SamplingStrategy(tuple_length=2, seed=3), 5000)
print(json.dumps({"loaded": loaded, "bounds": [ci.lo, ci.hi], "mean": est.mean}))
"""


def test_lazy_numpy_gives_the_same_values():
    """An LP solve and a sample from a process that imported only the
    package equal those of a process that imported numpy first, and those
    of this one."""
    src = os.path.dirname(os.path.dirname(mf.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    results = []
    for order in ("package only", "numpy first"):
        proc = subprocess.run(
            [sys.executable, "-c", SOLVE_AND_SAMPLE, order],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout))
    lazy, eager = results
    assert (lazy.pop("loaded"), eager.pop("loaded")) == (False, True)
    assert lazy == eager
    pairwise = {(1, 2): 0.2, (2, 3): 0.15, (1, 3): 0.1}  # a cycle: one LP
    ci = mf.exact_bounds(mf.PartialJointSpec((0.5, 0.6, 0.7), pairwise), mf.or_function(3))
    table = mf.BeliefTable(("a", "b", "c"), {"a": 0.2, "b": 0.5, "c": 0.9})
    est = mf.sample_exists(table, mf.SamplingStrategy(tuple_length=2, seed=3), 5000)
    assert lazy == {"bounds": [ci.lo, ci.hi], "mean": est.mean}


#: One instance of each public value class, built by keyword where a
#: caller may: its repr, the names of its fields, and whether a second
#: instance built the same way equals it (by value, or tree equality) or
#: only the instance itself does (identity).
VALUES = {
    "BooleanFunction": (
        lambda: mf.BooleanFunction(arity_in=1, arity_out=1, table=[1, 0]),
        "BooleanFunction(1->1, table=[1, 0])",
        ("arity_in", "arity_out", "table"),
        True,
    ),
    "Var": (lambda: mf.Var(name="A"), "Var(name='A')", ("name",), True),
    "Not": (
        lambda: mf.Not(child=mf.Var("A")),
        "Not(child=Var(name='A'))",
        ("child",),
        True,
    ),
    "And": (
        lambda: mf.And(left=mf.Var("A"), right=mf.Var("B")),
        "And(left=Var(name='A'), right=Var(name='B'))",
        ("left", "right"),
        True,
    ),
    "Or": (
        lambda: mf.Or(mf.Var("A"), mf.Var("B")),
        "Or(left=Var(name='A'), right=Var(name='B'))",
        ("left", "right"),
        True,
    ),
    "Implies": (
        lambda: mf.Implies(mf.Var("A"), mf.Var("B")),
        "Implies(left=Var(name='A'), right=Var(name='B'))",
        ("left", "right"),
        True,
    ),
    "Exists": (
        lambda: mf.Exists(var="x", universe="U", body=mf.Var("P(x)")),
        "Exists(var='x', universe='U', body=Var(name='P(x)'))",
        ("var", "universe", "body"),
        True,
    ),
    "Forall": (
        lambda: mf.Forall("x", "U", mf.Var("P(x)")),
        "Forall(var='x', universe='U', body=Var(name='P(x)'))",
        ("var", "universe", "body"),
        True,
    ),
    "ConfidenceInterval": (
        lambda: mf.ConfidenceInterval(0.1, 0.2),
        "ConfidenceInterval(lo=0.1, hi=0.2)",
        ("lo", "hi"),
        True,
    ),
    "PartialJointSpec": (
        lambda: mf.PartialJointSpec(marginals=(0.7, 0.6), pairwise={(1, 2): 0.2}),
        "PartialJointSpec(marginals=(0.7, 0.6), pairwise={(1, 2): 0.2}, independent=False)",
        ("marginals", "pairwise", "independent"),
        False,
    ),
    "QBounds": (
        lambda: mf.QBounds(q_min=0.0, q_indep=0.12, q_max=0.3),
        "QBounds(q_min=0.0, q_indep=0.12, q_max=0.3)",
        ("q_min", "q_indep", "q_max"),
        True,
    ),
    "SourceSpan": (
        lambda: mf.SourceSpan(start=0, end=3),
        "SourceSpan(start=0, end=3)",
        ("start", "end"),
        True,
    ),
    "JointBooleanDist": (
        lambda: mf.JointBooleanDist(arity=1, probs=[0.25, 0.75]),
        "JointBooleanDist(arity=1, probs=[0.25, 0.75])",
        ("arity", "probs"),
        False,
    ),
    "FiniteDist": (
        lambda: mf.FiniteDist(alphabet=("a", "b"), probs=[0.5, 0.5]),
        "FiniteDist({'a': 0.5, 'b': 0.5})",
        ("alphabet", "probs"),
        False,
    ),
    "BeliefTable": (
        lambda: mf.BeliefTable(
            universe=("a", "b"), p={"a": 0.5, "b": 0.6}, q_pair={("a", "b"): 0.3}
        ),
        "BeliefTable(universe=('a', 'b'), p={'a': 0.5, 'b': 0.6}, q_pair={('a', 'b'): 0.3})",
        ("universe", "p", "q_pair"),
        False,
    ),
    "SamplingStrategy": (
        lambda: mf.SamplingStrategy(tuple_length=2, seed=3, weights={"a": 0.5, "b": 0.5}),
        "SamplingStrategy(tuple_length=2, seed=3, weights={'a': 0.5, 'b': 0.5}, tuples=None)",
        ("tuple_length", "seed", "weights", "tuples"),
        False,
    ),
    "SampleEstimate": (
        lambda: mf.SampleEstimate(mean=0.5, n_samples=10, seed=3),
        "SampleEstimate(mean=0.5, n_samples=10, seed=3)",
        ("mean", "n_samples", "seed"),
        True,
    ),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_values_are_frozen_and_copy_whole(name):
    """The README's "Purity": no field of a value can be assigned or
    deleted; a pickle or deep copy has the same repr and is as equal to
    the original as a second instance built the same way, which hashes
    alike where the class hashes by value."""
    build, text, fields, by_value = VALUES[name]
    value = build()
    assert repr(value) == text
    for field in fields:
        with pytest.raises(AttributeError, match=field):
            setattr(value, field, None)
        with pytest.raises(AttributeError, match=field):
            delattr(value, field)
    assert repr(value) == text
    twin = build()
    assert (twin == value) is by_value
    if by_value and type(value).__hash__ is not None:
        assert hash(twin) == hash(value)
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert repr(copied) == text
        assert (copied == value) is by_value
        with pytest.raises(AttributeError):
            setattr(copied, fields[0], None)


def test_import_loads_no_dataclasses():
    """`import markov_fuzzy` in a fresh interpreter adds neither
    `dataclasses` nor `inspect` to sys.modules."""
    src = os.path.dirname(os.path.dirname(mf.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import json, sys; before = set(sys.modules); import markov_fuzzy; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    added = json.loads(proc.stdout)
    assert "markov_fuzzy.bounds" in added
    assert not {"dataclasses", "inspect"} & set(added)


def quick_tour() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_tour_states_true_values():
    """Run the README's library quick tour, statement by statement, and
    check every value its comments state."""
    source = quick_tour()
    namespace: dict = {}
    values = {}
    for node in ast.parse(source).body:
        code = ast.get_source_segment(source, node)
        if isinstance(node, ast.Expr):
            values[code] = eval(code, namespace)
        else:
            exec(code, namespace)
    comments = {}
    for line in source.splitlines():
        code, _, comment = line.partition("#")
        if code.strip():
            comments[code.strip()] = comment.strip()

    def stated(code, comment):
        assert comment in comments[code]
        return values.get(code)

    q = stated("mf.q_bounds(0.7, 0.6)", "QBounds(q_min=0.0, q_indep=0.12, q_max=0.3)")
    assert tuple(q) == pytest.approx((0.0, 0.12, 0.3))
    assert stated("mf.and_q(0.7, 0.6, 0.1)", "0.4") == pytest.approx(0.4)
    assert stated("mf.or_q(0.7, 0.6, 0.1)", "0.9") == pytest.approx(0.9)
    grid = stated("[mf.and_q(0.7, 0.6, q) for q in (0.0, 0.3)]", "[0.3, 0.6]")
    assert grid == pytest.approx([0.3, 0.6])
    stated("pair = mf.pair_from_pq(0.7, 0.6, 0.1)", "[0.1, 0.3, 0.2, 0.4]")
    assert namespace["pair"].probs.tolist() == pytest.approx([0.1, 0.3, 0.2, 0.4])
    pushed = stated("mf.pushforward(pair, mf.and_function())", "[0.6, 0.4]")
    assert pushed.probs.tolist() == pytest.approx([0.6, 0.4])
    ci = stated("mf.exact_bounds(spec, f)", "ConfidenceInterval(lo=0.5, hi=1.0)")
    assert (ci.lo, ci.hi) == pytest.approx((0.5, 1.0))
    ci = stated("mf.exists_bounds(table)", "[0.4, 0.7]")
    assert (ci.lo, ci.hi) == pytest.approx((0.4, 0.7))
    mean, radius = stated("est.mean, est.hoeffding_radius(0.05)", "about (0.578, 0.0136)")
    # Independent lift, uniform pairs over {a, b}: the mean of 1 - (1-p)(1-p').
    assert abs(mean - 0.5775) <= radius
    assert radius == pytest.approx(math.sqrt(math.log(40) / 20_000))
    assert round(mean, 3) == 0.578 and round(radius, 4) == 0.0136
