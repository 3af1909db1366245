"""The package surface: public names, lazy numpy, and the README quick tour."""

import ast
import json
import math
import os
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
