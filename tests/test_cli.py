"""Command-line behavior: golden outputs, exit codes, determinism."""

import json
import os
import random
import subprocess
import sys

import numpy as np
import pytest

import markov_fuzzy as mf
from markov_fuzzy import _simplex, cli
from markov_fuzzy.cli import main
from markov_fuzzy.errors import InfeasibleQ

DYADIC_JOINT = '{"arity": 2, "probs": [0.125, 0.25, 0.25, 0.375]}'
DYADIC_SPEC = '{"marginals": [0.75, 0.5]}'
TABLE = '{"universe": ["a", "b"], "p": {"a": 0.25, "b": 0.5}}'
PAIR_SPEC = '{"marginals": [0.75, 0.5], "pairwise": {"1,2": 0.125}}'
#: A three-point chain of pairs: exists is [max(p, 1 - q), sum p - sum P(both)].
CHAIN_TABLE = (
    '{"universe": ["a", "b", "c"], "p": {"a": 0.25, "b": 0.5, "c": 0.75}, '
    '"q_pair": {"a,b": 0.375, "b,c": 0.25}}'
)
#: The pair's q leaves P(both true) = 0 up to rounding, so the max of
#: "P1 & P2 & (P1 | P3)", which rereads P1 and so reaches an LP, is the
#: negation of a zero minimum.
NEGATIVE_ZERO_SPEC = {
    "marginals": [0.7020217104975492, 1e-13, 0.5],
    "pairwise": {"1,2": 0.2979782895024276},
}


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_golden_json(self, tmp_path, capsys):
        path = write(tmp_path, "joint.json", DYADIC_JOINT)
        code, out, _ = run(capsys, ["eval", "--formula", "P1 & P2", "--input", path])
        assert code == 0
        assert out == (
            '{"true": 0.375, "distribution": {"false": 0.625, "true": 0.375}}\n'
        )

    def test_golden_csv(self, tmp_path, capsys):
        path = write(tmp_path, "joint.json", DYADIC_JOINT)
        code, out, _ = run(
            capsys,
            ["eval", "--formula", "P1 & P2", "--input", path, "--format", "csv"],
        )
        assert code == 0
        assert out == "outcome,probability\nfalse,0.625\ntrue,0.375\n"

    def test_reference_conjunction(self, tmp_path, capsys):
        path = write(
            tmp_path, "joint.json", '{"arity": 2, "probs": [0.1, 0.2, 0.3, 0.4]}'
        )
        code, out, _ = run(capsys, ["eval", "--formula", "P1 & P2", "--input", path])
        assert code == 0
        assert json.loads(out)["true"] == 0.4

    def test_tautology(self, tmp_path, capsys):
        path = write(tmp_path, "joint.json", '{"arity": 1, "probs": [0.25, 0.75]}')
        code, out, _ = run(capsys, ["eval", "--formula", "P1 | !P1", "--input", path])
        assert code == 0
        assert json.loads(out)["true"] == 1.0

    def test_arity_mismatch_exit_3(self, tmp_path, capsys):
        path = write(tmp_path, "joint.json", DYADIC_JOINT)
        code, _, err = run(
            capsys, ["eval", "--formula", "P1 & P2 & P3", "--input", path]
        )
        assert code == 3
        assert "ArityMismatch" in err

    def test_parse_error_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "joint.json", DYADIC_JOINT)
        code, _, err = run(capsys, ["eval", "--formula", "P1 &", "--input", path])
        assert code == 2
        assert "ParseError" in err

    @pytest.mark.parametrize("probs", ['["0.5", "0.5"]', "[true, false]", "[null, 1]"])
    def test_non_number_probs_exit_2(self, tmp_path, capsys, probs):
        path = write(tmp_path, "joint.json", f'{{"arity": 1, "probs": {probs}}}')
        code, out, err = run(capsys, ["eval", "--formula", "A", "--input", path])
        assert (code, out) == (2, "")
        assert err == "error: SchemaError: 'probs' must be a list of numbers\n"

    def test_quantified_formula_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "joint.json", '{"arity": 1, "probs": [0.5, 0.5]}')
        code, _, err = run(
            capsys, ["eval", "--formula", "forall x in U: P(x)", "--input", path]
        )
        assert code == 2
        assert err.startswith("error: UnexpandedQuantifier: ")

    @pytest.mark.parametrize(
        "command, document",
        [("eval", DYADIC_JOINT), ("bounds", DYADIC_SPEC)],
    )
    def test_quantified_formula_exit_2_whatever_the_arity(
        self, tmp_path, capsys, command, document
    ):
        """A quantified formula over one variable, on a model of arity 2: the
        quantifier is refused before the arity is compared."""
        path = write(tmp_path, "model.json", document)
        code, out, err = run(
            capsys, [command, "--formula", "exists x in U : P(x)", "--input", path]
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: UnexpandedQuantifier: quantifiers must be expanded over "
            "their universes before compilation\n"
        )
        code, _, err = run(capsys, [command, "--formula", "P1", "--input", path])
        assert code == 3 and err.startswith("error: ArityMismatch: ")

    @pytest.mark.parametrize(
        "command, document",
        [("eval", DYADIC_JOINT), ("bounds", DYADIC_SPEC)],
    )
    def test_quantified_formula_over_the_cap_exit_2(
        self, tmp_path, capsys, command, document
    ):
        """A quantified formula that names 26 variables, more than N_MAX, is
        refused as quantified, not as an ordering over the cap; the same
        names without the quantifier are an arity mismatch."""
        path = write(tmp_path, "model.json", document)
        names = " & ".join(f"Q{i}" for i in range(1, 26))
        formula = f"exists x in U : P(x) & {names}"
        code, out, err = run(capsys, [command, "--formula", formula, "--input", path])
        assert (code, out) == (2, "")
        assert err == (
            "error: UnexpandedQuantifier: quantifiers must be expanded over "
            "their universes before compilation\n"
        )
        formula = f"P & {names}"
        code, _, err = run(capsys, [command, "--formula", formula, "--input", path])
        assert code == 3 and err.startswith("error: ArityMismatch: ")

    def test_bad_joint_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "joint.json", '{"arity": 1, "probs": [0.5, 0.4]}')
        code, _, err = run(capsys, ["eval", "--formula", "P1", "--input", path])
        assert code == 2
        assert "NotNormalized" in err

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code, _, err = run(
            capsys, ["eval", "--formula", "P1", "--input", str(tmp_path / "nope")]
        )
        assert code == 2


class TestBounds:
    def test_and_bounds(self, tmp_path, capsys):
        path = write(tmp_path, "spec.json", DYADIC_SPEC)
        code, out, _ = run(capsys, ["bounds", "--formula", "P1 & P2", "--input", path])
        assert code == 0
        result = json.loads(out)
        assert result["lo"] == pytest.approx(0.25, abs=1e-9)
        assert result["hi"] == pytest.approx(0.5, abs=1e-9)
        assert result["classic"] == {"kind": "and", "lo": "and_min", "hi": "and_max"}

    def test_unrecognized_formula_has_no_classic_field(self, tmp_path, capsys):
        path = write(tmp_path, "spec.json", DYADIC_SPEC)
        code, out, _ = run(
            capsys, ["bounds", "--formula", "P1 & !P2", "--input", path]
        )
        assert code == 0
        assert "classic" not in json.loads(out)

    def test_independent_degenerate(self, tmp_path, capsys):
        path = write(
            tmp_path, "spec.json", '{"marginals": [0.75, 0.5], "independent": true}'
        )
        code, out, _ = run(capsys, ["bounds", "--formula", "P1 & P2", "--input", path])
        assert code == 0
        result = json.loads(out)
        assert result["lo"] == result["hi"] == pytest.approx(0.375, abs=1e-12)
        assert "classic" not in result

    @pytest.mark.parametrize("formula", ["P1 & P2", "P1 | P2", "P1 -> P2"])
    def test_pairwise_spec_has_no_classic_field(self, tmp_path, capsys, formula):
        """A pairwise q pins the connective: at q = 1/4 the and is 1/4, where
        and_min is 0, so the closed-form names would mislabel it."""
        path = write(
            tmp_path,
            "spec.json",
            '{"marginals": [0.5, 0.5], "pairwise": {"1,2": 0.25}}',
        )
        code, out, _ = run(capsys, ["bounds", "--formula", formula, "--input", path])
        assert code == 0
        result = json.loads(out)
        assert result["lo"] == pytest.approx(result["hi"], abs=1e-12)
        assert "classic" not in result

    def test_independent_spec_has_no_classic_field(self, tmp_path, capsys):
        path = write(
            tmp_path, "spec.json", '{"marginals": [0.5, 0.5], "independent": true}'
        )
        code, out, _ = run(capsys, ["bounds", "--formula", "P1 | P2", "--input", path])
        assert code == 0
        assert json.loads(out) == {"lo": 0.75, "hi": 0.75}

    def test_infeasible_pairwise_exit_2(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "spec.json",
            '{"marginals": [0.7, 0.6], "pairwise": {"1,2": 0.9}}',
        )
        code, _, err = run(capsys, ["bounds", "--formula", "P1 & P2", "--input", path])
        assert code == 2
        assert "InfeasibleQ" in err

    def test_zero_maximum_prints_positive_zero(self, tmp_path, capsys):
        """P(P1 & P2 & (P1 | P3)) is 0 on every table of this spec, once
        the LP snaps 1e-13 to 0; its max prints as 0.0, not -0.0."""
        path = write(tmp_path, "spec.json", json.dumps(NEGATIVE_ZERO_SPEC))
        formula = "P1 & P2 & (P1 | P3)"
        for fmt, want in (("json", '{"lo": 0.0, "hi": 0.0}\n'), ("csv", "lo,hi\n0,0\n")):
            argv = ["bounds", "--formula", formula, "--input", path, "--format", fmt]
            assert run(capsys, argv) == (0, want, "")

    def test_solver_failure_exit_5(self, tmp_path, capsys, monkeypatch):
        """A formula over three variables that rereads one does not split,
        so it still reaches the solver."""
        monkeypatch.setattr(_simplex, "MAX_PIVOTS", 0)
        path = write(tmp_path, "spec.json", '{"marginals": [0.75, 0.5, 0.5]}')
        formula = "(P1 & P2) | (!P1 & P3)"
        code, out, err = run(capsys, ["bounds", "--formula", formula, "--input", path])
        assert code == 5
        assert out == ""
        assert err == "error: SolverError: LP solve failed: pivot limit (0) reached\n"

    def test_split_formula_needs_no_solver(self, tmp_path, capsys, monkeypatch):
        """A marginals-only two-variable and is the classic interval, with
        no linear program to fail."""
        monkeypatch.setattr(_simplex, "MAX_PIVOTS", 0)
        path = write(tmp_path, "spec.json", DYADIC_SPEC)
        code, out, err = run(capsys, ["bounds", "--formula", "P1 & P2", "--input", path])
        assert (code, err) == (0, "")
        assert json.loads(out) == {
            "lo": 0.25,
            "hi": 0.5,
            "classic": {"kind": "and", "lo": "and_min", "hi": "and_max"},
        }

    @pytest.mark.parametrize(
        "formula, kind", [("P1 & P2", "and"), ("P1 | P2", "or"), ("P1 -> P2", "implies")]
    )
    def test_two_variable_results_are_the_classic_forms(
        self, tmp_path, capsys, formula, kind
    ):
        """lo and hi are the closed forms the classic tag names, bit for
        bit, on a grid with the ends and points where rounding differs."""
        grid = [0.0, 1.0, 0.1, 0.2, 0.3, 0.7, 0.9, 1 / 3, 0.5, 1e-17, 1 - 1e-16]
        grid += random.Random(5).sample([k / 997 for k in range(998)], 8)
        for p1 in grid:
            for p2 in grid:
                spec = json.dumps({"marginals": [p1, p2]})
                path = write(tmp_path, "spec.json", spec)
                code, out, _ = run(capsys, ["bounds", "--formula", formula, "--input", path])
                result = json.loads(out)
                assert code == 0 and result["classic"]["kind"] == kind
                assert result["lo"] == mf.classic(p1, p2, kind, "min"), (p1, p2)
                assert result["hi"] == mf.classic(p1, p2, kind, "max"), (p1, p2)

    def test_read_once_formula_above_the_lp_cap(self, tmp_path, capsys):
        """20 variables, each read once: no linear program, so no cap."""
        names = [f"X{i}" for i in range(1, 21)]
        formula = " & ".join(f"({a} | {b})" for a, b in zip(names[::2], names[1::2]))
        path = write(tmp_path, "spec.json", json.dumps({"marginals": [0.95] * 20}))
        code, out, err = run(capsys, ["bounds", "--formula", formula, "--input", path])
        assert (code, err) == (0, "")
        result = json.loads(out)
        assert result["lo"] == pytest.approx(0.5, abs=1e-12)
        assert result["hi"] == 1.0

    def test_part_over_the_lp_cap_exit_4(self, tmp_path, capsys):
        """X1 is read twice, which joins 13 variables into one part."""
        names = [f"X{i}" for i in range(1, 14)]
        formula = "(" + " | ".join(names) + ") & !X1"
        path = write(tmp_path, "spec.json", json.dumps({"marginals": [0.5] * 13}))
        code, out, err = run(capsys, ["bounds", "--formula", formula, "--input", path])
        assert (code, out) == (4, "")
        assert err.startswith("error: ArityTooLarge: ") and err.endswith(" got one over 13\n")

    def test_deterministic(self, tmp_path, capsys):
        path = write(tmp_path, "spec.json", DYADIC_SPEC)
        argv = ["bounds", "--formula", "P1 | P2", "--input", path]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second


class TestSweep:
    def test_golden_csv(self, tmp_path, capsys):
        path = write(tmp_path, "spec.json", DYADIC_SPEC)
        code, out, _ = run(capsys, ["sweep", "--input", path, "--steps", "3"])
        assert code == 0
        assert out == (
            "q,and_q,or_q,implies_q\n"
            "0,0.25,1,0.5\n"
            "0.125,0.375,0.875,0.625\n"
            "0.25,0.5,0.75,0.75\n"
        )

    def test_formula_column(self, tmp_path, capsys):
        path = write(tmp_path, "spec.json", DYADIC_SPEC)
        code, out, _ = run(
            capsys,
            ["sweep", "--input", path, "--steps", "3", "--formula", "P1 & P2"],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "q,and_q,or_q,implies_q,formula"
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[4] == cells[1]  # the formula is the conjunction

    def test_degenerate_interval_single_row(self, tmp_path, capsys):
        path = write(tmp_path, "spec.json", '{"marginals": [1.0, 1.0]}')
        code, out, _ = run(capsys, ["sweep", "--input", path, "--steps", "5"])
        assert code == 0
        assert out == "q,and_q,or_q,implies_q\n0,1,1,1\n"

    def test_zero_steps_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "spec.json", DYADIC_SPEC)
        code, _, err = run(capsys, ["sweep", "--input", path, "--steps", "0"])
        assert code == 2
        assert err == "error: InvalidParameter: --steps must be >= 1\n"

    def test_unallocatable_step_count_exit_2(self, tmp_path):
        """10**15 rows need 8 PB for their q values, which fails up front:
        a one-line error that names the count, not a traceback."""
        path = write(tmp_path, "spec.json", DYADIC_SPEC)
        src = os.path.dirname(os.path.dirname(mf.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = ["sweep", "--input", path, "--steps", str(10**15)]
        proc = subprocess.run(
            [sys.executable, "-m", "markov_fuzzy", *argv],
            capture_output=True,
            text=True,
            env=env,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith(
            "error: InvalidParameter: --steps = 1000000000000000 is too large"
        )
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1

    def test_wrong_arity_exit_3(self, tmp_path, capsys):
        path = write(tmp_path, "spec.json", '{"marginals": [0.5, 0.5, 0.5]}')
        code, _, _ = run(capsys, ["sweep", "--input", path, "--steps", "3"])
        assert code == 3

    def test_json_format(self, tmp_path, capsys):
        path = write(tmp_path, "spec.json", DYADIC_SPEC)
        code, out, _ = run(
            capsys, ["sweep", "--input", path, "--steps", "2", "--format", "json"]
        )
        assert code == 0
        rows = json.loads(out)
        assert [row["q"] for row in rows] == [0.0, 0.25]


def scalar_sweep(p1, p2, steps, formula, fmt):
    """Expected `sweep` stdout, row by row from the public scalar API."""
    b = mf.q_bounds(p1, p2)
    if b.q_min == b.q_max:
        qs = [b.q_min]
    else:
        qs = [float(q) for q in np.linspace(b.q_min, b.q_max, steps)]
    header = ["q", "and_q", "or_q", "implies_q"]
    if formula is not None:
        ast = mf.parse_formula(formula)
        f = mf.compile_formula(ast, mf.formula_variables(ast))
        header.append("formula")
    rows = []
    for q in qs:
        row = [q, mf.and_q(p1, p2, q), mf.or_q(p1, p2, q), mf.implies_q(p1, p2, q)]
        if formula is not None:
            row.append(float(mf.pushforward(mf.pair_from_pq(p1, p2, q), f).probs[1]))
        rows.append(row)
    if fmt == "json":
        return json.dumps([dict(zip(header, row)) for row in rows]) + "\n"
    lines = [",".join(header)]
    lines += [",".join(format(x, ".17g") for x in row) for row in rows]
    return "\n".join(lines) + "\n"


_rng = random.Random(20230306)
SWEEP_PAIRS = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (0.0, 0.35), (1.0, 0.6)]
SWEEP_PAIRS += [(_rng.random(), _rng.random()) for _ in range(6)]


class TestSweepMatchesScalarPath:
    """The CLI sweep prints the bytes of the per-row scalar API."""

    @pytest.mark.parametrize("p1, p2", SWEEP_PAIRS)
    def test_bytes(self, tmp_path, capsys, p1, p2):
        path = write(tmp_path, "spec.json", json.dumps({"marginals": [p1, p2]}))
        for formula in (None, "P1 & !P2", "(P1 | P2) & !(P1 & P2)", "P2 -> P1"):
            for steps in (1, 2, 257):
                for fmt in ("csv", "json"):
                    argv = ["sweep", "--input", path, "--steps", str(steps)]
                    argv += ["--format", fmt]
                    if formula is not None:
                        argv += ["--formula", formula]
                    code, out, _ = run(capsys, argv)
                    assert code == 0
                    assert out == scalar_sweep(p1, p2, steps, formula, fmt), argv

    def test_q_outside_feasible_range(self):
        with pytest.raises(InfeasibleQ):
            cli._sweep_columns(0.3, 0.4, np.array([0.3, 0.6 + 1e-9]), None)

    def test_q_within_eps_feas_is_clamped(self):
        q = 0.6 + 0.5 * mf.EPS_FEAS
        f = mf.compile_formula(mf.parse_formula("P1 & P2"), ["P1", "P2"])
        columns = cli._sweep_columns(0.3, 0.4, np.array([q]), f)
        assert [column[0] for column in columns] == [
            q,
            mf.and_q(0.3, 0.4, q),
            mf.or_q(0.3, 0.4, q),
            mf.implies_q(0.3, 0.4, q),
            float(mf.pushforward(mf.pair_from_pq(0.3, 0.4, q), f).probs[1]),
        ]

    @pytest.mark.parametrize("p1, p2", SWEEP_PAIRS)
    def test_grid_is_linspace(self, p1, p2):
        """The q grid is numpy's linspace bit for bit, up to the 20 000 rows
        of the benchmark's large sweep; one row when the range is a point."""
        b = mf.q_bounds(p1, p2)
        for steps in (1, 2, 3, 257, 20_000):
            want = [b.q_min]
            if b.q_min < b.q_max:
                want = np.linspace(b.q_min, b.q_max, steps).tolist()
            got = cli._q_grid(b.q_min, b.q_max, steps)
            assert [q.hex() for q in got] == [q.hex() for q in want], steps


COLD_PATH = """
import contextlib, io, json, sys
import markov_fuzzy as mf
from markov_fuzzy import cli

joint, spec, table = sys.argv[1:]
calls = [
    ["eval", "--formula", "P1 & P2", "--input", joint],
    ["sweep", "--input", spec, "--steps", "5"],
    ["sweep", "--input", spec, "--steps", "5", "--formula", "P1 -> P2"],
    ["quantify", "bounds", "--input", table],
    ["quantify", "sample", "--input", table, "--samples", "100"],
]
codes = []
for argv in calls:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
scipy_modules = sorted(name for name in sys.modules if name.startswith("scipy"))
ci = mf.exact_bounds(mf.PartialJointSpec((0.75, 0.5)), mf.and_function())
print(json.dumps({"codes": codes, "scipy": scipy_modules, "and": [ci.lo, ci.hi]}))
"""


def test_cold_path_never_imports_scipy(tmp_path):
    """No subcommand loads scipy, and neither does an exact_bounds solve:
    numpy alone serves them."""
    paths = [
        write(tmp_path, "joint.json", DYADIC_JOINT),
        write(tmp_path, "spec.json", DYADIC_SPEC),
        write(tmp_path, "table.json", TABLE),
    ]
    src = os.path.dirname(os.path.dirname(mf.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", COLD_PATH, *paths],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * 5
    assert result["scipy"] == []
    classic = mf.classic_binary_bounds(0.75, 0.5, "and")
    assert result["and"] == pytest.approx([classic.lo, classic.hi], abs=1e-9)


WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import contextlib, io, json
import markov_fuzzy as mf
from markov_fuzzy import cli

out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["bounds", "--formula", "P1 & P2", "--input", sys.argv[1]])
ci = mf.exact_bounds(
    mf.PartialJointSpec((0.5, 0.5, 0.5), pairwise={(1, 2): 0.25}), mf.or_function(3)
)
bounds = json.loads(out.getvalue())
print(json.dumps({"code": code, "bounds": bounds, "or": [ci.lo, ci.hi]}))
"""


def test_bounds_run_without_scipy(tmp_path):
    """The `bounds` subcommand and exact_bounds need no scipy at all."""
    path = write(tmp_path, "spec.json", DYADIC_SPEC)
    src = os.path.dirname(os.path.dirname(mf.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", WITHOUT_SCIPY, path],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["code"] == 0
    classic = mf.classic_binary_bounds(0.75, 0.5, "and")
    got = result["bounds"]
    assert [got["lo"], got["hi"]] == pytest.approx([classic.lo, classic.hi], abs=1e-9)
    assert result["or"] == pytest.approx([0.75, 1.0], abs=1e-9)


WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import contextlib, io, json
from markov_fuzzy import cli

joint, spec, table = sys.argv[1:]
calls = [
    ["eval", "--formula", "P1 & P2", "--input", joint],
    ["quantify", "sample", "--input", table, "--samples", "100"],
    ["sweep", "--input", spec, "--steps", "3", "--formula", "P1 & P2"],
    ["bounds", "--formula", "P1 & P2", "--input", spec],
    ["quantify", "bounds", "--input", table],
]
results = []
for argv in calls:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def test_missing_numpy_is_a_one_line_error(tmp_path):
    """Without numpy, `quantify sample` exits 1 with one error line and no
    traceback, while `eval`, `sweep`, `bounds` and `quantify bounds` run in
    the same process as they do with it."""
    paths = [
        write(tmp_path, "joint.json", DYADIC_JOINT),
        write(tmp_path, "spec.json", DYADIC_SPEC),
        write(tmp_path, "table.json", TABLE),
    ]
    src = os.path.dirname(os.path.dirname(mf.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", WITHOUT_NUMPY, *paths],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    (eval_, sample, sweep, bounds, quantify_bounds) = json.loads(proc.stdout)
    code, out, err = sample
    assert (code, out) == (1, "")
    assert err.startswith("error: ModuleNotFoundError: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert eval_ == [
        0,
        '{"true": 0.375, "distribution": {"false": 0.625, "true": 0.375}}\n',
        "",
    ]
    assert sweep == [
        0,
        "q,and_q,or_q,implies_q,formula\n"
        "0,0.25,1,0.5,0.25\n"
        "0.125,0.375,0.875,0.625,0.375\n"
        "0.25,0.5,0.75,0.75,0.5\n",
        "",
    ]
    assert bounds == [
        0,
        '{"lo": 0.25, "hi": 0.5, '
        '"classic": {"kind": "and", "lo": "and_min", "hi": "and_max"}}\n',
        "",
    ]
    assert quantify_bounds == [0, '{"lo": 0.5, "hi": 0.75}\n', ""]


def imported_numpy(importtime_report: str) -> list:
    """The numpy modules named in a `python -X importtime` report."""
    names = (line.rsplit("|", 1)[-1].strip() for line in importtime_report.splitlines())
    return [name for name in names if name.split(".")[0] == "numpy"]


@pytest.mark.parametrize(
    "call",
    [
        "import",
        "bounds",
        "quantify_bounds",
        "bounds_pair",
        "quantify_bounds_tree",
        "sweep",
        "sweep_formula_json",
        "eval",
        "eval_clamped_csv",
    ],
)
def test_cold_call_never_imports_numpy(tmp_path, call):
    """A bare `import markov_fuzzy`, a cold `bounds` call that splits down
    to its marginals and a cold `quantify bounds` on a table with no q_pair
    build no array, so they never load numpy; the two calls print what
    they always printed, the classic tag included.  Nor do a two-variable
    part with its pair and a table whose pairs form a tree, which take
    closed forms, nor a `sweep`, with or without a formula column, nor an
    `eval`, also on a joint that is clamped and renormalised."""
    spec = write(tmp_path, "spec.json", DYADIC_SPEC)
    table = write(tmp_path, "table.json", TABLE)
    pair = write(tmp_path, "pair.json", PAIR_SPEC)
    chain = write(tmp_path, "chain.json", CHAIN_TABLE)
    joint = write(tmp_path, "joint.json", DYADIC_JOINT)
    # Sums to 1 + 5e-10, with an entry of -1e-10 that make_joint clamps to 0.
    noisy = '{"arity": 2, "probs": [0.25, 0.125, -1e-10, 0.6250000006]}'
    noisy = write(tmp_path, "noisy.json", noisy)
    command, stdout = {
        "import": (["-c", "import markov_fuzzy"], ""),
        "bounds": (
            ["-m", "markov_fuzzy", "bounds", "--formula", "P1 & P2", "--input", spec],
            '{"lo": 0.25, "hi": 0.5, '
            '"classic": {"kind": "and", "lo": "and_min", "hi": "and_max"}}\n',
        ),
        "quantify_bounds": (
            ["-m", "markov_fuzzy", "quantify", "bounds", "--input", table],
            '{"lo": 0.5, "hi": 0.75}\n',
        ),
        "bounds_pair": (
            ["-m", "markov_fuzzy", "bounds", "--formula", "P1 | P2", "--input", pair],
            '{"lo": 0.875, "hi": 0.875}\n',
        ),
        "quantify_bounds_tree": (
            ["-m", "markov_fuzzy", "quantify", "bounds", "--input", chain],
            '{"lo": 0.75, "hi": 0.875}\n',
        ),
        "sweep": (
            ["-m", "markov_fuzzy", "sweep", "--input", spec, "--steps", "3"],
            "q,and_q,or_q,implies_q\n"
            "0,0.25,1,0.5\n"
            "0.125,0.375,0.875,0.625\n"
            "0.25,0.5,0.75,0.75\n",
        ),
        "sweep_formula_json": (
            ["-m", "markov_fuzzy", "sweep", "--input", spec, "--steps", "3"]
            + ["--formula", "P1 & P2", "--format", "json"],
            '[{"q": 0.0, "and_q": 0.25, "or_q": 1.0, "implies_q": 0.5, '
            '"formula": 0.25}, '
            '{"q": 0.125, "and_q": 0.375, "or_q": 0.875, "implies_q": 0.625, '
            '"formula": 0.375}, '
            '{"q": 0.25, "and_q": 0.5, "or_q": 0.75, "implies_q": 0.75, '
            '"formula": 0.5}]\n',
        ),
        "eval": (
            ["-m", "markov_fuzzy", "eval", "--formula", "P1 & P2", "--input", joint],
            '{"true": 0.375, "distribution": {"false": 0.625, "true": 0.375}}\n',
        ),
        "eval_clamped_csv": (
            ["-m", "markov_fuzzy", "eval", "--formula", "P1 -> P2", "--input", noisy]
            + ["--format", "csv"],
            "outcome,probability\nfalse,0.12499999992499999\ntrue,0.87500000007500001\n",
        ),
    }[call]
    src = os.path.dirname(os.path.dirname(mf.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *command],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "markov_fuzzy.bounds" in proc.stderr  # the report lists the package
    assert imported_numpy(proc.stderr) == []
    assert proc.stdout == stdout


class TestQuantify:
    def test_bounds_golden(self, tmp_path, capsys):
        path = write(tmp_path, "table.json", TABLE)
        code, out, _ = run(capsys, ["quantify", "bounds", "--input", path])
        assert code == 0
        assert out == '{"lo": 0.5, "hi": 0.75}\n'

    def test_sample_deterministic(self, tmp_path, capsys):
        path = write(tmp_path, "table.json", TABLE)
        argv = [
            "quantify",
            "sample",
            "--input",
            path,
            "--seed",
            "42",
            "--samples",
            "500",
        ]
        code, first, _ = run(capsys, argv)
        assert code == 0
        _, second, _ = run(capsys, argv)
        assert first == second
        result = json.loads(first)
        assert result["n"] == 500
        assert result["seed"] == 42
        assert 0.0 <= result["mean"] <= 1.0

    def test_sample_radius_uses_delta(self, tmp_path, capsys):
        path = write(tmp_path, "table.json", TABLE)
        _, out, _ = run(
            capsys,
            [
                "quantify",
                "sample",
                "--input",
                path,
                "--samples",
                "100",
                "--delta",
                "0.5",
            ],
        )
        import math

        assert json.loads(out)["radius"] == pytest.approx(
            math.sqrt(math.log(4.0) / 200.0)
        )

    @pytest.mark.parametrize("length", ["0", "-1"])
    def test_tuple_length_below_1_exit_2(self, tmp_path, capsys, length):
        """An explicit value below 1 is rejected by name, not read as the
        default or blamed on the universe."""
        path = write(tmp_path, "table.json", TABLE)
        argv = ["quantify", "sample", "--input", path, "--tuple-length", length]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == "error: InvalidParameter: --tuple-length must be >= 1\n"

    def test_unallocatable_tuple_length_exit_2(self, tmp_path, capsys):
        """A block of 8192 tuples of 10**11 uniforms (6.5e15 bytes, beyond
        the address space) fails up front: one line that names the length."""
        path = write(tmp_path, "table.json", TABLE)
        argv = ["quantify", "sample", "--input", path, "--tuple-length", str(10**11)]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == (
            "error: InvalidParameter: tuple_length = 100000000000 is too large: "
            "its 6553600000000000 bytes of uniforms per block cannot be allocated\n"
        )

    def test_tuple_length_defaults_to_universe_size(self, tmp_path, capsys):
        path = write(tmp_path, "table.json", TABLE)
        argv = ["quantify", "sample", "--input", path, "--samples", "200"]
        code, default, _ = run(capsys, argv)
        assert code == 0
        _, explicit, _ = run(capsys, argv + ["--tuple-length", "2"])
        assert default == explicit

    def test_empty_universe_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "table.json", '{"universe": [], "p": {}}')
        code, _, err = run(capsys, ["quantify", "bounds", "--input", path])
        assert code == 2

    def test_schema_error_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "table.json", DYADIC_SPEC)
        code, _, err = run(capsys, ["quantify", "bounds", "--input", path])
        assert code == 2
        assert "SchemaError" in err

    @pytest.mark.parametrize("seed", [-1, 1 << 128])
    def test_seed_outside_key_range_exit_2(self, tmp_path, capsys, seed):
        path = write(tmp_path, "table.json", TABLE)
        argv = ["quantify", "sample", "--input", path, "--seed", str(seed)]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == (
            "error: InvalidParameter: seed must be None or an integer in "
            f"[0, 2**128), got {seed}\n"
        )

    def test_unallocatable_sample_count_exit_2(self, tmp_path):
        """10**15 samples need 8 PB for their values, which fails up front:
        a one-line error that names the count, not a traceback."""
        path = write(tmp_path, "table.json", TABLE)
        src = os.path.dirname(os.path.dirname(mf.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = ["quantify", "sample", "--input", path, "--samples", str(10**15)]
        proc = subprocess.run(
            [sys.executable, "-m", "markov_fuzzy", *argv],
            capture_output=True,
            text=True,
            env=env,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith(
            "error: InvalidParameter: n_samples = 1000000000000000 is too large"
        )
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1


class TestIntegerBeyondFloatRange:
    """A JSON integer too large for a float reads as the literal 1e400 does:
    the same error, message and exit code, for each kind of document."""

    BIG = "1" + "0" * 400

    @pytest.mark.parametrize(
        "argv, template",
        [
            (["bounds", "--formula", "P1 & P2"], '{"marginals": [%s, 0.5]}'),
            (
                ["bounds", "--formula", "P1 & P2"],
                '{"marginals": [0.5, 0.5], "pairwise": {"1,2": -%s}}',
            ),
            (
                ["quantify", "bounds"],
                '{"universe": ["a", "b"], "p": {"a": 0.5, "b": %s}}',
            ),
            (
                ["eval", "--formula", "P1"],
                '{"arity": 1, "probs": [%s, 0.5]}',
            ),
        ],
        ids=["spec", "spec-pairwise", "belief-table", "joint"],
    )
    def test_same_as_1e400(self, tmp_path, capsys, argv, template):
        results = []
        for literal in ("1e400", self.BIG):
            path = write(tmp_path, "doc.json", template % literal)
            results.append(run(capsys, argv + ["--input", path]))
        (code, out, err), big = results
        assert code == 2 and out == "" and err.startswith("error: ")
        assert big == results[0]


class TestDeepJson:
    """JSON nested beyond the recursion limit is a schema error, not a
    traceback, for each kind of document."""

    DEEP = "[" * 100_000 + "]" * 100_000

    @pytest.mark.parametrize(
        "argv, template",
        [
            (["eval", "--formula", "P1"], "%s"),
            (["bounds", "--formula", "P1 & P2"], "%s"),
            (["bounds", "--formula", "P1 & P2"], '{"marginals": %s}'),
            (["quantify", "bounds"], "%s"),
        ],
        ids=["joint", "spec", "spec-marginals", "belief-table"],
    )
    def test_exit_2(self, tmp_path, capsys, argv, template):
        path = write(tmp_path, "doc.json", template % self.DEEP)
        code, out, err = run(capsys, argv + ["--input", path])
        assert (code, out) == (2, "")
        assert err.startswith("error: SchemaError: not valid JSON: ")
        assert err.count("\n") == 1


class TestArityCap:
    def test_env_lowers_cap(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MARKOV_FUZZY_MAX_ARITY", "1")
        path = write(tmp_path, "joint.json", DYADIC_JOINT)
        code, _, err = run(capsys, ["eval", "--formula", "P1 & P2", "--input", path])
        assert code == 4
        assert "ArityTooLarge" in err

    def test_env_cannot_raise_cap(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MARKOV_FUZZY_MAX_ARITY", "99")
        path = write(tmp_path, "joint.json", DYADIC_JOINT)
        code, _, _ = run(capsys, ["eval", "--formula", "P1 & P2", "--input", path])
        assert code == 0

    def test_invalid_env_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MARKOV_FUZZY_MAX_ARITY", "lots")
        path = write(tmp_path, "joint.json", DYADIC_JOINT)
        code, _, _ = run(capsys, ["eval", "--formula", "P1 & P2", "--input", path])
        assert code == 2


class TestUsage:
    def test_missing_subcommand(self, capsys):
        assert main([]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_module_entry_point(self, tmp_path):
        path = write(tmp_path, "table.json", TABLE)
        proc = subprocess.run(
            [sys.executable, "-m", "markov_fuzzy", "quantify", "bounds", "--input", path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"lo": 0.5, "hi": 0.75}
