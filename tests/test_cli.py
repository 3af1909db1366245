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

    def test_infeasible_pairwise_exit_2(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "spec.json",
            '{"marginals": [0.7, 0.6], "pairwise": {"1,2": 0.9}}',
        )
        code, _, err = run(capsys, ["bounds", "--formula", "P1 & P2", "--input", path])
        assert code == 2
        assert "InfeasibleQ" in err

    def test_solver_failure_exit_5(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(_simplex, "MAX_PIVOTS", 0)
        path = write(tmp_path, "spec.json", DYADIC_SPEC)
        code, out, err = run(capsys, ["bounds", "--formula", "P1 & P2", "--input", path])
        assert code == 5
        assert out == ""
        assert err == "error: SolverError: LP solve failed: pivot limit (0) reached\n"

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
    """The vectorised sweep prints the bytes of the per-row scalar API."""

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
        f = mf.and_function()
        columns = cli._sweep_columns(0.3, 0.4, np.array([q]), f)
        assert [column[0] for column in columns] == [
            q,
            mf.and_q(0.3, 0.4, q),
            mf.or_q(0.3, 0.4, q),
            mf.implies_q(0.3, 0.4, q),
            float(mf.pushforward(mf.pair_from_pq(0.3, 0.4, q), f).probs[1]),
        ]


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

    def test_empty_universe_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "table.json", '{"universe": [], "p": {}}')
        code, _, err = run(capsys, ["quantify", "bounds", "--input", path])
        assert code == 2

    def test_schema_error_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "table.json", DYADIC_SPEC)
        code, _, err = run(capsys, ["quantify", "bounds", "--input", path])
        assert code == 2
        assert "SchemaError" in err


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
