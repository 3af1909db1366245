"""A fixed corpus of CLI calls whose output bytes and exit codes are recorded.

`cases()` builds about a thousand calls from fixed seeds: every subcommand,
json, csv and the default format, and the exit codes 0, 2, 3, 4 and 5.  A
case holds its argv, the input documents it reads (by file name, relative to
the working directory), and optionally the environment it sets (`env`) and
a pivot limit for the solver (`max_pivots`, which is how exit 5 is reached).
`tests/data/cli_corpus.json` records, for each case, the sha256 of stdout
and of stderr and the exit code; `tests/test_cli_corpus.py` replays every
case in-process through `cli.main` and compares.

Usage errors that argparse reports are left out: their text depends on the
Python version and the terminal width, not on this package.

After a deliberate change to the CLI's output, record the new bytes with

    PYTHONPATH=src python tests/cli_corpus.py --regenerate

and list each class of change in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

DATA = Path(__file__).with_name("data") / "cli_corpus.json"
SEED = 20230306
#: The keys `replay` fills in; the rest of a case is its input.
RESULT_KEYS = ("exit", "stderr_sha256", "stdout_sha256")
ENV_CAP = "MARKOV_FUZZY_MAX_ARITY"

_EDGE_BELIEFS = (0.0, 1.0, 0.5, 0.25, 0.75, 1e-13, 1.0 - 1e-13, 1.0 + 1e-10)


def _belief(rng: random.Random) -> float:
    if rng.random() < 0.3:
        return rng.choice(_EDGE_BELIEFS)
    return rng.random()


def _names(rng: random.Random, n: int) -> list:
    style = rng.choice(("P", "X", "letters"))
    if style == "letters":
        return [chr(ord("a") + i) for i in range(n)]
    return [f"{style}{i + 1}" for i in range(n)]


def _formula(rng: random.Random, names: list, rereads: int = 0) -> str:
    """A random formula that reads every name, some of them twice or more."""
    leaves = rng.sample(names, len(names)) + rng.choices(names, k=rereads)
    rng.shuffle(leaves)

    def build(items: list) -> str:
        if len(items) == 1:
            text = items[0]
        else:
            cut = rng.randrange(1, len(items))
            op = rng.choice(("&", "|", "->", "&", "|"))
            text = f"({build(items[:cut])} {op} {build(items[cut:])})"
        return f"!{text}" if rng.random() < 0.2 else text

    return build(leaves)


def _format(rng: random.Random) -> list:
    choice = rng.choice((None, "json", "csv"))
    return [] if choice is None else ["--format", choice]


def _case(argv: list, document, **extra) -> dict:
    inputs = {} if document is None else {"input.json": document}
    return {"argv": argv, "inputs": inputs, **extra}


def _joint(rng: random.Random, n: int) -> str:
    if rng.random() < 0.3:
        weights = [rng.choice((0, 1, 2, 3)) for _ in range(1 << n)]
        weights[rng.randrange(1 << n)] += 1
    else:
        weights = [rng.random() for _ in range(1 << n)]
    total = sum(weights)
    return json.dumps({"arity": n, "probs": [w / total for w in weights]})


def _q_for(rng: random.Random, p1: float, p2: float) -> float:
    p1, p2 = min(max(p1, 0.0), 1.0), min(max(p2, 0.0), 1.0)
    q_min, q_max = max(0.0, 1.0 - (p1 + p2)), 1.0 - max(p1, p2)
    pick = rng.random()
    if pick < 0.15:
        return q_min
    if pick < 0.3:
        return q_max
    if pick < 0.35:
        return q_max + 0.5e-12
    if pick < 0.4:
        return q_max + 0.1
    return q_min + rng.random() * (q_max - q_min)


def _spec(rng: random.Random, n: int, pairs: int = 0, independent=False) -> str:
    marginals = [_belief(rng) for _ in range(n)]
    doc: dict = {"marginals": marginals}
    if independent:
        doc["independent"] = True
    chosen = rng.sample([(i, j) for i in range(n) for j in range(i + 1, n)], pairs)
    if chosen:
        doc["pairwise"] = {
            f"{i + 1},{j + 1}": _q_for(rng, marginals[i], marginals[j])
            for i, j in chosen
        }
    return json.dumps(doc)


def _table(rng: random.Random, size: int, pairs: int = 0) -> str:
    labels = [chr(ord("a") + i) for i in range(size)]
    p = {label: _belief(rng) for label in labels}
    doc: dict = {"universe": labels, "p": p}
    chosen = rng.sample(
        [(a, b) for k, a in enumerate(labels) for b in labels[k + 1 :]], pairs
    )
    if chosen:
        doc["q_pair"] = {f"{a},{b}": _q_for(rng, p[a], p[b]) for a, b in chosen}
    return json.dumps(doc)


def _eval_cases(rng: random.Random) -> list:
    out = []
    for _ in range(170):
        n = rng.randint(1, 4)
        names = _names(rng, n)
        formula = _formula(rng, names, rng.choice((0, 0, 1, 3)))
        argv = ["eval", "--formula", formula, "--input", "input.json"]
        out.append(_case(argv + _format(rng), _joint(rng, n)))
    joint = _joint(rng, 2)
    failing = [
        ("P1 & P2 & P3", joint),
        ("P1 &", joint),
        ("P1 & (P2", joint),
        ("forall x in U: P(x)", '{"arity": 1, "probs": [0.5, 0.5]}'),
        ("P1", '{"arity": 1, "probs": [0.5, 0.4]}'),
        ("P1", '{"arity": 1, "probs": [-0.5, 1.5]}'),
        ("P1", '{"arity": 1, "probs": ["0.5", 0.5]}'),
        ("P1", '{"arity": 1, "probs": [NaN, 0.5]}'),
        ("P1", '{"arity": 1, "probs": [0.5]}'),
        ("P1", '{"arity": true, "probs": [0.5, 0.5]}'),
        ("P1", '{"arity": 25, "probs": [1.0]}'),
        ("P1", '{"arity": 1}'),
        ("P1", '{"arity": 1, "probs": [0.5, 0.5], "extra": 1}'),
        ("P1", "[1, 2]"),
        ("P1", "{"),
        ("P1", '{"marginals": [0.5]}'),
        ("P1 & P1", '{"arity": 1, "probs": [0.5, 0.5]}'),
    ]
    for formula, document in failing:
        for fmt in ([], ["--format", "csv"]):
            argv = ["eval", "--formula", formula, "--input", "input.json"]
            out.append(_case(argv + fmt, document))
    out.append(_case(["eval", "--formula", "P1", "--input", "missing.json"], None))
    for cap in ("0", "1", "2", "x", "-1"):
        argv = ["eval", "--formula", "P1 & P2", "--input", "input.json"]
        out.append(_case(argv, joint, env={ENV_CAP: cap}))
    return out


def _bounds_cases(rng: random.Random) -> list:
    out = []
    for _ in range(320):
        n = rng.randint(1, 6)
        kind = rng.random()
        if kind < 0.1:
            document = _spec(rng, n, independent=True)
        elif kind < 0.5 and n > 1:
            document = _spec(rng, n, pairs=rng.randint(1, min(4, n * (n - 1) // 2)))
        else:
            document = _spec(rng, n)
        formula = _formula(rng, _names(rng, n), rng.choice((0, 0, 1, 2)))
        argv = ["bounds", "--formula", formula, "--input", "input.json"]
        out.append(_case(argv + _format(rng), document))
    # Two-variable gates in every spelling, where the classic tag is printed.
    for formula in ("P1 & P2", "P1 | P2", "P1 -> P2", "P2 & P1", "!P1 | P2"):
        for _ in range(6):
            argv = ["bounds", "--formula", formula, "--input", "input.json"]
            out.append(_case(argv + _format(rng), _spec(rng, 2)))
    wide = " & ".join(f"P{i}" for i in range(1, 14))
    rereading = f"({wide}) | !({wide.replace('&', '|')})"
    spec13 = json.dumps({"marginals": [0.5] * 13})
    failing = [
        ("P1 & P2", '{"marginals": [0.7, 0.6], "pairwise": {"1,2": 0.9}}'),
        ("P1 & P2", '{"marginals": [0.5, 1.5]}'),
        ("P1 & P2", '{"marginals": [0.5, 0.5], "pairwise": {"1,1": 0.2}}'),
        ("P1 & P2", '{"marginals": [0.5, 0.5], "pairwise": {"1,3": 0.2}}'),
        ("P1 & P2", '{"marginals": [0.5, 0.5], "pairwise": {"x,y": 0.2}}'),
        ("P1 & P2", '{"marginals": [0.5, 0.5], "pairwise": {"12": 0.2}}'),
        (
            "P1 & P2",
            '{"marginals": [0.5, 0.5], "pairwise": {"1,2": 0.2}, "independent": true}',
        ),
        ("P1 & P2", '{"marginals": [0.5, 0.5], "independent": 1}'),
        (
            "P1 & P2 & P3",
            '{"marginals": [0.9, 0.9, 0.1], '
            '"pairwise": {"1,2": 0.1, "2,3": 0.1, "1,3": 0.0}}',
        ),
        ("P1 & P2", '{"marginals": []}'),
        ("P1 & P2", json.dumps({"marginals": [0.5] * 25})),
        ("P1 & P2", '{"universe": ["a"], "p": {"a": 0.5}}'),
        ("P1 & P2", '{"arity": 1, "probs": [0.5, 0.5]}'),
        ("P1 & P2 & P3", '{"marginals": [0.5, 0.5]}'),
        ("P1 ->", '{"marginals": [0.5, 0.5]}'),
        (rereading, spec13),
        (wide, spec13),
    ]
    for formula, document in failing:
        for fmt in ([], ["--format", "csv"]):
            argv = ["bounds", "--formula", formula, "--input", "input.json"]
            out.append(_case(argv + fmt, document))
    # With no pivots allowed, a part that reaches the solver fails (exit 5)
    # unless its start table is optimal at both ends as it stands.  A
    # two-variable part takes its closed form and reaches no solver
    # (exit 0); the three-variable part with one pair still pivots.
    for formula in ("(P1 & P2) | (!P1 & !P2)", "P1 & P2", "P1 | (P2 & P3)"):
        n = 3 if "P3" in formula else 2
        fixed = {"marginals": [0.75, 0.5, 0.45][:n], "pairwise": {"1,2": 0.2}}
        for document in (_spec(rng, n), _spec(rng, n, pairs=1), json.dumps(fixed)):
            argv = ["bounds", "--formula", formula, "--input", "input.json"]
            out.append(_case(argv, document, max_pivots=0))
    for cap in ("1", "3"):
        argv = ["bounds", "--formula", "P1 | P2", "--input", "input.json"]
        out.append(_case(argv, _spec(rng, 2), env={ENV_CAP: cap}))
    return out


def _sweep_cases(rng: random.Random) -> list:
    out = []
    for _ in range(180):
        p1, p2 = _belief(rng), _belief(rng)
        document = json.dumps({"marginals": [p1, p2]})
        argv = ["sweep", "--input", "input.json"]
        steps = rng.choice((None, 1, 2, 3, 5, 17, 40, 101))
        if steps is not None:
            argv += ["--steps", str(steps)]
        if rng.random() < 0.6:
            argv += ["--formula", _formula(rng, _names(rng, 2), rng.choice((0, 1, 2)))]
        out.append(_case(argv + _format(rng), document))
    failing = [
        (["--steps", "0"], '{"marginals": [0.5, 0.5]}'),
        (["--steps", "-3"], '{"marginals": [0.5, 0.5]}'),
        ([], '{"marginals": [0.5, 0.5, 0.5]}'),
        ([], '{"marginals": [0.5]}'),
        ([], '{"marginals": [0.5, 0.5], "pairwise": {"1,2": 0.25}}'),
        ([], '{"marginals": [0.5, 0.5], "independent": true}'),
        ([], '{"universe": ["a"], "p": {"a": 0.5}}'),
        (["--formula", "P1 & P2 & P3"], '{"marginals": [0.5, 0.5]}'),
        (["--formula", "P1"], '{"marginals": [0.5, 0.5]}'),
        (["--formula", "P1 |"], '{"marginals": [0.5, 0.5]}'),
        ([], '{"marginals": [0.5, -0.5]}'),
        # Too many rows to allocate: no memory is touched.
        (["--steps", str(10**15)], '{"marginals": [0.5, 0.5]}'),
        (["--steps", str(10**20)], '{"marginals": [0.5, 0.5]}'),
    ]
    for extra, document in failing:
        for fmt in ([], ["--format", "json"]):
            argv = ["sweep", "--input", "input.json", *extra, *fmt]
            out.append(_case(argv, document))
    return out


def _quantify_cases(rng: random.Random) -> list:
    out = []
    for _ in range(110):
        size = rng.randint(1, 6)
        pairs = rng.randint(0, min(3, size * (size - 1) // 2))
        argv = ["quantify", "bounds", "--input", "input.json"]
        out.append(_case(argv + _format(rng), _table(rng, size, pairs)))
    for _ in range(110):
        size = rng.randint(1, 6)
        argv = ["quantify", "sample", "--input", "input.json"]
        argv += ["--samples", str(rng.choice((1, 7, 100, 500)))]
        if rng.random() < 0.7:
            argv += ["--seed", str(rng.choice((0, 1, 12345, 2**64 + 3)))]
        if rng.random() < 0.3:
            argv += ["--delta", str(rng.choice((0.01, 0.5, 0.999)))]
        if rng.random() < 0.4:
            argv += ["--tuple-length", str(rng.randint(1, 4))]
        out.append(_case(argv + _format(rng), _table(rng, size)))
    table = _table(rng, 3)
    failing = [
        (["bounds"], '{"marginals": [0.5]}'),
        (["bounds"], '{"universe": ["a", "a"], "p": {"a": 0.5}}'),
        (["bounds"], '{"universe": ["a", "b"], "p": {"a": 0.5}}'),
        (["bounds"], '{"universe": ["a,b"], "p": {"a,b": 0.5}}'),
        (["bounds"], '{"universe": ["a", "b"], "p": {"a": 0.5, "b": 2}}'),
        (["bounds"], '{"universe": ["a", "b"], "p": {"a": 0.5, "b": 0.5}, '
         '"q_pair": {"a,c": 0.2}}'),
        (["bounds"], '{"universe": ["a", "b"], "p": {"a": 0.5, "b": 0.5}, '
         '"q_pair": {"a,a": 0.2}}'),
        (["bounds"], '{"universe": ["a", "b"], "p": {"a": 0.5, "b": 0.5}, '
         '"q_pair": {"a,b": 0.9}}'),
        (["bounds"], '{"universe": [1], "p": {"1": 0.5}}'),
        (["sample", "--samples", "0"], table),
        (["sample", "--delta", "0"], table),
        (["sample", "--delta", "1.5"], table),
        (["sample", "--tuple-length", "0"], table),
        (["sample", "--seed", "-1"], table),
        (["sample", "--seed", str(2**128)], table),
        (["sample"], '{"universe": [], "p": {}}'),
        (["sample"], '{"marginals": [0.5]}'),
    ]
    for extra, document in failing:
        for fmt in ([], ["--format", "csv"]):
            argv = ["quantify", *extra, "--input", "input.json", *fmt]
            out.append(_case(argv, document))
    return out


def cases() -> list:
    """The corpus's calls, in a fixed order, without their results."""
    rng = random.Random(SEED)
    groups = (_eval_cases, _bounds_cases, _sweep_cases, _quantify_cases)
    return [case for group in groups for case in group(rng)]


@functools.lru_cache(maxsize=None)
def _parser(build):
    return build()


@contextlib.contextmanager
def _settings(case: dict):
    """The case's environment and pivot limit, restored afterwards.

    `cli.main` gets one parser built once: building it takes most of the
    time of a small call, and parsing leaves it unchanged."""
    from markov_fuzzy import _simplex, cli

    saved_env = os.environ.get(ENV_CAP)
    saved_pivots, saved_build = _simplex.MAX_PIVOTS, cli._build_parser
    os.environ.pop(ENV_CAP, None)
    os.environ.update(case.get("env", {}))
    _simplex.MAX_PIVOTS = case.get("max_pivots", saved_pivots)
    parser = _parser(saved_build)
    cli._build_parser = lambda: parser
    try:
        yield
    finally:
        _simplex.MAX_PIVOTS, cli._build_parser = saved_pivots, saved_build
        if saved_env is None:
            os.environ.pop(ENV_CAP, None)
        else:
            os.environ[ENV_CAP] = saved_env


def replay(case: dict, workdir: str) -> dict:
    """Run one case through `cli.main` in `workdir` (which must hold no
    other files the case names); return its exit code and output hashes."""
    from markov_fuzzy import cli

    for name, text in case["inputs"].items():
        Path(workdir, name).write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with _settings(case), contextlib.redirect_stdout(out):
            with contextlib.redirect_stderr(err):
                code = cli.main(case["argv"])
    finally:
        os.chdir(cwd)
        for name in case["inputs"]:
            Path(workdir, name).unlink()
    return {
        "exit": code,
        "stderr_sha256": hashlib.sha256(err.getvalue().encode()).hexdigest(),
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
    }


def load() -> list:
    return json.loads(DATA.read_text(encoding="utf-8"))


def regenerate() -> list:
    with tempfile.TemporaryDirectory() as workdir:
        recorded = [{**case, **replay(case, workdir)} for case in cases()]
    DATA.parent.mkdir(exist_ok=True)
    lines = ",\n".join(json.dumps(case, sort_keys=True) for case in recorded)
    DATA.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    return recorded


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(f"usage: {sys.argv[0]} --regenerate")
    recorded = regenerate()
    codes = sorted({case["exit"] for case in recorded})
    print(f"recorded {len(recorded)} cases in {DATA} (exit codes {codes})")
