"""Mutation check of the package's safeguards: does some tier-1 test fail
when one of them is broken?

    python3 tools/mutants.py

Run it from anywhere; it has no options.  `MUTANTS` is a fixed list of
one-edit mutants of `src/markov_fuzzy`.  Every entry's old text is
checked first: it must occur exactly once in its file, or the driver
stops and names the entry.  Then, one entry at a time, `src/` is copied
to a temporary directory, the edit is applied there, and tier-1 runs
against the copy:

    PYTHONPATH=<copy>/src python -m pytest -x -q -p no:cacheprovider \\
        --continue-on-collection-errors <repository>/tests

with the temporary directory as the working directory, so that what a
run writes there (hypothesis keeps its examples under `.hypothesis/` in
the working directory) is removed with it and never reaches the
repository.  A run that fails is "killed", one that passes "survived";
any other pytest exit stops the driver.  One line is printed per entry.
The CLI tests that start a subprocess put the repository's own `src/`
first on its path, so they never see a mutant.

Each entry's note says what the edit breaks; a survivor's note says why
it survives, or that it is open.  A full run takes 25 tier-1 runs, about
50 s each on a 2-core Xeon.  Mutation analysis as in DeMillo, Lipton
and Sayward (1978), "Hints on test data selection".
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: A tier-1 run takes under a minute; a mutant that runs this long stops
#: the driver.
RUN_TIMEOUT_S = 1200

#: (file under src/markov_fuzzy, old text, new text, note)
MUTANTS = [
    (
        "bounds.py",
        "        lo = max(lo, 1.0 - cells[3 - both])\n",
        "",
        "the literal closed form's lower end without its pair term",
    ),
    (
        "bounds.py",
        "key=lambda e: -weights[e])",
        "key=lambda e: weights[e])",
        "Hunter's forest taken lightest first",
    ),
    (
        "bounds.py",
        "        if index >= len(roots) and held[fresh] and not held[old]:\n"
        "            fresh, old = old, fresh\n",
        "",
        "_glue without its held-swap, which keeps the kept pieces and the "
        "artificials of the start basis independent",
    ),
    (
        "_simplex.py",
        "bland = key in seen",
        "bland = False",
        "the Bland switch never set.  Killed by "
        "test_blands_rule_ends_chvatals_cycle: on Chvatal's (1983) LP "
        "Dantzig's rule with this ratio test revisits a basis and, without "
        "the switch, cycles to MAX_PIVOTS",
    ),
    (
        "_simplex.py",
        "return int(ties[self._basis[ties].argmin()])",
        "return int(ties[u[ties].argmax()])",
        "Bland's leaving row replaced by the largest pivot.  Open: Chvatal's "
        "LP, which reaches Bland's rule, still ends at -1.0 under it, in the "
        "same 13 pivots: no test tells the two leaving rows apart",
    ),
    (
        "_simplex.py",
        "_HARRIS_SLACK = 1e-12\n",
        "_HARRIS_SLACK = 0.0\n",
        "the Harris slack removed.  The slack only widens the ties of the "
        "ratio test, among which the largest pivot leaves, for stability; "
        "each optimum is still checked on a fresh inverse against TOL.  "
        "Open: no test LP is ill-conditioned enough for the smaller pivot "
        "to matter",
    ),
    (
        "_simplex.py",
        "        if x.min() < -TOL:\n            failure = ",
        "        if x.min() < -1:\n            failure = ",
        "the final primal check loosened from -TOL to -1.  Open: no test "
        "LP ends on a basis infeasible by more than TOL, so the check never "
        "fires; a dual certificate over all cells (ROADMAP item 5) should "
        "kill it",
    ),
    (
        "_simplex.py",
        "REFACTOR_EVERY = 50\n",
        "REFACTOR_EVERY = 5000\n",
        "REFACTOR_EVERY raised from 50 to 5000.  Survives because pricing "
        "on an updated inverse that finds no improving column refactors and "
        "prices again, and the optimum is checked on that fresh inverse "
        "against TOL: the updates only steer the path.  Open: no test LP "
        "takes enough pivots for the drift to reach TOL",
    ),
    (
        "_simplex.py",
        "self._iterate(artificial) <= TOL",
        "self._iterate(artificial) <= 1.0",
        "phase I's verdict loosened from TOL to 1: a spec whose artificials "
        "cannot reach zero is taken as feasible, and phase II solves a "
        "relaxed LP.  Killed by test_matches_default_highs_settings",
    ),
    (
        "bounds.py",
        "    a_eq[:, size:] = np.eye(m)\n",
        "    a_eq[:, size:] = 0.0\n",
        "_lp_bounds leaves the artificial columns zero, so any start basis "
        "that holds an artificial is singular.  Killed by "
        "test_criterion_1_sharpness_reproduction",
    ),
    (
        "joints.py",
        '    if arr.dtype.kind in "iuf":\n',
        '    if arr.dtype.kind in "biufSU":\n',
        "the probability dtype check widened to bools, bytes and text, which "
        "numpy converts to floats as float() does",
    ),
    (
        "joints.py",
        "    if lowest < -EPS_SIMPLEX:\n"
        '        raise NegativeMass(f"probability entry {lowest} is negative")\n'
        "    np.maximum(",
        "    if lowest < -4 * EPS_SIMPLEX:\n"
        '        raise NegativeMass(f"probability entry {lowest} is negative")\n'
        "    np.maximum(",
        "the table rule's clamp bound widened from -EPS_SIMPLEX to "
        "-4 * EPS_SIMPLEX, what the constructors allowed before they took "
        "make_joint's rule",
    ),
    (
        "dsl.py",
        "            if var in scopes:\n"
        "                raise DuplicateVariable(\n"
        '                    f"quantified variable {var!r} shadows an enclosing binding"\n'
        "                )\n",
        "",
        "the parser's shadow check removed: a quantifier rebinds a variable "
        "an open quantifier binds.  Killed by "
        "test_duplicate_nested_variable_rejected",
    ),
    (
        "dsl.py",
        "                    if family != word:\n",
        "                    if False:\n",
        "the parser's second-family check removed: a quantified variable is "
        "applied to two families.  Killed by test_one_family_per_variable",
    ),
    (
        "dsl.py",
        "    match = next(islice(tokens, index, None), None)\n",
        "    match = next(islice(tokens, index + 1, None), None)\n",
        "an error's span, found on demand by scanning the text again, lands "
        "one token past the offending one.  Killed by "
        "test_parse_formula_agrees_with_the_oracle",
    ),
    (
        "bounds.py",
        "    masks = _merged([kid[1] for kid in kids] + components)\n",
        "    masks = _merged([kid[1] for kid in kids])\n",
        "an operand read by its own mask, not widened by the components it "
        "meets: in (P1 & P3) | P2 with the pair (1,2), the and's mask and "
        "P2's are disjoint, so the and is split from P2.  "
        "Killed by test_a_compound_operand_shares_a_pairs_component",
    ),
    (
        "bounds.py",
        "                mask |= m\n",
        "                mask |= m\n                break\n",
        "a merge that joins only the first of the groups an operand meets: in "
        "(P1 & P2) | P3 | (P2 & P3) | P4, P2 & P3 joins the group of P1 & P2 "
        "but not that of P3, and the part over P3 reads P2, which it was not "
        "given.  Killed by test_an_operand_that_bridges_two_groups_joins_them",
    ),
    (
        "boolfuncs.py",
        " and names == parsed[0]:\n",
        ":\n",
        "compile_formula adopts the parser's record whatever the ordering: a "
        "permuted ordering keeps the parser's coordinates, and one that "
        "misses a name compiles.  Killed by "
        "test_another_ordering_takes_the_walk",
    ),
    (
        "dsl.py",
        "form = _negated(form) if left is None",
        "form = form if left is None",
        "the parser's record drops a negation: the recorded normal form of "
        "!A is that of A.  Killed by test_the_record_equals_the_walks",
    ),
    (
        "dsl.py",
        "                    del scopes[fields[0]]\n",
        "",
        "a quantifier's scope stays open after its frame closes, so a sibling "
        "quantifier may not reuse its variable.  Killed by "
        "test_closed_scopes_bind_nothing",
    ),
    (
        "dsl.py",
        "_OPENERS = frozenset((False, None, Exists, Forall))",
        "_OPENERS = frozenset((False, Exists, Forall))",
        "a quantifier may not follow an open parenthesis.  Killed by "
        "test_nested_quantifiers_distinct_names",
    ),
    (
        "dsl.py",
        "elif len(names) <= N_MAX:",
        "elif len(names) < N_MAX:",
        "the parser stops building the normal form one name early, so the "
        "record of a tree with exactly N_MAX names is stale.  Killed by "
        "test_trees_at_and_over_the_cap",
    ),
    (
        "cli.py",
        "    if form is None:\n        raise UnexpandedQuantifier(_UNEXPANDED)\n",
        "",
        "the CLI ignores the record's quantified mark: a quantified formula "
        "that names more variables than the model has is an arity mismatch "
        "(exit 3).  Killed by test_quantified_formula_over_the_cap_exit_2",
    ),
    (
        "boolfuncs.py",
        "                stack += (getattr(node, name) for name in reversed(fields))\n",
        "                stack += (getattr(node, name) for name in fields)\n",
        "_fold visits subformulas right to left, so each combine reads them "
        "in reverse and the rightmost unbound name is the one named.  Killed by "
        "test_leftmost_unbound_variable_is_named",
    ),
    (
        "boolfuncs.py",
        "                unbound.append(node.name)\n",
        "                raise UnboundVariable(node.name)\n",
        "compile_formula's fold raises UnboundVariable at the leaf, before "
        "a quantifier to its right is done.  Killed by "
        "test_unbound_variable_with_a_quantifier",
    ),
]


class MutantError(Exception):
    """An entry that cannot be applied, or a run that neither passed nor
    failed."""


def mutated(text: str, entry: tuple) -> str:
    """`text` with `entry`'s edit applied; its old text must occur exactly
    once."""
    name, old, new, note = entry
    count = text.count(old)
    if count != 1:
        raise MutantError(f"{name}: {note}: old text found {count} times, need 1")
    return text.replace(old, new)


def run_tier1(src: Path, cwd: Path) -> int:
    """The exit code of tier-1 run against the package under `src`."""
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    argv += ["--continue-on-collection-errors", str(ROOT / "tests")]
    return subprocess.run(
        argv,
        cwd=cwd,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        timeout=RUN_TIMEOUT_S,
    ).returncode


def verdict(code: int) -> str:
    """"survived" for a run that passed, "killed" for one that failed."""
    if code == 0:
        return "survived"
    if code == 1:
        return "killed"
    raise MutantError(f"pytest exited {code}, neither passed nor failed")


def check(entry: tuple, runner=run_tier1) -> str:
    """Apply `entry` to a temporary copy of `src/` and run `runner` on it."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "markov_fuzzy" / entry[0]
        path.write_text(mutated(path.read_text(), entry))
        try:
            return verdict(runner(src, Path(tmp)))
        except MutantError as exc:
            raise MutantError(f"{entry[0]}: {entry[3]}: {exc}") from None


def main() -> int:
    try:
        for entry in MUTANTS:
            mutated((ROOT / "src" / "markov_fuzzy" / entry[0]).read_text(), entry)
        for entry in MUTANTS:
            print(f"{check(entry)}: {entry[0]}: {entry[3]}", flush=True)
    except MutantError as exc:
        print(f"mutants: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
