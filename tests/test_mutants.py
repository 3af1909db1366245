"""The bookkeeping of the mutation driver (`tools/mutants.py`): how an edit
is applied and how a run's exit code reads; no pytest run is started."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"
_SPEC = importlib.util.spec_from_file_location("mutants", _PATH)
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)


class TestMutated:
    def test_replaces_the_one_occurrence(self):
        entry = ("f.py", "x = 1\n", "x = 2\n", "note")
        assert mutants.mutated("a\nx = 1\nb\n", entry) == "a\nx = 2\nb\n"

    @pytest.mark.parametrize("text, count", [("a\nb\n", 0), ("x = 1\nx = 1\n", 2)])
    def test_an_edit_found_other_than_once_names_the_entry(self, text, count):
        entry = ("f.py", "x = 1\n", "x = 2\n", "the note")
        with pytest.raises(mutants.MutantError, match=f"f.py: the note: .*found {count} times"):
            mutants.mutated(text, entry)

    def test_every_entry_applies_to_the_package(self):
        src = mutants.ROOT / "src" / "markov_fuzzy"
        for entry in mutants.MUTANTS:
            text = (src / entry[0]).read_text()
            assert mutants.mutated(text, entry) != text


class TestVerdict:
    def test_exit_codes(self):
        assert mutants.verdict(0) == "survived"
        assert mutants.verdict(1) == "killed"
        for code in (2, 3, 4, 5):
            with pytest.raises(mutants.MutantError, match=f"exited {code}"):
                mutants.verdict(code)

    @pytest.mark.parametrize("code, verdict", [(0, "survived"), (1, "killed")])
    def test_a_fake_runner_sees_the_mutated_copy(self, code, verdict):
        entry = mutants.MUTANTS[0]
        seen = []

        def runner(src, cwd):
            seen.append(((src / "markov_fuzzy" / entry[0]).read_text(), src, cwd))
            return code

        assert mutants.check(entry, runner) == verdict
        (text, src, cwd), = seen
        original = (mutants.ROOT / "src" / "markov_fuzzy" / entry[0]).read_text()
        assert text == mutants.mutated(original, entry)
        assert src.parent == cwd and not cwd.exists()
        assert cwd != mutants.ROOT and mutants.ROOT not in cwd.parents

    def test_an_odd_exit_names_the_entry(self):
        entry = mutants.MUTANTS[0]
        with pytest.raises(mutants.MutantError, match=f"{entry[0]}: .*exited 4"):
            mutants.check(entry, lambda src, cwd: 4)
