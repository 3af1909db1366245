"""The CLI's byte-stability contract: every call of the recorded corpus
(`tests/cli_corpus.py`) prints the same stdout and stderr bytes and exits
with the same code as when it was recorded."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "cli_corpus", Path(__file__).with_name("cli_corpus.py")
)
cli_corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_corpus)

RECORDED = cli_corpus.load()


def test_recorded_cases_are_the_generated_ones():
    """The data file holds exactly the generator's calls, in order; a
    change to either needs `python tests/cli_corpus.py --regenerate`."""
    inputs = [
        {k: v for k, v in case.items() if k not in cli_corpus.RESULT_KEYS}
        for case in RECORDED
    ]
    assert inputs == cli_corpus.cases()


def test_corpus_covers_every_subcommand_format_and_exit_code():
    assert {case["argv"][0] for case in RECORDED} == {
        "eval",
        "bounds",
        "sweep",
        "quantify",
    }
    assert {case["argv"][1] for case in RECORDED if case["argv"][0] == "quantify"} == {
        "bounds",
        "sample",
    }
    formats = {
        case["argv"][case["argv"].index("--format") + 1]
        for case in RECORDED
        if "--format" in case["argv"]
    }
    assert formats == {"json", "csv"}
    assert {case["exit"] for case in RECORDED} == {0, 2, 3, 4, 5}


def test_replay_is_byte_identical(tmp_path):
    changed = []
    for index, case in enumerate(RECORDED):
        result = cli_corpus.replay(case, str(tmp_path))
        if any(result[key] != case[key] for key in cli_corpus.RESULT_KEYS):
            changed.append((index, case["argv"], case["exit"], result["exit"]))
    assert not changed, f"{len(changed)} of {len(RECORDED)} cases changed: {changed[:5]}"
