"""The decision rules of the A/B benchmark driver (`tools/ab.py`), on plain
lists; no benchmark run is started."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)


class TestSummary:
    def test_a_tie_counts_for_neither_side(self):
        parent = [10.0, 10.0, 10.0, 10.0]
        change = [11.0, 10.0, 9.0, 10.0]
        assert ab.summary(parent, change, "higher")["change_better_pairs"] == 1
        assert ab.summary(parent, change, "lower")["change_better_pairs"] == 1

    def test_follows_the_direction_of_the_metric(self):
        parent = [1.0, 2.0, 3.0]
        change = [2.0, 3.0, 2.0]
        assert ab.summary(parent, change, "higher")["change_better_pairs"] == 2
        assert ab.summary(parent, change, "lower")["change_better_pairs"] == 1

    def test_medians_and_inclusive_quartiles(self):
        stats = ab.summary([1.0, 2.0, 3.0, 4.0, 5.0], [6.0] * 5, "higher")
        assert (stats["parent_median"], stats["change_median"]) == (3.0, 6.0)
        assert (stats["parent_q1"], stats["parent_q3"]) == (2.0, 4.0)
        assert stats["pairs"] == 5

    def test_one_pair_has_no_spread(self):
        stats = ab.summary([4.0], [5.0], "higher")
        assert stats["parent_q1"] == stats["parent_q3"] == 4.0


def claim(won, pairs, parent_median, change_median, q1, q3):
    return ab.claim_shown(
        {
            "change_better_pairs": won,
            "pairs": pairs,
            "parent_median": parent_median,
            "change_median": change_median,
            "parent_q1": q1,
            "parent_q3": q3,
        }
    )


class TestClaimShown:
    def test_needs_nine_tenths_of_the_pairs(self):
        assert claim(9, 10, 100.0, 120.0, 98.0, 102.0)
        assert not claim(8, 10, 100.0, 120.0, 98.0, 102.0)
        assert claim(18, 20, 100.0, 120.0, 98.0, 102.0)
        assert not claim(17, 20, 100.0, 120.0, 98.0, 102.0)

    def test_needs_a_median_gap_larger_than_the_parents_iqr(self):
        assert claim(10, 10, 100.0, 104.5, 98.0, 102.0)
        assert not claim(10, 10, 100.0, 104.0, 98.0, 102.0)
        # The gap is taken in either direction: a lower-is-better metric.
        assert claim(10, 10, 100.0, 95.5, 98.0, 102.0)
        assert not claim(10, 10, 100.0, 96.0, 98.0, 102.0)


class TestWithinBound:
    @pytest.mark.parametrize(
        "better, change, ok",
        [
            ("higher", 80.0, True),
            ("higher", 74.0, False),
            ("higher", 200.0, True),
            ("lower", 120.0, True),
            ("lower", 126.0, False),
            ("lower", 10.0, True),
        ],
    )
    def test_checks_the_direction_of_the_metric(self, better, change, ok):
        stats = {"parent_median": 100.0, "change_median": change}
        assert ab.within_bound(stats, better, 0.25) is ok


class TestWorkloads:
    """The workloads are the ones `BENCHMARK.json` declares; each case stops
    at an argument check, before any run."""

    @pytest.fixture(autouse=True)
    def repository(self, monkeypatch):
        monkeypatch.setattr(ab, "_git", lambda root, *args: str(_PATH.parent.parent))

    def test_the_default_workloads_are_declared(self, capsys):
        with pytest.raises(SystemExit):
            ab.main(["--parent", "HEAD", "--pr", "0", "--pairs", "0"])
        assert "error: --pairs < 1" in capsys.readouterr().err

    def test_an_undeclared_workload_is_refused(self, capsys):
        with pytest.raises(SystemExit):
            ab.main(["--parent", "HEAD", "--pr", "0", "--workloads", "cli_cold,cli_warm"])
        assert "error: unknown workloads ['cli_warm']" in capsys.readouterr().err
