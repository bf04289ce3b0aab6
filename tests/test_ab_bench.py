"""The A/B benchmark driver's summary, on canned results; no benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

_path = Path(__file__).resolve().parent.parent / "tools" / "ab_bench.py"
_spec = importlib.util.spec_from_file_location("ab_bench", _path)
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)

END_TO_END = [
    {"name": "latency_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "peak_mib", "unit": "MiB", "better": "lower", "bound": 0.15},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def result(failed=0, **metrics):
    return {"correct": not failed, "attempted": 10, "failed": failed,
            "metrics": {k: {"value": v, "unit": ""} for k, v in metrics.items()}}


def pairs_of(parent, change, name="latency_ms_p50"):
    return [{"parent": result(**{name: p}), "change": result(**{name: c})}
            for p, c in zip(parent, change)]


def rows_by_name(pairs):
    return {r["name"]: r for r in ab_bench.summarize(pairs, END_TO_END)}


class TestSummarize:
    def test_medians_spread_and_wins(self):
        pairs = pairs_of([10, 11, 12, 13, 14], [9, 11, 13, 12, 10])
        row = rows_by_name(pairs)["latency_ms_p50"]
        assert row["parent_median"] == 12 and row["change_median"] == 11
        assert row["parent_iqr"] == pytest.approx(2.0)  # quartiles 11 and 13
        assert (row["won"], row["lost"], row["n"]) == (3, 1, 5)  # the tie counts for neither
        assert row["verdict"] == "ok"

    def test_worse_beyond_the_bound_regresses(self):
        row = rows_by_name(pairs_of([100] * 4, [126] * 4))["latency_ms_p50"]
        assert row["verdict"] == "regressed"
        assert (row["won"], row["lost"]) == (0, 4)

    def test_worse_within_the_bound_is_ok(self):
        assert rows_by_name(pairs_of([100] * 4, [124] * 4))["latency_ms_p50"]["verdict"] == "ok"

    def test_spread_wider_than_the_bound_is_unresolved(self):
        parent = [60, 80, 100, 120, 140]  # quartiles 80 and 120: spread 40% of the median
        assert rows_by_name(pairs_of(parent, [50, 90, 95, 130, 150]))[
            "latency_ms_p50"]["verdict"] == "unresolved"
        # unless every run of the change beats every run of the parent
        assert rows_by_name(pairs_of(parent, [40, 41, 42, 43, 44]))[
            "latency_ms_p50"]["verdict"] == "ok"

    def test_metric_missing_on_one_side_is_skipped(self):
        pairs = [{"parent": result(latency_ms_p50=10, peak_mib=5),
                  "change": result(latency_ms_p50=9)},
                 {"parent": result(latency_ms_p50=10, peak_mib=5),
                  "change": result(latency_ms_p50=11, peak_mib=5)}]
        rows = rows_by_name(pairs)
        assert rows["peak_mib"]["n"] == 1 and rows["latency_ms_p50"]["n"] == 2
        assert "setup_s" not in rows


class TestTally:
    def test_counts_per_side(self):
        pairs = [{"parent": result(latency_ms_p50=1), "change": result(failed=2)},
                 {"parent": result(latency_ms_p50=1), "change": result(latency_ms_p50=1)}]
        assert ab_bench.tally(pairs) == {
            "parent": {"correct": 2, "runs": 2, "attempted": 20, "failed": 0},
            "change": {"correct": 1, "runs": 2, "attempted": 20, "failed": 2},
        }

    def test_report_names_each_side_and_metric(self):
        text = ab_bench.format_report("train64", pairs_of([10, 12], [11, 11]), END_TO_END)
        assert text.splitlines()[0] == "train64: 2 pairs"
        assert "| latency_ms_p50 (ms) | 11 | 11 |" in text
        assert "parent: correct 2/2 runs, attempted 20, failed 0" in text
        assert "change: correct 2/2 runs, attempted 20, failed 0" in text


class TestClaim:
    def claim(self, parent, change):
        return ab_bench.check_claim(rows_by_name(pairs_of(parent, change))["latency_ms_p50"])

    def test_met(self):
        # 9 of 10 pairs won, medians 205 -> 180 against a parent IQR of 10
        parent = [200, 202, 204, 205, 205, 205, 206, 210, 212, 215]
        change = [180, 181, 179, 180, 178, 182, 180, 183, 177, 220]
        met, line = self.claim(parent, change)
        assert met, line
        assert line.startswith("claim latency_ms_p50: met: change won 9/10 pairs")

    def test_too_few_wins(self):
        parent = [200, 202, 204, 205, 205, 205, 206, 210, 212, 215]
        change = [180, 181, 179, 180, 178, 182, 180, 183, 230, 220]
        met, line = self.claim(parent, change)
        assert not met
        assert "won 8/10 pairs (under 9/10 needed)" in line

    def test_ties_count_for_neither(self):
        # two tied pairs stay in the count of pairs run: 8 wins of 10
        met, line = self.claim([200] * 10, [150] * 8 + [200] * 2)
        assert not met
        assert "won 8/10 pairs (under 9/10 needed)" in line

    def test_difference_inside_the_iqr(self):
        # every pair won, but by less than the parent's own spread
        parent = [180, 190, 200, 210, 220, 180, 190, 200, 210, 220]
        change = [p - 5 for p in parent]
        met, line = self.claim(parent, change)
        assert not met
        assert "won 10/10" in line and "(not more than the IQR)" in line
