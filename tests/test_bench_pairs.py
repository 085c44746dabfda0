"""The summary of tools/bench_pairs.py on canned runs; nothing is run."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

BETTER = {"checks_per_s": "higher", "peak_rss_mb": "lower"}


def run(workload, seed, side, rate, rss):
    return {"workload": workload, "seed": seed, "side": side,
            "metrics": {"checks_per_s": rate, "peak_rss_mb": rss}}


def test_summary_counts_pair_wins_by_direction():
    runs = [
        run("w", 1, "before", 10.0, 20.0), run("w", 1, "after", 12.0, 21.0),
        run("w", 2, "after", 9.0, 19.0), run("w", 2, "before", 11.0, 20.0),
        run("w", 3, "before", 10.0, 20.0), run("w", 3, "after", 14.0, 20.0),
        # no partner: left out of every figure
        run("w", 4, "before", 1.0, 99.0),
    ]
    got = bench_pairs.summarize(runs, BETTER)["w"]
    rate = got["checks_per_s"]
    assert rate["pairs"] == 3
    assert rate["after_wins"] == 2
    assert rate["before"] == {"q1": 10.0, "median": 10.0, "q3": 10.5}
    assert rate["after"] == {"q1": 10.5, "median": 12.0, "q3": 13.0}
    rss = got["peak_rss_mb"]
    # lower is better; a tie is no win
    assert rss["after_wins"] == 1
    assert rss["before"]["median"] == 20.0 and rss["after"]["median"] == 20.0


def test_summary_per_workload_and_single_pair():
    runs = [run("a", 5, "before", 2.0, 5.0), run("a", 5, "after", 3.0, 4.0),
            run("b", 6, "before", 1.0, 5.0)]
    got = bench_pairs.summarize(runs, BETTER)
    assert list(got) == ["a"]
    assert got["a"]["checks_per_s"]["after"] == {"q1": 3.0, "median": 3.0, "q3": 3.0}
    assert got["a"]["peak_rss_mb"]["after_wins"] == 1


def test_summary_skips_metrics_a_run_lacks():
    runs = [run("a", 5, "before", 2.0, 5.0), run("a", 5, "after", 3.0, 4.0)]
    del runs[1]["metrics"]["peak_rss_mb"]
    assert list(bench_pairs.summarize(runs, BETTER)["a"]) == ["checks_per_s"]


def test_seed_and_job_parsing():
    assert bench_pairs.parse_seeds("1401-1403,1410") == [1401, 1402, 1403, 1410]
    assert bench_pairs.parse_jobs(["w:1-2", "v:7"]) == [("w", 1), ("w", 2), ("v", 7)]
    with pytest.raises(SystemExit):
        bench_pairs.parse_jobs(["w"])
