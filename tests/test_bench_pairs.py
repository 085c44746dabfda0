"""The summary and guards of tools/bench_pairs.py on canned input;
nothing is run."""

import importlib.util
import json
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


def test_summary_gives_attempted_quartiles_without_wins():
    runs = [run("a", seed, side, 2.0, 5.0) for seed in (1, 2, 3) for side in ("before", "after")]
    for r, attempted in zip(runs, (300, 610, 320, 590, 310, 600)):
        r["attempted"] = attempted
    got = bench_pairs.summarize(runs, BETTER)["a"]["attempted"]
    assert got == {
        "before": {"q1": 305.0, "median": 310, "q3": 315.0},
        "after": {"q1": 595.0, "median": 600, "q3": 605.0},
        "pairs": 3,
    }
    # a run that lacks the count leaves it out
    del runs[0]["attempted"]
    assert "attempted" not in bench_pairs.summarize(runs, BETTER)["a"]


BOUNDS = {"checks_per_s": 0.25, "peak_rss_mb": 0.1}


def one_pair(rate, rss):
    return [run("w", 1, "before", 10.0, 20.0), run("w", 1, "after", rate, rss)]


@pytest.mark.parametrize("rate, change, over", [
    (7.6, -0.24, False), (7.4, -0.26, True), (14.0, 0.4, False),
])
def test_higher_is_better_crosses_its_bound_falling(rate, change, over):
    got = bench_pairs.summarize(one_pair(rate, 20.0), BETTER, BOUNDS)["w"]["checks_per_s"]
    assert got["change"] == pytest.approx(change)
    assert got["over_bound"] is over


@pytest.mark.parametrize("rss, change, over", [
    (21.9, 0.095, False), (22.1, 0.105, True), (15.0, -0.25, False),
])
def test_lower_is_better_crosses_its_bound_rising(rss, change, over):
    got = bench_pairs.summarize(one_pair(10.0, rss), BETTER, BOUNDS)["w"]["peak_rss_mb"]
    assert got["change"] == pytest.approx(change)
    assert got["over_bound"] is over


def test_one_line_per_crossing_and_no_flag_without_a_bound():
    summary = bench_pairs.summarize(one_pair(7.4, 22.1), BETTER, {"peak_rss_mb": 0.1})
    assert "over_bound" not in summary["w"]["checks_per_s"]
    assert bench_pairs.bound_crossings(summary) == [
        "over bound: w peak_rss_mb 20 -> 22.1 (+10.5%, lower is better)"
    ]
    summary = bench_pairs.summarize(one_pair(7.4, 22.1), BETTER, BOUNDS)
    assert len(bench_pairs.bound_crossings(summary)) == 2


def test_seed_and_job_parsing():
    assert bench_pairs.parse_seeds("1401-1403,1410") == [1401, 1402, 1403, 1410]
    assert bench_pairs.parse_jobs(["w:1-2", "v:7"]) == [("w", 1), ("w", 2), ("v", 7)]
    with pytest.raises(SystemExit):
        bench_pairs.parse_jobs(["w"])


SPEC = {"workloads": [{"name": "w"}, {"name": "v"}]}


def test_unknown_workload_refused():
    bench_pairs.check_workloads([("w", 1), ("v", 2)], SPEC)
    with pytest.raises(SystemExit, match="unknown workload nope; BENCHMARK.json declares v, w"):
        bench_pairs.check_workloads([("w", 1), ("nope", 2)], SPEC)


def test_unknown_workload_refused_before_export(monkeypatch, tmp_path):
    def export(rev, parent):
        raise AssertionError("exported before the workload check")

    monkeypatch.setattr(bench_pairs, "export", export)
    out = tmp_path / "BENCH_x.json"
    for flag in ("--run", "--traced"):
        with pytest.raises(SystemExit, match="unknown workload no-such-workload"):
            bench_pairs.main(["--before", "HEAD", "--after", "HEAD", "--label", "x",
                              flag, "no-such-workload:1", "--out", str(out)])
    assert not out.exists()


def canned_output(correct, failed):
    last = {"correct": correct, "attempted": 12, "failed": failed,
            "metrics": {"checks_per_s": {"value": 3.5, "unit": "1/s"}}}
    return "workload w, seed 1, 20 s, trace 0: 12 checks attempted\n" + json.dumps(last) + "\n"


def test_result_keeps_metric_values():
    got = bench_pairs.parse_result(canned_output(True, 0), "run")
    assert got["metrics"] == {"checks_per_s": 3.5}
    assert (got["correct"], got["attempted"], got["failed"]) == (True, 12, 0)


@pytest.mark.parametrize("correct, failed", [(False, 0), (True, 1), (False, 2)])
def test_wrong_or_failed_run_stops(correct, failed):
    with pytest.raises(SystemExit, match=f"reported correct {correct} and {failed} failed"):
        bench_pairs.parse_result(canned_output(correct, failed), "run")


def spread_pairs(befores, afters):
    return [run("w", seed, side, rate, 20.0)
            for seed, (b, a) in enumerate(zip(befores, afters))
            for side, rate in (("before", b), ("after", a))]


@pytest.mark.parametrize("befores, afters, spread, unresolved", [
    # before quartiles 9.0 and 11.4 around 10: a spread of 24%, then 26%
    ((8.0, 9.0, 10.0, 11.4, 12.0), (8.0, 9.0, 10.0, 11.4, 12.0), 0.24, False),
    ((8.0, 9.0, 10.0, 11.6, 12.0), (8.0, 9.0, 10.0, 11.6, 12.0), 0.26, True),
    # as wide, but every after run beats every before run
    ((8.0, 9.0, 10.0, 11.6, 12.0), (12.1, 13.0, 14.0, 15.0, 16.0), 0.26, False),
    # every after run but one
    ((8.0, 9.0, 10.0, 11.6, 12.0), (12.0, 13.0, 14.0, 15.0, 16.0), 0.26, True),
])
def test_a_spread_wider_than_the_bound_is_unresolved(befores, afters, spread, unresolved):
    summary = bench_pairs.summarize(spread_pairs(befores, afters), BETTER, BOUNDS)
    got = summary["w"]["checks_per_s"]
    assert got["before_spread"] == pytest.approx(spread)
    assert got["unresolved"] is unresolved
    assert summary["w"]["peak_rss_mb"]["unresolved"] is False
    lines = bench_pairs.unresolved_metrics(summary)
    assert lines == ([f"unresolved: w checks_per_s: the before runs spread {spread:.1%} "
                      "of their median, wider than the bound"] if unresolved else [])


def test_lower_is_better_every_run_better_is_resolved():
    runs = [run("w", seed, side, 10.0, rss) for seed, (b, a) in enumerate(
        zip((16.0, 18.0, 20.0, 23.0, 24.0), (15.0, 15.5, 14.0, 13.0, 12.0)))
        for side, rss in (("before", b), ("after", a))]
    got = bench_pairs.summarize(runs, BETTER, BOUNDS)["w"]["peak_rss_mb"]
    assert got["before_spread"] == pytest.approx(0.25)
    assert got["unresolved"] is False
