"""Paired before/after runs of perfbench between two git revisions.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py --before HEAD~1 --after HEAD --label 14 \\
        --change "what the after side changes" \\
        --run transforms-scenarios:1401-1410 --run delta-axioms:1411-1413 \\
        --traced transforms-scenarios:401 --out BENCH_14.json

Each revision is exported with `git archive` into its own temporary
directory, so both sides run from committed files only.  For every
(workload, seed) the two sides run `perfbench/run.py --trace 0` back to
back for the run_seconds of BENCHMARK.json, one process at a time; the
side that runs first alternates from pair to pair.  Each --traced
(workload, seed) runs once per side with --trace 1.  The output file
holds every run, the traced runs and, per workload and end-to-end
metric, each side's median and quartiles, the number of pairs the after
side won and the change of the median, flagged over_bound where it goes
the worse way by more than the metric's bound, and unresolved where the
before side's own interquartile spread is wider than that bound, unless
every after run beats every before run; each flagged metric is printed
at the end.  It is rewritten after every run, so what was measured
survives an interruption.  A workload that BENCHMARK.json does not
declare is refused before anything is exported, and a run that reports
a wrong output or a failed operation stops the comparison.  Standard
library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("before", "after")
TRACED_SECONDS = 10  # per-layer figures are medians over rounds; a short run will do


def parse_seeds(text: str) -> List[int]:
    """'1401-1403,1410' -> [1401, 1402, 1403, 1410]."""
    out: List[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def parse_jobs(specs: Iterable[str]) -> List[Tuple[str, int]]:
    """WORKLOAD:SEEDS arguments -> (workload, seed) in the order given."""
    jobs = []
    for spec in specs:
        workload, sep, seeds = spec.partition(":")
        if not sep:
            raise SystemExit(f"error: expected WORKLOAD:SEEDS, got {spec!r}")
        jobs.extend((workload, seed) for seed in parse_seeds(seeds))
    return jobs


def check_workloads(jobs: Iterable[Tuple[str, int]], spec: dict) -> None:
    """Refuse a workload that BENCHMARK.json (here `spec`) does not declare."""
    known = {w["name"] for w in spec["workloads"]}
    unknown = sorted({workload for workload, _ in jobs} - known)
    if unknown:
        raise SystemExit(f"error: unknown workload {', '.join(unknown)}; "
                         f"BENCHMARK.json declares {', '.join(sorted(known))}")


def quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def summarize(runs: List[dict], better: Dict[str, str],
              bounds: Optional[Dict[str, float]] = None) -> Dict[str, dict]:
    """Per workload and metric of `better` ("higher" or "lower" is
    better): each side's quartiles over its runs, how many of the pairs
    (the same workload and seed on both sides) the after side won
    strictly, and the change, after median / before median - 1.  For a
    metric with a bound in `bounds`, over_bound says whether the change
    goes the worse way by more than the bound, before_spread is the
    before side's (q3 - q1) / median, and unresolved says that spread is
    wider than the bound, so the medians cannot tell a change within the
    bound from none, unless every after run beats every before run.
    Under "attempted", each side's quartiles of the checks a run
    attempted, with no win count: perfbench keeps every check's output,
    so peak_rss_mb reads against that count."""
    bounds = bounds or {}
    by_key: Dict[Tuple[str, int], Dict[str, dict]] = {}
    for run in runs:
        by_key.setdefault((run["workload"], run["seed"]), {})[run["side"]] = run
    out: Dict[str, dict] = {}
    for workload in sorted({w for w, _ in by_key}):
        pairs = [sides for (w, _), sides in sorted(by_key.items())
                 if w == workload and len(sides) == 2]
        if not pairs:
            continue
        per_metric = {}
        for metric, direction in sorted(better.items()):
            if not all(metric in s[side]["metrics"] for s in pairs for side in SIDES):
                continue
            values = {side: [s[side]["metrics"][metric] for s in pairs] for side in SIDES}
            sign = 1 if direction == "higher" else -1
            wins = sum(sign * (a - b) > 0 for b, a in zip(values["before"], values["after"]))
            entry = per_metric[metric] = {
                "better": direction,
                "before": quartiles(values["before"]),
                "after": quartiles(values["after"]),
                "after_wins": wins,
                "pairs": len(pairs),
            }
            before, after = entry["before"]["median"], entry["after"]["median"]
            if before:
                entry["change"] = after / before - 1
                if metric in bounds:
                    entry["over_bound"] = -sign * entry["change"] > bounds[metric]
                    spread = (entry["before"]["q3"] - entry["before"]["q1"]) / before
                    every_run_better = (min(sign * a for a in values["after"])
                                        > max(sign * b for b in values["before"]))
                    entry["before_spread"] = spread
                    entry["unresolved"] = spread > bounds[metric] and not every_run_better
        if per_metric and all("attempted" in s[side] for s in pairs for side in SIDES):
            per_metric["attempted"] = {
                side: quartiles([s[side]["attempted"] for s in pairs]) for side in SIDES
            }
            per_metric["attempted"]["pairs"] = len(pairs)
        if per_metric:
            out[workload] = per_metric
    return out


def bound_crossings(summary: Dict[str, dict]) -> List[str]:
    """One line per workload and metric that summarize flagged over_bound."""
    return [f"over bound: {workload} {metric} {m['before']['median']:.4g} -> "
            f"{m['after']['median']:.4g} ({m['change']:+.1%}, {m['better']} is better)"
            for workload, metrics in summary.items()
            for metric, m in metrics.items() if m.get("over_bound")]


def unresolved_metrics(summary: Dict[str, dict]) -> List[str]:
    """One line per workload and metric that summarize flagged unresolved."""
    return [f"unresolved: {workload} {metric}: the before runs spread "
            f"{m['before_spread']:.1%} of their median, wider than the bound"
            for workload, metrics in summary.items()
            for metric, m in metrics.items() if m.get("unresolved")]


# -- running ------------------------------------------------------------------------


def export(rev: str, parent: str) -> Tuple[str, str]:
    """(full commit id, directory holding `git archive` of it)."""
    sha = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                         capture_output=True, check=True).stdout
    where = tempfile.mkdtemp(prefix=f"bench-{sha[:8]}-", dir=parent)
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(where, filter="data")
    return sha, where


def run_one(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The last line of perfbench/run.py's output, with metric values only."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True,
                         timeout=4 * seconds + 600)
    if res.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} in {checkout} exited "
                         f"{res.returncode}:\n{res.stderr[-2000:]}")
    return parse_result(res.stdout, f"{' '.join(cmd)} in {checkout}")


def parse_result(stdout: str, what: str) -> dict:
    """The last line of perfbench/run.py's output, with metric values only.
    A run with a wrong output or a failed operation stops the comparison,
    so that no summary counts it."""
    lines = stdout.strip().splitlines()
    out = json.loads(lines[-1])
    if not out["correct"] or out["failed"]:
        report = "\n".join(lines[:-1])[-2000:]
        raise SystemExit(f"error: {what} reported correct {out['correct']} and "
                         f"{out['failed']} failed operations:\n{report}")
    out["metrics"] = {name: m["value"] for name, m in out["metrics"].items()}
    return out


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", required=True, help="git revision of the parent")
    parser.add_argument("--after", required=True, help="git revision of the change")
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    parser.add_argument("--change", default="", help="one line on what the after side changes")
    parser.add_argument("--run", action="append", default=[], metavar="WORKLOAD:SEEDS",
                        help="untraced pairs, seeds as 1-3,7; repeatable")
    parser.add_argument("--traced", action="append", default=[], metavar="WORKLOAD:SEEDS",
                        help="one traced run per side and seed; repeatable")
    parser.add_argument("--workdir", default=None, help="parent of the exported trees")
    parser.add_argument("--out", default=None, help="default BENCH_<label>.json")
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    jobs, traced_jobs = parse_jobs(args.run), parse_jobs(args.traced)
    out_path = Path(args.out or f"BENCH_{args.label}.json")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_workloads(jobs + traced_jobs, spec)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"] if "bound" in m}
    seconds = spec["run_seconds"]
    doc = {
        "label": args.label,
        "change": args.change,
        "command": "python3 perfbench/run.py --workload <workload> --seed <seed> "
                   f"--seconds {seconds:g} --trace 0",
        "traced_command": "python3 perfbench/run.py --workload <workload> --seed <seed> "
                          f"--seconds {TRACED_SECONDS:g} --trace 1",
        "sides": {},
        "host": f"{os.cpu_count()}-CPU {platform.system()} host, one benchmark "
                "process at a time",
        "pairs": "each seed runs both sides back to back; the side that runs "
                 "first alternates from pair to pair; each side in its own "
                 "git archive copy",
        "runs": [],
        "traced": [],
        "summary": {},
    }
    trees: Dict[str, str] = {}
    try:
        for side, rev in zip(SIDES, (args.before, args.after)):
            doc["sides"][side], trees[side] = export(rev, args.workdir)
        base = {"nproc": os.cpu_count(), "python": platform.python_version()}

        def record(key: str, side: str, workload: str, seed: int, extra: dict,
                   seconds: float, trace: int) -> None:
            res = run_one(trees[side], workload, seed, seconds, trace)
            doc[key].append({"workload": workload, "seed": seed, "side": side,
                             "git_head": doc["sides"][side], **base, **extra, **res})
            doc["summary"] = summarize(doc["runs"], better, bounds)
            out_path.write_text(json.dumps(doc, indent=1) + "\n")
            print(f"{key} {workload} seed {seed} {side}: {res['metrics']}", flush=True)

        for i, (workload, seed) in enumerate(jobs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                record("runs", side, workload, seed, {"ran_first": order[0]},
                       seconds, 0)
        for workload, seed in traced_jobs:
            for side in SIDES:
                record("traced", side, workload, seed,
                       {"seconds": TRACED_SECONDS}, TRACED_SECONDS, 1)
    finally:
        for where in trees.values():
            shutil.rmtree(where, ignore_errors=True)
    for line in bound_crossings(doc["summary"]) + unresolved_metrics(doc["summary"]):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
