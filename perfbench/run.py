"""Benchmark of prism_forge: one workload per process, single-threaded.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload delta-axioms --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 10     # every workload, both modes

With --trace 0 the run prints the end-to-end metrics; with --trace 1 it
alternates untraced and traced rounds of the same checks and prints the
per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # set-up is timed from here

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOAD_NAMES = ("delta-axioms", "window-cohomology", "pd-cell-contraction",
                  "transforms-scenarios")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170

# per-layer metrics printed by a traced run, in BENCHMARK.json order
LAYER_METRICS = (
    "padic.scalar_mul.calls", "padic.exact_div_p.calls",
    "pdpoly.mul.calls", "pdpoly.mul.self_s", "pdpoly.substitute.calls",
    "pdpoly.substitute.self_s", "pdpoly.element_init.calls",
    "pdpoly.divided_power.self_s", "pdpoly.self_s",
    "pdpoly.apply_derivation.calls", "pdpoly.apply_derivation.self_s",
    "derham.d_component.calls", "derham.poincare_contraction.self_s",
    "deltaring.delta.calls", "deltaring.pairs_checked", "deltaring.self_s",
    "derham.build_p_derham.self_s", "derham.self_s",
    "homology.smith_normal_form.calls", "homology.smith_normal_form.self_s",
    "homology.cohomology.self_s", "homology.snf_max_entry_bits", "homology.self_s",
    "homology.fp_rref.self_s", "homology.mat_mul.self_s",
    "homology.mapping_cone.self_s", "transforms.self_s", "envelopes.self_s",
    "cli.self_s", "cli.report_bytes", "exprparse.self_s", "trace.overhead_s",
)


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload; without it, run all of them")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)  # one set-up, for the median
    args = parser.parse_args(argv)
    if args.setup_only and not args.workload:
        parser.error("--setup-only needs --workload")
    return args


def load_library() -> None:
    """Put the checkout's src/ first on the path and import prism_forge from it."""
    src = ROOT / "src"
    if not (src / "prism_forge" / "__init__.py").is_file():
        sys.exit(f"error: no prism_forge sources under {src}")
    sys.path.insert(0, str(src))
    import prism_forge

    if Path(prism_forge.__file__).resolve().parent != (src / "prism_forge").resolve():
        sys.exit(f"error: prism_forge was imported from {prism_forge.__file__}")


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("bytes"):
        return "bytes"
    if metric.endswith("bits"):
        return "bits"
    return "count"


# -- running checks -------------------------------------------------------------------


FAILED = object()  # the output of a check that raised


class Ledger:
    """Timed results of one run: per check its kind, wall time and output."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.done: List[Tuple[object, object]] = []  # (check, output)
        self.failures: List[str] = []

    def run_round(self, checks) -> float:
        clock = time.perf_counter
        total = 0.0
        for check in checks:
            began = clock()
            try:
                out = check.run()
                dt = clock() - began
                if check.collect is not None:
                    out = check.collect(out)
            except Exception as exc:  # noqa: BLE001 - a failed check is counted
                dt = clock() - began
                self.failures.append(f"{check.kind}: {type(exc).__name__}: {exc}")
                out = FAILED
            self.times.append(dt)
            self.done.append((check, out))
            total += dt
        return total

    def verify(self) -> Tuple[int, List[str]]:
        """(failed operations, problems in completed outputs)."""
        problems = []
        failed = len(self.failures)
        for check, out in self.done:
            if out is FAILED:
                continue
            found = check.verify(out)
            if found:
                failed += 1
                problems.extend(f"{check.kind}: {p}" for p in found)
        return failed, problems


def set_up(name: str, seed: int, workdir: str):
    """Inputs from the seed, then one untimed warm-up round."""
    load_library()
    import workloads

    wl = workloads.WORKLOADS[name](seed, workdir)
    Ledger().run_round(wl.round())
    return wl


def setup_children(args: argparse.Namespace, n: int) -> List[float]:
    """Set-up times of n fresh processes, run one after another."""
    out = []
    for _ in range(n):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=CHILD_TIMEOUT_S, check=True)
        out.append(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def run_workload(args: argparse.Namespace) -> dict:
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        wl = set_up(args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - _STARTED
        if args.setup_only:
            return {"setup_s": setup_s}
        if args.trace:
            return traced_run(args, wl)
        return untraced_run(args, wl, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def untraced_run(args, wl, setup_s: float) -> dict:
    ledger = Ledger()
    began = time.perf_counter()
    while True:
        ledger.run_round(wl.round())
        if time.perf_counter() - began >= args.seconds:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failed, problems = ledger.verify()
    setups = [setup_s] + setup_children(args, SETUP_REPEATS - 1)
    metrics = {
        "checks_per_s": (len(ledger.times) / sum(ledger.times), "1/s"),
        "check_s.p50": (statistics.median(ledger.times), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    return result(args, ledger, failed, problems, metrics,
                  [f"set-up times: {', '.join(f'{s:.4f}' for s in setups)} s"])


def traced_run(args, wl) -> dict:
    from tracer import LAYERS, Tracer, write_spans

    tracer = Tracer()
    ledger = Ledger()
    rounds: List[Dict[str, float]] = []
    overheads: List[float] = []
    kept_spans = None  # the first traced round's
    began = time.perf_counter()
    while True:
        checks = wl.round()
        traced_first = len(rounds) % 2 == 1  # alternate which goes first
        plain = traced = 0.0
        for traced_now in (traced_first, not traced_first):
            if traced_now:
                tracer.reset()
                n_before = len(ledger.done)
                with tracer:
                    traced = ledger.run_round(checks)
                rounds.append(round_metrics(tracer, ledger.done[n_before:]))
                if kept_spans is None:
                    kept_spans = tracer.spans
            else:
                plain = ledger.run_round(checks)
        overheads.append(traced - plain)
        if time.perf_counter() - began >= args.seconds:
            break
    failed, problems = ledger.verify()
    metrics = {m: (statistics.median(r.get(m, 0) for r in rounds), unit(m))
               for m in LAYER_METRICS if m != "trace.overhead_s"}
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    shares = {layer: statistics.median(r.get(f"{layer}.self_s", 0.0) for r in rounds)
              for layer in LAYERS}
    total = sum(shares.values()) or 1.0
    notes = ["traced self-time shares: " + ", ".join(
        f"{layer} {100 * s / total:.1f}%" for layer, s in
        sorted(shares.items(), key=lambda kv: -kv[1]) if s > 0)]
    path = OUT / f"trace-{args.workload}.tsv"
    write_spans(str(path), kept_spans, {"workload": args.workload, "seed": args.seed,
                                        "round": "first traced round"})
    notes.append(f"spans written to {path.relative_to(ROOT)}")
    return result(args, ledger, failed, problems, metrics, notes)


def round_metrics(tracer, done) -> Dict[str, float]:
    """Per-layer metrics of one traced round, read from outside the library."""
    import workloads

    out: Dict[str, float] = {}
    for name, n in tracer.calls.items():
        out[f"{name}.calls"] = n
    for name, s in tracer.self_s.items():
        out[f"{name}.self_s"] = s
    for layer, s in tracer.layer_self_s().items():
        out[f"{layer}.self_s"] = s
    out.update(tracer.gauges)
    out["cli.report_bytes"] = sum(
        len(o.data) for _, o in done if isinstance(o, workloads.Report))
    return out


def result(args, ledger: Ledger, failed: int, problems: List[str],
           metrics: Dict[str, Tuple[float, str]], notes: List[str]) -> dict:
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}: {len(ledger.times)} checks attempted, {failed} failed")
    for note in notes:
        print("  " + note)
    for msg in ledger.failures[:5]:
        print("  failed: " + msg)
    for msg in problems[:10]:
        print("  WRONG: " + msg)
    for name, (value, u) in metrics.items():
        print(f"  {name:36s} {value:14.6f} {u}")
    return {
        "correct": not problems,
        "attempted": len(ledger.times),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": u} for name, (value, u) in metrics.items()},
    }


def run_all(args: argparse.Namespace) -> dict:
    """Every workload in its own process, untraced then traced, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                 timeout=CHILD_TIMEOUT_S + args.seconds * 4, check=True)
            lines = res.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            one = json.loads(lines[-1])
            merged["correct"] = merged["correct"] and one["correct"]
            merged["attempted"] += one["attempted"]
            merged["failed"] += one["failed"]
            for metric, val in one["metrics"].items():
                merged["metrics"][f"{name}/{metric}"] = val
    return merged


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    out = run_workload(args) if args.workload else run_all(args)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
