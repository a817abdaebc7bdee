#!/usr/bin/env python3
"""Benchmark for ghznl: time from a state set to a checked verdict.

Run from the repository root:

    python3 perfbench/run.py --workload paper-families --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process each
    python3 perfbench/run.py --record-expected       # rewrite perfbench/expected.json

Load is one process, one thread, closed loop: each certification starts
only after the previous verdict returned and was checked.  With --trace 0
the run is untraced and prints the end-to-end metrics; with --trace 1 it
alternates untraced and traced passes, prints the per-layer metrics and
writes the spans to .perfbench_out/.  The last line of standard output is
one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
import workloads  # noqa: E402

LAYERS = ("arithmetic", "constructions", "state_model", "graphs", "oracle",
          "certifier", "cli")
SETUP_REPEATS = 5
# Median time of reference_loop() on the machine the benchmark was defined
# on (Python 3.11.7, 2 vCPUs).  That machine's speed drifts by up to 2x
# within seconds, and reference_loop slows down with it, so every
# end-to-end time is reported in seconds at this reference speed: the raw
# time times REFERENCE_S over the mean of the reference times measured
# just before and just after it.
REFERENCE_S = 0.025


class Modules:
    """The freshly imported ghznl package and its layer modules."""

    def __init__(self, package, layers: dict):
        self.package = package
        for name, mod in layers.items():
            setattr(self, name, mod)
        self._layers = layers

    def all_modules(self):
        return [self.package, *self._layers.values()]


def import_ghznl() -> Modules:
    """Import ghznl from this checkout's src/, discarding any earlier import
    so that each set-up pays for the import again."""
    for name in [n for n in sys.modules if n == "ghznl" or n.startswith("ghznl.")]:
        del sys.modules[name]
    package = importlib.import_module("ghznl")
    if Path(package.__file__).resolve().parent != SRC / "ghznl":
        raise ImportError(f"ghznl imported from {package.__file__}, not {SRC}")
    return Modules(package, {n: importlib.import_module(f"ghznl.{n}") for n in LAYERS})


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, iid: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{iid}: {'; '.join(problems)}")


def certify_once(item, expected: dict, tally: Tally) -> float:
    """Time one certification, then check its output (untimed)."""
    start = perf_counter()
    try:
        result = item.call()
    except Exception as e:  # a certification that raises is a failure
        elapsed = perf_counter() - start
        tally.add(item.id, [f"raised {e!r}"])
        return elapsed
    elapsed = perf_counter() - start
    try:
        problems = workloads.check(item.record(result), expected.get(item.id))
    except (KeyError, TypeError, ValueError, OSError) as e:
        problems = [f"unreadable output: {e!r}"]
    tally.add(item.id, problems)
    return elapsed


def run_pass(items, expected, tally, speed, tracer=None):
    """Certify every input once; returns the scaled times and the scales."""
    times, scales = {}, {}
    for item in items:
        if tracer is not None:
            tracer.input_id = item.id
        times[item.id] = speed.scaled(certify_once(item, expected, tally))
        scales[item.id] = speed.scales[-1]
    return times, scales


def reference_loop() -> dict:
    """Fixed pure-Python work that does not use ghznl: Fraction arithmetic
    into a dict keyed by tuples, the operations ghznl spends its time on."""
    total: dict = {}
    step = Fraction(1, 3)
    for i in range(3000):
        key = (i % 97, i % 5)
        total[key] = total.get(key, 0) + step * Fraction(i % 7 + 1, 5)
    return total


class Speed:
    """Scales each timing by the reference loop run just before and after."""

    def __init__(self):
        self.before = self._reference()
        self.scales: list[float] = []

    @staticmethod
    def _reference() -> float:
        start = perf_counter()
        reference_loop()
        return perf_counter() - start

    def scaled(self, elapsed: float) -> float:
        after = self._reference()
        scale = 2 * REFERENCE_S / (self.before + after)
        self.before = after
        self.scales.append(scale)
        return elapsed * scale


def set_up(wl, seed: int, workdir: Path, expected: dict, tally: Tally):
    """Import, input generation and one warm-up certification."""
    start = perf_counter()
    mods = import_ghznl()
    items = workloads.build_items(wl, seed, mods, workdir)
    smallest = next(i for i in items if i.id == wl.smallest)
    certify_once(smallest, expected, tally)
    return perf_counter() - start, mods, items


def measure(wl, seed: int, seconds: float, trace: bool, expected: dict):
    """Run one workload; returns (tally, metrics, context)."""
    workdir = OUT / f"work-{wl.name}-{seed}-{os.getpid()}"
    tally = Tally()
    # the CLI prints each verdict to standard error
    with open(os.devnull, "w") as quiet, contextlib.redirect_stderr(quiet):
        try:
            return _measure(wl, seed, seconds, trace, expected, workdir, tally)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


def _measure(wl, seed, seconds, trace, expected, workdir, tally):
    setups = []
    speed = Speed()
    for _ in range(SETUP_REPEATS):
        elapsed, mods, items = set_up(wl, seed, workdir, expected, tally)
        setups.append(speed.scaled(elapsed))
    if trace:
        metrics, context = _traced(wl, seed, seconds, mods, items, expected, tally,
                                   speed)
    else:
        metrics, context = _untraced(wl, seconds, items, expected, tally, speed)
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )
    context["setup_samples"] = len(setups)
    return tally, metrics, context


def _untraced(wl, seconds, items, expected, tally, speed):
    smallest = next(i for i in items if i.id == wl.smallest)
    passes, largest, small = [], [], []
    start = perf_counter()
    while True:
        # after every certification of the pass the smallest input runs
        # once more, so its samples cover the whole run
        times = {}
        for item in items:
            times[item.id] = speed.scaled(certify_once(item, expected, tally))
            small.append(speed.scaled(certify_once(smallest, expected, tally)))
        passes.append(sum(times.values()))
        largest.append(times[wl.largest])
        if perf_counter() - start >= seconds:
            break
    metrics = {
        "pass_s": statistics.median(passes),
        "largest_s": statistics.median(largest),
        "smallest_s": statistics.median(small),
    }
    context = {"pass_samples": passes, "largest_samples": largest,
               "smallest_repeats": len(small),
               "speed_scale_range": [min(speed.scales), max(speed.scales)]}
    return metrics, context


def _traced(wl, seed, seconds, mods, items, expected, tally, speed):
    tracer = spans.Tracer()
    untraced, traced, per_pass = [], [], []
    start = perf_counter()
    while True:
        times, _ = run_pass(items, expected, tally, speed)
        untraced.append(sum(times.values()))
        first = len(tracer.spans)
        undo = tracer.install(mods)
        try:
            times, scales = run_pass(items, expected, tally, speed, tracer)
        finally:
            tracer.uninstall(undo)
        traced.append(sum(times.values()))
        per_pass.append(spans.layer_metrics(tracer.spans, first, scales))
        if perf_counter() - start >= seconds:
            break
    metrics = spans.median_pass(per_pass)
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0
    )
    span_file = OUT / f"spans-{wl.name}-seed{seed}.json"
    tracer.write(span_file)
    problems = spans.check_tree(tracer.spans)
    if problems:
        tally.add("span-tree", problems)
    context = {"traced_passes": len(traced), "spans": len(tracer.spans),
               "span_file": str(span_file.relative_to(ROOT)),
               "untraced_pass_s": statistics.median(untraced),
               "traced_pass_s": statistics.median(traced)}
    return metrics, context


def src_lines() -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py")
    )


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit, in the order BENCHMARK.json declares them."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[section]}


def run_one(args) -> int:
    wl = workloads.WORKLOADS[args.workload]
    expected = workloads.load_expected(wl, args.seed)
    tally, metrics, context = measure(
        wl, args.seed, args.seconds, bool(args.trace), expected
    )
    units = declared_units("per_layer" if args.trace else "end_to_end")
    print(f"workload {wl.name} seed {args.seed} "
          f"({'traced' if args.trace else 'untraced'}, "
          f"{'checked against expected.json' if expected else 'invariants only'})")
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]:>16.6f} {unit}")
    if args.trace:
        inner = sum(metrics[k] for k in spans.UNDER_CERTIFY)
        print(f"  layer self times under certify sum to {inner:.6f} s; "
              f"certifier.certify_s {metrics['certifier.certify_s']:.6f} s")
    for p in tally.problems:
        print(f"  FAILED {p}")
    context.update(src_lines=src_lines(), python=platform.python_version(),
                   nproc=os.cpu_count(), workload=wl.name, seed=args.seed,
                   trace=args.trace)
    print("context " + json.dumps(context))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if tally.failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, so each has its own peak memory."""
    results = {}
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1]) if lines else None
        status = status or proc.returncode
    print(json.dumps(results))
    return status


def record_expected() -> int:
    """Write expected.json from the current code: fixed sets for every seed,
    random sets at the default seed."""
    out = {}
    for wl in workloads.WORKLOADS.values():
        seed = workloads.DEFAULT_SEED
        workdir = OUT / f"record-{wl.name}"
        try:
            mods = import_ghznl()
            records = {}
            for item in workloads.build_items(wl, seed, mods, workdir):
                rec = item.record(item.call())
                problems = workloads.check(rec, None)
                if problems:
                    print(f"{wl.name}/{item.id}: {problems}", file=sys.stderr)
                    return 1
                records[item.id] = rec
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        out[wl.name] = {
            "seed": seed if wl.via_cli else None,
            "records": dict(sorted(records.items())),
        }
        print(f"recorded {wl.name}: {len(records)} inputs", file=sys.stderr)
    workloads.EXPECTED_PATH.write_text(json.dumps(out, indent=1) + "\n",
                                       encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "ghznl" / "__init__.py").is_file():
        print(f"error: no ghznl package under {SRC}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record_expected:
        return record_expected()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
