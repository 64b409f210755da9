"""rectadd benchmark: exact-verdict throughput, end to end and per layer.

    python3 perfbench/run.py --workload telescope_mix --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  `--trace 0` runs the workload's rounds in a closed loop (one
process, one thread) for `--seconds`, interleaved with CLI launches, and
prints the end-to-end metrics, with every time rescaled to a fixed host
speed read from a reference kernel (see Clock).  `--trace 1` prints the
per-layer metrics instead: direct timings of each layer's public functions,
then a fixed number of rounds run untraced and traced, giving each layer's
self time and the tracing overhead.  Every verdict is checked against a
known answer.  The last line of stdout is one JSON object; the lines before
it are the same metrics for people.  See perfbench/README.md for what each
metric means.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_LAUNCHES = 21
CLI_GROUPS = 15
TRACED_PASSES = 3
P90_MIN_SAMPLES = 100  # p90 needs at least ten samples beyond it
REFERENCE_NS = 2_000_000  # the reference kernel's time at the speed times are reported at
SEGMENT_NS = 40_000_000  # wall time between two readings of the reference kernel


class Tally:
    """Verdict counts, latencies and the exact counts read from results."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.latency_ns: list[int] = []  # wall time of each verdict that passed
        self.tiled: list[bool] = []  # whether that verdict decomposed
        self.tiles = self.steps = self.coeff_bits = 0

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def run(self, case, tracer=None) -> None:
        self.attempted += 1
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter_ns()
        try:
            out = case.call()
        except Exception as exc:  # a crash is a failed verdict, not a benchmark error
            self.fail(f"{type(case).__name__} raised {exc!r}")
            return
        finally:
            dt = time.perf_counter_ns() - t0
            if tracer is not None:
                tracer.active = False
        try:
            outcome = case.verify(out)
        except Exception as exc:
            self.fail(f"{type(case).__name__}: checking raised {exc!r}")
            return
        if outcome.problems:
            self.fail("; ".join(outcome.problems))
            return
        self.latency_ns.append(dt)
        self.tiled.append(case.tiled)
        self.tiles += outcome.tiles
        self.steps += outcome.steps
        self.coeff_bits = max(self.coeff_bits, outcome.coeff_bits)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems
        self.latency_ns += other.latency_ns
        self.tiled += other.tiled
        self.tiles += other.tiles
        self.steps += other.steps
        self.coeff_bits = max(self.coeff_bits, other.coeff_bits)


def rounds(workload, seed: int, tmp: str):
    rng = random.Random(seed)
    for i in itertools.count():
        yield workload.round(rng, i, tmp)




def self_check(workload, tmp: str, seed: int) -> str | None:
    """Feed the first case with one wrong expected value: it must fail."""
    case = workload.round(random.Random(seed), 0, tmp)[0]
    probe = Tally()
    probe.run(case.corrupted())
    if probe.failed == 0:
        return f"self-check: a wrong expected value was not detected ({type(case).__name__})"
    return None


def reference_kernel() -> int:
    """Fixed pure-Python work of the library's kind, with no rectadd in it:
    Fraction arithmetic, hashing and dict stores."""
    seen = {}
    for _ in range(4):
        x, s = Fraction(3, 7), Fraction(0)
        for i in range(1, 40):
            s = s * x + Fraction(i, i + 2)
            seen[s] = i
            s -= Fraction(1, 1 + (i & 7))
    return len(seen)


def reference_ns() -> int:
    """One timed run of the kernel, with the garbage collector off so that no
    collection of the workload's garbage lands in it."""
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        reference_kernel()
        return time.perf_counter_ns() - t0
    finally:
        gc.enable()


class Clock:
    """Wall times rescaled to a fixed host speed.

    The host's speed drifts by a third or more over seconds, for the CPU time
    of the run as much as its wall time.  The clock reads the reference
    kernel at least every SEGMENT_NS and between launches, and multiplies the
    times taken since the previous reading by REFERENCE_NS over the geometric
    mean of the two readings: each time becomes the time it would have taken
    at the speed where the kernel takes REFERENCE_NS.
    """

    def __init__(self, tally: Tally) -> None:
        self.tally = tally
        self.scaled: list[float] = []  # tally.latency_ns at the reference speed
        self.raw_ns = 0  # the same verdict times unscaled, for the notes
        self.last = reference_ns()
        self.mark = time.perf_counter_ns()

    def _factor(self) -> float:
        now = reference_ns()
        factor = REFERENCE_NS / math.sqrt(self.last * now)
        self.last, self.mark = now, time.perf_counter_ns()
        return factor

    def settle(self, now: bool = False) -> None:
        """Scale the verdicts since the last reading, when one is due."""
        if now or time.perf_counter_ns() - self.mark >= SEGMENT_NS:
            factor = self._factor()
            pending = self.tally.latency_ns[len(self.scaled) :]
            self.raw_ns += sum(pending)
            self.scaled += [dt * factor for dt in pending]

    def launch(self, argv, env) -> tuple[float, subprocess.CompletedProcess]:
        """Run argv to its end: its scaled wall time in seconds and the process."""
        self.settle(now=True)
        t0 = time.perf_counter()
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
        return (time.perf_counter() - t0) * self._factor(), proc


def run_rounds(source, n: int, tracer=None) -> tuple[Tally, float]:
    """n rounds: their tally and their verdict time in ns on the Clock."""
    tally = Tally()
    clock = Clock(tally)
    for _ in range(n):
        for case in next(source):
            tally.run(case, tracer)
            clock.settle()
    clock.settle(now=True)
    return tally, sum(clock.scaled)


def checked_launch(argv, env) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, timeout=120).check_returncode()
    return time.perf_counter() - t0


def setup_launch(clock: Clock, env) -> float:
    """A fresh interpreter importing rectadd.cli and building its parser."""
    dt, proc = clock.launch([sys.executable, "-c", "import rectadd.cli; rectadd.cli.build_parser()"], env)
    proc.check_returncode()
    return dt


def cli_group(workload, rng: random.Random, tmp: str, clock: Clock, env, tally: Tally) -> float | None:
    """Median scaled wall time of one group of `python -m rectadd` launches."""
    times = []
    for job in workload.launches(rng, tmp):
        dt, proc = clock.launch([sys.executable, "-m", "rectadd", *job.argv], env)
        tally.attempted += 1
        first = proc.stdout.splitlines()[0] if proc.stdout else ""
        if proc.returncode != job.exit or not first.startswith(job.first_line):
            tally.fail(f"rectadd {' '.join(job.argv)}: exit {proc.returncode}, {first!r}")
        else:
            times.append(dt)
    return statistics.median(times) if times else None


def timed_run(workload, args, tmp: str, env, tally: Tally):
    """Whole rounds until --seconds have passed, with the setup launches and
    the groups of CLI launches spread evenly between rounds; every time is
    taken on the Clock."""
    source = rounds(workload, args.seed, tmp)
    launch_rng = random.Random(args.seed + 1)
    clock = Clock(tally)
    setups: list[float] = []
    groups: list[float | None] = []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        for case in next(source):
            tally.run(case)
            clock.settle()
        due = min(1.0, (time.perf_counter() - start) / args.seconds)
        while len(setups) < math.ceil(SETUP_LAUNCHES * due):
            setups.append(setup_launch(clock, env))
        while len(groups) < math.ceil(CLI_GROUPS * due):
            groups.append(cli_group(workload, launch_rng, tmp, clock, env, tally))
    clock.settle(now=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    done = [g for g in groups if g is not None]
    lat = clock.scaled
    tiled_ns = sum(dt for dt, tiled in zip(lat, tally.tiled) if tiled)
    # a run where every verdict failed reads 0 here and is reported incorrect anyway
    metrics = {
        "verdicts_per_s": (len(lat) / sum(lat) * 1e9 if lat else 0.0, "1/s"),
        "tiles_per_s": (tally.tiles / tiled_ns * 1e9 if tiled_ns else 0.0, "1/s"),
        "verdict_ms_p50": (statistics.median(lat) / 1e6 if lat else 0.0, "ms"),
        "cli_ms_p50": (statistics.median(done) * 1e3 if done else 0.0, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = {
        "verdicts_per_s": f"{len(lat)} verdicts; unscaled {len(lat) / clock.raw_ns * 1e9:.6g}/s" if lat else "",
        "cli_ms_p50": f"median of {len(done)} groups",
        "setup_s": f"median of {len(setups)} launches",
    }
    if len(lat) >= P90_MIN_SAMPLES:
        p90 = statistics.quantiles(lat, n=10)[-1] / 1e6
        print(f"verdict_ms_p90 {p90:.4f} ms  (all {len(lat)} verdicts; not gated)")
    else:
        print(f"verdict_ms_p90 not reported: {len(lat)} verdicts < {P90_MIN_SAMPLES}")
    return metrics, notes


def traced_run(workload, args, tmp: str, env, tally: Tally):
    """Layer timings, then the same fixed rounds untraced and traced, in
    alternating order.  The overhead compares the fastest pass of each kind
    on the Clock; the self times are those of the fastest traced pass, as
    the wall clock read them."""
    import layers
    import spans

    metrics, problems, checked = layers.measure(args.seed, tmp, lambda argv: checked_launch(argv, env))
    tally.attempted += checked
    for p in problems:
        tally.fail(p)
    plain: list[tuple[Tally, float]] = []
    traced: list[tuple[Tally, float, spans.Tracer]] = []
    for k in range(TRACED_PASSES):
        for kind in ("plain", "traced") if k % 2 == 0 else ("traced", "plain"):
            source = rounds(workload, args.seed, tmp)
            if kind == "plain":
                plain.append(run_rounds(source, workload.traced_rounds))
                tally.add(plain[-1][0])
                continue
            with spans.Tracer() as tracer:
                traced.append((*run_rounds(source, workload.traced_rounds, tracer), tracer))
            tally.add(traced[-1][0])
    base = min(ns for _, ns in plain)
    _, best, tracer = min(traced, key=lambda t: t[1])
    for layer in spans.LAYERS:
        metrics[f"{layer}.self_ms"] = (tracer.self_ns(layer) / 1e6, "ms")
        metrics[f"{layer}.spans"] = (tracer.spans(layer), "count")
    overhead = best - base
    metrics["trace.overhead_ms"] = (overhead / 1e6, "ms")
    metrics["trace.overhead_pct"] = (100 * overhead / base, "%")
    counts = plain[0][0]
    metrics["run.verdicts"] = (len(counts.latency_ns), "count")
    metrics["decompose.tiles"] = (counts.tiles, "count")
    metrics["decompose.steps"] = (counts.steps, "count")
    metrics["numeric.peak_coeff_bits"] = (counts.coeff_bits, "bits")
    notes = {
        "run.verdicts": f"{workload.traced_rounds} rounds",
        "trace.overhead_ms": f"fastest of {TRACED_PASSES} passes each, untraced {base / 1e6:.1f} ms on the Clock",
    }
    return metrics, notes


def source_digest() -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "rectadd")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="telescope_mix, wide_strip or reports")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "rectadd", "__init__.py")):
        print(f"perfbench: no rectadd sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import rectadd

    if os.path.dirname(os.path.dirname(os.path.abspath(rectadd.__file__))) != SRC:
        print(f"perfbench: imported rectadd from {rectadd.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    env = dict(os.environ, PYTHONPATH=SRC)
    workload = workloads.WORKLOADS[args.workload]
    # One CPU for the run and the processes it launches: the CPUs of a shared
    # host change speed independently, and the Clock's readings must be taken
    # on the CPU that does the timed work.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "cpu": cpu,
    }
    print("stamp " + json.dumps(stamp))
    tally = Tally()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        problem = self_check(workload, tmp, args.seed)
        run = traced_run if args.trace else timed_run
        metrics, notes = run(workload, args, tmp, env, tally)
    if problem:
        tally.problems.insert(0, problem)
    for p in tally.problems[:5]:
        print("FAILED " + p, file=sys.stderr)
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value:.6g} {unit}{note}")
    print(f"fail_ratio {tally.failed}/{tally.attempted}")
    correct = tally.failed == 0 and problem is None
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
