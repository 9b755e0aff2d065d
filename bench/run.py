"""qbayes benchmark: in-process `qbayes check` / `qbayes invert` calls on
seeded problem files, one client in a closed loop.

Run from the root of a checkout:

    python3 bench/run.py --workload inclusion-ladder --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

With `--trace 0` a run repeats the workload's pass (its list of calls) until
`--seconds` have passed and at least ten latency samples lie beyond the
90th percentile, checks every report against `expected.json`, and prints
the end-to-end metrics, every timing scaled to a reference host speed by
the probes in probe.py. With `--trace 1` it runs one pass with every listed
qbayes function wrapped (see tracer.py) between two untraced passes, then
one `tracemalloc` pass that runs each analysis on its own, and prints the
per-layer metrics. The last line of standard output is always one JSON
object: {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
WORKLOADS.md explains the workloads and what each metric should move.
"""

import os

# Pinned before numpy loads, to the same value on every commit measured.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
from probe import STARTUP_REFERENCE_S, Probe, scale, startup_seconds

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 7  # timed fresh-interpreter builds a run, after one untimed
P90_MIN_BEYOND = 10  # samples a run must hold beyond latency_p90_ms
PROBE_EVERY_S = 0.1  # seconds of calls between two host-speed probes


class BenchError(RuntimeError):
    pass


def _flat_bools(node, prefix=""):
    out = {}
    for key, value in node.items():
        if isinstance(value, bool):
            out[prefix + key] = value
        elif isinstance(value, dict):
            out.update(_flat_bools(value, f"{prefix}{key}."))
    return out


def _non_finite(node) -> bool:
    if isinstance(node, float):
        return not math.isfinite(node)
    if isinstance(node, dict):
        return any(_non_finite(v) for k, v in node.items() if k != "timing")
    if isinstance(node, list):
        return any(_non_finite(v) for v in node)
    return False


class Runner:
    """Runs qbayes calls in process and checks each report.

    A call fails when it raises, exits non-zero, reports a non-finite
    number, gives a verdict that differs from `expected`, or gives a
    report (timing stripped) or output file that differs from an earlier
    call on the same instance in this run.
    """

    def __init__(self, cli, expected):
        self.cli = cli
        self.expected = expected
        self.verdicts: dict[str, dict] = {}
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def call(self, call: dict, only: str = "") -> float:
        argv = call["argv"] + (["--analyses", only] if only else [])
        key = call["id"] + (f"#{only}" if only else "")
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except (Exception, SystemExit) as exc:
            code = f"raised {exc!r}"
        latency = time.perf_counter() - start
        self.attempted += 1
        if code != 0:
            problem = f"exit {code}: {err.getvalue().strip()[:300]}"
        else:
            problem = self._verify(call, key, only, out.getvalue())
        if problem:
            self.failures.append(f"{key}: {problem}")
        return latency

    def _verify(self, call: dict, key: str, only: str, text: str) -> str:
        try:
            report = json.loads(text)
            analyses = report["analyses"]
        except (ValueError, KeyError, TypeError):
            return "unreadable report"
        if _non_finite(report):
            return "non-finite number in the report"
        untimed = {k: v for k, v in report.items() if k != "timing"}
        digest = hashlib.sha256(json.dumps(untimed, sort_keys=True).encode())
        written = analyses.get("invert", {}).get("written")
        if written:
            data = Path(written).read_bytes()
            if _non_finite(json.loads(data)):
                return "non-finite number in the written channel"
            digest.update(data)
        if self.digests.setdefault(key, digest.hexdigest()) != digest.hexdigest():
            return "report differs from an earlier report on the same instance"
        got = _flat_bools(analyses)
        self.verdicts.setdefault(key, got)
        if self.expected is None:
            return ""
        want = self.expected.get(call["id"])
        if want is None:
            return "no expected verdicts recorded"
        if only:
            want = {k: v for k, v in want.items() if k.startswith(only + ".")}
        if got != want:
            diff = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
            return f"verdicts differ from expected.json at {diff}"
        return ""


def machine() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def declared_metrics() -> tuple[list, list]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["end_to_end"], spec["per_layer"]


def set_up(workload: str, seed: int, work: Path, repeats: int) -> tuple[list, list]:
    """Build the workload in one untimed fresh interpreter, which warms the
    file cache, then in `repeats` timed ones; return the calls and the time
    of each timed build at the reference speed. A start-up probe (see
    probe.py) runs before and after every build, and all builds are scaled
    by STARTUP_REFERENCE_S over the median of those probes."""
    raw, probes = [], [startup_seconds()]
    for index in range(repeats + 1):
        shutil.rmtree(work, ignore_errors=True)
        start = time.perf_counter()
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--build", str(work),
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True,
        )
        elapsed = time.perf_counter() - start
        probes.append(startup_seconds())
        if child.returncode != 0:
            raise BenchError(f"set-up of {workload} failed:\n{child.stderr.strip()}")
        if index:
            raw.append(elapsed)
    factor = STARTUP_REFERENCE_S / statistics.median(probes)
    calls = json.loads((work / "manifest.json").read_text(encoding="utf-8"))
    return calls, [elapsed * factor for elapsed in raw]


def p90_beyond(n: int) -> int:
    """Samples beyond the 90th percentile sample of n, ceil(0.9 (n - 1))."""
    return n - 1 - (9 * (n - 1) + 9) // 10


def harrell_davis(ordered: list, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of sorted samples: the mean
    of every order statistic, the i-th weighted by the mass that a
    Beta((n + 1) p, (n + 1)(1 - p)) distribution puts on [(i - 1)/n, i/n].
    A single order statistic jumps when a workload's pass puts a boundary
    between groups of calls at the quantile (on `fixtures` the slowest of
    ten calls a pass sits exactly at 90%); this estimate moves smoothly."""
    n = len(ordered)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    grid = np.linspace(0.0, 1.0, 100 * n + 1)
    inner = grid[1:-1]
    log_pdf = ((a - 1) * np.log(inner) + (b - 1) * np.log1p(-inner)
               + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))
    pdf = np.concatenate(([0.0], np.exp(log_pdf), [0.0]))
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)))
    cdf /= cdf[-1]
    weights = np.diff(cdf[::100])
    return float(weights @ np.asarray(ordered))


class ScaledTimes:
    """Call latencies scaled to the reference speed. A probe runs once at
    least PROBE_EVERY_S of calls have passed since the last one, and at the
    end of each pass; each call is scaled by the probes on either side of
    its chunk."""

    def __init__(self, probe) -> None:
        self.probe = probe
        self.before = probe.seconds()
        self.pending: list[float] = []
        self.raw: list[float] = []
        self.scaled: list[float] = []

    def add(self, latency: float) -> None:
        self.pending.append(latency)
        if sum(self.pending) >= PROBE_EVERY_S:
            self.flush()

    def flush(self) -> None:
        if not self.pending:
            return
        after = self.probe.seconds()
        factor = scale(self.before, after)
        self.raw.extend(self.pending)
        self.scaled.extend(latency * factor for latency in self.pending)
        self.pending = []
        self.before = after


def run_untraced(runner: Runner, calls: list, seconds: float, setup_times: list, probe) -> dict:
    times = ScaledTimes(probe)
    start = time.perf_counter()
    passes = 0
    while (passes == 0 or time.perf_counter() - start < seconds
           or p90_beyond(len(times.scaled)) < P90_MIN_BEYOND):
        for call in calls:
            times.add(runner.call(call))
        times.flush()
        passes += 1
    wall = time.perf_counter() - start
    ordered = sorted(times.scaled)
    n = len(ordered)
    busy = sum(ordered)
    raw_busy = sum(times.raw)
    metrics = {
        "problems_per_s": (
            n / busy, "1/s",
            f"{n} calls in {passes} passes, {busy:.2f} s scaled, {raw_busy:.2f} s raw,"
            f" {wall:.2f} s wall with probes; {n / raw_busy:.4g} raw",
        ),
        "latency_p50_ms": (
            1e3 * harrell_davis(ordered, 0.5), "ms",
            f"Harrell-Davis median of {n} samples;"
            f" {1e3 * harrell_davis(sorted(times.raw), 0.5):.4g} raw",
        ),
        "latency_p90_ms": (
            1e3 * harrell_davis(ordered, 0.9), "ms",
            f"Harrell-Davis 90th percentile of {n} samples, {p90_beyond(n)} beyond"
            f" the sample at it; {1e3 * harrell_davis(sorted(times.raw), 0.9):.4g} raw",
        ),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB", "getrusage peak of this process",
        ),
        "setup_s": (
            statistics.median(setup_times), "s",
            f"median of {len(setup_times)} fresh-interpreter builds, scaled by start-up probes",
        ),
    }
    print(f"  failed_ratio     {len(runner.failures) / max(runner.attempted, 1):.4f}"
          f"  ({len(runner.failures)} of {runner.attempted} calls)")
    return metrics


def run_traced(runner: Runner, calls: list, workload: str, seed: int, info: dict) -> dict:
    from tracer import SPAN_NAMES, Tracer

    def one_pass() -> float:
        start = time.perf_counter()
        for call in calls:
            runner.call(call)
        return time.perf_counter() - start

    # Untraced passes on both sides of the traced one, so that warm-up and
    # drift in machine speed fall on both sides of the overhead ratio.
    untraced = one_pass()
    tracer = Tracer()
    tracer.install()
    try:
        traced = one_pass()
    finally:
        tracer.uninstall()
    untraced = (untraced + one_pass()) / 2

    peaks = {}
    tracemalloc.start()
    try:
        for call in calls:
            for name in call.get("analyses", ()):
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                runner.call(call, only=name)
                peak = tracemalloc.get_traced_memory()[1] - before
                peaks[name] = max(peaks.get(name, 0), peak)
    finally:
        tracemalloc.stop()

    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (tracer.calls[name], "count", "")
        metrics[f"{name}.self_s"] = (tracer.self_s[name], "s", "")
    for module, seconds in tracer.module_self_s().items():
        metrics[f"{module}.self_s"] = (seconds, "s", "")
    for name, peak in sorted(peaks.items()):
        metrics[f"analysis.{name}.peak_mb"] = (peak / 2**20, "MB", "tracemalloc peak")
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio", f"{traced:.2f} s / {untraced:.2f} s")

    total = sum(tracer.self_s.values())
    top = sorted(tracer.self_s.items(), key=lambda kv: -kv[1])[:6]
    print(f"  traced self time {total:.3f} s over {len(tracer.spans)} spans; largest shares: "
          + ", ".join(f"{name} {100 * s / total:.1f}%" for name, s in top))
    out = WORK / f"trace-{workload}-seed{seed}.json"
    out.write_text(
        json.dumps({"machine": info, **tracer.span_table()}, separators=(",", ":")),
        encoding="utf-8",
    )
    print(f"  spans written to {out.relative_to(ROOT)}")
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> int:
    end_to_end, per_layer = declared_metrics()
    declared = [m["name"] for m in (per_layer if trace else end_to_end)]
    expected = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))
    work = WORK / f"{workload}-seed{seed}"
    calls, setup_times = set_up(workload, seed, work, 0 if trace else SETUP_REPEATS)

    import qbayes
    import qbayes.cli

    if Path(qbayes.__file__).resolve().parent != ROOT / "src" / "qbayes":
        raise BenchError(f"imported qbayes from {qbayes.__file__}, not from this checkout")
    info = machine()
    runner = Runner(qbayes.cli, expected[workload])
    print(f"qbayes bench: workload={workload} seed={seed} trace={trace} "
          f"calls per pass={len(calls)}")
    if trace:
        metrics = run_traced(runner, calls, workload, seed, info)
    else:
        metrics = run_untraced(runner, calls, seconds, setup_times, Probe())
        for name, (value, unit, note) in metrics.items():
            print(f"  {name:<16} {value:.6g} {unit}  ({note})")
    shutil.rmtree(work, ignore_errors=True)
    if sorted(metrics) != sorted(declared):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(declared))} "
                         "do not match BENCHMARK.json")
    for failure in runner.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print("machine " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload, each in its own fresh process; the last line sums
    the counts and prefixes each metric with its workload."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = child.stdout.strip().splitlines()
        sys.stderr.write(child.stderr)
        if child.returncode != 0 or not lines:
            raise BenchError(f"workload {workload} exited {child.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--build", metavar="DIR",
                        help="set-up only: write the problem files and manifest to DIR")
    args = parser.parse_args()

    if not (ROOT / "src" / "qbayes" / "cli.py").is_file():
        print(f"error: no qbayes source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, SetupError, build

    try:
        if args.build:  # the workloads module imports qbayes.cli, as every CLI call does
            calls = build(args.workload, args.seed, ROOT, Path(args.build))
            (Path(args.build) / "manifest.json").write_text(json.dumps(calls), encoding="utf-8")
            return 0
        WORK.mkdir(exist_ok=True)
        if args.workload == "all":
            return run_all(args.seed, args.seconds, args.trace)
        if args.workload not in WORKLOADS:
            parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
        return run_workload(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, SetupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
