"""The repository benchmark: one command, four workloads, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Workloads: ``census``, ``census-adversarial``, ``train`` and ``serve`` (see
``workloads.py`` and the ``why`` lines of ``BENCHMARK.json``).

``--trace 0`` measures: it sets the workload up several times (the median is
``setup_s``), runs jobs for ``--seconds`` seconds with tracing off and prints
every end-to-end metric. Its times are wall seconds rescaled to a reference
machine speed: a fixed reference loop is timed right before and after every
job, and the job's wall time is multiplied by ``REFERENCE_S`` over the loop's
time, so the drift in speed of a shared machine (tens of percent over
minutes) cancels out. The raw wall figures are in the details line.

``--trace 1`` runs the first half of the workload's job set once untraced and
once with every layer entry point wrapped in spans (``instrument.py``), and
prints every per-layer metric; the spans are written to
``.bench_build/perfbench/``. Per-layer times are raw self times; under
``serve`` they are busy time summed over both worker threads and can exceed
``trace.wall_s``.

Both modes check the outputs and fail (``"correct": false`` and exit code 1)
on a mismatch: a repeated job at the same seed must reproduce its report
bytes, a ``serve`` job's merged report must equal a monolithic
``CensusRunner.run`` of the same population, and the traced jobs' census
report JSON or training-set arrays must equal the untraced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the machine fingerprint, which the full result file under
``.bench_build/perfbench/`` also carries.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
#: Set-ups per measured run; ``setup_s`` is their median.
SETUP_REPEATS = 15
#: The reference loop's typical time on the machine the benchmark was tuned
#: on (a 2-core x86 VM): times are reported at this machine speed.
REFERENCE_S = 0.004


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("census", "census-adversarial", "train",
                                 "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def source_digest() -> str:
    """sha256 over every file under ``src/`` and this directory's sources."""
    digest = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def git_commit() -> str | None:
    """``HEAD`` of the checkout, or ``None`` outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30,
                              env=env, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_fingerprint(digest: str) -> dict:
    """Where a result was measured: never compare across differing ones."""
    import numpy

    return {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "git_commit": git_commit(),
            "source_sha256": digest}


def ensure_model(digest: str) -> Path:
    """The census model artifact for this source tree, fitted on first use.

    The artifact is keyed by the source digest, so code from another commit
    never loads it. The fit runs in a child process (``fit_model.py``).
    """
    path = WORK / f"model-{digest[:24]}.caai"
    if not path.exists():
        partial = path.with_name(f"{path.name}.{os.getpid()}.partial")
        subprocess.run([sys.executable, str(HERE / "fit_model.py"),
                        str(partial)], check=True, timeout=900)
        os.replace(partial, path)
    return path


def reference_seconds(samples: int = 9) -> float:
    """Median seconds of a fixed interpreter-and-numpy reference loop.

    Timed next to every job, it tracks how fast the machine runs at that
    moment (shared machines drift by tens of percent over minutes).
    """
    import numpy

    times = []
    for _ in range(samples):
        start = time.perf_counter()
        table: dict[int, float] = {}
        total = 0.0
        for step in range(20000):
            table[step & 255] = total
            total += step * 0.5
        column = numpy.arange(512.0)
        for _ in range(200):
            column = numpy.sqrt(column * column + 1.0)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Shared bookkeeping of one benchmark invocation."""

    def __init__(self, args: argparse.Namespace, model: Path | None):
        from workloads import WORKLOADS, Workload

        self.args = args
        self.model = model
        self.spec = WORKLOADS[args.workload]
        self.workload = Workload(args.workload, model, WORK)
        self.checks: dict[str, bool] = {}
        self.errors: list[str] = []

    def job(self, index: int):
        from workloads import job_input

        return job_input(self.args.workload, self.args.seed, index)

    def execute(self, workload, prepared, job):
        """Run one job; an exception fails every unit the job attempted."""
        from workloads import JobResult

        start = time.perf_counter()
        try:
            return workload.run(prepared)
        except Exception:  # the benchmark must report, not die, on a crash
            self.errors.append(traceback.format_exc())
            print(self.errors[-1], file=sys.stderr)
            planned = workload.attempts(job)
            elapsed = time.perf_counter() - start
            return JobResult(units=0, wall_s=elapsed, first_result_s=elapsed,
                             result_waits=[elapsed], blob=b"",
                             attempted=planned, failed=planned)

    def check(self, name: str, passed: bool) -> None:
        self.checks[name] = bool(passed)
        if not passed:
            print(f"CHECK FAILED: {name}", file=sys.stderr)

    @property
    def correct(self) -> bool:
        return not self.errors and all(self.checks.values())


def measured(run: Run) -> tuple[dict, dict, int, int]:
    """``--trace 0``: set-up median, timed job loop, output checks.

    The loop cycles through the workload's job set until ``--seconds`` have
    passed (each job at least once); per-job times are the median over a
    job's repetitions, so every run weighs the same inputs equally.

    Every time is rescaled to the reference machine speed: multiplied by
    :data:`REFERENCE_S` over the reference loop's time measured right
    before and after the job; the short set-up phase takes the run's median
    factor. The raw wall figures are kept in the details.
    """
    from workloads import accuracy

    workload, args, size = run.workload, run.args, run.spec.job_set
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        prepared = workload.setup(run.job(0))
        setups.append(time.perf_counter() - start)

    runs: list[list] = [[] for _ in range(size)]
    scales: list[list] = [[] for _ in range(size)]

    def measure(slot: int, prepared) -> None:
        before = reference_seconds()
        runs[slot].append(run.execute(workload, prepared, run.job(slot)))
        scales[slot].append(2 * REFERENCE_S / (before + reference_seconds()))

    start = time.perf_counter()
    count = 0
    while count < size or time.perf_counter() - start < args.seconds:
        slot = count % size
        measure(slot, prepared if not count
                else workload.prepare(run.job(slot)))
        count += 1
    rss = peak_rss_mb()

    if len(runs[0]) == 1:
        measure(0, workload.prepare(run.job(0)))
    run.check("repeat_identical", all(
        result.blob == results[0].blob for results in runs
        for result in results))
    if args.workload == "serve":
        run.check("serve_equals_monolithic",
                  workload.monolithic(workload.prepare(run.job(0)))
                  == runs[0][0].blob)

    pairs = [list(zip(results, factors))
             for results, factors in zip(runs, scales)]
    walls = [statistics.median(r.wall_s * k for r, k in slot) for slot in pairs]
    waits = [statistics.median(w * k for r, k in slot for w in r.result_waits)
             for slot in pairs]
    done = [result for results in runs for result in results]
    attempted = sum(result.attempted for result in done)
    failed = sum(result.failed for result in done)
    # The set-up phase is short, so it takes the run's median speed.
    setup_scale = statistics.median(k for factors in scales for k in factors)
    metrics = {
        "setup_s": statistics.median(setups) * setup_scale,
        "servers_per_s": sum(results[0].units for results in runs) / sum(walls),
        "job_s": statistics.fmean(walls),
        "result_wait_s": statistics.fmean(waits),
        "accuracy": accuracy([results[0] for results in runs]),
        "completed_fraction": 1.0 - failed / attempted,
        "peak_rss_mb": rss,
    }
    raw_walls = [[r.wall_s for r in results] for results in runs]
    details = {"jobs": len(done), "attempted": attempted, "failed": failed,
               "failed_fraction": failed / attempted,
               "invalid_fraction": sum(r.invalid for r in done) / attempted,
               "raw_setup_s": statistics.median(setups),
               "raw_servers_per_s": (sum(results[0].units for results in runs)
                                     / sum(statistics.median(w)
                                           for w in raw_walls)),
               "raw_first_result_s_median": statistics.median(
                   r.first_result_s for r in done),
               "raw_job_wall_s": raw_walls,
               "speed_scale": scales, "setup_speed_scale": setup_scale}
    return metrics, details, attempted, failed


def traced(run: Run, fingerprint: dict) -> tuple[dict, dict, int, int]:
    """``--trace 1``: the first half of the job set untraced, then traced."""
    from instrument import layer_metrics, traced as instrumented
    from spans import Tracer
    from workloads import Workload

    args, jobs = run.args, range((run.spec.job_set + 1) // 2)
    plain = run.workload
    prepared = plain.setup(run.job(0))
    untraced = []
    for index in jobs:
        if index:
            prepared = plain.prepare(run.job(index))
        untraced.append(run.execute(plain, prepared, run.job(index)))

    tracer = Tracer()
    with instrumented(tracer) as engines:
        workload = Workload(args.workload, run.model, WORK)
        prepared = workload.setup(run.job(0))
        traced_results = []
        for index in jobs:
            if index:
                prepared = workload.prepare(run.job(index))
            traced_results.append(run.execute(workload, prepared,
                                              run.job(index)))
    run.check("traced_equals_untraced",
              all(a.blob == b.blob and a.blob
                  for a, b in zip(untraced, traced_results)))

    wall = sum(result.wall_s for result in traced_results)
    overhead = wall - sum(result.wall_s for result in untraced)
    metrics = layer_metrics(tracer, engines, wall, overhead)
    WORK.mkdir(parents=True, exist_ok=True)
    spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.dump(spans_path, {"workload": args.workload, "seed": args.seed,
                             "fingerprint": fingerprint})
    attempted = sum(result.attempted for result in traced_results)
    failed = sum(result.failed for result in traced_results)
    details = {"jobs": len(traced_results), "spans": len(tracer.spans),
               "spans_file": str(spans_path.relative_to(ROOT)),
               "note": "layer times are self times; under serve they are "
                       "busy time summed over both worker threads and can "
                       "exceed trace.wall_s"}
    return metrics, details, attempted, failed


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    WORK.mkdir(parents=True, exist_ok=True)

    digest = source_digest()
    fingerprint = machine_fingerprint(digest)
    model = None if args.workload == "train" else ensure_model(digest)
    run = Run(args, model)
    if args.trace:
        metrics, details, attempted, failed = traced(run, fingerprint)
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    else:
        metrics, details, attempted, failed = measured(run)
        units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    if set(metrics) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(set(metrics) ^ set(units))}"
                         " disagree with BENCHMARK.json")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name in sorted(metrics):
        print(f"  {name:40s} {metrics[name]:>14.6g} {units[name]}")
    print("checks: " + json.dumps(run.checks, sort_keys=True))
    print("details: " + json.dumps(details, sort_keys=True))
    result = {"correct": run.correct, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, checks=run.checks, details=details,
                  fingerprint=fingerprint)
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print("fingerprint: " + json.dumps(fingerprint, sort_keys=True))
    print(json.dumps(result))
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
