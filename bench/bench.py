"""Benchmark of the bctseg command line, one workload per invocation.

    python3 bench/bench.py --workload ternary-segment --seed 1 --seconds 8 --trace 0

Set-up generates the workload's inputs from --seed in a fresh interpreter
(imports, generation, one tiny warm-up job) and is timed as a whole. The run
then calls ``bctseg.cli.main`` in-process, one job after another, for at
least --seconds and at least MIN_JOBS jobs, and checks every job's output.

Every timed operation is rescaled to a fixed machine speed: a reference
kernel (numpy and pure Python, no bctseg) is timed before and after it, and
the operation's wall time is multiplied by REFERENCE_S over the mean of the
two median pass times. The shared virtual machine this was written on changes speed by 1.5-2x
within seconds, and both the program and the kernel slow down alike; a
slower program still shows in full, because the kernel does not run it.

--trace 0 reports the end-to-end metrics: setup_s (median of SETUPS set-ups),
job_s (median job time, tracing off) and peak_heap_mb (tracemalloc peak of
one more job, run on its own). --trace 1 alternates untraced and traced jobs
and reports the per-layer metrics of the traced ones (median over jobs) plus
trace_overhead_frac. The last line of standard output is the JSON result;
raw wall times, run details, the environment and the spans go to .bench_out/.
"""

import os

# Pin native thread pools before numpy is first imported, so the numbers
# measure the program and not the scheduler.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import workloads as wl  # noqa: E402  (exits when the bctseg sources are missing)

import numpy  # noqa: E402
import scipy  # noqa: E402
from bctseg import cli  # noqa: E402
from scipy.special import gammaln  # noqa: E402
from tracer import Tracer, median_metrics  # noqa: E402

OUT = wl.ROOT / ".bench_out"
MIN_JOBS = 5
SETUPS = 5
SETUP_TIMEOUT_S = 120
LAYER_SUM_TOLERANCE = 0.05

TIME_UNITS = {"s", "ms", "us", "ns"}


@functools.cache
def spec() -> dict:
    """BENCHMARK.json: the run length and every metric's name and unit."""
    return json.loads((wl.ROOT / "BENCHMARK.json").read_text())


def declared(kind: str) -> dict[str, str]:
    """{name: unit} of the "end_to_end" or the "per_layer" metrics."""
    return {m["name"]: m["unit"] for m in spec()[kind]}


# ---------------------------------------------------------- machine speed

REFERENCE_PASSES = 5
# seconds of one reference pass at a fixed machine speed: a round figure
# between the 1.6 ms and 3.8 ms a pass takes on a 2-core Xeon VM at its
# fastest and slowest; timings are reported as if the machine ran at it
REFERENCE_S = 0.002
_REFERENCE_CODES = numpy.random.default_rng(20220308).integers(0, 4, 4000)


def reference_pass() -> float:
    """Fixed work shaped like the evidence computation that dominates the
    jobs (context counts with numpy, log-gamma sums) that calls nothing in
    bctseg. Pure-Python work slows down more than this when the machine
    does, so it is left out."""
    x = _REFERENCE_CODES
    total = 0.0
    for depth in range(1, 8):
        ctx = numpy.zeros(x.size - depth, dtype=numpy.int64)
        for k in range(1, depth + 1):
            ctx = ctx * 4 + x[depth - k : x.size - k]
        counts = numpy.bincount(ctx * 4 + x[depth:], minlength=4 ** (depth + 1))
        total += float(gammaln(counts + 0.5).sum())
    return total


class SpeedGauge:
    """Times the reference kernel between operations; `factor()` gives the
    scale from the wall time of the operation just finished to the
    reference speed."""

    def __init__(self):
        reference_pass()  # the first pass fills caches and is slower
        self.samples = [self._measure()]

    @staticmethod
    def _measure() -> float:
        """Median seconds of a reference pass: a pass that a cold cache or
        an interrupt slows does not count."""
        times = []
        for _ in range(REFERENCE_PASSES):
            start = perf_counter()
            reference_pass()
            times.append(perf_counter() - start)
        return statistics.median(times)

    def factor(self) -> float:
        self.samples.append(self._measure())
        return REFERENCE_S / ((self.samples[-2] + self.samples[-1]) / 2)


# ------------------------------------------------------------------ jobs


def execute(case: wl.Case, tracer: Tracer | None = None) -> tuple[float, list[str]]:
    """Run the job's CLI calls; return wall seconds and any failure."""
    shutil.rmtree(case.outdir, ignore_errors=True)
    problems = []
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = perf_counter()
        try:
            for argv in case.argvs:
                rc = cli.main(argv) if tracer is None else tracer.call_job(cli.main, argv)
                if rc != 0:
                    problems.append(f"{argv[0]} exited with {rc}: {sink.getvalue()[-500:]}")
                    break
        except (Exception, SystemExit):  # SystemExit: argparse rejects the flags
            problems.append(traceback.format_exc())
        seconds = perf_counter() - start
    return seconds, problems


def bytes_written(outdir: Path) -> int:
    return sum(p.stat().st_size for p in outdir.rglob("*") if p.is_file())


class Ledger:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: " + "; ".join(problems))

    @property
    def failed(self) -> int:
        return len(self.failures)


def check(workload, case: wl.Case) -> list[str]:
    """The workload's output check; a check that raises on malformed output
    reports a failure instead of stopping the run."""
    try:
        return workload.check(case)
    except Exception:
        return [traceback.format_exc()]


def checked_job(workload, case, ledger, what) -> float:
    seconds, problems = execute(case)
    ledger.record(what, problems or check(workload, case))
    return seconds


# ---------------------------------------------------------------- set-up


def setup_child(workload, seed: int, workdir: Path) -> int:
    """Body of one set-up: runs in its own interpreter, so imports count."""
    workload.generate_inputs(seed, workdir)
    warm = workload.case(seed, workdir, workdir / "warm-out", tiny=True)
    _, problems = execute(warm)
    problems = problems or check(workload, warm)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    return 0


def timed_setup(args, workdir: Path) -> float:
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-into", str(workdir)]
    start = perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    seconds = perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"set-up exited with {done.returncode}:\n{done.stderr}")
    return seconds


def timed_setups(args, workdir: Path, count: int, gauge: SpeedGauge) -> tuple[list, list]:
    """Wall seconds of `count` set-ups and the same rescaled to the
    reference speed."""
    raw, scaled = [], []
    for _ in range(count):
        raw.append(timed_setup(args, workdir))
        scaled.append(raw[-1] * gauge.factor())
    return raw, scaled


def digest_problems(workload, case: wl.Case, seed: int) -> list[str]:
    if not (workload.fixed_data or seed == wl.DEFAULT_SEED):
        return []
    got = wl.sha256(case.inputs[0])
    want = wl.PINNED_DIGESTS[workload.name]
    return [] if got == want else [f"{case.inputs[0].name} has SHA-256 {got}, pinned {want}"]


# ---------------------------------------------------------------- passes


def end_to_end_pass(args, workload, case, ledger, gauge, setups) -> tuple[dict, dict]:
    raw, scaled = [], []
    start = perf_counter()
    while len(raw) < MIN_JOBS or perf_counter() - start < args.seconds:
        raw.append(checked_job(workload, case, ledger, f"job {len(raw) + 1}"))
        scaled.append(raw[-1] * gauge.factor())
    # garbage left by earlier jobs (argparse objects are cyclic) shifts when
    # the collector runs, and with it the peak; start from an empty collector
    gc.collect()
    tracemalloc.start()
    try:
        seconds, problems = execute(case)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ledger.record("heap job", problems or check(workload, case))
    metrics = {
        "setup_s": statistics.median(setups[1]),
        "job_s": statistics.median(scaled),
        "peak_heap_mb": peak / 1e6,
    }
    print(f"setup_s       {metrics['setup_s']:.4f} s   median of {len(setups[1])} set-ups "
          f"(wall {statistics.median(setups[0]):.4f} s)")
    print(f"job_s         {metrics['job_s']:.4f} s   median of {len(scaled)} jobs "
          f"(wall {statistics.median(raw):.4f} s)")
    print(f"peak_heap_mb  {metrics['peak_heap_mb']:.4f} MB  tracemalloc peak of one job")
    return metrics, {"job_wall_s": raw, "job_s": scaled,
                     "setup_wall_s": setups[0], "setup_s": setups[1]}


def layer_problems(workload, own: dict, traced_s: float, layer: dict) -> list[str]:
    """The trace must account for the job: the self times add up to it, and
    the time no wrapped function covers (cli.self_s) stays small."""
    problems = []
    if abs(own["trace.self_sum_s"] / traced_s - 1) > LAYER_SUM_TOLERANCE:
        problems.append(f"layer self times sum to {own['trace.self_sum_s']:.4f} s "
                        f"of a {traced_s:.4f} s job")
    share = layer["cli.self_s"] / traced_s
    if share > workload.max_cli_self_share:
        problems.append(f"cli.self_s is {share:.3f} of the traced job, more than "
                        f"{workload.max_cli_self_share}: a layer went unwrapped")
    return problems


def traced_pass(args, workload, case, ledger, gauge, rundir) -> tuple[dict, dict]:
    tracer = Tracer()
    units = declared("per_layer")
    untraced, traced, per_job, own_per_job = [], [], [], []
    start = perf_counter()
    while not traced or perf_counter() - start < args.seconds:
        seconds = checked_job(workload, case, ledger, f"untraced job {len(untraced) + 1}")
        untraced.append(seconds * gauge.factor())
        tracer.start_job()
        with tracer:
            seconds, problems = execute(case, tracer)
        factor = gauge.factor()
        layer, own = tracer.finish_job(bytes_written(case.outdir))
        problems = problems or layer_problems(workload, own, seconds, layer)
        ledger.record(f"traced job {len(traced) + 1}", problems or check(workload, case))
        traced.append(seconds * factor)
        per_job.append({k: v * factor if units[k] in TIME_UNITS else v for k, v in layer.items()})
        own_per_job.append({k: v * factor if k.endswith("_s") else v for k, v in own.items()})
    tracer.write_spans(rundir / "spans.jsonl")
    metrics = median_metrics(per_job)
    metrics["trace_overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
    own = median_metrics(own_per_job)
    print(f"traced job_s  {statistics.median(traced):.4f} s   median of {len(traced)} traced jobs")
    print(f"job_s         {statistics.median(untraced):.4f} s   median of {len(untraced)} untraced jobs")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:.6g} {units[name]}")
    print("sanity counts and the tracer's own cost (not metrics):")
    for name, value in own.items():
        print(f"  {name:32s} {value:.6g}")
    return metrics, {"traced_job_s": traced, "untraced_job_s": untraced,
                     "wrapper_cost_s": {"span": tracer.span_cost_s,
                                        "proposal": tracer.proposal_cost_s,
                                        "counter": tracer.counter_cost_s},
                     "own": own}


# ------------------------------------------------------------------- main


def environment() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "thread_pins": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def git_sha() -> str | None:
    """HEAD of the checkout's own repository, if it is one."""
    cmd = ["git", "--git-dir", str(wl.ROOT / ".git"), "rev-parse", "HEAD"]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-into", type=Path, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = wl.WORKLOADS[args.workload]
    if args.setup_into is not None:
        return setup_child(workload, args.seed, args.setup_into)

    rundir = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    inputs = rundir / "inputs"
    env = environment()
    print(f"bctseg benchmark  workload={workload.name} seed={args.seed} trace={args.trace}")
    print("environment  " + json.dumps(env))
    # the gauge, the jobs and the set-up interpreters share one CPU, so
    # they see the same machine speed
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    gauge = SpeedGauge()
    try:
        setups = timed_setups(args, inputs, SETUPS if args.trace == 0 else 1, gauge)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ledger = Ledger()
    case = workload.case(args.seed, inputs, rundir / "out")
    ledger.record("input digest", digest_problems(workload, case, args.seed))
    warm = workload.case(args.seed, inputs, rundir / "warm-out", tiny=True)
    checked_job(workload, warm, ledger, "warm-up job")
    gauge.factor()  # the reference time right before the first timed job
    if args.trace == 0:
        metrics, detail = end_to_end_pass(args, workload, case, ledger, gauge, setups)
        names = declared("end_to_end")
    else:
        metrics, detail = traced_pass(args, workload, case, ledger, gauge, rundir)
        names = declared("per_layer")

    error_rate = ledger.failed / ledger.attempted
    print(f"error_rate    {error_rate:.4f}      {ledger.failed} failed of {ledger.attempted} attempted")
    for failure in ledger.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in names.items()},
    }
    record = dict(result, workload=workload.name, seed=args.seed, trace=args.trace,
                  error_rate=error_rate, failures=ledger.failures, environment=env,
                  reference_s=gauge.samples, **detail)
    (rundir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
