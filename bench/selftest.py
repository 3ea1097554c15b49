"""Self-test of the benchmark, in a few seconds:

1. every workload runs at tiny size, untraced and traced, and passes its
   output check; the traced run's layer self times add up to the job;
2. the output checks catch corrupted outputs (a shifted exact posterior,
   a dropped MAP leaf, a wrong change-point count, ...), and the coverage
   check catches a layer left unwrapped;
3. every metric the benchmark prints is declared in BENCHMARK.json.

    python3 bench/selftest.py        # exits 1 and lists what failed
"""

import json
import shutil
import sys
from pathlib import Path

import bench  # pins thread pools, then imports the workloads and bctseg
import workloads as wl
from bctseg import cli
from tracer import MOVES, Tracer

OUT = bench.OUT / "selftest"
failures: list[str] = []


def expect(ok: bool, what: str):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def corrupt_json(path: Path, change):
    obj = json.loads(path.read_text())
    change(obj)
    path.write_text(json.dumps(obj))


def caught(workload, case, what, corrupt):
    """Run the job, corrupt its output with `corrupt`, and expect the check
    to fail; the uncorrupted output must pass."""
    seconds, problems = bench.execute(case)
    expect(not problems and not workload.check(case), f"{workload.name}: clean output passes")
    corrupt(case.outdir)
    expect(bool(workload.check(case)), f"{workload.name}: {what} is caught")


def tiny_runs():
    tracer = Tracer()
    for workload in wl.WORKLOADS.values():
        inputs = OUT / workload.name / "inputs"
        workload.generate_inputs(wl.DEFAULT_SEED, inputs)
        full = workload.case(wl.DEFAULT_SEED, inputs, OUT / workload.name / "out")
        expect(not bench.digest_problems(workload, full, wl.DEFAULT_SEED),
               f"{workload.name}: input digest matches the pinned one")
        case = workload.case(wl.DEFAULT_SEED, inputs, OUT / workload.name / "out", tiny=True)
        seconds, problems = bench.execute(case)
        expect(not (problems or workload.check(case)), f"{workload.name}: tiny job passes")
        tracer.start_job()
        with tracer:
            seconds, problems = bench.execute(case, tracer)
        layer, own = tracer.finish_job(bench.bytes_written(case.outdir))
        expect(not (problems or workload.check(case)), f"{workload.name}: traced tiny job passes")
        expect(abs(own["trace.self_sum_s"] / seconds - 1) <= bench.LAYER_SUM_TOLERANCE,
               f"{workload.name}: layer self times sum to the job "
               f"({own['trace.self_sum_s'] / seconds:.4f})")
        expect(layer["sequences.parse_s"] > 0 and layer["trees.build_calls"] > 0,
               f"{workload.name}: parse and build spans recorded")
        expect(0 <= own["trace.overhead_s"] < 0.2 * seconds,
               f"{workload.name}: wrapper cost taken out of the self times "
               f"({own['trace.overhead_s']:.4f} s)")
        if workload is wl.WORKLOADS["ternary-segment"]:
            proposed = sum(own[f"mcmc.proposed.{m}"] for m in MOVES)
            accepted = sum(own[f"mcmc.accept.{m}"] for m in MOVES)
            misses = sum(layer[f"mcmc.misses.{m}"] for m in MOVES)
            expect(proposed == own["mcmc.iterations"] == workload.tiny_iters,
                   f"{workload.name}: every iteration's move is classified")
            expect(0 < accepted <= proposed and misses < layer["changepoints.misses"],
                   f"{workload.name}: acceptances and misses attributed to moves")
    return layer


def coverage_check():
    """A traced job with one layer's function left unwrapped must fail the
    coverage check: its time lands in cli.self_s."""
    workload = wl.WORKLOADS["lambda-fit"]
    inputs = OUT / workload.name / "inputs"
    case = workload.case(wl.DEFAULT_SEED, inputs, OUT / workload.name / "out")
    tracer = Tracer()
    for unwrapped in (None, "stationary_marginal"):
        tracer.start_job()
        with tracer:
            if unwrapped is not None:
                original = next(o for _, attr, o in tracer._saved if attr == unwrapped)
                setattr(cli, unwrapped, original)
            seconds, problems = bench.execute(case, tracer)
        layer, own = tracer.finish_job(bench.bytes_written(case.outdir))
        found = bench.layer_problems(workload, own, seconds, layer)
        if unwrapped is None:
            expect(not found, f"lambda-fit: coverage check passes ({found})")
        else:
            expect(bool(found), f"lambda-fit: unwrapped {unwrapped} is caught")


def corruption_checks():
    base = OUT / "corrupt"
    seed = wl.DEFAULT_SEED

    ternary = wl.WORKLOADS["ternary-segment"]
    ternary.generate_inputs(seed, base / "ternary")
    case = ternary.case(seed, base / "ternary", base / "ternary-out", tiny=True)
    bench.execute(case)
    # a tiny chain has not converged: give it the true MAP, then break it
    corrupt_json(case.outdir / "summary.json",
                 lambda s: s.update(map={"ell": 3, "positions": list(ternary.truth)}))
    case.expect["tiny"] = False
    expect(not ternary.check(case), "ternary-segment: output with the true MAP passes")
    corrupt_json(case.outdir / "summary.json",
                 lambda s: s.update(map={"ell": 2, "positions": [2500, 3500]}))
    expect(bool(ternary.check(case)), "ternary-segment: wrong ell is caught")
    corrupt_json(case.outdir / "summary.json",
                 lambda s: s.update(map={"ell": 3, "positions": [2500, 3500, 4060]}))
    expect(bool(ternary.check(case)), "ternary-segment: change-point 60 off is caught")
    (case.outdir / "trace.csv").write_text("")
    expect(bool(ternary.check(case)), "ternary-segment: truncated trace.csv is caught")

    exact = wl.WORKLOADS["dna-exact"]
    exact.generate_inputs(seed, base / "exact")
    case = exact.case(seed, base / "exact", base / "exact-out", tiny=True)

    def shift_posterior(outdir):
        lines = (outdir / "posterior.csv").read_text().splitlines()
        probs = [row.split(",")[1] for row in lines[1:]]
        probs = probs[1:] + probs[:1]
        rows = [f"{row.split(',')[0]},{p}" for row, p in zip(lines[1:], probs)]
        (outdir / "posterior.csv").write_text("\n".join(lines[:1] + rows) + "\n")

    caught(exact, case, "posterior shifted by one position", shift_posterior)

    def rescale_posterior(outdir):
        lines = (outdir / "posterior.csv").read_text().splitlines()
        rows = [f"{r.split(',')[0]},{float(r.split(',')[1]) * 1.001!r}" for r in lines[1:]]
        (outdir / "posterior.csv").write_text("\n".join(lines[:1] + rows) + "\n")

    caught(exact, case, "posterior summing to 1.001", rescale_posterior)

    lam = wl.WORKLOADS["lambda-fit"]
    lam.generate_inputs(seed, base / "lambda")
    case = lam.case(seed, base / "lambda", base / "lambda-out")
    caught(lam, case, "a dropped MAP leaf",
           lambda out: corrupt_json(out / "maptree.json",
                                    lambda m: m["segments"][0]["model"]["leaves"].pop()))
    caught(lam, case, "a stationary marginal off by 1e-6",
           lambda out: corrupt_json(out / "stationary.json",
                                    lambda m: m["segments"][2]["marginal"].__setitem__(
                                        0, m["segments"][2]["marginal"][0] + 1e-6)))

    broken = wl.Case([], [["segment", str(base / "missing.txt"), "--depth", "5",
                           "--lmax", "10"]], base / "broken-out")
    seconds, problems = bench.execute(broken)
    expect(bool(problems), "a job exiting non-zero is a failure")


def metric_names(layer):
    printed = list(layer) + ["trace_overhead_frac"]
    expect(sorted(printed) == sorted(bench.declared("per_layer")),
           "per-layer metrics are the declared ones")
    expect(sorted(bench.declared("end_to_end")) == ["job_s", "peak_heap_mb", "setup_s"],
           "end-to-end metrics are the declared ones")
    expect(sorted(w["name"] for w in bench.spec()["workloads"]) == sorted(wl.WORKLOADS),
           "workloads match BENCHMARK.json")


def main() -> int:
    shutil.rmtree(OUT, ignore_errors=True)
    layer = tiny_runs()
    coverage_check()
    corruption_checks()
    metric_names(layer)
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
