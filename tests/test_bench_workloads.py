"""The benchmark's set-up against the current library.

`bench/bench.py` exits 1 when a set-up fails: generating a workload's
inputs, running its tiny job or checking that job's output. The workloads
import names from bctseg (`ChangePoints`, `log_prior_positions`,
`span_log_evidence`, `piecewise_spec_to_json` ...), so a library change that
drops one of them, moves generation or breaks a job fails here first. These
tests load `bench/workloads.py` from its file, as the benchmark does, and
change nothing in it.

A set-up's tiny job and its check depend on the seed, so the FASTA
workloads set up at several seeds: `dna-exact` at the forty that CI's
set-up step runs, `lambda-fit`, whose inputs are larger, at five.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from bctseg import cli

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
SEEDS = {"ternary-segment": [1], "dna-exact": range(1, 41), "lambda-fit": range(1, 6)}


@pytest.fixture(scope="module")
def workloads_module():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # the module's dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


@pytest.mark.parametrize("name, seed", [
    pytest.param(name, seed, id=name if seed == 1 else f"{name}-seed{seed}")
    for name, seeds in SEEDS.items() for seed in seeds
])
def test_set_up_generates_runs_and_checks_the_tiny_job(workloads_module, tmp_path, name, seed):
    wl = workloads_module
    workload = wl.WORKLOADS[name]
    inputs = tmp_path / "inputs"
    workload.generate_inputs(seed, inputs)
    full = workload.case(seed, inputs, tmp_path / "out")
    # pinned, as bench.py checks them, for fixed data or at the default seed
    if workload.fixed_data or seed == wl.DEFAULT_SEED:
        assert wl.sha256(full.inputs[0]) == wl.PINNED_DIGESTS[name]
    tiny = workload.case(seed, inputs, tmp_path / "warm-out", tiny=True)
    for argv in tiny.argvs:
        assert cli.main(argv) == 0
    assert workload.check(tiny) == []
