"""The benchmark's set-up against the current library.

`bench/bench.py` exits 1 when a set-up fails: generating a workload's
inputs, running its tiny job or checking that job's output. The workloads
import names from bctseg (`ChangePoints`, `log_prior_positions`,
`span_log_evidence`, `piecewise_spec_to_json` ...), so a library change that
drops one of them, moves generation or breaks a job fails here first. These
tests load `bench/workloads.py` from its file, as the benchmark does, and
change nothing in it.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from bctseg import cli

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
SEED = 1


@pytest.fixture(scope="module")
def workloads_module():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # the module's dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


@pytest.mark.parametrize("name", ["ternary-segment", "dna-exact", "lambda-fit"])
def test_set_up_generates_runs_and_checks_the_tiny_job(workloads_module, tmp_path, name):
    wl = workloads_module
    workload = wl.WORKLOADS[name]
    inputs = tmp_path / "inputs"
    workload.generate_inputs(SEED, inputs)
    full = workload.case(SEED, inputs, tmp_path / "out")
    assert wl.sha256(full.inputs[0]) == wl.PINNED_DIGESTS[name]
    tiny = workload.case(SEED, inputs, tmp_path / "warm-out", tiny=True)
    for argv in tiny.argvs:
        assert cli.main(argv) == 0
    assert workload.check(tiny) == []
