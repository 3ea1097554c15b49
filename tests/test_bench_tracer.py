"""The benchmark's tracer against the current library.

`bench/tracer.py` wraps functions at the place where their callers look them
up (``cli.partition``, ``CountTree.from_arrays`` ...); a refactor that drops
or renames one of them would crash every traced benchmark run. These tests
load the tracer from its file, as the benchmark does, and change nothing in
it.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from bctseg import changepoints, cli, mcmc
from bctseg.changepoints import EvidenceCache
from bctseg.trees import CountTree

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
OWNERS = (cli, changepoints, mcmc, CountTree, EvidenceCache)


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_enters_and_restores_every_patched_name(tracer_module):
    before = [dict(vars(owner)) for owner in OWNERS]
    with tracer_module.Tracer() as tracer:
        assert tracer._saved
        patched = [(owner, attr) for owner, attr, _ in tracer._saved]
    assert not tracer._saved
    assert [dict(vars(owner)) for owner in OWNERS] == before
    assert (cli, "partition") in patched


def test_traced_segment_fit_reaches_the_wrapped_names(tracer_module, tmp_path):
    # maptree and stationary cut the series through cli.partition and fit
    # each segment through the wrapped build and MAP walk
    series = tmp_path / "series.txt"
    series.write_text("0110100110010110" * 4)
    with tracer_module.Tracer() as tracer:
        for command in ("maptree", "stationary"):
            tracer.start_job()
            argv = [command, str(series), "--depth", "2", "--segments", "20,41",
                    "--out", str(tmp_path / command)]
            assert tracer.call_job(cli.main, argv) == 0
            names = {span[2] for span in tracer.spans if span[1] == tracer.job}
            assert {"cli.job", "changepoints.partition", "trees.build", "trees.map"} <= names
            assert tracer.counts["trees.build_calls"] == 3
    fitted = json.loads((tmp_path / "maptree" / "maptree.json").read_text())
    assert [(s["start"], s["end"]) for s in fitted["segments"]] == [(1, 19), (20, 40), (41, 62)]
