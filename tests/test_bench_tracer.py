"""The benchmark's tracer against the current library.

`bench/tracer.py` wraps functions at the place where their callers look them
up (``cli.partition``, ``CountTree.from_arrays`` ...); a refactor that drops
or renames one of them would crash every traced benchmark run, and one whose
builds or scores no longer pass through them would fail the traced runs'
checks. These tests load the tracer from its file, as the benchmark does,
and change nothing in it.
"""

import importlib.util
import json
from collections import Counter
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


def traced_job(tracer, argv):
    """Run one CLI call as a traced job; its span names."""
    tracer.start_job()
    assert tracer.call_job(cli.main, argv) == 0
    return {span[2] for span in tracer.spans if span[1] == tracer.job}


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
            argv = [command, str(series), "--depth", "2", "--segments", "20,41",
                    "--out", str(tmp_path / command)]
            names = traced_job(tracer, argv)
            assert {"cli.job", "changepoints.partition", "trees.build", "trees.map"} <= names
            assert tracer.counts["trees.build_calls"] == 3
    fitted = json.loads((tmp_path / "maptree" / "maptree.json").read_text())
    assert [(s["start"], s["end"]) for s in fitted["segments"]] == [(1, 19), (20, 40), (41, 62)]


def test_traced_exact_reaches_the_wrapped_names(tracer_module, tmp_path):
    # exact scores each position with one build of the series in two parts
    series = tmp_path / "series.txt"
    series.write_text("0110100110010110" * 2 + "0000000011111111")
    depth = 2
    n = 48 - depth
    with tracer_module.Tracer() as tracer:
        argv = ["exact", str(series), "--depth", str(depth), "--out", str(tmp_path / "exact")]
        names = traced_job(tracer, argv)
        assert {"cli.job", "changepoints.exact", "trees.build"} <= names
        assert tracer.counts["trees.build_calls"] == n - 4


def test_traced_segment_reaches_the_wrapped_names(tracer_module, tmp_path):
    # the sampler scores configurations through the wrapped joint evidence,
    # and its interior misses through the wrapped build
    series = tmp_path / "series.txt"
    series.write_text("0110100110010110" * 3 + "0000000011111111" * 2)
    iterations = 200
    with tracer_module.Tracer() as tracer:
        argv = ["segment", str(series), "--depth", "2", "--lmax", "3", "--iters",
                str(iterations), "--burnin", "50", "--seed", "1", "--out",
                str(tmp_path / "segment")]
        names = traced_job(tracer, argv)
        assert {"cli.job", "mcmc.run", "changepoints.joint", "trees.build"} <= names
        # run scores the initial state, then each candidate once, and every
        # joint evidence is part of one of those scores
        name_of = {span[0]: span[2] for span in tracer.spans}
        called = Counter(name_of.values())
        assert called["mcmc.rescore"] == iterations + 1
        joints = [span for span in tracer.spans if span[2] == "changepoints.joint"]
        assert joints
        assert all(name_of.get(span[5]) == "mcmc.rescore" for span in joints)
