import hashlib
import json
import math
import string

import numpy as np
import pytest
import scipy.sparse.linalg

import bctseg as b
from bctseg import cli, mcmc
from bctseg.cli import main

from helpers import reference_log_posterior, total_variation


@pytest.fixture
def toy_fasta(tmp_path):
    rng = np.random.default_rng(0)
    left = rng.choice(list("AC"), size=60, p=[0.8, 0.2])
    right = rng.choice(list("GT"), size=60, p=[0.3, 0.7])
    body = "".join(left) + "".join(right)
    path = tmp_path / "toy.fa"
    path.write_text(f">toy\n{body}\n")
    return path


@pytest.fixture
def toy_binary(tmp_path):
    rng = np.random.default_rng(1)
    bits = list(rng.integers(0, 2, size=15)) + list((rng.random(15) < 0.9).astype(int))
    path = tmp_path / "toy.txt"
    path.write_text("".join(str(v) for v in bits))
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


def _short_segment_args(path, out):
    return ("segment", path, "--depth", 1, "--lmax", 2, "--iters", 300,
            "--burnin", 100, "--seed", 7, "--out", out)


class _InProcessPool:
    """Stand-in for ProcessPoolExecutor that runs the chains in this process."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


class TestExact:
    def test_posterior_csv(self, toy_fasta, tmp_path):
        out = tmp_path / "run"
        assert run_cli("exact", toy_fasta, "--depth", 2, "--out", out) == 0
        lines = (out / "posterior.csv").read_text().strip().split("\n")
        assert lines[0] == "position,probability"
        probs = [float(line.split(",")[1]) for line in lines[1:]]
        assert math.fsum(probs) == pytest.approx(1.0, abs=1e-10)
        assert probs[0] == 0.0 and probs[-1] == 0.0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "exact"
        assert manifest["parameters"]["beta"] == 0.875  # resolved from m=4
        assert len(manifest["input_digest"]) == 64

    def test_posterior_json(self, toy_binary, tmp_path):
        out = tmp_path / "run"
        assert run_cli(
            "exact", toy_binary, "--depth", 1, "--format", "json", "--out", out
        ) == 0
        obj = json.loads((out / "posterior.json").read_text())
        assert len(obj["positions"]) == len(obj["probs"])
        assert sum(obj["probs"]) == pytest.approx(1.0, abs=1e-10)

    def test_json_run_removes_earlier_csv_posterior(self, toy_binary, tmp_path):
        out = tmp_path / "run"
        assert run_cli("exact", toy_binary, "--depth", 1, "--out", out) == 0
        assert (out / "posterior.csv").exists()
        assert run_cli("exact", toy_binary, "--depth", 1, "--format", "json", "--out", out) == 0
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "posterior.json"]

    # The bytes of posterior.csv at the deepest trees the context codes allow
    # for m = 2 and m = 3, pinned before exact scored two segments per build:
    # the part digit of such a build must not overflow where one tree fits.
    @pytest.mark.parametrize(
        "m, depth, seed, digest",
        [
            (2, 60, 3, "1d831361fe48cf953a282597b5812025f6c6cb487a8fbba30500c13266ebb138"),
            (3, 38, 4, "82378b6fd7b190e634e699da52055de4e6eebb3e4afe60342c5627f5497d4269"),
        ],
    )
    def test_exact_at_deepest_depth_keeps_its_bytes(self, tmp_path, m, depth, seed, digest):
        raw = np.random.default_rng(seed).integers(0, m, size=depth + 40)
        raw[depth + 20 :] = 0
        series = tmp_path / "deep.txt"
        series.write_text("".join(map(str, raw)) + "\n")
        labels = ",".join(map(str, range(m)))
        out = tmp_path / "run"
        assert run_cli("exact", series, "--depth", depth, "--alphabet", labels, "--out", out) == 0
        assert hashlib.sha256((out / "posterior.csv").read_bytes()).hexdigest() == digest


class TestSegment:
    def test_fixed_mode_outputs(self, toy_binary, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            "segment", toy_binary, "--depth", 1, "--num-changes", 1,
            "--iters", 3000, "--burnin", 500, "--seed", 3, "--out", out,
        )
        assert code == 0
        assert (out / "trace.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["map"]["ell"] == 1
        assert summary["retained"] == 2500
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["mode"] == "fixed"

    def test_equal_seeds_byte_identical(self, toy_binary, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run_cli(
                "segment", toy_binary, "--depth", 1, "--lmax", 2,
                "--iters", 2000, "--burnin", 100, "--seed", 5, "--out", out,
            )
            outs.append(out)
        assert (outs[0] / "trace.csv").read_bytes() == (outs[1] / "trace.csv").read_bytes()
        assert (outs[0] / "summary.json").read_bytes() == (outs[1] / "summary.json").read_bytes()

    def test_flag_conflict_is_usage_error(self, toy_binary, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "segment", toy_binary, "--depth", 1, "--lmax", 2,
                "--num-changes", 1, "--out", tmp_path,
            )
        assert exc.value.code == 2

    def test_csv_format_writes_histograms(self, toy_binary, tmp_path):
        out = tmp_path / "run"
        run_cli(
            "segment", toy_binary, "--depth", 1, "--lmax", 2, "--iters", 2000,
            "--burnin", 100, "--seed", 6, "--format", "csv", "--out", out,
        )
        assert (out / "ell_hist.csv").exists()
        lines = (out / "loc_hist.csv").read_text().strip().split("\n")
        assert all(len(line.split(",")) == 2 for line in lines)

    def test_chains_merge(self, toy_binary, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            "segment", toy_binary, "--depth", 1, "--lmax", 2, "--iters", 1000,
            "--burnin", 100, "--seed", 7, "--chains", 2, "--out", out,
        )
        assert code == 0
        assert (out / "trace.csv").exists() and (out / "trace_1.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["retained"] == 2 * 900

    def test_chains_equal_runs_with_spawned_seeds(self, toy_binary, tmp_path):
        # worker processes, each sent the series, the parameters (with a
        # beta that is not the default) and its config
        out = tmp_path / "run"
        code = run_cli(
            "segment", toy_binary, "--depth", 2, "--beta", 0.3, "--lmax", 3,
            "--iters", 600, "--burnin", 100, "--thin", 3, "--seed", 11, "--chains", 2,
            "--out", out,
        )
        assert code == 0
        x, _ = cli._load_sequence(str(toy_binary), 2, None)
        params = b.BctHyperParams(2, 2, 0.3)
        traces = [
            b.run(x, params, b.McmcConfig(600, 100, seed=s, ell_max=3, thinning=3))
            for s in np.random.SeedSequence(11).spawn(2)
        ]
        expect = json.dumps(b.summarize(*traces).to_json_obj(), indent=2) + "\n"
        assert (out / "summary.json").read_text() == expect

    @pytest.mark.parametrize("cpus, chains, workers", [(2, 3, 2), (None, 2, 1), (8, 3, 3)])
    def test_chain_pool_capped_at_cpu_count(
        self, toy_binary, tmp_path, monkeypatch, cpus, chains, workers
    ):
        created = []

        class InProcessPool(_InProcessPool):
            def __init__(self, max_workers):
                created.append(max_workers)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        out = tmp_path / "run"
        code = run_cli(
            "segment", toy_binary, "--depth", 1, "--lmax", 2, "--iters", 300,
            "--burnin", 100, "--seed", 7, "--chains", chains, "--out", out,
        )
        assert code == 0
        assert created == [workers]
        assert (out / f"trace_{chains - 1}.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["retained"] == chains * 200

    def test_manifest_records_cache_figures_per_chain(self, toy_binary, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "ProcessPoolExecutor", _InProcessPool)
        out = tmp_path / "run"
        assert run_cli(*_short_segment_args(toy_binary, out), "--chains", 2) == 0
        figures = json.loads((out / "manifest.json").read_text())["evidence_cache"]
        assert len(figures) == 2
        for chain in figures:
            assert set(chain) == {"hits", "misses", "entries", "rows"}
            # every configuration has a first and a last segment
            assert chain["rows"] == 2
            assert 0 < chain["entries"] <= chain["misses"] < chain["hits"]

    def test_manifest_records_each_chains_best_state(self, toy_binary, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "ProcessPoolExecutor", _InProcessPool)
        out = tmp_path / "run"
        assert run_cli(*_short_segment_args(toy_binary, out), "--chains", 2) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        x, _ = cli._load_sequence(str(toy_binary), 1, None)
        params = b.BctHyperParams(2, 1, manifest["parameters"]["beta"])
        assert len(manifest["best_state"]) == 2
        for best in manifest["best_state"]:
            assert set(best) == {"positions", "log_posterior"}
            cp = b.ChangePoints(x.n, best["positions"])
            # no cache: the recorded score is the state's full rescore
            assert best["log_posterior"] == reference_log_posterior(x, cp, params, ell_max=2)

    def test_streaming_mode_writes_summary_without_trace(
        self, toy_binary, tmp_path, monkeypatch, capsys
    ):
        # a state limit of 0 makes the chain keep histograms only, as it
        # does when more samples are retained than the streaming limit
        monkeypatch.setattr(mcmc, "STREAMING_STATE_LIMIT", 0)
        out = tmp_path / "run"
        code = run_cli(
            "segment", toy_binary, "--depth", 1, "--lmax", 2, "--iters", 1000,
            "--burnin", 100, "--seed", 7, "--out", out,
        )
        assert code == 0
        assert not (out / "trace.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["retained"] == 900
        assert json.loads((out / "manifest.json").read_text())["command"] == "segment"
        assert "trace.csv not written" in capsys.readouterr().err

    def test_streaming_run_removes_earlier_trace(self, toy_binary, tmp_path, monkeypatch):
        out = tmp_path / "run"
        args = _short_segment_args(toy_binary, out)
        assert run_cli(*args) == 0
        assert (out / "trace.csv").exists()
        monkeypatch.setattr(mcmc, "STREAMING_STATE_LIMIT", 0)
        assert run_cli(*args) == 0
        assert not (out / "trace.csv").exists()
        assert (out / "summary.json").exists()

    def test_fewer_chains_remove_earlier_chain_traces(self, toy_binary, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "ProcessPoolExecutor", _InProcessPool)
        out = tmp_path / "run"
        out.mkdir()
        (out / "trace_notes.csv").write_text("kept\n")
        args = _short_segment_args(toy_binary, out)
        assert run_cli(*args, "--chains", 3) == 0
        assert (out / "trace_2.csv").exists()
        assert run_cli(*args, "--chains", 2) == 0
        assert (out / "trace_1.csv").exists()
        assert not (out / "trace_2.csv").exists()
        assert run_cli(*args) == 0
        traces = sorted(p.name for p in out.glob("trace*.csv"))
        assert traces == ["trace.csv", "trace_notes.csv"]

    def test_json_run_removes_earlier_csv_histograms(self, toy_binary, tmp_path):
        out = tmp_path / "run"
        args = _short_segment_args(toy_binary, out)
        assert run_cli(*args, "--format", "csv") == 0
        assert (out / "ell_hist.csv").exists() and (out / "loc_hist.csv").exists()
        assert run_cli(*args) == 0
        assert not (out / "ell_hist.csv").exists()
        assert not (out / "loc_hist.csv").exists()

    def test_failed_run_keeps_earlier_outputs(self, toy_binary, tmp_path, monkeypatch):
        out = tmp_path / "run"
        args = _short_segment_args(toy_binary, out)
        assert run_cli(*args, "--format", "csv") == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        def failing_summary(*traces):
            raise ValueError("summary failed")

        monkeypatch.setattr(mcmc, "STREAMING_STATE_LIMIT", 0)
        monkeypatch.setattr(cli, "summarize", failing_summary)
        assert run_cli(*args) == 2
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_matches_exact_posterior(self, toy_binary, tmp_path):
        out = tmp_path / "run"
        run_cli(
            "segment", toy_binary, "--depth", 1, "--num-changes", 1,
            "--iters", 40000, "--burnin", 2000, "--seed", 8, "--out", out,
        )
        summary = json.loads((out / "summary.json").read_text())
        x = b.split_context(
            b.parse_plain(toy_binary.read_bytes(), b.Alphabet.of_size(2)),
            1,
            b.Alphabet.of_size(2),
        )
        exact = b.exact_single_cp_posterior(x, b.BctHyperParams(2, 1))
        emp = np.zeros(x.n - 2)
        for pos, count in summary["loc_hist"].items():
            emp[int(pos) - 2] = count
        emp /= emp.sum()
        assert total_variation(emp, exact) < 0.05


class TestMapTree:
    def test_depth_zero_single_node(self, toy_binary, tmp_path):
        out = tmp_path / "run"
        assert run_cli("maptree", toy_binary, "--depth", 0, "--out", out) == 0
        obj = json.loads((out / "maptree.json").read_text())
        assert obj["segments"][0]["model"]["leaves"] == [""]
        assert obj["segments"][0]["depth"] == 0

    def test_segments_fit_separately(self, toy_fasta, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            "maptree", toy_fasta, "--depth", 3, "--segments", "59", "--out", out
        )
        assert code == 0
        obj = json.loads((out / "maptree.json").read_text())
        assert len(obj["segments"]) == 2
        assert obj["segments"][0]["start"] == 1
        assert obj["segments"][1]["end"] == 117  # 120 raw symbols minus the depth-3 context
        for seg in obj["segments"]:
            assert seg["model"]["params"]

    @pytest.mark.parametrize("command", ["maptree", "stationary"])
    @pytest.mark.parametrize("series", ["0", "01"])
    def test_one_or_two_observations(self, tmp_path, command, series):
        path = tmp_path / "short.txt"
        path.write_text(series)
        out = tmp_path / "run"
        assert run_cli(command, path, "--depth", 0, "--out", out) == 0
        obj = json.loads((out / f"{command}.json").read_text())
        assert [(s["start"], s["end"]) for s in obj["segments"]] == [(1, len(series))]

    def test_leaf_cap_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # at beta 0.03 the data-free subtrees split down to depth 8: 256 leaves
        monkeypatch.setattr(b.trees, "MAP_MAX_LEAVES", 64)
        path = tmp_path / "sparse.txt"
        path.write_text("0011" * 17)
        out = tmp_path / "run"
        args = ("maptree", path, "--depth", 8, "--beta", 0.03, "--out", out)
        assert run_cli(*args) == 2
        assert _error_lines(capsys) == 1
        assert not (out / "maptree.json").exists()

    def test_bad_segment_position(self, toy_binary, tmp_path):
        assert run_cli(
            "maptree", toy_binary, "--depth", 1, "--segments", "500", "--out", tmp_path
        ) == 2


class TestGenerate:
    def test_round_trip(self, tmp_path):
        spec = b.piecewise_spec_to_json(b.ternary_benchmark_spec(seed=3, depth=4))
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        out = tmp_path / "run"
        assert run_cli("generate", spec_file, "--out", out) == 0
        truth = json.loads((out / "changepoints.json").read_text())
        assert truth["change_points"] == [2500, 3500, 4000]
        body = (out / "sequence.txt").read_text().strip()
        assert len(body) == 4300 + 4
        assert set(body) <= {"0", "1", "2"}

    def test_determinism_and_seed_override(self, tmp_path):
        spec = b.piecewise_spec_to_json(b.ternary_benchmark_spec(seed=3, depth=4))
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        a, bdir, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        run_cli("generate", spec_file, "--out", a)
        run_cli("generate", spec_file, "--out", bdir)
        run_cli("generate", spec_file, "--seed", 99, "--out", c)
        assert (a / "sequence.txt").read_bytes() == (bdir / "sequence.txt").read_bytes()
        assert (a / "sequence.txt").read_bytes() != (c / "sequence.txt").read_bytes()

    def test_stdout_names_sequence_and_length(self, tmp_path, capsys):
        spec = b.piecewise_spec_to_json(b.ternary_benchmark_spec(seed=3, depth=4))
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        out = tmp_path / "run"
        assert run_cli("generate", spec_file, "--out", out) == 0
        assert capsys.readouterr().out == f"wrote {out / 'sequence.txt'} (4304 symbols)\n"

    def test_one_symbol_of_longer_labels_reads_back(self, tmp_path):
        # a one-token sequence.txt of multi-character labels used to be read
        # one character at a time and exit 3
        spec = {"alphabet": ["10", "11"], "D": 0, "seed": 3,
                "segments": [{"contexts": {"": [0.0, 1.0]}, "length": 1}]}
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        assert run_cli("generate", spec_file, "--out", tmp_path / "gen") == 0
        series = tmp_path / "gen" / "sequence.txt"
        assert series.read_text() == "11\n"
        assert run_cli("maptree", series, "--depth", 0, "--alphabet", "10,11",
                       "--out", tmp_path / "run") == 0

    def test_bad_spec_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("generate", bad, "--out", tmp_path) == 3


class TestStationary:
    @pytest.mark.parametrize(
        "positions", [(), (14,), (9, 20), (5, 12, 22)],
        ids=["whole-series", "one-point", "two-points", "three-points"],
    )
    def test_segments_match_the_library(self, toy_binary, tmp_path, positions):
        # maptree and stationary fit each segment as the library does: one
        # MAP model per span of `partition`, built from its segment codes
        segments = ",".join(map(str, positions))
        for command in ("maptree", "stationary"):
            assert run_cli(command, toy_binary, "--depth", 2, "--segments", segments,
                           "--out", tmp_path / command) == 0
        fitted = json.loads((tmp_path / "maptree" / "maptree.json").read_text())
        solved = json.loads((tmp_path / "stationary" / "stationary.json").read_text())
        alpha = b.Alphabet.of_size(2)
        x = b.split_context(b.parse_plain(toy_binary.read_bytes(), alpha), 2, alpha)
        params = b.BctHyperParams(2, 2)
        spans = b.partition(x, b.ChangePoints(x.n, positions))
        assert len(fitted["segments"]) == len(solved["segments"]) == len(spans)
        for (start, end), tree, marginal in zip(spans, fitted["segments"], solved["segments"]):
            model = b.CountTree.from_arrays(x.segment_codes(start, end), params).map_model()
            assert (tree["start"], tree["end"]) == (start, end)
            assert (marginal["start"], marginal["end"]) == (start, end)
            assert tree["model"] == model.to_json(alpha)
            assert marginal["marginal"] == b.stationary_marginal(model).tolist()
            assert sum(marginal["marginal"]) == pytest.approx(1.0, abs=1e-10)

    def test_failed_factorisation_exits_4(self, tmp_path, capsys, monkeypatch):
        # a noisy alternating series fits a depth-2 model, whose closure
        # kernel is solved by splu
        rng = np.random.default_rng(3)
        bits = (np.arange(80) % 2) ^ (rng.random(80) < 0.1)
        series = tmp_path / "alternating.txt"
        series.write_text("".join(str(v) for v in bits))
        calls = []

        def singular(matrix):
            calls.append(matrix.shape)
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(scipy.sparse.linalg, "splu", singular)
        out = tmp_path / "run"
        assert run_cli("stationary", series, "--depth", 2, "--out", out) == 4
        assert calls == [(3, 3)]
        assert _error_lines(capsys) == 1
        assert not (out / "stationary.json").exists()

    def test_long_series_of_a_model_with_a_rare_state(self, tmp_path):
        # 100,000 symbols of a depth-5 caterpillar whose leaf (3,) draws 3
        # with probability 1.06e-4: pinning the all-3 state, of mass about
        # 3e-19 in the fitted model, exited 4 with a residual of 1.0
        leaves = [(0,) * r + (y,) for r in range(5) for y in (1, 2, 3)] + [(0,) * 5]
        rng = np.random.default_rng(0)
        table = {"".join(map(str, s)): rng.dirichlet(np.ones(4)).tolist() for s in leaves}
        spec = {"alphabet": list("0123"), "D": 5, "seed": 3,
                "segments": [{"contexts": table, "length": 100_000}]}
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        assert run_cli("generate", spec_file, "--out", tmp_path / "gen") == 0
        out = tmp_path / "run"
        series = tmp_path / "gen" / "sequence.txt"
        assert run_cli("stationary", series, "--depth", 5, "--alphabet", "0123",
                       "--out", out) == 0
        marg = json.loads((out / "stationary.json").read_text())["segments"][0]["marginal"]
        assert math.fsum(marg) == pytest.approx(1.0, abs=1e-12)

    def test_segment_marginals_differ(self, toy_fasta, tmp_path):
        out = tmp_path / "run"
        run_cli("stationary", toy_fasta, "--depth", 2, "--segments", "61", "--out", out)
        obj = json.loads((out / "stationary.json").read_text())
        first, second = (seg["marginal"] for seg in obj["segments"])
        # regimes use disjoint symbol pairs, so the marginals must differ a lot
        assert abs(first[0] - second[0]) > 0.5


_MODEL_PARAMETERS = {"input", "alphabet", "depth", "beta", "n"}


class TestOutputs:
    @pytest.mark.parametrize("command, keys", [
        ("segment", _MODEL_PARAMETERS | {"mode", "num_changes", "lmax", "iters", "burnin",
                                         "thin", "seed", "chains", "format"}),
        ("exact", _MODEL_PARAMETERS | {"format"}),
        ("maptree", _MODEL_PARAMETERS | {"segments"}),
        ("stationary", _MODEL_PARAMETERS | {"segments"}),
        ("generate", {"spec", "seed", "n", "depth"}),
    ])
    def test_manifest_parameter_keys(self, toy_binary, tmp_path, command, keys):
        # the parameters are the parsed flags without --out, overlaid with the
        # values the command resolved: a new flag shows up here
        out = tmp_path / "run"
        if command == "generate":
            spec_file = tmp_path / "spec.json"
            spec_file.write_text(json.dumps(b.piecewise_spec_to_json(
                b.ternary_benchmark_spec(depth=4))))
            args = ["generate", spec_file, "--out", out]
        elif command == "segment":
            args = _short_segment_args(toy_binary, out)
        else:
            args = [command, toy_binary, "--depth", 1, "--out", out]
        assert run_cli(*args) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == command
        assert set(manifest["parameters"]) == keys

    def test_maptree_and_stationary_share_an_out(self, toy_binary, tmp_path, capsys):
        out = tmp_path / "run"
        for command in ("maptree", "stationary"):
            assert run_cli(command, toy_binary, "--depth", 2, "--out", out) == 0
            assert capsys.readouterr().out == f"wrote {out / command}.json\n"
        names = sorted(p.name for p in out.iterdir())
        assert names == ["manifest.json", "maptree.json", "stationary.json"]
        assert json.loads((out / "manifest.json").read_text())["command"] == "stationary"

    def test_failed_write_keeps_earlier_file(self, tmp_path):
        target = tmp_path / "summary.json"
        target.write_text("earlier\n")
        with pytest.raises(TypeError):
            cli._write_atomic(target, cli._json({"bad": object()}, indent=2))
        assert target.read_text() == "earlier\n"
        assert list(tmp_path.iterdir()) == [target]


class TestByteOrderMark:
    # a file saved with a UTF-8 byte-order mark reads as the same file
    # without it
    @pytest.mark.parametrize("name, body, alphabet", [
        ("bom.txt", "0110100111\n", None),
        ("bom.fa", ">x\nACGTTGCAAC\n", None),
        ("bomfa.txt", ">x\nACGTTGCAAC\n", None),
        ("bom.csv", "2\n0\n1\n1\n2\n0\n", "012"),
        ("lines.txt", "2\n0\n1\n1\n2\n0\n", "012"),
    ], ids=["plain", "fasta", "fasta-in-txt", "csv", "lines"])
    def test_same_codes_as_without_the_mark(self, tmp_path, name, body, alphabet):
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        plain.mkdir()
        marked.mkdir()
        (plain / name).write_bytes(body.encode())
        (marked / name).write_bytes(b"\xef\xbb\xbf" + body.encode())
        want, _ = cli._load_sequence(str(plain / name), 1, alphabet)
        got, _ = cli._load_sequence(str(marked / name), 1, alphabet)
        assert got.alphabet == want.alphabet
        assert np.array_equal(got.full_codes(), want.full_codes())


def _error_lines(capsys) -> int:
    """Number of stderr lines, after checking they are all 'error:' lines."""
    lines = capsys.readouterr().err.splitlines()
    assert all(line.startswith("error: ") for line in lines)
    return len(lines)


class TestErrors:
    def test_unparseable_input(self, tmp_path):
        badfile = tmp_path / "bad.txt"
        badfile.write_text("012x01")
        assert run_cli("exact", badfile, "--depth", 1, "--out", tmp_path) == 3

    def test_missing_file(self, tmp_path):
        assert run_cli("exact", tmp_path / "nope.txt", "--depth", 1, "--out", tmp_path) == 3

    @pytest.mark.parametrize(
        "spec", [{"alphabet": ["0", "1"], "D": 1}, [1, 2]], ids=["missing-key", "wrong-shape"]
    )
    def test_malformed_spec(self, tmp_path, capsys, spec):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        assert run_cli("generate", spec_file, "--out", tmp_path / "run") == 3
        assert _error_lines(capsys) == 1
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("field, value", [
        ("length", 7.9), ("length", 7.0), ("length", True), ("length", "7"),
        ("D", 1.7), ("D", False), ("seed", 2.5),
        ("initial_context", [0.5]), ("initial_context", [True]),
    ])
    def test_non_integer_spec_field_is_usage_error(self, tmp_path, capsys, field, value):
        # these used to be truncated by int(), and the run exited 0
        spec = {"alphabet": ["0", "1"], "D": 1, "seed": 3,
                "segments": [{"contexts": {"0": [0.5, 0.5], "1": [0.1, 0.9]}, "length": 20}]}
        if field == "length":
            spec["segments"][0]["length"] = value
        else:
            spec[field] = value
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        assert run_cli("generate", spec_file, "--out", tmp_path / "run") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and field in err[0]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command, alphabet", [("maptree", "0,1,"), ("exact", "0 1")])
    def test_blank_alphabet_label_is_usage_error(self, toy_binary, tmp_path, capsys,
                                                 command, alphabet):
        # a label no token can match must not count towards m (and the prior)
        out = tmp_path / "run"
        argv = [command, toy_binary, "--depth", 2, "--alphabet", alphabet, "--out", out]
        assert run_cli(*argv) == 2
        assert _error_lines(capsys) == 1
        assert not out.exists()

    @pytest.mark.parametrize("alphabet, label", [("aA", "'a'"), ("A,C,GT", "'GT'"),
                                                 ("AC,G,T", "'AC'")])
    def test_label_no_fasta_symbol_matches_is_usage_error(self, tmp_path, capsys,
                                                          alphabet, label):
        # FASTA is read one character at a time and without case, so 'a'
        # would read every 'A' and 'GT' nothing at all
        path = tmp_path / "z.fa"
        path.write_text(">x\nAaAaaAAAaaaaAAAAaaa\n")
        out = tmp_path / "run"
        argv = ["maptree", path, "--depth", 1, "--alphabet", alphabet, "--out", out]
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and label in err[0]
        assert not out.exists()

    def test_blank_alphabet_label_in_spec(self, tmp_path, capsys):
        spec = {"alphabet": ["0", "1", ""], "D": 0, "seed": 3,
                "segments": [{"contexts": {"": [0.5, 0.25, 0.25]}, "length": 20}]}
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        assert run_cli("generate", spec_file, "--out", tmp_path / "run") == 2
        assert _error_lines(capsys) == 1
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("table, message", [
        ({"0": [0.5, 0.5], "1": [0.5, 0.5], "00": [0.5, 0.5], "01": [0.5, 0.5]},
         "leaf (0,) has leaves below it"),
        ({"": [0.5, 0.5], "λ": [0.4, 0.6]}, "'' and 'λ' name one context"),
    ], ids=["leaf-above-leaves", "two-rows-for-the-root"])
    def test_table_that_is_not_one_tree_in_spec(self, tmp_path, capsys, table, message):
        # the first used to generate 2,002 symbols and exit 0
        spec = {"alphabet": ["0", "1"], "D": 2, "seed": 3,
                "segments": [{"contexts": table, "length": 2000}]}
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        assert run_cli("generate", spec_file, "--out", tmp_path / "run") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
        assert not (tmp_path / "run").exists()

    def test_non_finite_leaf_parameter_in_spec(self, tmp_path, capsys):
        # JSON's NaN literal parses, and a NaN row used to generate a sequence
        spec = {"alphabet": ["0", "1"], "D": 0, "seed": 3,
                "segments": [{"contexts": {"": [math.nan, 0.5]}, "length": 50}]}
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        assert "NaN" in spec_file.read_text()
        assert run_cli("generate", spec_file, "--out", tmp_path / "run") == 2
        assert _error_lines(capsys) == 1
        assert not (tmp_path / "run").exists()

    def test_input_is_directory(self, tmp_path, capsys):
        assert run_cli("exact", tmp_path, "--depth", 1, "--out", tmp_path / "run") == 3
        assert _error_lines(capsys) == 1

    def test_out_below_regular_file(self, toy_binary, tmp_path, capsys):
        out = toy_binary.parent / "toy.txt" / "run"
        assert run_cli("exact", toy_binary, "--depth", 1, "--out", out) == 2
        assert _error_lines(capsys) == 1

    def test_write_into_out_fails_as_usage_error(self, toy_binary, tmp_path, capsys):
        # a directory where an output file goes: the job runs and its write
        # fails, which names --out and is not an unreadable input (exit 3)
        out = tmp_path / "run"
        (out / "posterior.csv").mkdir(parents=True)
        assert run_cli("exact", toy_binary, "--depth", 1, "--out", out) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "--out" in err[0]
        assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]

    @pytest.mark.parametrize("where, code", [
        ("input", 3), ("spec", 3), ("out", 2), ("nested-out", 2),
    ])
    def test_name_too_long(self, toy_binary, tmp_path, capsys, where, code):
        # a 300-byte name is longer than the 255 bytes that common file
        # systems allow for one name
        long = "a" * 300
        args = ["exact", toy_binary, "--depth", 1, "--out", tmp_path / "run"]
        if where == "input":
            args[1] = tmp_path / long
        elif where == "spec":
            args = ["generate", tmp_path / f"{long}.json", "--out", tmp_path / "run"]
        elif where == "out":
            args[-1] = tmp_path / long
        else:
            args[-1] = tmp_path / "run" / long / "deeper"
        assert run_cli(*args) == code
        assert _error_lines(capsys) == 1
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_exact_needs_five_observations(self, tmp_path, capsys, fmt):
        # both gaps around the change-point must be at least 1: no position
        # of four observations has prior mass, which used to write NaN
        series = tmp_path / "four.txt"
        series.write_text("0101")
        out = tmp_path / "run"
        args = ["exact", series, "--depth", 0, "--format", fmt, "--out", out]
        assert run_cli(*args) == 2
        assert _error_lines(capsys) == 1
        assert not out.exists()
        series.write_text("01011")
        assert run_cli(*args) == 0
        assert (out / f"posterior.{fmt}").is_file()

    @pytest.mark.parametrize("command", ["exact", "segment"])
    def test_out_checked_before_the_job(self, toy_binary, tmp_path, capsys, monkeypatch, command):
        def never(*args, **kwargs):
            raise AssertionError("the job ran before --out was checked")

        monkeypatch.setattr(cli, "exact_single_cp_posterior", never)
        monkeypatch.setattr(cli, "run", never)
        out = toy_binary / "run"
        args = ("exact", toy_binary, "--depth", 1, "--out", out)
        if command == "segment":
            args = _short_segment_args(toy_binary, out)
        assert run_cli(*args) == 2
        assert _error_lines(capsys) == 1

    @pytest.mark.parametrize("command", ["exact", "segment"])
    def test_context_code_overflow_is_usage_error(self, tmp_path, capsys, command):
        # 64**11 context codes do not fit in an int64
        labels = string.digits + string.ascii_letters + "+-"
        series = tmp_path / "wide.txt"
        series.write_text(labels[:40] + "\n")
        out = tmp_path / "run"
        args = [command, series, "--depth", 10, "--alphabet", labels, "--beta", 0.5,
                "--out", out]
        if command == "segment":
            args += ["--lmax", 2, "--iters", 10, "--burnin", 0]
        assert run_cli(*args) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "overflows context codes" in err[0]

    def test_env_flag_default(self, toy_binary, tmp_path, monkeypatch):
        monkeypatch.setenv("BCTSEG_DEPTH", "1")
        out = tmp_path / "run"
        assert run_cli("exact", toy_binary, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["depth"] == 1

    def test_env_value_checked_with_flag_type(self, toy_binary, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("BCTSEG_DEPTH", "abc")
        with pytest.raises(SystemExit) as exc:
            run_cli("exact", toy_binary, "--out", tmp_path / "run")
        assert exc.value.code == 2
        assert "BCTSEG_DEPTH" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_env_value_checked_against_flag_choices(
        self, toy_binary, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("BCTSEG_FORMAT", "xml")
        with pytest.raises(SystemExit) as exc:
            run_cli("exact", toy_binary, "--depth", 1, "--out", tmp_path / "run")
        assert exc.value.code == 2
        assert "BCTSEG_FORMAT" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_env_default_not_carried_to_the_next_call(self, toy_binary, tmp_path, monkeypatch):
        # the parser is built once per process, so the first call's
        # environment default must not outlive it
        assert cli.build_parser() is cli.build_parser()
        monkeypatch.setenv("BCTSEG_DEPTH", "1")
        assert run_cli("exact", toy_binary, "--out", tmp_path / "a") == 0
        monkeypatch.delenv("BCTSEG_DEPTH")
        with pytest.raises(SystemExit) as exc:
            run_cli("exact", toy_binary, "--out", tmp_path / "b")
        assert exc.value.code == 2
        assert not (tmp_path / "b").exists()

    def test_env_group_member_not_carried_to_the_next_call(
        self, toy_binary, tmp_path, monkeypatch
    ):
        # BCTSEG_LMAX lifts the required --lmax/--num-changes group for its
        # own call only
        monkeypatch.setenv("BCTSEG_LMAX", "2")
        args = ["segment", toy_binary, "--depth", 1, "--iters", 50, "--burnin", 0]
        assert run_cli(*args, "--out", tmp_path / "a") == 0
        monkeypatch.delenv("BCTSEG_LMAX")
        with pytest.raises(SystemExit) as exc:
            run_cli(*args, "--out", tmp_path / "b")
        assert exc.value.code == 2
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize(
        "variable, flag, mode",
        [("BCTSEG_LMAX", ["--num-changes", "2"], "fixed"),
         ("BCTSEG_NUM_CHANGES", ["--lmax=2"], "variable"),
         ("BCTSEG_LMAX", ["--num", "2"], "fixed"),
         ("BCTSEG_NUM_CHANGES", ["--lm=2"], "variable")],
    )
    def test_flag_beats_env_value_of_its_group(
        self, toy_binary, tmp_path, monkeypatch, variable, flag, mode
    ):
        # a flag of the --lmax/--num-changes group on the command line, or
        # a prefix of one that argparse expands, keeps the variable of the
        # other member from setting it as well
        monkeypatch.setenv(variable, "1")
        out = tmp_path / "run"
        args = ["segment", toy_binary, "--depth", 2, *flag, "--iters", 50, "--burnin", 10]
        assert run_cli(*args, "--out", out) == 0
        parameters = json.loads((out / "manifest.json").read_text())["parameters"]
        assert parameters["mode"] == mode
        assert {parameters["lmax"], parameters["num_changes"]} == {2, None}

    def test_env_values_of_both_group_members_conflict(
        self, toy_binary, tmp_path, capsys, monkeypatch
    ):
        # each variable reaches argparse as its flag, so the pair is refused
        # as the two flags would be
        monkeypatch.setenv("BCTSEG_LMAX", "2")
        monkeypatch.setenv("BCTSEG_NUM_CHANGES", "1")
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            run_cli("segment", toy_binary, "--depth", 1, "--iters", 50, "--out", out)
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err
        assert not out.exists()

    def test_env_value_ignored_by_other_commands(self, tmp_path, monkeypatch):
        # generate has no --chains, so BCTSEG_CHAINS does not concern it
        monkeypatch.setenv("BCTSEG_CHAINS", "x")
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(b.piecewise_spec_to_json(b.ternary_benchmark_spec())))
        assert run_cli("generate", spec_file, "--out", tmp_path / "run") == 0

    def test_default_beta_of_wide_alphabet_names_its_size(self, tmp_path, capsys):
        # 1 - 2**-54 rounds to 1, so 55 symbols need an explicit --beta
        labels = (string.digits + string.ascii_letters)[:55]
        series = tmp_path / "wide.txt"
        series.write_text(labels * 2 + "\n")
        args = ["exact", series, "--depth", 1, "--alphabet", labels, "--out", tmp_path / "run"]
        assert run_cli(*args) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "55" in err[0]
        assert run_cli(*args, "--beta", 0.5) == 0
