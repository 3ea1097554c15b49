import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

import bctseg as b
from bctseg import BctHyperParams, ChangePoints, EvidenceCache, changepoints
from bctseg.trees import span_log_evidence

from helpers import brute_force_evidence, reference_log_posterior, total_variation


def make_seq(raw, depth, m=2):
    return b.split_context(np.asarray(raw), depth, b.Alphabet.of_size(m))


@pytest.fixture
def build_breaks(monkeypatch):
    """The breaks of every `CountTree.from_arrays` call, in call order."""
    calls = []
    from_arrays = b.CountTree.from_arrays.__func__

    def recorded(cls, codes, params, breaks=()):
        calls.append(tuple(breaks))
        return from_arrays(cls, codes, params, breaks)

    monkeypatch.setattr(b.CountTree, "from_arrays", classmethod(recorded))
    return calls


class TestChangePoints:
    def test_range_and_order(self):
        cp = ChangePoints(10, (4, 7))
        assert cp.ell == 2
        assert cp.full() == (1, 4, 7, 10)
        with pytest.raises(ValueError):
            ChangePoints(10, (1,))
        with pytest.raises(ValueError):
            ChangePoints(10, (10,))
        with pytest.raises(ValueError):
            ChangePoints(10, (5, 5))
        with pytest.raises(ValueError):
            ChangePoints(10, (7, 4))

    def test_short_series_carry_no_interior_point(self):
        # one or two observations make one segment, but no point fits
        assert ChangePoints(1).full() == (1, 1)
        assert ChangePoints(2).gaps() == [0]
        with pytest.raises(ValueError):
            ChangePoints(2, (2,))
        with pytest.raises(ValueError):
            ChangePoints(0)

    def test_adjacent_allowed_at_construction(self):
        cp = ChangePoints(10, (4, 5))
        assert b.log_prior_positions(cp) == -math.inf

    def test_edit_operations(self):
        cp = ChangePoints(10, (4, 7))
        assert cp.replace(0, 8).positions == (7, 8)
        assert cp.insert(2).positions == (2, 4, 7)
        assert cp.delete(1).positions == (4,)

    def test_value_semantics(self):
        cp = ChangePoints(np.int64(10), [np.int64(4), 7])
        assert cp == ChangePoints(10, (4, 7)) != ChangePoints(11, (4, 7))
        assert hash(cp) == hash((10, (4, 7)))
        assert repr(cp) == "ChangePoints(n=10, positions=(4, 7))"
        assert type(cp.n) is int and all(type(p) is int for p in cp.positions)

    @pytest.mark.parametrize("bad", [3.7, True, "3"])
    def test_non_integers_rejected(self, bad):
        with pytest.raises(ValueError, match="^n must be an integer"):
            ChangePoints(bad)
        with pytest.raises(ValueError, match="^change-point must be an integer"):
            ChangePoints(10, (bad,))


class TestPartition:
    def test_no_change_points(self):
        x = make_seq([0, 1, 0, 1, 1], 1)
        assert b.partition(x, ChangePoints(x.n)) == [(1, x.n)]

    def test_three_segments(self):
        x = make_seq(list(np.zeros(12, dtype=int)), 2)
        assert b.partition(x, ChangePoints(10, (4, 7))) == [(1, 3), (4, 6), (7, 10)]

    def test_lengths_cover_series(self):
        x = make_seq(list(np.zeros(25, dtype=int)), 2)
        spans = b.partition(x, ChangePoints(23, (5, 9, 17)))
        assert sum(end - start + 1 for start, end in spans) == 23

    def test_contexts_are_preceding_symbols(self):
        rng = np.random.default_rng(0)
        raw = rng.integers(0, 2, size=33)
        x = make_seq(raw, 3)
        y = x.full_codes()
        for start, end in b.partition(x, ChangePoints(30, (7, 19))):
            codes = x.segment_codes(start, end)
            lo = start - 1
            assert list(codes[:3]) == list(y[lo : lo + 3])
            assert list(codes[3:]) == list(y[3 + start - 1 : 3 + end])

    @settings(derandomize=True, max_examples=40)
    @given(st.sets(st.integers(2, 19), min_size=0, max_size=5))
    def test_coverage_disjoint(self, points):
        x = make_seq(list(np.zeros(22, dtype=int)), 2)
        seen = []
        for start, end in b.partition(x, ChangePoints(20, sorted(points))):
            seen.extend(range(start, end + 1))
        assert seen == list(range(1, 21))


class TestLocationPrior:
    def test_tiny_enumeration(self):
        # n=5, one change-point: only p=3 has positive weight
        assert b.log_prior_positions(ChangePoints(5, (3,))) == 0.0
        assert b.log_prior_positions(ChangePoints(5, (2,))) == -math.inf
        assert b.log_prior_positions(ChangePoints(5, (4,))) == -math.inf

    def test_zero_changepoints_prior_is_one(self):
        for n in (3, 12, 100):
            assert b.log_prior_positions(ChangePoints(n)) == 0.0

    @pytest.mark.parametrize("n,ell", [(12, 2), (15, 3)])
    def test_normalisation(self, n, ell):
        total = sum(
            math.exp(b.log_prior_positions(ChangePoints(n, pos)))
            for pos in itertools.combinations(range(2, n), ell)
        )
        assert total == pytest.approx(1.0, abs=1e-12)


class TestCountPrior:
    def test_uniform(self):
        for ell in range(11):
            assert b.log_prior_count(ell, 10) == pytest.approx(math.log(1 / 11))

    def test_degenerate(self):
        assert b.log_prior_count(0, 0) == 0.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            b.log_prior_count(3, 2)
        with pytest.raises(ValueError):
            b.log_prior_count(-1, 2)


class TestEvidenceCache:
    def test_hits_and_misses(self, switch_sequence, monkeypatch):
        monkeypatch.setattr(changepoints, "CACHE_CAPACITY", 10)
        cache = EvidenceCache(switch_sequence, BctHyperParams(2, 1))
        assert cache.lookup((1, 5)) is None
        cache.store((1, 5), -3.0)
        assert cache.lookup((1, 5)) == -3.0
        assert cache.stats == {"hits": 1, "misses": 1, "entries": 1, "rows": 0}

    def test_full_store_is_emptied_first(self, switch_sequence, monkeypatch):
        monkeypatch.setattr(changepoints, "CACHE_CAPACITY", 2)
        cache = EvidenceCache(switch_sequence, BctHyperParams(2, 1))
        cache.store((1, 1), 1.0)
        cache.store((2, 2), 2.0)
        assert len(cache) == 2
        cache.store((3, 3), 3.0)
        assert len(cache) == 1
        assert cache.lookup((1, 1)) is None
        assert cache.lookup((2, 2)) is None
        assert cache.lookup((3, 3)) == 3.0

    @pytest.mark.parametrize("mode", [{"num_changes": 2}, {"ell_max": 4}])
    def test_capacity_cannot_change_a_chain(self, monkeypatch, mode):
        # every value a miss recomputes has the bits of the one it replaces
        rng = np.random.default_rng(12)
        x = make_seq(np.concatenate([rng.integers(0, 2, 40), rng.random(42) < 0.9]).astype(int), 2)
        params = BctHyperParams(2, 2)
        config = b.McmcConfig(iterations=400, burn_in=100, seed=3, **mode)
        default = b.run(x, params, config)
        monkeypatch.setattr(changepoints, "CACHE_CAPACITY", 8)
        capped = b.run(x, params, config)
        assert capped.states == default.states
        assert capped.best_state == default.best_state
        assert capped.best_log_post == default.best_log_post
        assert capped.cache_stats["misses"] > default.cache_stats["misses"]
        assert default.cache_stats["entries"] > 8
        assert capped.cache_stats["entries"] <= 8

    def test_cached_equals_fresh_recompute(self, switch_sequence):
        params = BctHyperParams(2, 1)
        cache = EvidenceCache(switch_sequence, params)
        cp = ChangePoints(switch_sequence.n, (9,))
        first = b.log_posterior_unnorm(cp, cache)
        again = b.log_posterior_unnorm(cp, cache)
        bare = reference_log_posterior(switch_sequence, cp, params)
        assert first == again == bare
        assert (cache.hits, cache.misses) == (2, 2)

    @pytest.mark.parametrize("build", ["engine", "exact", "run"])
    def test_depth_mismatch_rejected(self, switch_sequence, build):
        # the series carries one context symbol; the model asks for two
        params = BctHyperParams(2, 2)
        with pytest.raises(ValueError, match="context length"):
            if build == "engine":
                EvidenceCache(switch_sequence, params)
            elif build == "exact":
                b.exact_single_cp_posterior(switch_sequence, params)
            else:
                b.run(switch_sequence, params, b.McmcConfig(10, 0, seed=1, num_changes=1))

    @pytest.mark.parametrize("m", [2, 4])
    @pytest.mark.parametrize("build", ["engine", "exact", "run"])
    def test_alphabet_size_mismatch_rejected(self, build, m):
        # a ternary series: binary parameters would score its symbol 2 as
        # part of another context's code, and m = 4 fits it with the prior
        # and the KT terms of a four-symbol alphabet
        full, _ = b.generate_piecewise(b.ternary_benchmark_spec(seed=1, depth=4))
        x = b.Sequence(full.alphabet, full.context, full.observations[2300:2700])
        params = BctHyperParams(m, 4)
        with pytest.raises(ValueError, match=f"alphabet of 3 symbols, the parameters m = {m}"):
            if build == "engine":
                EvidenceCache(x, params)
            elif build == "exact":
                b.exact_single_cp_posterior(x, params)
            else:
                b.run(x, params, b.McmcConfig(10, 0, seed=1, num_changes=1))

    def test_spans_equal_one_at_a_time(self, ternary_alphabet, build_breaks):
        # random configurations through one engine at once and through
        # another one segment at a time: the same values and the same stats
        # after every configuration, with some misses built in pairs
        rng = np.random.default_rng(29)
        raw = rng.choice(3, size=305, p=[0.5, 0.3, 0.2])
        raw[150:] = (raw[150:] + 1) % 3
        x = b.split_context(raw, 5, ternary_alphabet)
        params = BctHyperParams(3, 5)
        together, apart = EvidenceCache(x, params), EvidenceCache(x, params)
        for _ in range(120):
            ell = int(rng.integers(0, 5))
            pos = sorted(rng.choice(np.arange(2, x.n), size=ell, replace=False))
            segments = b.partition(x, ChangePoints(x.n, pos))
            values = together.spans(segments)
            assert values == [apart.spans([key])[0] for key in segments]
            assert together.stats == apart.stats
        assert sum(len(breaks) == 1 for breaks in build_breaks) > 10

    def test_benchmark_chain_accounting(self):
        # the ternary benchmark's chain: as many lookups, hits, misses and
        # stored values whether or not two misses share a build
        x, _ = b.generate_piecewise(b.ternary_benchmark_spec(seed=1))
        config = b.McmcConfig(iterations=1000, burn_in=500, seed=5, ell_max=10)
        trace = b.run(x, BctHyperParams(3, 10), config)
        assert trace.cache_stats == {"hits": 2816, "misses": 1226, "entries": 1226, "rows": 2}


class TestJointEvidence:
    def test_single_segment_is_plain_evidence(self, switch_sequence):
        params = BctHyperParams(2, 1)
        cp = ChangePoints(switch_sequence.n)
        evidence = EvidenceCache(switch_sequence, params)
        assert b.log_joint_evidence(cp, evidence) == pytest.approx(
            b.CountTree.from_sequence(switch_sequence, params).log_evidence(), abs=1e-14
        )

    def test_factorises_over_segments(self):
        rng = np.random.default_rng(8)
        raw = rng.integers(0, 2, size=32)
        x = make_seq(raw, 2)
        params = BctHyperParams(2, 2)
        cp = ChangePoints(30, (11,))
        joint = b.log_joint_evidence(cp, EvidenceCache(x, params))
        parts = 0.0
        for start, end in b.partition(x, cp):
            parts += b.CountTree.from_arrays(x.segment_codes(start, end), params).log_evidence()
        assert joint == pytest.approx(parts, abs=1e-12)

    def test_cache_transparent_over_random_configs(self):
        rng = np.random.default_rng(17)
        raw = rng.integers(0, 2, size=42)
        x = make_seq(raw, 2)
        params = BctHyperParams(2, 2)
        cache = EvidenceCache(x, params)
        for _ in range(60):
            ell = int(rng.integers(0, 4))
            pos = sorted(rng.choice(np.arange(2, 40), size=ell, replace=False))
            cp = ChangePoints(40, pos)
            with_cache = b.log_posterior_unnorm(cp, cache, ell_max=5)
            without = reference_log_posterior(x, cp, params, ell_max=5)
            assert with_cache == without

    def test_rows_serve_both_ends_exactly(self, ternary_alphabet):
        rng = np.random.default_rng(23)
        raw = rng.choice(3, size=205, p=[0.6, 0.3, 0.1])
        raw[100:] = (raw[100:] + 1) % 3
        x = b.split_context(raw, 5, ternary_alphabet)
        params = BctHyperParams(3, 5)
        cache = EvidenceCache(x, params)
        for _ in range(80):
            ell = int(rng.integers(0, 4))
            pos = sorted(rng.choice(np.arange(2, x.n), size=ell, replace=False))
            cp = ChangePoints(x.n, pos)
            with_cache = b.log_posterior_unnorm(cp, cache, ell_max=5)
            without = reference_log_posterior(x, cp, params, ell_max=5)
            assert with_cache == without
        # the segment (1, n) and every first segment come off the forward row
        assert cache.stats["rows"] == 2

    @pytest.mark.parametrize("n", [15, 30])
    def test_other_series_length_rejected(self, switch_sequence, n):
        # both configurations would otherwise score a stretch of the wrong
        # length: 9..15 stops short of the end, 9..30 runs past it
        evidence = EvidenceCache(switch_sequence, BctHyperParams(2, 1))
        with pytest.raises(ValueError, match="different series length"):
            b.log_joint_evidence(ChangePoints(n, (9,)), evidence)
        with pytest.raises(ValueError, match="different series length"):
            b.log_posterior_unnorm(ChangePoints(n, (9,)), evidence)


class TestLogPosteriorUnnorm:
    def test_count_term_is_the_only_difference(self, switch_sequence):
        params = BctHyperParams(2, 1)
        cp = ChangePoints(switch_sequence.n, (9,))
        evidence = EvidenceCache(switch_sequence, params)
        fixed = b.log_posterior_unnorm(cp, evidence)
        variable = b.log_posterior_unnorm(cp, evidence, ell_max=4)
        assert variable - fixed == pytest.approx(math.log(1 / 5), abs=1e-12)

    def test_adjacent_is_minus_inf(self, switch_sequence):
        cp = ChangePoints(switch_sequence.n, (9, 10))
        evidence = EvidenceCache(switch_sequence, BctHyperParams(2, 1))
        assert b.log_posterior_unnorm(cp, evidence) == -math.inf


class TestExactSingleCp:
    def test_normalised(self, switch_sequence):
        post = b.exact_single_cp_posterior(switch_sequence, BctHyperParams(2, 1))
        assert post.sum() == pytest.approx(1.0, abs=1e-10)
        assert post.shape == (switch_sequence.n - 2,)

    def test_zero_prior_positions_exactly_zero(self, switch_sequence):
        post = b.exact_single_cp_posterior(switch_sequence, BctHyperParams(2, 1))
        assert post[0] == 0.0 and post[-1] == 0.0

    def test_matches_normalised_unnorm_scores(self, switch_sequence):
        params = BctHyperParams(2, 1)
        post = b.exact_single_cp_posterior(switch_sequence, params)
        n = switch_sequence.n
        logs = np.full(n - 2, -math.inf)
        for p in range(2, n):
            logs[p - 2] = reference_log_posterior(
                switch_sequence, ChangePoints(n, (p,)), params
            )
        ref = np.exp(logs - logsumexp(logs))
        ref[np.isneginf(logs)] = 0.0
        assert np.abs(post - ref).max() < 1e-10

    def test_recovers_hard_switch_against_oracle_evidence(self):
        # deterministic regimes around p*=10; oracle rebuilds the posterior
        # from brute-force per-segment evidences
        raw = [0] + [0] * 9 + [1] * 11
        x = make_seq(raw, 1)
        params = BctHyperParams(2, 1)
        post = b.exact_single_cp_posterior(x, params)
        argmax_pos = 2 + int(np.argmax(post))
        assert abs(argmax_pos - 10) <= 3

        n = x.n
        logs = np.full(n - 2, -math.inf)
        for p in range(2, n):
            cp = ChangePoints(n, (p,))
            prior = b.log_prior_positions(cp)
            if prior == -math.inf:
                continue
            total = prior
            for start, end in b.partition(x, cp):
                seg = b.split_context(x.segment_codes(start, end), x.depth, x.alphabet)
                total += brute_force_evidence(seg, params)
            logs[p - 2] = total
        oracle = np.exp(logs - logsumexp(logs))
        oracle[np.isneginf(logs)] = 0.0
        assert total_variation(post, oracle) < 1e-10

    def test_one_build_per_position(self, switch_sequence, build_breaks):
        # both segments of a position come from one build in two parts;
        # positions without prior mass are not scored
        b.exact_single_cp_posterior(switch_sequence, BctHyperParams(2, 1))
        assert build_breaks == [(p - 1,) for p in range(3, switch_sequence.n - 1)]

    def test_needs_five_observations(self):
        for raw in ([0, 1, 0], [0, 1, 0, 1, 1]):  # n = 2 and n = 4
            with pytest.raises(ValueError, match="five observations"):
                b.exact_single_cp_posterior(make_seq(raw, 1), BctHyperParams(2, 1))

    def test_five_observations_one_position(self):
        # only p = 3 has prior mass at n = 5
        x = make_seq([0, 1, 0, 1, 1, 0], 1)
        post = b.exact_single_cp_posterior(x, BctHyperParams(2, 1))
        assert post.tolist() == [0.0, 1.0, 0.0]

    @pytest.mark.parametrize("case", range(41))
    def test_equals_per_position_prior_and_two_builds(self, case):
        # the slow path: the general prior of each ChangePoints(n, (p,)) and
        # one build per segment; -inf where the prior is zero
        rng = np.random.default_rng(case)
        if case == 40:
            m, depth, n = 4, 10, 300
        else:
            m, depth, n = int(rng.integers(2, 5)), int(rng.integers(0, 11)), int(rng.integers(5, 201))
        raw = rng.choice(m, size=n + depth, p=rng.dirichlet(np.ones(m)))
        cut = int(rng.integers(0, n + depth))
        raw[cut:] = (raw[cut:] + 1) % m
        x, params = make_seq(raw, depth, m=m), BctHyperParams(m, depth)
        logs = np.full(n - 2, -math.inf)
        for p in range(2, n):
            prior = b.log_prior_positions(ChangePoints(n, (p,)))
            if prior == -math.inf:
                continue
            logs[p - 2] = prior + (
                span_log_evidence(x.segment_codes(1, p - 1), params)
                + span_log_evidence(x.segment_codes(p, n), params)
            )
        slow = np.exp(logs - logsumexp(logs))
        assert np.array_equal(b.exact_single_cp_posterior(x, params), slow)

    # Pinned digests of the posterior's bytes, taken before any change to how
    # it is computed: a faster path must keep every bit. The scores are
    # normalised by scipy's logsumexp; on both inputs the formula of scipy
    # 1.10 (log of the shifted sum) gives the same bytes as that of 1.17.
    @pytest.mark.parametrize(
        "data, digest",
        [
            ("switch", "f250da18350bea549760eb8661890bf5492a1a426e126fae29a961f0d0530142"),
            ("dna", "6195db0ed4d7760d8bc519ff4e4b457606c9e70e08e13051c95a8d9490c51f23"),
        ],
    )
    def test_matches_pinned_digest(self, switch_sequence, data, digest):
        if data == "switch":
            x, params = switch_sequence, BctHyperParams(2, 1)
        else:
            # seeded DNA, n = 300 at depth 10, with a switch after 180 symbols
            rng = np.random.default_rng(31)
            raw = rng.choice(4, size=310, p=[0.4, 0.3, 0.2, 0.1])
            raw[190:] = (raw[190:] + 2) % 4
            x, params = make_seq(raw, 10, m=4), BctHyperParams(4, 10)
        post = b.exact_single_cp_posterior(x, params)
        assert hashlib.sha256(post.tobytes()).hexdigest() == digest
