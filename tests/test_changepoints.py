import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

import bctseg as b
from bctseg import BctHyperParams, ChangePoints, EvidenceCache, changepoints

from helpers import total_variation


def make_seq(raw, depth, m=2):
    return b.split_context(np.asarray(raw), depth, b.Alphabet.of_size(m))


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


class TestPartition:
    def test_no_change_points(self):
        x = make_seq([0, 1, 0, 1, 1], 1)
        views = b.partition(x, ChangePoints(x.n))
        assert len(views) == 1
        assert (views[0].start, views[0].end) == (1, x.n)

    def test_three_segments(self):
        x = make_seq(list(np.zeros(12, dtype=int)), 2)
        views = b.partition(x, ChangePoints(10, (4, 7)))
        assert [(v.start, v.end) for v in views] == [(1, 3), (4, 6), (7, 10)]

    def test_lengths_cover_series(self):
        x = make_seq(list(np.zeros(25, dtype=int)), 2)
        views = b.partition(x, ChangePoints(23, (5, 9, 17)))
        assert sum(v.length for v in views) == 23

    def test_contexts_are_preceding_symbols(self):
        rng = np.random.default_rng(0)
        raw = rng.integers(0, 2, size=33)
        x = make_seq(raw, 3)
        y = x.full_codes()
        for view in b.partition(x, ChangePoints(30, (7, 19))):
            got = list(view.context)
            lo = view.start - 1
            assert got == list(y[lo : lo + 3])
            assert list(view.observations) == list(y[3 + view.start - 1 : 3 + view.end])

    @settings(derandomize=True, max_examples=40)
    @given(st.sets(st.integers(2, 19), min_size=0, max_size=5))
    def test_coverage_disjoint(self, points):
        x = make_seq(list(np.zeros(22, dtype=int)), 2)
        views = b.partition(x, ChangePoints(20, sorted(points)))
        seen = []
        for v in views:
            seen.extend(range(v.start, v.end + 1))
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
    def test_hits_and_misses(self, monkeypatch):
        monkeypatch.setattr(changepoints, "CACHE_CAPACITY", 10)
        cache = EvidenceCache()
        assert cache.lookup((1, 5)) is None
        cache.store((1, 5), -3.0)
        assert cache.lookup((1, 5)) == -3.0
        assert cache.stats == {"hits": 1, "misses": 1, "entries": 1, "rows": 0}

    def test_lru_eviction(self, monkeypatch):
        monkeypatch.setattr(changepoints, "CACHE_CAPACITY", 2)
        cache = EvidenceCache()
        cache.store((1, 1), 1.0)
        cache.store((2, 2), 2.0)
        cache.lookup((1, 1))        # refresh (1,1); (2,2) is now oldest
        cache.store((3, 3), 3.0)
        assert cache.lookup((2, 2)) is None
        assert cache.lookup((1, 1)) == 1.0

    def test_cached_equals_fresh_recompute(self, switch_sequence):
        params = BctHyperParams(2, 1)
        cache = EvidenceCache()
        cp = ChangePoints(switch_sequence.n, (9,))
        first = b.log_joint_evidence(switch_sequence, cp, params, cache)
        again = b.log_joint_evidence(switch_sequence, cp, params, cache)
        bare = b.log_joint_evidence(switch_sequence, cp, params, None)
        assert first == again == bare


class TestJointEvidence:
    def test_single_segment_is_plain_evidence(self, switch_sequence):
        params = BctHyperParams(2, 1)
        cp = ChangePoints(switch_sequence.n)
        assert b.log_joint_evidence(switch_sequence, cp, params) == pytest.approx(
            b.CountTree.from_sequence(switch_sequence, params).log_evidence(), abs=1e-14
        )

    def test_factorises_over_segments(self):
        rng = np.random.default_rng(8)
        raw = rng.integers(0, 2, size=32)
        x = make_seq(raw, 2)
        params = BctHyperParams(2, 2)
        cp = ChangePoints(30, (11,))
        joint = b.log_joint_evidence(x, cp, params)
        parts = 0.0
        for view in b.partition(x, cp):
            seg = b.Sequence(x.alphabet, view.context, view.observations)
            parts += b.CountTree.from_sequence(seg, params).log_evidence()
        assert joint == pytest.approx(parts, abs=1e-12)

    def test_cache_transparent_over_random_configs(self):
        rng = np.random.default_rng(17)
        raw = rng.integers(0, 2, size=42)
        x = make_seq(raw, 2)
        params = BctHyperParams(2, 2)
        cache = EvidenceCache()
        for _ in range(60):
            ell = int(rng.integers(0, 4))
            pos = sorted(rng.choice(np.arange(2, 40), size=ell, replace=False))
            cp = ChangePoints(40, pos)
            with_cache = b.log_posterior_unnorm(x, cp, params, cache, ell_max=5)
            without = b.log_posterior_unnorm(x, cp, params, None, ell_max=5)
            assert with_cache == without


    def test_rows_serve_both_ends_exactly(self, ternary_alphabet):
        rng = np.random.default_rng(23)
        raw = rng.choice(3, size=205, p=[0.6, 0.3, 0.1])
        raw[100:] = (raw[100:] + 1) % 3
        x = b.split_context(raw, 5, ternary_alphabet)
        params = BctHyperParams(3, 5)
        cache = EvidenceCache()
        for _ in range(80):
            ell = int(rng.integers(0, 4))
            pos = sorted(rng.choice(np.arange(2, x.n), size=ell, replace=False))
            cp = ChangePoints(x.n, pos)
            with_cache = b.log_posterior_unnorm(x, cp, params, cache, ell_max=5)
            without = b.log_posterior_unnorm(x, cp, params, None, ell_max=5)
            assert with_cache == without
        # the segment (1, n) and every first segment come off the forward row
        assert cache.stats["rows"] == 2


class TestLogPosteriorUnnorm:
    def test_count_term_is_the_only_difference(self, switch_sequence):
        params = BctHyperParams(2, 1)
        cp = ChangePoints(switch_sequence.n, (9,))
        fixed = b.log_posterior_unnorm(switch_sequence, cp, params)
        variable = b.log_posterior_unnorm(switch_sequence, cp, params, ell_max=4)
        assert variable - fixed == pytest.approx(math.log(1 / 5), abs=1e-12)

    def test_adjacent_is_minus_inf(self, switch_sequence):
        cp = ChangePoints(switch_sequence.n, (9, 10))
        params = BctHyperParams(2, 1)
        assert b.log_posterior_unnorm(switch_sequence, cp, params) == -math.inf


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
            logs[p - 2] = b.log_posterior_unnorm(
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
            for view in b.partition(x, cp):
                seg = b.Sequence(x.alphabet, view.context, view.observations)
                total += b.brute_force_evidence(seg, params)
            logs[p - 2] = total
        oracle = np.exp(logs - logsumexp(logs))
        oracle[np.isneginf(logs)] = 0.0
        assert total_variation(post, oracle) < 1e-10

    def test_needs_four_observations(self):
        x = make_seq([0, 1, 0], 1)
        with pytest.raises(ValueError):
            b.exact_single_cp_posterior(x, BctHyperParams(2, 1))
