import hashlib
import io
import json
import math
import pickle
from collections import Counter

import numpy as np
import pytest

import bctseg as b
from bctseg import BctHyperParams, ChangePoints, EvidenceCache, McmcConfig, mcmc
from bctseg.mcmc import equispaced_positions, log_move_correction

from helpers import (
    empirical_distribution,
    exhaustive_joint_posterior,
    total_variation,
)

# the model of the binary series with one context symbol used throughout
SWITCH_PARAMS = BctHyperParams(2, 1)


class TestConfig:
    def test_exactly_one_mode(self):
        with pytest.raises(ValueError):
            McmcConfig(iterations=10, burn_in=0, seed=0)
        with pytest.raises(ValueError):
            McmcConfig(iterations=10, burn_in=0, seed=0, num_changes=1, ell_max=3)

    def test_bounds(self):
        with pytest.raises(ValueError):
            McmcConfig(iterations=10, burn_in=10, seed=0, num_changes=1)
        with pytest.raises(ValueError):
            McmcConfig(iterations=10, burn_in=0, seed=0, num_changes=0)
        with pytest.raises(ValueError):
            # unknown-count mode requires room for the boundary move cases
            McmcConfig(iterations=10, burn_in=0, seed=0, ell_max=1)


class TestProposeFixed:
    def test_support_on_tiny_state(self):
        # n=5, p=(3,): both move types can only reach 2 or 4
        cp = ChangePoints(5, (3,))
        rng = np.random.default_rng(0)
        seen = set()
        for _ in range(400):
            cand, move = b.propose_fixed(cp, rng)
            assert move in ("jump", "walk")
            seen.add(cand.positions)
        assert seen == {(2,), (4,)}

    def test_changes_exactly_one_point(self):
        cp = ChangePoints(30, (5, 11, 20))
        rng = np.random.default_rng(1)
        for _ in range(300):
            cand, _ = b.propose_fixed(cp, rng)
            assert cand.ell == 3
            assert len(set(cand.positions) - set(cp.positions)) == 1

    def test_walk_clamps_at_boundary(self):
        # p=2 has zero prior mass but must still propose symmetrically:
        # a left step to 1 becomes a guaranteed self-transition
        cp = ChangePoints(8, (2,))
        rng = np.random.default_rng(2)
        seen = set()
        for _ in range(500):
            cand, _ = b.propose_fixed(cp, rng)
            seen.add(cand.positions)
        assert (2,) in seen  # the clamped self-transition occurs

    def test_empirical_symmetry(self):
        # q(p -> p') vs q(p' -> p) for a neighbouring pair, 5e5 draws each way
        n_draws = 500_000
        a = ChangePoints(8, (3, 6))
        a2 = ChangePoints(8, (4, 6))
        rng = np.random.default_rng(3)

        def census(start):
            hits = Counter()
            for _ in range(n_draws):
                cand, _ = b.propose_fixed(start, rng)
                hits[cand.positions] += 1
            return hits

        fwd = census(a)[a2.positions] / n_draws
        rev = census(a2)[a.positions] / n_draws
        sigma = math.sqrt(fwd * (1 - fwd) / n_draws + rev * (1 - rev) / n_draws)
        assert abs(fwd - rev) <= 3 * sigma


def accepts(log_r: float, u: float) -> bool:
    """The sampler's accept rule for a coin u drawn uniformly from [0, 1)."""
    return log_r >= 0 or u < math.exp(log_r)


class TestAcceptFixed:
    """Acceptance in the known-count chain, which passes no count cap."""

    def setup_method(self):
        raw = [0] * 9 + [1] * 9 + [0, 1]
        self.x = b.split_context(np.asarray(raw), 1, b.Alphabet.of_size(2))
        self.evidence = EvidenceCache(self.x, BctHyperParams(2, 1))

    def test_same_state_always_accepted(self):
        cp = ChangePoints(self.x.n, (9,))
        log_r = b.log_accept_ratio(cp, cp, self.evidence, None)
        assert log_r == 0.0
        rng = np.random.default_rng(0)
        assert all(accepts(log_r, rng.random()) for _ in range(20))

    def test_zero_prior_candidate_always_rejected(self):
        cp = ChangePoints(self.x.n, (9,))
        bad = ChangePoints(self.x.n, (2,))  # first gap weight is zero
        log_r = b.log_accept_ratio(cp, bad, self.evidence, None)
        assert log_r == -math.inf
        for seed in range(20):
            assert not accepts(log_r, np.random.default_rng(seed).random())


class TestProposeVariable:
    def test_forced_birth_from_zero(self):
        cp = ChangePoints(12)
        rng = np.random.default_rng(0)
        for _ in range(200):
            cand, move = b.propose_variable(cp, 3, rng)
            assert move == "birth" and cand.ell == 1

    def test_menu_at_cap(self):
        cp = ChangePoints(12, (4, 8))
        rng = np.random.default_rng(1)
        ells = set()
        for _ in range(300):
            cand, move = b.propose_variable(cp, 2, rng)
            assert move in ("death", "within")
            ells.add(cand.ell)
        assert ells == {1, 2}

    def test_birth_keeps_order_and_uniqueness(self):
        cp = ChangePoints(20, (5, 11))
        rng = np.random.default_rng(2)
        for _ in range(300):
            cand, move = b.propose_variable(cp, 6, rng)
            pos = cand.positions
            assert list(pos) == sorted(set(pos))


class TestMoveCorrection:
    def test_within_is_one(self):
        for ell in range(0, 5):
            assert log_move_correction(ell, ell, 30, 6) == 0.0

    def test_birth_from_empty_example(self):
        # n=10: 2*8/(7*6) = 8/21
        got = log_move_correction(0, 1, 10, 5)
        assert got == pytest.approx(math.log(8 / 21), abs=1e-12)

    @pytest.mark.parametrize("n", [12, 25, 60, 201])
    @pytest.mark.parametrize("ell_max", [2, 3, 5])
    def test_reversed_pairs_cancel(self, n, ell_max):
        if n < 2 * ell_max + 4:
            pytest.skip("not enough room for the cap")
        for ell in range(0, ell_max):
            birth = log_move_correction(ell, ell + 1, n, ell_max)
            death = log_move_correction(ell + 1, ell, n, ell_max)
            assert birth + death == pytest.approx(0.0, abs=1e-12)

    def test_matches_closed_forms(self):
        # the six closed forms the general term replaced: births from zero,
        # onto the cap and in between, and the deaths that undo them
        def birth(ell, new, n, ell_max):
            if ell == 0:
                return 2 * (n - 2) / ((n - 3) * (n - 4))
            factor = 3 if new == ell_max else 2
            return factor * (2 * new + 1) * (n - new - 1) / (
                (n - 2 * new - 2) * (n - 2 * new - 1)
            )

        for n in (8, 12, 25, 77, 201, 4300, 10**6):
            for ell_max in range(2, min(20, (n - 4) // 2) + 1):
                for ell in range(ell_max):
                    expect = math.log(birth(ell, ell + 1, n, ell_max))
                    got = log_move_correction(ell, ell + 1, n, ell_max)
                    assert got == pytest.approx(expect, rel=1e-14, abs=1e-14)
                    assert log_move_correction(ell + 1, ell, n, ell_max) == -got

    def test_unmatched_case_raises(self):
        with pytest.raises(ValueError, match="out of sync"):
            log_move_correction(1, 3, 30, 5)

    def test_within_ratio_has_no_correction_term(self, switch_sequence):
        # a within-count candidate's ratio is evidence + gap terms only
        evidence = EvidenceCache(switch_sequence, BctHyperParams(2, 1))
        cur = ChangePoints(switch_sequence.n, (9,))
        cand = ChangePoints(switch_sequence.n, (12,))
        got = b.log_accept_ratio(cur, cand, evidence, 3)
        manual = b.log_posterior_unnorm(cand, evidence) - b.log_posterior_unnorm(cur, evidence)
        assert got == pytest.approx(manual, abs=1e-12)
        # the known-count chain uses the same ratio, with no count cap
        fixed = b.log_accept_ratio(cur, cand, evidence, None)
        assert fixed == got


class TestEquispaced:
    def test_positive_prior(self):
        for n, ell in [(10, 1), (20, 3), (50, 8), (4300, 10)]:
            pos = equispaced_positions(n, ell)
            assert len(pos) == ell
            assert b.log_prior_positions(ChangePoints(n, pos)) > -math.inf

    def test_too_many_points(self):
        with pytest.raises(ValueError):
            equispaced_positions(10, 4)


class TestRun:
    def test_seed_determinism(self, switch_sequence):
        cfg = McmcConfig(iterations=2000, burn_in=100, seed=42, ell_max=2)
        t1 = b.run(switch_sequence, SWITCH_PARAMS, cfg)
        t2 = b.run(switch_sequence, SWITCH_PARAMS, cfg)
        assert t1.states == t2.states
        assert t1.accepted == t2.accepted

    def test_fixed_mode_keeps_count(self, switch_sequence):
        cfg = McmcConfig(iterations=3000, burn_in=0, seed=1, num_changes=2)
        trace = b.run(switch_sequence, SWITCH_PARAMS, cfg)
        assert all(len(pos) == 2 for pos in trace.states)

    def test_variable_mode_stays_in_range(self, switch_sequence):
        cfg = McmcConfig(iterations=5000, burn_in=0, seed=2, ell_max=3)
        trace = b.run(switch_sequence, SWITCH_PARAMS, cfg)
        ells = {len(pos) for pos in trace.states}
        assert ells <= {0, 1, 2, 3}
        assert sum(trace.ell_hist.values()) == trace.retained == len(trace.states)

    def test_visited_states_have_finite_posterior(self, switch_sequence):
        cfg = McmcConfig(iterations=5000, burn_in=0, seed=3, ell_max=3)
        trace = b.run(switch_sequence, SWITCH_PARAMS, cfg)
        evidence = EvidenceCache(switch_sequence, BctHyperParams(2, 1))
        for pos in set(trace.states):
            cp = ChangePoints(switch_sequence.n, pos)
            assert b.log_posterior_unnorm(cp, evidence, 3) > -math.inf
        assert trace.best_log_post > -math.inf

    # Pinned digests of reference traces in both modes: any change to the
    # proposals, the acceptance ratio or the order of random draws alters them.
    @pytest.mark.parametrize(
        "data, settings, digest",
        [
            ("switch", dict(iterations=2000, burn_in=100, seed=12, depth=1, num_changes=2),
             "354f57f5f95f222078f9009ade2f9e98c47ca63c1d17827155b8ea6bcb301e52"),
            ("switch", dict(iterations=2000, burn_in=100, seed=13, depth=1, ell_max=3),
             "43ce65eda0ab7b17d10fac80cddbbaedb641744a414b87bf91c983ec221af7f8"),
            ("ternary", dict(iterations=400, burn_in=0, seed=5, depth=4, num_changes=3),
             "38fcfdf7640e617b6f6059ff9ef095dca3c2fa3092542daf03205c992605d7bc"),
            ("ternary", dict(iterations=400, burn_in=0, seed=5, depth=4, ell_max=10),
             "a086c98c4e84b4053e682137e746c51e26cfcd0175369a1ecbc8391ee0832307"),
        ],
    )
    def test_traces_match_pinned_digests(self, switch_sequence, data, settings, digest):
        if data == "switch":
            x = switch_sequence
        else:
            x, _ = b.generate_piecewise(b.ternary_benchmark_spec(seed=1, depth=4))
        config = McmcConfig(**{k: v for k, v in settings.items() if k != "depth"})
        trace = b.run(x, BctHyperParams(x.alphabet.size, settings["depth"]), config)
        record = json.dumps([
            trace.states,
            sorted(trace.accepted.items()),
            sorted(trace.proposed.items()),
            trace.best_state,
        ])
        assert hashlib.sha256(record.encode()).hexdigest() == digest

    def test_thinning_and_burn_in(self, switch_sequence):
        cfg = McmcConfig(
            iterations=1000, burn_in=200, seed=4, ell_max=2, thinning=10
        )
        trace = b.run(switch_sequence, SWITCH_PARAMS, cfg)
        assert trace.retained == 80
        buf = io.StringIO()
        trace.write_csv(buf)
        iterations = [int(line.split(",")[0]) for line in buf.getvalue().splitlines()]
        assert iterations == list(range(200, 1000, 10))

    def test_streaming_mode_matches_histograms(self, switch_sequence, monkeypatch):
        cfg = McmcConfig(iterations=2000, burn_in=100, seed=5, ell_max=2)
        full = b.run(switch_sequence, SWITCH_PARAMS, cfg)
        monkeypatch.setattr(mcmc, "STREAMING_STATE_LIMIT", 10)
        slim = b.run(switch_sequence, SWITCH_PARAMS, cfg)
        assert slim.states is None
        assert slim.ell_hist == full.ell_hist and slim.loc_hist == full.loc_hist
        assert slim.rank_hists == full.rank_hists
        assert b.summarize(slim).to_json_obj() == b.summarize(full).to_json_obj()

    def test_pickled_trace_does_not_grow_with_the_series(self):
        # --chains pickles each trace back from its worker, so its record must
        # grow with the states the chain visits, not with n
        rng = np.random.default_rng(0)
        x = b.split_context(rng.integers(0, 2, size=20_001), 1, b.Alphabet.of_size(2))
        cfg = McmcConfig(iterations=200, burn_in=100, seed=1, ell_max=2)
        assert len(pickle.dumps(b.run(x, SWITCH_PARAMS, cfg))) < 8 * 1024

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_count_cap_must_fit_the_series(self, n):
        x = b.split_context(np.arange(n + 1) % 2, 1, b.Alphabet.of_size(2))
        cfg = McmcConfig(iterations=20, burn_in=0, seed=0, ell_max=2)
        if n < 7:
            with pytest.raises(ValueError, match="do not fit"):
                b.run(x, SWITCH_PARAMS, cfg)
        else:
            assert b.run(x, SWITCH_PARAMS, cfg).retained == 20

    def test_trace_csv_layout(self, switch_sequence):
        cfg = McmcConfig(iterations=50, burn_in=0, seed=7, ell_max=2)
        trace = b.run(switch_sequence, SWITCH_PARAMS, cfg)
        buf = io.StringIO()
        trace.write_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert len(lines) == trace.retained
        first = lines[0].split(",")
        assert first[0] == "0" and int(first[1]) == len(first) - 2


class TestStationarity:
    def test_fixed_chain_matches_exact_posterior(self, switch_sequence):
        params = BctHyperParams(2, 1)
        exact = b.exact_single_cp_posterior(switch_sequence, params)
        cfg = McmcConfig(iterations=40_000, burn_in=2000, seed=9, num_changes=1)
        trace = b.run(switch_sequence, SWITCH_PARAMS, cfg)
        emp = np.zeros(switch_sequence.n - 2)
        for pos in trace.states:
            emp[pos[0] - 2] += 1
        emp /= emp.sum()
        assert total_variation(emp, exact) < 0.05

    def test_variable_chain_matches_joint_posterior(self, switch_sequence):
        params = BctHyperParams(2, 1)
        configs, exact = exhaustive_joint_posterior(switch_sequence, params, 2)
        cfg = McmcConfig(iterations=60_000, burn_in=2000, seed=10, ell_max=2)
        trace = b.run(switch_sequence, SWITCH_PARAMS, cfg)
        emp = empirical_distribution(trace.states, configs)
        assert total_variation(emp, exact) < 0.05


class TestSummarize:
    def test_identical_samples(self):
        trace = b.Trace()
        cp = ChangePoints(20, (5, 11))
        for _ in range(10):
            trace.record(cp)
        s = b.summarize(trace)
        assert s.map_ell == 2
        assert s.map_positions == (5, 11)
        assert s.ell_hist == {2: 10}
        assert s.loc_hist == {5: 10, 11: 10}

    def test_masses_match_retained(self, switch_sequence):
        cfg = McmcConfig(iterations=4000, burn_in=500, seed=11, ell_max=2)
        trace = b.run(switch_sequence, SWITCH_PARAMS, cfg)
        s = b.summarize(trace)
        assert sum(s.ell_hist.values()) == s.retained
        pooled = sum(ell * c for ell, c in s.ell_hist.items())
        assert sum(s.loc_hist.values()) == pooled

    def test_pools_chains(self, switch_sequence):
        traces = [
            b.run(switch_sequence, SWITCH_PARAMS, McmcConfig(
                iterations=1500, burn_in=100, seed=s, ell_max=2
            ))
            for s in (21, 22)
        ]
        pooled = b.summarize(*traces)
        parts = [b.summarize(tr) for tr in traces]
        assert pooled.retained == 2 * 1400
        for field in ("ell_hist", "loc_hist"):
            assert getattr(pooled, field) == dict(
                sum((Counter(getattr(s, field)) for s in parts), Counter())
            )
        ell_hist = traces[0].ell_hist + traces[1].ell_hist
        assert pooled.map_ell == max(sorted(ell_hist), key=ell_hist.get)
        by_rank = zip(*(tr.rank_hists[pooled.map_ell] for tr in traces))
        assert pooled.cond_hists == [dict(sorted((a + b).items())) for a, b in by_rank]
        assert list(pooled.acceptance_rates) == list(traces[0].proposed)
        for move, rate in pooled.acceptance_rates.items():
            accepted = sum(tr.accepted.get(move, 0) for tr in traces)
            assert rate == accepted / sum(tr.proposed[move] for tr in traces)

    def test_count_ties_break_low(self):
        trace = b.Trace()
        trace.record(ChangePoints(20, (5,)))
        trace.record(ChangePoints(20, (5, 11)))
        s = b.summarize(trace)
        assert s.map_ell == 1

    def test_rank_ties_break_early(self):
        trace = b.Trace()
        for pos in [(9, 15), (4, 15), (9, 12), (4, 12)]:
            trace.record(ChangePoints(20, pos))
        s = b.summarize(trace)
        assert s.map_positions == (4, 12)
        assert s.cond_hists == [{4: 2, 9: 2}, {12: 2, 15: 2}]

    def test_empty_trace(self):
        with pytest.raises(ValueError):
            b.summarize(b.Trace())
