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
    reference_log_accept_ratio,
    reference_log_posterior,
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

    @pytest.mark.parametrize("bad", [3.7, True, "3"])
    @pytest.mark.parametrize(
        "field", ["iterations", "burn_in", "thinning", "num_changes", "ell_max"]
    )
    def test_non_integers_rejected(self, field, bad):
        mode = "ell_max" if field == "ell_max" else "num_changes"
        settings = {"iterations": 10, "burn_in": 2, "thinning": 1, mode: 3, field: bad}
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            McmcConfig(seed=0, **settings)

    @pytest.mark.parametrize("field", ["iterations", "burn_in", "thinning"])
    def test_required_counts_refuse_none(self, field):
        settings = {"iterations": 10, "burn_in": 2, "thinning": 1, field: None}
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got None"):
            McmcConfig(seed=0, num_changes=1, **settings)

    def test_numpy_integers_accepted(self):
        config = McmcConfig(
            np.int64(10), np.int64(2), seed=0, ell_max=np.int64(3), thinning=np.int64(2)
        )
        assert config == McmcConfig(10, 2, seed=0, ell_max=3, thinning=2)
        assert all(type(v) is int for v in (config.iterations, config.burn_in,
                                            config.ell_max, config.thinning))
        assert type(McmcConfig(10, 2, seed=0, num_changes=np.int64(1)).num_changes) is int


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


def recorded_chain(monkeypatch, x, params, config, unchanged_every):
    """Run one chain, recording every proposal as (current, candidate) and
    every configuration `run` scores with its score. Every
    `unchanged_every`-th proposal is replaced by the current state itself,
    after the real proposal has made its draws, as `propose_fixed` does
    when a walk is clamped."""
    proposals, scored = [], []
    name = "propose_fixed" if config.fixed_mode else "propose_variable"
    propose, score = getattr(mcmc, name), mcmc.log_posterior_unnorm

    def recorded_proposal(cp, *args):
        candidate, move = propose(cp, *args)
        if (len(proposals) + 1) % unchanged_every == 0:
            candidate = cp
        proposals.append((cp, candidate))
        return candidate, move

    def recorded_score(cp, *args):
        value = score(cp, *args)
        scored.append((cp, value))
        return value

    monkeypatch.setattr(mcmc, name, recorded_proposal)
    monkeypatch.setattr(mcmc, "log_posterior_unnorm", recorded_score)
    b.run(x, params, config)
    return proposals, scored


class TestAcceptRatio:
    """The sampler's log acceptance ratio, the difference of the two states'
    scores plus the proposal ratio, against the ratio computed term by term
    from gap products, uncached evidences and prior normalisers."""

    @pytest.mark.parametrize("series, depth, settings", [
        ("switch", 1, dict(iterations=1500, burn_in=0, seed=21, num_changes=2)),
        ("switch", 1, dict(iterations=1500, burn_in=0, seed=22, ell_max=3)),
        ("random", 2, dict(iterations=600, burn_in=0, seed=23, num_changes=3)),
        ("random", 2, dict(iterations=600, burn_in=0, seed=24, ell_max=4)),
    ])
    def test_every_proposal_matches_the_reference_ratio(
        self, monkeypatch, switch_sequence, ternary_alphabet, series, depth, settings
    ):
        if series == "switch":
            x = switch_sequence
        else:
            rng = np.random.default_rng(8)
            x = b.split_context(rng.integers(0, 3, size=62), depth, ternary_alphabet)
        params = BctHyperParams(x.alphabet.size, depth)
        config = McmcConfig(**settings)
        proposals, scored = recorded_chain(monkeypatch, x, params, config, unchanged_every=7)
        # the initial state, then each candidate once, in proposal order
        assert len(scored) == config.iterations + 1
        log_post = scored[0][1]
        seen = Counter()
        for t, (current, candidate) in enumerate(proposals):
            assert scored[t + 1][0] is candidate
            log_r = scored[t + 1][1] - log_post + log_move_correction(
                current.ell, candidate.ell, x.n, config.ell_max
            )
            ref = reference_log_accept_ratio(x, current, candidate, params, config.ell_max)
            assert (log_r == -math.inf) == (ref == -math.inf)
            if math.isfinite(ref):
                assert abs(log_r - ref) <= 1e-12
            accepted = t + 1 < len(proposals) and proposals[t + 1][0] is candidate
            if candidate.positions == current.positions:
                # exactly zero in both: certain, whatever the coin (a moved
                # state of equal score may give 0 in one and a few ulps in
                # the other)
                seen["unchanged"] += 1
                assert log_r == ref == 0.0
                assert accepted or t + 1 == len(proposals)
            elif log_r == -math.inf:
                seen["zero prior"] += 1  # never, whatever the coin
                assert not accepted
            else:
                seen["count change" if candidate.ell != current.ell else "same count"] += 1
            if accepted:
                log_post = scored[t + 1][1]
        assert min(seen["unchanged"], seen["zero prior"], seen["same count"]) > 0
        assert config.fixed_mode or seen["count change"] > 0


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
        # n=10: a forced birth onto 8 free positions, undone by a death
        # chosen with probability 1/3 out of one point: (1/3)*8/1 = 8/3
        got = log_move_correction(0, 1, 10, 5)
        assert got == pytest.approx(math.log(8 / 3), abs=1e-12)

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
        # onto the cap and in between, and the deaths that undo them; they
        # include the location prior's normaliser ratio, which the two
        # states' scores carry, so it is divided out here
        def birth(ell, new, n, ell_max):
            if ell == 0:
                return 2 * (n - 2) / ((n - 3) * (n - 4))
            factor = 3 if new == ell_max else 2
            return factor * (2 * new + 1) * (n - new - 1) / (
                (n - 2 * new - 2) * (n - 2 * new - 1)
            )

        def normaliser_ratio(new, n):
            # C(n-2, 2*new-1) / C(n-2, 2*new+1)
            return 2 * new * (2 * new + 1) / ((n - 2 * new - 1) * (n - 2 * new - 2))

        for n in (8, 12, 25, 77, 201, 4300, 10**6):
            for ell_max in range(2, min(20, (n - 4) // 2) + 1):
                for ell in range(ell_max):
                    expect = math.log(birth(ell, ell + 1, n, ell_max) / normaliser_ratio(ell + 1, n))
                    got = log_move_correction(ell, ell + 1, n, ell_max)
                    assert got == pytest.approx(expect, rel=1e-14, abs=1e-14)
                    assert log_move_correction(ell + 1, ell, n, ell_max) == -got

    def test_unmatched_case_raises(self):
        with pytest.raises(ValueError, match="out of sync"):
            log_move_correction(1, 3, 30, 5)


class TestEquispaced:
    def test_positive_prior(self):
        for n, ell in [(10, 1), (20, 3), (50, 8), (4300, 10)]:
            pos = equispaced_positions(n, ell)
            assert len(pos) == ell
            assert b.log_prior_positions(ChangePoints(n, pos)) > -math.inf

    def test_too_many_points(self):
        with pytest.raises(ValueError):
            equispaced_positions(10, 4)


PINNED_CHAINS = [
    ("switch", dict(iterations=2000, burn_in=100, seed=12, depth=1, num_changes=2),
     "354f57f5f95f222078f9009ade2f9e98c47ca63c1d17827155b8ea6bcb301e52"),
    ("switch", dict(iterations=2000, burn_in=100, seed=13, depth=1, ell_max=3),
     "43ce65eda0ab7b17d10fac80cddbbaedb641744a414b87bf91c983ec221af7f8"),
    ("ternary", dict(iterations=400, burn_in=0, seed=5, depth=4, num_changes=3),
     "38fcfdf7640e617b6f6059ff9ef095dca3c2fa3092542daf03205c992605d7bc"),
    ("ternary", dict(iterations=400, burn_in=0, seed=5, depth=4, ell_max=10),
     "a086c98c4e84b4053e682137e746c51e26cfcd0175369a1ecbc8391ee0832307"),
]


def pinned_chain(switch_sequence, data, settings):
    """The series, model and trace of one of `PINNED_CHAINS`."""
    if data == "switch":
        x = switch_sequence
    else:
        x, _ = b.generate_piecewise(b.ternary_benchmark_spec(seed=1, depth=4))
    config = McmcConfig(**{k: v for k, v in settings.items() if k != "depth"})
    params = BctHyperParams(x.alphabet.size, settings["depth"])
    return x, params, b.run(x, params, config)


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
    @pytest.mark.parametrize("data, settings, digest", PINNED_CHAINS)
    def test_traces_match_pinned_digests(self, switch_sequence, data, settings, digest):
        _, _, trace = pinned_chain(switch_sequence, data, settings)
        record = json.dumps([
            trace.states,
            sorted(trace.accepted.items()),
            sorted(trace.proposed.items()),
            trace.best_state,
        ])
        assert hashlib.sha256(record.encode()).hexdigest() == digest

    @pytest.mark.parametrize("data, settings, digest", PINNED_CHAINS)
    def test_carried_best_score_equals_a_full_rescore(
        self, switch_sequence, data, settings, digest
    ):
        # the best score is the one its state was given when proposed, and
        # equals the uncached score of that state by definition, bit for bit
        x, params, trace = pinned_chain(switch_sequence, data, settings)
        best = ChangePoints(x.n, trace.best_state)
        ell_max = settings.get("ell_max")
        assert trace.best_log_post == reference_log_posterior(x, best, params, ell_max)

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
