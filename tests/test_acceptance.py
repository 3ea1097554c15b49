"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them). Criteria tied to external data
files skip with a message when the file is absent; see conftest.data_path.
"""

import itertools
import math
import time

import numpy as np
from scipy.special import logsumexp

import bctseg as b
from bctseg import BctHyperParams, ChangePoints, EvidenceCache, McmcConfig

from conftest import require_data
from helpers import (
    brute_force_evidence,
    contexts_at_depth,
    count_contexts_by_hand,
    count_vector,
    empirical_distribution,
    enumerate_proper_trees,
    exhaustive_joint_posterior,
    kt_log_prob_product,
    reference_log_posterior,
    total_variation,
    tree_log_prior,
)


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} ({name}): {status} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def make_switch_sequence():
    raw = np.array([0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1, 0, 1, 1, 1, 0, 1, 1, 1])
    return b.split_context(raw, 1, b.Alphabet.of_size(2))


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(20240401)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        depth = int(rng.integers(1, 4))
        n = int(rng.integers(5, 51))
        beta = float(rng.uniform(0.001, 0.999))
        raw = rng.integers(0, 2, size=n + depth)
        x = b.split_context(raw, depth, b.Alphabet.of_size(2))
        params = BctHyperParams(2, depth, beta)
        evidence = b.CountTree.from_sequence(x, params).log_evidence()
        diff = abs(evidence - brute_force_evidence(x, params))
        worst = max(worst, diff)
    elapsed = time.perf_counter() - t0
    report(
        1,
        "oracle equivalence",
        worst <= 1e-10 and elapsed < 60,
        f"max log-domain gap {worst:.2e} over 200 instances in {elapsed:.1f}s",
    )


def test_criterion_2_prior_normalisation():
    ok = True
    details = []

    for depth in (1, 2, 3):
        params = BctHyperParams(2, depth, 0.37)
        total = sum(
            math.exp(tree_log_prior(t, params))
            for t in enumerate_proper_trees(2, depth)
        )
        ok &= abs(total - 1.0) <= 1e-12
        details.append(f"tree prior D={depth}: {total:.15f}")

    for n, ell in ((12, 2), (15, 3)):
        total = sum(
            math.exp(b.log_prior_positions(ChangePoints(n, pos)))
            for pos in itertools.combinations(range(2, n), ell)
        )
        ok &= abs(total - 1.0) <= 1e-12
        details.append(f"locations (n={n},ell={ell}): {total:.15f}")

    params = BctHyperParams(2, 2)
    alpha = b.Alphabet.of_size(2)
    ctx = np.array([0, 1])
    logs = [
        b.CountTree.from_sequence(b.Sequence(alpha, ctx, np.array(bits)), params).log_evidence()
        for bits in itertools.product(range(2), repeat=6)
    ]
    total = math.exp(logsumexp(logs))
    ok &= abs(total - 1.0) <= 1e-10
    details.append(f"evidence over all n=6 strings: {total:.12f}")

    report(2, "prior normalisation", ok, "; ".join(details))


def test_criterion_3_sampler_correctness_at_desk_scale():
    x = make_switch_sequence()
    params = BctHyperParams(2, 1)

    t0 = time.perf_counter()
    exact = b.exact_single_cp_posterior(x, params)
    cfg = McmcConfig(iterations=100_000, burn_in=0, seed=7, num_changes=1)
    trace = b.run(x, params, cfg)
    emp = np.zeros(x.n - 2)
    for pos in trace.states:
        emp[pos[0] - 2] += 1
    emp /= emp.sum()
    tv_fixed = total_variation(emp, exact)
    t_fixed = time.perf_counter() - t0

    t0 = time.perf_counter()
    configs, joint = exhaustive_joint_posterior(x, params, ell_max=2)
    cfg = McmcConfig(iterations=200_000, burn_in=0, seed=11, ell_max=2)
    trace = b.run(x, params, cfg)
    tv_var = total_variation(empirical_distribution(trace.states, configs), joint)
    t_var = time.perf_counter() - t0

    report(
        3,
        "sampler correctness",
        tv_fixed <= 0.05 and tv_var <= 0.05 and t_fixed < 120 and t_var < 120,
        f"fixed TV {tv_fixed:.4f} in {t_fixed:.0f}s; variable TV {tv_var:.4f} in {t_var:.0f}s",
    )


def test_criterion_4_synthetic_reproduction():
    t0 = time.perf_counter()
    x, truth = b.generate_piecewise(b.ternary_benchmark_spec(seed=1))
    cfg = McmcConfig(iterations=100_000, burn_in=10_000, seed=5, ell_max=10)
    summary = b.summarize(b.run(x, BctHyperParams(3, 10), cfg))
    elapsed = time.perf_counter() - t0

    mode_freq = summary.ell_hist.get(summary.map_ell, 0) / summary.retained
    offsets = [abs(p - t) for p, t in zip(summary.map_positions, truth)]
    ok = (
        summary.map_ell == 3
        and mode_freq > 0.5
        and all(off <= 50 for off in offsets)
        and elapsed < 900
    )
    report(
        4,
        "synthetic reproduction",
        ok,
        f"mode ell={summary.map_ell} (freq {mode_freq:.3f}), "
        f"locations {summary.map_positions} vs {truth}, {elapsed:.0f}s",
    )


def test_criterion_5_sv40_exact_posterior():
    path = require_data("NC_001669.1.fasta")
    t0 = time.perf_counter()
    raw = b.parse_fasta(path.read_bytes())
    x = b.split_context(raw, 10, b.Alphabet.dna())
    params = BctHyperParams(4, 10)
    post = b.exact_single_cp_posterior(x, params)
    elapsed = time.perf_counter() - t0
    peak = 2 + int(np.argmax(post))
    # the +-5 comparison with 2827 is reported but non-blocking: it depends
    # on the initial-context convention
    report(
        5,
        "sv40 exact posterior",
        2800 <= peak <= 2880 and elapsed < 600,
        f"argmax {peak} (|peak-2827|={abs(peak - 2827)}, non-blocking), {elapsed:.0f}s",
    )


def test_criterion_6_lambda_map_depths():
    path = require_data("NC_001416.1.fasta")
    t0 = time.perf_counter()
    raw = b.parse_fasta(path.read_bytes())
    x = b.split_context(raw, 10, b.Alphabet.dna())
    params = BctHyperParams(4, 10)
    cp = ChangePoints(x.n, (22607, 27832, 38340, 46731))
    depths = [
        b.CountTree.from_arrays(x.segment_codes(start, end), params).map_model().depth
        for start, end in b.partition(x, cp)
    ]
    elapsed = time.perf_counter() - t0
    report(
        6,
        "lambda per-segment MAP depths",
        depths == [5, 1, 2, 3, 0] and elapsed < 300,
        f"depths {depths}, {elapsed:.0f}s",
    )


def test_criterion_7_el_nino():
    path = require_data("elnino.txt")
    alpha = b.Alphabet.of_size(2)
    raw = b.parse_plain(path.read_bytes(), alpha)
    assert len(raw) == 495
    x = b.split_context(raw, 5, alpha)
    params = BctHyperParams(2, 5)
    cp = ChangePoints(x.n, (278, 467))
    marginals = []
    for start, end in b.partition(x, cp):
        model = b.CountTree.from_arrays(x.segment_codes(start, end), params).map_model()
        marginals.append(b.stationary_marginal(model)[1])
    stationary_ok = all(
        abs(got - want) <= 0.03 for got, want in zip(marginals, (0.14, 0.35, 0.54))
    )
    cfg = McmcConfig(iterations=20_000, burn_in=2_000, seed=13, ell_max=5)
    summary = b.summarize(b.run(x, params, cfg))
    counts = summary.ell_hist
    mcmc_ok = summary.map_ell in (1, 2) and counts.get(2, 0) >= counts.get(1, 0)
    report(
        7,
        "el nino",
        stationary_ok and mcmc_ok,
        f"stationary pi(1) {['%.3f' % v for v in marginals]}, ell mode {summary.map_ell}",
    )


def test_criterion_7_substitute_two_state_closed_form():
    # always-on stand-in while the climate series is unavailable
    model = b.model_from_table(
        b.Alphabet.of_size(2), {"0": [0.9, 0.1], "1": [0.5, 0.5]}
    )
    marg = b.stationary_marginal(model)
    report(
        7,
        "stationary closed form (always-on substitute)",
        abs(marg[1] - 1 / 6) <= 1e-9,
        f"pi(1) = {marg[1]:.12f} vs 1/6",
    )


def test_criterion_8_property_battery():
    ok = True
    details = []
    rng = np.random.default_rng(99)

    # KT closed-form identity: log-gamma form vs running product
    worst = 0.0
    for _ in range(100):
        counts = rng.integers(0, 40, size=int(rng.integers(2, 6)))
        worst = max(worst, abs(b.kt_log_prob(counts) - kt_log_prob_product(counts)))
    ok &= worst <= 1e-10
    details.append(f"kt identity {worst:.2e}")

    # count-partition invariant on random inputs
    partition_ok = True
    for _ in range(20):
        depth = int(rng.integers(1, 4))
        raw = rng.integers(0, 2, size=int(rng.integers(depth + 2, 60)))
        x = b.split_context(raw, depth, b.Alphabet.of_size(2))
        tree = b.CountTree.from_sequence(x, BctHyperParams(2, depth))
        oracle = count_contexts_by_hand(raw[:depth], raw[depth:], depth, 2)
        for d in range(depth):
            for ctx, vec in contexts_at_depth(tree, d):
                children = sum(count_vector(tree, ctx + (j,)) for j in range(2))
                partition_ok &= list(children) == list(vec) == oracle[ctx]
    ok &= partition_ok
    details.append(f"count partition {'ok' if partition_ok else 'BROKEN'}")

    # reversed birth/death corrections cancel over an (n, ell, ell_max) grid
    pair_ok = True
    for n in (12, 30, 77, 210):
        for ell_max in (2, 3, 4, 5):
            if n < 2 * ell_max + 4:
                continue
            for ell in range(ell_max):
                s = b.log_move_correction(ell, ell + 1, n, ell_max)
                s += b.log_move_correction(ell + 1, ell, n, ell_max)
                pair_ok &= abs(s) <= 1e-12
    ok &= pair_ok
    details.append(f"reciprocal pairs {'ok' if pair_ok else 'BROKEN'}")

    # seed determinism
    x = make_switch_sequence()
    cfg = McmcConfig(iterations=3000, burn_in=100, seed=21, ell_max=2)
    params = BctHyperParams(2, 1)
    det = b.run(x, params, cfg).states == b.run(x, params, cfg).states
    ok &= det
    details.append(f"seed determinism {'ok' if det else 'BROKEN'}")

    # cache transparency
    params = BctHyperParams(2, 1)
    cache = EvidenceCache(x, params)
    transparent = True
    for _ in range(40):
        ell = int(rng.integers(0, 3))
        pos = sorted(rng.choice(np.arange(2, x.n), size=ell, replace=False))
        cp = ChangePoints(x.n, pos)
        a = b.log_posterior_unnorm(cp, cache, ell_max=4)
        c = reference_log_posterior(x, cp, params, ell_max=4)
        transparent &= a == c
    ok &= transparent
    details.append(f"cache transparency {'ok' if transparent else 'BROKEN'}")

    report(8, "property battery", ok, "; ".join(details))
