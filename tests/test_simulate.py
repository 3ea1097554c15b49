import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sparse
from scipy import stats

import bctseg as b
from bctseg import Alphabet, NumericalError, PiecewiseSpec, SegmentSpec, TreeModel, simulate

from helpers import (
    dense_stationary_marginal,
    exact_stationary_marginal,
    leaf_for,
    random_proper_tree,
    sample_next,
    solve_stationary_dense,
    window_kernel,
)


def iid_model(theta, m=None):
    m = len(theta) if m is None else m
    return TreeModel(m, [()], {(): theta})


def random_model(rng, m, depth):
    """Random proper tree of exactly `depth`, with a Dirichlet row on every
    leaf and a zero entry in about a third of the rows."""
    path = tuple(int(c) for c in rng.integers(0, m, size=depth))
    leaves, stack = [], [()]
    while stack:
        s = stack.pop()
        if len(s) < depth and (s == path[: len(s)] or rng.random() < 0.4):
            stack.extend(s + (j,) for j in range(m))
        else:
            leaves.append(s)
    params = {}
    for s in leaves:
        row = rng.dirichlet(np.full(m, 0.7))
        if rng.random() < 0.3:
            row[rng.integers(0, m)] = 0.0
            row /= row.sum()
        params[s] = row
    return TreeModel(m, leaves, params)


def random_chain(m, depth, transient):
    """The first `random_model` (seeds 0, 1, ...) whose window chain has one
    recurrent class. With `transient`, every leaf whose most recent symbol is
    m - 1 first has its m - 1 entry moved to the other symbols, so m - 1 never
    follows itself and, for depth >= 2, the last state (all m - 1) is
    transient; at depth 1, no leaf draws m - 1 at all."""
    for seed in range(100):
        model = random_model(np.random.default_rng(seed), m, depth)
        if transient:
            params = {}
            for s, row in model.params.items():
                if depth == 1 or s[0] == m - 1:
                    row = row.copy()
                    row[:-1] += row[-1] / (m - 1)
                    row[-1] = 0.0
                    row /= row.sum()
                params[s] = row
            model = TreeModel(m, model.leaves, params)
        try:
            simulate._recurrent_class(sparse.csr_matrix(window_kernel(model)))
        except NumericalError:
            continue
        return model
    raise AssertionError(f"no random chain with one recurrent class at m={m}, d={depth}")


def sparse_row_model(seed):
    """A `random_model` tree (m 2-4, depth 1-5) with Dirichlet(0.1) rows,
    whose entries span many orders of magnitude."""
    rng = np.random.default_rng(seed)
    m, depth = int(rng.integers(2, 5)), int(rng.integers(1, 6))
    leaves = sorted(random_model(rng, m, depth).leaves)
    return TreeModel(m, leaves, {s: rng.dirichlet(np.full(m, 0.1)) for s in leaves})


def caterpillar(rng, m, depth, spine):
    """Tree expanded along the all-`spine` context, with Dirichlet(1) rows
    drawn leaf by leaf, shallowest first."""
    leaves = [(spine,) * r + (y,) for r in range(depth) for y in range(m) if y != spine]
    leaves.append((spine,) * depth)
    return TreeModel(m, leaves, {s: rng.dirichlet(np.ones(m)) for s in leaves})


def run_length_marginal(model, spine):
    """Stationary marginal of a `caterpillar` model from its chain on the
    leaves, built by hand: leaf spine^r y moves to spine^(r+1) y on the spine
    symbol (spine^d from r = d - 1 and from spine^d) and to (a,) on any
    other symbol a."""
    m, d = model.m, model.depth
    leaves = sorted(model.leaves)
    index = {s: i for i, s in enumerate(leaves)}
    P = np.zeros((len(leaves), len(leaves)))
    for s in leaves:
        for a, p in enumerate(model.theta(s)):
            to = (a,) if a != spine else (spine,) + s if len(s) < d else (spine,) * d
            P[index[s], index[to]] += p
    pi = solve_stationary_dense(P)
    return np.bincount([s[0] for s in leaves], weights=pi, minlength=m)


def closure_state_of(index, window):
    """The closure state on the path of a window (oldest first), checking
    that exactly one state is a prefix of it."""
    context = tuple(reversed(window))
    found = [context[:k] for k in range(len(context) + 1) if context[:k] in index]
    assert len(found) == 1, found
    return index[found[0]]


def fitted_model(m, depth, beta, seed):
    """MAP model, with parameters, fitted to 3,000 symbols of a sparse order-3
    chain whose rows are Dirichlet(1/2) draws."""
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.full(m, 0.5), size=m**3)
    codes = [0, 0, 0]
    for _ in range(3000 + depth - 3):
        row = (codes[-1] * m + codes[-2]) * m + codes[-3]
        codes.append(int(rng.choice(m, p=rows[row])))
    params = b.BctHyperParams(m, depth, beta)
    return b.CountTree.from_arrays(np.array(codes), params).map_model()


def random_spec(seed, m, depths, lengths):
    """One segment per (model depth, length) pair, a random explicit initial
    context, and D equal to or one more than the deepest model."""
    rng = np.random.default_rng(seed)
    segments = tuple(SegmentSpec(random_model(rng, m, d), k) for d, k in zip(depths, lengths))
    depth = max(depths) + int(rng.integers(0, 2))
    context = tuple(int(c) for c in rng.integers(0, m, size=depth))
    return PiecewiseSpec(Alphabet.of_size(m), depth, segments, context, seed)


def generate_by_steps(spec):
    """The chain's symbols after the initial context, one `sample_next` per
    step: the slow path of `generate_piecewise`."""
    rng = np.random.default_rng(spec.seed)
    history = list(spec.initial_context)
    for seg in spec.segments:
        for _ in range(seg.length):
            history.append(sample_next(seg.model, history, rng))
    return history[spec.depth :]


class TestSampleNext:
    def test_empty_tree_ignores_context(self):
        model = iid_model([0.0, 1.0])
        rng = np.random.default_rng(0)
        for hist in ([0, 0, 0], [1, 0], [1, 1, 1, 1]):
            assert sample_next(model, hist, rng) == 1

    def test_suffix_selects_leaf(self):
        # recent symbols ..1,1 must drive the draw through theta_(1,1)
        alpha = Alphabet.of_size(2)
        model = b.model_from_table(
            alpha, {"0": [1.0, 0.0], "10": [1.0, 0.0], "11": [0.0, 1.0]}
        )
        rng = np.random.default_rng(1)
        assert sample_next(model, [0, 1, 1], rng) == 1
        assert sample_next(model, [1, 1, 0], rng) == 0

    def test_ternary_depth_one_row(self):
        # the third benchmark regime: a history ending in 2 draws from (0.3, 0.2, 0.5)
        spec = b.ternary_benchmark_spec()
        model = spec.segments[2].model
        leaf = leaf_for(model, [0, 1, 2])
        assert leaf == (2,)
        assert np.allclose(model.theta(leaf), [0.3, 0.2, 0.5])

    def test_draws_follow_theta(self):
        model = iid_model([0.2, 0.5, 0.3])
        rng = np.random.default_rng(2)
        draws = np.array([sample_next(model, [0], rng) for _ in range(20_000)])
        freq = np.bincount(draws, minlength=3) / draws.size
        assert np.abs(freq - [0.2, 0.5, 0.3]).max() < 0.02


class TestGeneratePiecewise:
    def test_benchmark_length_and_truth(self):
        spec = b.ternary_benchmark_spec(seed=1)
        x, truth = b.generate_piecewise(spec)
        assert x.n == 4300
        assert truth == (2500, 3500, 4000)
        assert x.depth == 10

    def test_seed_determinism(self):
        spec = b.ternary_benchmark_spec(seed=9)
        x1, _ = b.generate_piecewise(spec)
        x2, _ = b.generate_piecewise(spec)
        assert np.array_equal(x1.observations, x2.observations)

    def test_single_segment_frequencies(self):
        alpha = Alphabet.of_size(3)
        spec = PiecewiseSpec(
            alphabet=alpha,
            depth=0,
            segments=(SegmentSpec(iid_model([0.4, 0.2, 0.4]), 100_000),),
            seed=4,
        )
        x, truth = b.generate_piecewise(spec)
        assert truth == ()
        freq = np.bincount(x.observations, minlength=3) / x.n
        assert np.abs(freq - [0.4, 0.2, 0.4]).max() < 0.02

    def test_conditional_leaf_frequencies(self):
        # chi-squared sanity per leaf at n=1e5, alpha=0.001
        alpha = Alphabet.of_size(2)
        table = {"0": [0.8, 0.2], "1": [0.35, 0.65]}
        model = b.model_from_table(alpha, table)
        spec = PiecewiseSpec(
            alphabet=alpha,
            depth=1,
            segments=(SegmentSpec(model, 100_000),),
            seed=5,
        )
        x, _ = b.generate_piecewise(spec)
        y = x.full_codes()
        for leaf, theta in ((0,), table["0"]), ((1,), table["1"]):
            mask = y[:-1] == leaf[0]
            observed = np.bincount(y[1:][mask], minlength=2)
            _, pvalue = stats.chisquare(observed, observed.sum() * np.asarray(theta))
            assert pvalue > 0.001

    def test_segments_continue_context(self):
        # a deterministic second regime proves its first draw sees the tail
        # of the first segment rather than a reset context
        alpha = Alphabet.of_size(2)
        m_ones = iid_model([0.0, 1.0])
        follow = b.model_from_table(alpha, {"0": [1.0, 0.0], "1": [0.0, 1.0]})
        spec = PiecewiseSpec(
            alphabet=alpha,
            depth=1,
            segments=(SegmentSpec(m_ones, 5), SegmentSpec(follow, 5)),
            seed=6,
        )
        x, truth = b.generate_piecewise(spec)
        assert truth == (6,)
        assert list(x.observations) == [1] * 10

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_equals_one_step_loop(self, m):
        rng = np.random.default_rng(100 + m)
        depths = [int(d) for d in rng.permutation(5)]
        lengths = [int(k) for k in rng.integers(1, 400, size=5)]
        spec = random_spec(m, m, depths, lengths)
        assert spec.initial_context != (0,) * spec.depth
        x, _ = b.generate_piecewise(spec)
        assert x.observations.tolist() == generate_by_steps(spec)

    def test_equals_one_step_loop_across_draw_chunks(self):
        # segments of exactly one chunk and of more than two, between short ones
        chunk = simulate.DRAW_CHUNK
        spec = random_spec(6, 3, [2, 4, 0, 1], [5, 2 * chunk + 17, chunk, 3])
        x, _ = b.generate_piecewise(spec)
        assert x.observations.tolist() == generate_by_steps(spec)

    # SHA-256 of the generated symbol codes (initial context included, one
    # byte each), taken when generate_piecewise called sample_next per symbol
    @pytest.mark.parametrize(
        "seed, m, depths, lengths, digest",
        [
            (1, 2, [2, 3], [319, 200],
             "bb20e7608c5e594bb05160777b92b0c065b90df7b187724fb6a81ee6052522d9"),
            (2, 3, [1, 0, 1, 3], [155, 242, 186, 284],
             "127dc0d675e4c662bd5a999c8062de5da3274ba137766d735c954c9136696b29"),
            (3, 4, [4, 0], [370, 152],
             "295ad811487f544d96a2d98fb0e68a5ff7408ba2ec687d3e16ea307af2ac6303"),
            (4, 5, [0, 4, 1], [300, 10_000, 50],
             "9690f79947cfdb6a0d943eed886bfed3867d7d4fddbff48683ffcf26ae0d351b"),
        ],
    )
    def test_matches_pinned_digest(self, seed, m, depths, lengths, digest):
        x, _ = b.generate_piecewise(random_spec(seed, m, depths, lengths))
        codes = np.asarray(x.full_codes(), dtype=np.uint8)
        assert hashlib.sha256(codes.tobytes()).hexdigest() == digest

    def test_validation(self):
        alpha = Alphabet.of_size(2)
        deep = b.model_from_table(alpha, {"00": [1, 0], "01": [1, 0], "1": [1, 0]})
        with pytest.raises(ValueError, match="deeper"):
            PiecewiseSpec(alphabet=alpha, depth=1, segments=(SegmentSpec(deep, 5),))
        with pytest.raises(ValueError, match="parameters"):
            SegmentSpec(TreeModel(2, [()]), 5)
        # a context entry is not truncated to an integer
        one = SegmentSpec(iid_model([0.5, 0.5]), 5)
        for entry in (0.5, True, "1"):
            with pytest.raises(ValueError, match="initial_context entry must be an integer"):
                PiecewiseSpec(alphabet=alpha, depth=1, segments=(one,), initial_context=(entry,))

    @pytest.mark.parametrize("bad", [3.7, True, "3"])
    def test_non_integers_rejected(self, bad):
        # 3.7 used to fail later with a TypeError, True to count as 1
        alpha = Alphabet.of_size(2)
        model = iid_model([0.5, 0.5])
        one = SegmentSpec(model, 5)
        with pytest.raises(ValueError, match="^length must be an integer"):
            SegmentSpec(model, bad)
        with pytest.raises(ValueError, match="^depth D must be an integer"):
            PiecewiseSpec(alpha, bad, (one,))
        with pytest.raises(ValueError, match="^seed must be an integer"):
            PiecewiseSpec(alpha, 1, (one,), seed=bad)

    def test_numpy_integers_accepted(self):
        alpha, model = Alphabet.of_size(2), iid_model([0.3, 0.7])
        spec = PiecewiseSpec(alpha, np.int64(1), (SegmentSpec(model, np.int64(5)),),
                             seed=np.int64(3))
        assert type(spec.depth) is int and type(spec.seed) is int
        assert type(spec.segments[0].length) is int
        x, _ = b.generate_piecewise(spec)
        y, _ = b.generate_piecewise(PiecewiseSpec(alpha, 1, (SegmentSpec(model, 5),), seed=3))
        assert x.n == 5 and np.array_equal(x.full_codes(), y.full_codes())


def _run_python(code, *args, **env):
    """Standard output of `python -c code args...` in a process that imports
    this bctseg, with `env` added to the environment."""
    path = [str(Path(b.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)), **env}
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    return done.stdout


def _scipy_sparse_modules_after_import(module):
    probe = (f"import json, sys, {module}; "
             "print(json.dumps([k for k in sys.modules if k.startswith('scipy.sparse')]))")
    return set(json.loads(_run_python(probe)))


def test_cli_import_leaves_scipy_sparse_unloaded():
    # only the stationary analysis needs scipy.sparse, and it imports it
    # itself; SciPy releases older than the one that made scipy.special's
    # scipy.linalg import lazy load scipy.sparse with scipy.special, which
    # bctseg needs, so what scipy.special loads alone is allowed
    assert _scipy_sparse_modules_after_import("bctseg.cli") <= (
        _scipy_sparse_modules_after_import("scipy.special"))


class TestStationaryMarginal:
    def test_iid_returns_theta(self):
        marg = b.stationary_marginal(iid_model([0.3, 0.7]))
        assert np.allclose(marg, [0.3, 0.7])

    def test_two_state_closed_form(self):
        alpha = Alphabet.of_size(2)
        model = b.model_from_table(alpha, {"0": [0.9, 0.1], "1": [0.5, 0.5]})
        marg = b.stationary_marginal(model)
        assert abs(marg[1] - 1 / 6) < 1e-9
        assert marg.sum() == pytest.approx(1.0, abs=1e-10)

    def test_fixed_point_on_depth_four_model(self):
        spec = b.ternary_benchmark_spec()
        model = spec.segments[0].model
        marg = b.stationary_marginal(model)
        assert marg.sum() == pytest.approx(1.0, abs=1e-10)

        # rebuild the window kernel independently and verify the fixed point
        m, S = model.m, model.m**model.depth
        P = window_kernel(model)
        pi = np.full(S, 1 / S)
        for _ in range(200_000):
            new = pi @ P
            if np.abs(new - pi).max() < 1e-14:
                break
            pi = new
        expect = np.zeros(m)
        np.add.at(expect, np.arange(S) % m, pi)
        assert np.abs(marg - expect).max() < 1e-9

    # Digests of the marginal's bytes for MAP models fitted to sparse order-3
    # chains, taken from the sparse LU solve on the FSM closure under one and
    # under two BLAS threads (the same bytes).
    @pytest.mark.parametrize(
        "m, depth, beta, seed, digest",
        [
            (3, 5, 0.3, 7, "e596d4ab5d526289d4de19ce328d522780f2b3b251362ddddddc0c9cddb7f204"),
            (4, 4, 0.2, 9, "1ca9e173f7d3a8787ae9aba7c6a6f6f873f759f912a25ba2a513f13616645198"),
        ],
    )
    def test_fitted_model_matches_pinned_digest(self, m, depth, beta, seed, digest):
        model = fitted_model(m, depth, beta, seed)
        assert model.depth >= 3
        marg = b.stationary_marginal(model)
        assert hashlib.sha256(marg.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "m, d, transient",
        [(2, 1, False), (2, 3, True), (2, 6, False), (2, 6, True), (3, 2, True),
         (3, 4, False), (3, 5, True), (4, 1, True), (4, 3, False), (4, 4, True),
         (4, 6, False)],
    )
    def test_matches_dense_oracle(self, m, d, transient):
        model = random_chain(m, d, transient)
        if transient:
            # the last window (all m - 1) is transient
            kernel = sparse.csr_matrix(window_kernel(model))
            assert m**d - 1 not in simulate._recurrent_class(kernel)
        marg = b.stationary_marginal(model)
        assert np.abs(marg - dense_stationary_marginal(model)).max() < 1e-13

    def test_same_bytes_under_one_and_two_blas_threads(self):
        probe = (
            "import hashlib, sys; sys.path.insert(0, sys.argv[1]); "
            "import bctseg as b; from test_simulate import fitted_model, random_chain; "
            "models = [fitted_model(3, 5, 0.3, 7), random_chain(4, 5, True), "
            "random_chain(4, 6, False)]; "
            "print([hashlib.sha256(b.stationary_marginal(x).tobytes()).hexdigest() "
            "for x in models])"
        )
        outputs = [
            _run_python(probe, str(Path(__file__).parent), OPENBLAS_NUM_THREADS=threads)
            for threads in ("1", "2")
        ]
        assert outputs[0] == outputs[1]

    def test_reducible_chain_rejected(self):
        alpha = Alphabet.of_size(2)
        frozen = b.model_from_table(alpha, {"0": [1.0, 0.0], "1": [0.0, 1.0]})
        with pytest.raises(NumericalError, match="recurrent"):
            b.stationary_marginal(frozen)

    def test_transient_state_with_zero_probability_edges(self):
        # both rows put probability 0 on symbol 1, so state 1 is transient;
        # the kernel stores those zero edges, which must not count as exits
        alpha = Alphabet.of_size(2)
        model = b.model_from_table(alpha, {"0": [1.0, 0.0], "1": [1.0, 0.0]})
        assert np.array_equal(b.stationary_marginal(model), [1.0, 0.0])

    def test_state_space_cap(self, monkeypatch):
        # the first benchmark regime's closure has 15 states
        model = b.ternary_benchmark_spec().segments[0].model
        monkeypatch.setattr(simulate, "MAX_STATES", 15)
        assert len(simulate._closure(model)[0]) == 15
        monkeypatch.setattr(simulate, "MAX_STATES", 14)
        with pytest.raises(NumericalError, match="too large"):
            b.stationary_marginal(model)

    def test_pinned_state_carries_mass(self):
        # leaf (3,) draws symbol 3 with probability 1.06e-4, so the all-3
        # state holds about 1e-17 of the mass; pinned, it left a residual of
        # 0.9999
        model = caterpillar(np.random.default_rng(0), 4, 5, 0)
        assert model.theta((3,))[3] == pytest.approx(1.06e-4, rel=1e-2)
        marg = b.stationary_marginal(model)
        assert np.abs(marg - dense_stationary_marginal(model)).max() < 1e-13

    def test_sparse_rows_match_exact_solve(self):
        # Dirichlet(0.1) rows make near-decomposable chains: the dense oracle
        # is off by up to 1e-8 on these, and pinning the last window failed 4
        checked = 0
        for seed in range(200):
            model = sparse_row_model(seed)
            if model.m**model.depth > 32:
                continue
            try:
                simulate._recurrent_class(sparse.csr_matrix(window_kernel(model)))
            except NumericalError:
                continue
            marg = b.stationary_marginal(model)
            assert np.abs(marg - exact_stationary_marginal(model)).max() < 1e-13, seed
            checked += 1
        assert checked == 115

    @pytest.mark.parametrize("m, depth, spine", [(2, 21, 1), (4, 10, 0)])
    def test_deep_caterpillar(self, m, depth, spine):
        # 2**21 and 4**10 context windows, but 22 and 31 closure states
        model = caterpillar(np.random.default_rng(depth), m, depth, spine)
        assert len(simulate._closure(model)[0]) == len(model.leaves)
        marg = b.stationary_marginal(model)
        assert np.abs(marg - run_length_marginal(model, spine)).max() < 1e-13


class TestClosure:
    @pytest.mark.parametrize("m, depth", [(2, 1), (2, 6), (2, 12), (3, 3), (3, 7), (4, 4),
                                          (4, 6), (5, 5)])
    def test_transitions_match_leaf_for_walk(self, m, depth):
        # every window of length d: its state inherits the leaf that
        # leaf_for picks, and each symbol moves it to the next window's state
        for seed in range(3):
            model = random_model(np.random.default_rng(seed), m, depth)
            states, leaves, succ = simulate._closure(model)
            assert succ.shape == (len(states), m)
            index = {s: i for i, s in enumerate(states)}
            for code in range(m**depth):
                window = [code // m**i % m for i in range(depth)][::-1]
                i = closure_state_of(index, window)
                assert leaves[i] == leaf_for(model, window)
                for a in range(m):
                    assert succ[i, a] == closure_state_of(index, window[1:] + [a])

    def test_benchmark_regime_sizes(self):
        sizes = [len(simulate._closure(seg.model)[0])
                 for seg in b.ternary_benchmark_spec().segments]
        assert sizes == [15, 5, 3, 1]


class TestSpecJson:
    def test_round_trip(self):
        spec = b.ternary_benchmark_spec(seed=77)
        obj = b.piecewise_spec_to_json(spec)
        back = b.piecewise_spec_from_json(json.loads(json.dumps(obj)))
        assert back.depth == spec.depth
        assert back.seed == 77
        assert back.initial_context == spec.initial_context
        x1, t1 = b.generate_piecewise(spec)
        x2, t2 = b.generate_piecewise(back)
        assert t1 == t2
        assert np.array_equal(x1.observations, x2.observations)

    @pytest.mark.parametrize("labels", [None, ["AA", "CC", "GT", "T"], ["λ", "μ", "ν", "ξ"]])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_spec_round_trip(self, seed, labels):
        rng = np.random.default_rng(seed)
        m, depth = 2 + seed % 3, 4
        alphabet = Alphabet.of_size(m) if labels is None else Alphabet(labels[:m])
        segments = []
        for length in rng.integers(1, 50, size=3).tolist():
            leaves = random_proper_tree(m, depth, rng)
            model = TreeModel(m, leaves, {s: rng.dirichlet(np.ones(m)) for s in leaves})
            segments.append(SegmentSpec(model, length))
        spec = PiecewiseSpec(alphabet, depth, tuple(segments),
                             tuple(rng.integers(0, m, size=depth).tolist()), seed=seed)
        obj = json.loads(json.dumps(b.piecewise_spec_to_json(spec)))
        back = b.piecewise_spec_from_json(obj)
        assert (back.alphabet, back.depth, back.initial_context, back.seed) == (
            spec.alphabet, spec.depth, spec.initial_context, spec.seed)
        for got, want in zip(back.segments, spec.segments, strict=True):
            assert got.length == want.length
            assert got.model.to_json(alphabet) == want.model.to_json(alphabet)
        assert b.piecewise_spec_to_json(back) == obj

    def test_alphabet_as_size(self):
        obj = {
            "alphabet": 2,
            "D": 1,
            "seed": 3,
            "segments": [{"contexts": {"0": [0.5, 0.5], "1": [0.1, 0.9]}, "length": 20}],
        }
        spec = b.piecewise_spec_from_json(obj)
        x, _ = b.generate_piecewise(spec)
        assert x.n == 20

    def test_end_to_end_recovery(self):
        # generate with two sharply different regimes, then ask the sampler
        # for the posterior over the number of change-points
        alpha = Alphabet.of_size(2)
        spec = PiecewiseSpec(
            alphabet=alpha,
            depth=1,
            segments=(
                SegmentSpec(b.model_from_table(alpha, {"0": [0.95, 0.05], "1": [0.9, 0.1]}), 150),
                SegmentSpec(b.model_from_table(alpha, {"0": [0.1, 0.9], "1": [0.05, 0.95]}), 150),
            ),
            seed=8,
        )
        x, truth = b.generate_piecewise(spec)
        cfg = b.McmcConfig(iterations=20_000, burn_in=2000, seed=12, ell_max=3)
        summary = b.summarize(b.run(x, b.BctHyperParams(2, 1), cfg))
        assert summary.map_ell == 1
        assert abs(summary.map_positions[0] - truth[0]) <= 10
