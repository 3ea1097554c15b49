import hashlib
import itertools
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, logsumexp

import bctseg as b
from bctseg import BctHyperParams, CountTree, TreeModel, trees
from bctseg.trees import (
    _context_nodes,
    _key_weights,
    _kt_tables,
    _vector_kt,
    evidence_row,
    span_log_evidence,
)

import helpers
from helpers import (
    alpha,
    brute_force_evidence,
    contexts_at_depth,
    count_contexts_by_hand,
    count_proper_trees,
    count_vector,
    enumerate_map_score,
    enumerate_proper_trees,
    kt_log_prob_product,
    leaf_for,
    log_pw_at,
    model_score,
    tree_log_prior,
    tree_log_score,
)

random_binary = st.lists(st.integers(0, 1), min_size=4, max_size=60)


def make_seq(raw, depth, m=2):
    return b.split_context(np.asarray(raw), depth, b.Alphabet.of_size(m))


class TestHyperParams:
    def test_default_beta(self):
        assert BctHyperParams(2, 3).beta == 0.5
        assert BctHyperParams(3, 3).beta == 0.75
        assert BctHyperParams(4, 3).beta == 0.875

    def test_alpha_consistent(self):
        for m in (2, 3, 4, 6):
            p = BctHyperParams(m, 2)
            assert alpha(p) ** (m - 1) == pytest.approx(1 - p.beta, abs=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            BctHyperParams(1, 2)
        with pytest.raises(ValueError):
            BctHyperParams(2, -1)
        for bad in (0.0, 1.0, -0.3, 1.7):
            with pytest.raises(ValueError):
                BctHyperParams(2, 2, bad)

    def test_value_semantics(self):
        p = BctHyperParams(np.int64(3), 2)
        assert repr(p) == "BctHyperParams(m=3, depth=2, beta=0.75)"
        assert p == BctHyperParams(3, 2, 0.75) != BctHyperParams(3, 2, 0.5)
        assert hash(p) == hash((3, 2, 0.75))
        assert BctHyperParams(3, np.int64(2)) == p
        assert type(p.m) is int and type(BctHyperParams(3, np.int64(2)).depth) is int

    @pytest.mark.parametrize("bad", [3.7, True, "3"])
    def test_non_integers_rejected(self, bad):
        with pytest.raises(ValueError, match="^m must be an integer"):
            BctHyperParams(bad, 2)
        with pytest.raises(ValueError, match="^depth must be an integer"):
            BctHyperParams(3, bad)

    def test_pickle_round_trip(self):
        # --chains sends the parameters to each worker process
        for p in (BctHyperParams(3, 10), BctHyperParams(2, 1, 0.3)):
            back = pickle.loads(pickle.dumps(p))
            assert back == p and back.beta == p.beta


class TestKtLogProb:
    def test_empty_counts(self):
        assert b.kt_log_prob([0, 0]) == 0.0

    def test_one_one(self):
        # (1/2 * 1/2) / (1 * 2)
        assert b.kt_log_prob([1, 1]) == pytest.approx(math.log(1 / 8), abs=1e-12)

    def test_ternary_single(self):
        # (1/2) / (3/2)
        assert b.kt_log_prob([1, 0, 0]) == pytest.approx(math.log(1 / 3), abs=1e-12)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            b.kt_log_prob([1, -1])

    @settings(derandomize=True, max_examples=80)
    @given(st.lists(st.integers(0, 40), min_size=2, max_size=5))
    def test_gamma_form_matches_running_product(self, counts):
        assert b.kt_log_prob(counts) == pytest.approx(
            kt_log_prob_product(counts), abs=1e-10
        )

    @pytest.mark.parametrize(
        "m, dtype, order",
        [
            case
            for m in range(2, 12)
            for case in (
                # kt_log_prob's int64 row, under the test's id before the
                # dtype became a parameter
                pytest.param(m, np.int64, "C", id=str(m)),
                # the batch builder's int32 node-by-symbol matrix
                pytest.param(m, np.int32, "C", id=f"{m}-int32-rows"),
                # evidence_row's int32 matrix, one column per symbol
                pytest.param(m, np.int32, "F", id=f"{m}-int32-columns"),
            )
        ],
    )
    def test_vector_kt_keeps_the_bits_of_numpy_row_sums(self, m, dtype, order):
        # rows of fewer than 8 counts are summed column by column, which must
        # give the bits of numpy's own row sums on every supported numpy,
        # whatever the dtype and layout of the count matrix
        rng = np.random.default_rng(m)
        counts = rng.integers(0, 300, size=(500, m))
        counts[:50] = rng.integers(0, 3, size=(50, m))
        tables = _kt_tables(int(counts.sum(axis=1).max()), m)
        half, whole = tables
        rows = half[counts].sum(axis=1) - m * half[0] - whole[counts.sum(axis=1)] + whole[0]
        stored = np.asarray(counts, dtype=dtype, order=order)
        assert np.array_equal(_vector_kt(stored, m, tables), rows)

    @pytest.mark.parametrize("m", range(2, 12))
    def test_bincount_keeps_the_bits_of_add_at(self, m):
        # where an absent child scores 0.0, `_bottom_up` sums the children
        # with np.bincount, which must add them in np.add.at's order from 0.0
        rng = np.random.default_rng(100 + m)
        k = 300
        # up to m children a parent, so some bins have none
        parents = np.repeat(np.arange(k), rng.integers(0, m + 1, size=k))
        assert np.bincount(parents, minlength=k).min() == 0
        cases = [(parents, k), (rng.permutation(parents), k), (parents[:0], k), (parents[:0], 0)]
        for p, bins in cases:
            w = -rng.lognormal(2.0, 3.0, size=p.size)
            expect = np.full(bins, 0.0)
            np.add.at(expect, p, w - 0.0)
            assert np.array_equal(np.bincount(p, w, bins), expect)


class TestResidentKtTables:
    """The log-gamma tables the evidence kernels keep, one pair per alphabet
    size, each grown only when a longer segment arrives."""

    @pytest.fixture(autouse=True)
    def no_resident_tables(self, monkeypatch):
        monkeypatch.setattr(trees, "_RESIDENT_KT_TABLES", {})

    @staticmethod
    def assert_fresh(tables, m):
        half, whole = tables
        k = np.arange(half.size, dtype=np.float64)
        assert np.array_equal(half, gammaln(k + 0.5))
        assert np.array_equal(whole, gammaln(k + 0.5 * m))

    def test_short_request_after_long_reads_fresh_values(self):
        trees._resident_kt_tables(5000, 3)
        tables = trees._resident_kt_tables(10, 3)
        assert tables[0].size == 5001
        self.assert_fresh(tables, 3)

    def test_alphabet_sizes_never_mix(self):
        for m, n in [(2, 400), (5, 30), (11, 900), (2, 20), (5, 700)]:
            self.assert_fresh(trees._resident_kt_tables(n, m), m)
        assert {m: t[0].size for m, t in trees._RESIDENT_KT_TABLES.items()} == {
            2: 401, 5: 701, 11: 901,
        }
        for m, tables in trees._RESIDENT_KT_TABLES.items():
            self.assert_fresh(tables, m)

    def test_span_evidence_unchanged_by_longer_build(self):
        params = BctHyperParams(3, 10)
        codes = TestPinnedResults.order_two_chain(3, 3000, seed=4)
        piece = codes[100:410]
        before = span_log_evidence(piece, params)
        span_log_evidence(codes, params)
        assert trees._RESIDENT_KT_TABLES[3][0].size > piece.size
        assert span_log_evidence(piece, params) == before

    def test_kt_log_prob_leaves_resident_tables_alone(self):
        span_log_evidence(np.arange(110) % 3, BctHyperParams(3, 10))
        evidence_row(np.arange(60) % 4, BctHyperParams(4, 2))
        sizes = {m: t[0].size for m, t in trees._RESIDENT_KT_TABLES.items()}
        assert sizes == {3: 101, 4: 59}
        for m in (3, 4, 5):
            counts = np.zeros(m, dtype=np.int64)
            counts[0] = 10**6
            b.kt_log_prob(counts, m)
        assert {m: t[0].size for m, t in trees._RESIDENT_KT_TABLES.items()} == sizes


class TestBuildCounts:
    def test_context_length_must_equal_depth(self):
        for depth in (0, 2):
            seq = make_seq([0, 1, 1, 0, 1], 1)
            with pytest.raises(ValueError, match="initial context length must equal"):
                CountTree.from_sequence(seq, BctHyperParams(2, depth))

    def test_alphabet_size_must_equal_m(self):
        seq = make_seq([0, 1, 2, 0, 1], 1, m=3)
        for m in (2, 4):
            with pytest.raises(ValueError, match=f"alphabet of 3 symbols, the parameters m = {m}"):
                CountTree.from_sequence(seq, BctHyperParams(m, 1))

    def test_single_transition(self):
        seq = make_seq([0, 1], 1)
        tree = CountTree.from_sequence(seq, BctHyperParams(2, 1))
        assert list(count_vector(tree, ())) == [0, 1]
        assert list(count_vector(tree, (0,))) == [0, 1]

    def test_hand_recounted_example(self):
        # context=[1], obs=[0,1,0]: recount every (i, d) pair by hand/oracle
        seq = make_seq([1, 0, 1, 0], 1)
        tree = CountTree.from_sequence(seq, BctHyperParams(2, 1))
        oracle = count_contexts_by_hand([1], [0, 1, 0], 1, 2)
        assert list(count_vector(tree, ())) == oracle[()] == [2, 1]
        assert list(count_vector(tree, (1,))) == oracle[(1,)] == [2, 0]
        assert list(count_vector(tree, (0,))) == oracle[(0,)] == [0, 1]

    def test_root_total_at_genome_scale(self):
        rng = np.random.default_rng(3)
        raw = rng.integers(0, 4, size=5243)
        seq = b.split_context(raw, 10, b.Alphabet.dna())
        tree = CountTree.from_sequence(seq, BctHyperParams(4, 10))
        assert int(count_vector(tree, ()).sum()) == seq.n == 5233

    @settings(derandomize=True, max_examples=40)
    @given(random_binary, st.integers(1, 3))
    def test_matches_hand_count_everywhere(self, raw, depth):
        if len(raw) <= depth:
            return
        seq = make_seq(raw, depth)
        tree = CountTree.from_sequence(seq, BctHyperParams(2, depth))
        oracle = count_contexts_by_hand(raw[:depth], raw[depth:], depth, 2)
        for s, vec in oracle.items():
            assert list(count_vector(tree, s)) == vec
        for d in range(depth + 1):
            for ctx, vec in contexts_at_depth(tree, d):
                assert list(vec) == oracle[ctx]

    @settings(derandomize=True, max_examples=40)
    @given(random_binary, st.integers(1, 3))
    def test_children_partition_parent_counts(self, raw, depth):
        if len(raw) <= depth:
            return
        seq = make_seq(raw, depth)
        tree = CountTree.from_sequence(seq, BctHyperParams(2, depth))
        for d in range(depth):
            for ctx, vec in contexts_at_depth(tree, d):
                total = sum(count_vector(tree, ctx + (j,)) for j in range(2))
                assert list(total) == list(vec)


class TestCtwEvidence:
    def test_depth_zero_equals_kt(self):
        seq = make_seq([0, 1, 1, 0, 1], 0)
        params = BctHyperParams(2, 0)
        tree = CountTree.from_sequence(seq, params)
        root = count_vector(tree, ())
        assert tree.log_evidence() == pytest.approx(b.kt_log_prob(root), abs=1e-14)

    def test_matches_brute_force_random_beta(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            depth = int(rng.integers(1, 4))
            n = int(rng.integers(5, 51))
            beta = float(rng.uniform(0.02, 0.98))
            raw = rng.integers(0, 2, size=n + depth)
            seq = make_seq(raw, depth)
            params = BctHyperParams(2, depth, beta)
            assert CountTree.from_sequence(seq, params).log_evidence() == pytest.approx(
                brute_force_evidence(seq, params), abs=1e-10
            )

    def test_total_probability_one(self):
        params = BctHyperParams(2, 2)
        alpha = b.Alphabet.of_size(2)
        ctx = np.array([0, 1])
        logs = [
            CountTree.from_sequence(b.Sequence(alpha, ctx, np.array(bits)), params).log_evidence()
            for bits in itertools.product(range(2), repeat=6)
        ]
        assert math.exp(logsumexp(logs)) == pytest.approx(1.0, abs=1e-10)

    @settings(derandomize=True, max_examples=30)
    @given(random_binary, st.integers(0, 3))
    def test_never_positive(self, raw, depth):
        if len(raw) <= depth:
            return
        seq = make_seq(raw, depth)
        assert CountTree.from_sequence(seq, BctHyperParams(2, depth)).log_evidence() <= 0.0

    @settings(derandomize=True, max_examples=30)
    @given(random_binary, st.integers(0, 2), st.integers(0, 1))
    def test_monotone_under_extension(self, raw, depth, extra):
        if len(raw) <= depth:
            return
        params = BctHyperParams(2, depth)
        short = make_seq(raw, depth)
        long = make_seq(raw + [extra], depth)
        evidence = [CountTree.from_sequence(x, params).log_evidence() for x in (long, short)]
        assert evidence[0] <= evidence[1] + 1e-12

    def test_weighted_dominates_stop_term(self):
        rng = np.random.default_rng(5)
        raw = rng.integers(0, 2, size=40)
        seq = make_seq(raw, 3)
        params = BctHyperParams(2, 3, 0.37)
        tree = CountTree.from_sequence(seq, params)
        for d in range(4):
            for ctx, vec in contexts_at_depth(tree, d):
                lower = params.log_beta + b.kt_log_prob(vec)
                if d == 3:
                    lower = b.kt_log_prob(vec)
                assert log_pw_at(tree, ctx) >= lower - 1e-12


class TestMapTree:
    def test_no_data_gives_root_only(self):
        codes = np.zeros(3, dtype=np.int64)  # the context alone
        tree = CountTree.from_arrays(codes, BctHyperParams(2, 3, 0.5))
        assert tree.map_model().leaves == frozenset({()})

    def test_depth_zero(self):
        seq = make_seq([0, 1, 1], 0)
        assert CountTree.from_sequence(seq, BctHyperParams(2, 0)).map_model().leaves == frozenset({()})

    def test_matches_enumerated_argmax(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            depth = int(rng.integers(1, 4))
            n = int(rng.integers(5, 51))
            beta = float(rng.uniform(0.05, 0.95))
            raw = rng.integers(0, 2, size=n + depth)
            seq = make_seq(raw, depth)
            params = BctHyperParams(2, depth, beta)
            model = CountTree.from_sequence(seq, params).map_model()
            score = model_score(seq, model, params)
            best_score, best_trees = enumerate_map_score(seq, params)
            counts = CountTree.from_sequence(seq, params)
            assert score == pytest.approx(best_score, abs=1e-10)
            assert score == pytest.approx(counts.root_log_pm(), abs=1e-10)
            # tie rule: smallest maximiser
            assert len(model.leaves) == min(len(t) for t in best_trees)

    def test_leaf_cap(self, monkeypatch):
        # 8 observed leaves, and data-free subtrees that expand to 58 more
        monkeypatch.setattr(trees, "MAP_MAX_LEAVES", 64)
        codes = TestPinnedResults.order_two_chain(2, 68, 40)
        tree = CountTree.from_arrays(codes, BctHyperParams(2, 8, 0.03))
        with pytest.raises(ValueError, match="leaf cap"):
            tree.map_model()

    def test_attaches_posterior_mean_parameters(self):
        seq = make_seq([0, 0, 1, 0, 0, 1, 0], 1)
        model = CountTree.from_sequence(seq, BctHyperParams(2, 1)).map_model()
        counts = CountTree.from_sequence(seq, BctHyperParams(2, 1))
        for leaf in model.leaves:
            expect = b.leaf_posterior_mean(count_vector(counts, leaf))
            assert np.allclose(model.theta(leaf), expect, atol=1e-15)


class TestPinnedResults:
    # Digests of log_evidence() and of the MAP model with its leaf parameters,
    # taken when the CTW and MAP recursions were still two separate passes.
    # Sparse order-2 chains leave contexts unobserved, and with beta < 0.5 the
    # MAP tree expands those data-free subtrees, which the m=2 enumeration
    # oracle never reaches.
    @pytest.mark.parametrize(
        "m, depth, beta, n, seed, digest",
        [
            (3, 4, 0.2, 300, 0, "10a2fd6a816ecbc8d6b18bc22309d3fd8f1c36b34674601e600445bb3c3e6246"),
            (4, 6, 0.1, 400, 1, "1356526fd453a002753816d6a00c08ba3a47e3eff20a4aaebb2f4bd8c3bdfc25"),
            (4, 3, 0.45, 500, 3, "8e7a5190199447bf919103b43bc0d8fca6c825af0564755dc86540745a95fb2a"),
            (3, 5, 0.05, 120, 4, "7e74fcda9aa7070c5a8c8d06c5d759fcdf879d56295076c31fe19a38c571fb1f"),
            # KT rows of fewer than 8 counts are summed left to right and
            # wider ones pairwise. The m=7 digest changes if rows are summed
            # right to left, the m=8 and m=11 ones if left to right.
            (7, 3, 0.1, 400, 5, "fcfff4204171498b5049c1da7be5ef0addd78832f0769492a1e6d5c93c2adaa7"),
            (8, 3, 0.2, 1500, 5, "6a3f745d56de237f007fe67d5f001c8420da8e03aed12dda3b228317cbf3cd86"),
            (11, 2, 0.1, 1000, 7, "4c9f317b5c4ad8117d3e16d6f6e9fc616f133ac45b7ddcdc55a445c39d7e938f"),
            # the benchmark's shapes at the default beta, taken when each
            # depth of a count tree was still laid out from the one above
            (3, 10, None, 3000, 8, "37a54fa59870d20fad60d766cfd8b9d7940d40abcfb474065b4042bb278f2190"),
            (4, 10, None, 800, 9, "4f92645126f5fc010d267eac5188e0e00dca5425342a842656fd039873c1d7bb"),
            (2, 0, None, 500, 10, "ebefd9ce079f518f82a176f980a147d5b761fe45c4a08c259aa492d8ac10b82f"),
        ],
    )
    def test_matches_pinned_digest(self, m, depth, beta, n, seed, digest):
        codes = self.order_two_chain(m, n + depth, seed)
        params = BctHyperParams(m, depth, beta)
        tree = CountTree.from_arrays(codes, params)
        model = tree.map_model()
        if params.beta < 0.5:  # the default beta expands no data-free subtree
            assert any(not count_vector(tree, s).any() for s in model.leaves)
        blob = repr(tree.log_evidence()) + json.dumps(
            model.to_json(b.Alphabet.of_size(m)), sort_keys=True
        )
        assert hashlib.sha256(blob.encode()).hexdigest() == digest

    # Digests of the MAP model with its leaf parameters, taken when the MAP
    # read-out walked unobserved subtrees apart from observed ones; the cases
    # were drawn at random, with m**D capped where small beta splits data-free
    # subtrees down to the depth cap.
    @pytest.mark.parametrize(
        "m, depth, beta, n, seed, digest",
        [
            (5, 1, 0.58, 158, 20, "6ad96a601c38218719bca580b4f7206f7b3e42c9dcac2021a51ded6a0cc5e70d"),
            (3, 0, 0.33, 160, 21, "e6db53d219e93fe5054780ef86820d5772022245a696d23ab299e7a415a711a5"),
            (5, 5, 0.82, 294, 22, "e36baa6f1555a1874810035c6011adcd1227bc5e08c123f8a7bd6c1cf7c07e80"),
            (2, 7, 0.28, 268, 23, "103c47da9f270b6853c7c32f8569f05dbd054507227d95569659db395c58f8b5"),
            (2, 8, 0.83, 127, 24, "99227f665f4515b5a93db0918acadb9a6d0687c80e16af7e3467a19e0bdbd227"),
            (4, 5, 0.47, 306, 25, "b8aac30e17b143f6d720c6380ab47bbc845781aa11f08c5619e045e051cb3123"),
            (4, 6, 0.41, 194, 26, "b3ec08beae2fe0d9dd5a8c6265195749215471749fad1ce4d0bc488d48c86519"),
            (3, 1, 0.22, 125, 27, "02478c09beadda92ddf11ff3c1ce2c06064d9f0a15acf0d018510f0162ea47e6"),
            (5, 4, 0.4, 122, 28, "f7258dfdaca71456e2937adad8210df908455573cb012518211f27576b8fb53c"),
            (4, 6, 0.41, 24, 29, "b722bc25e9df0f9fb75f11465b685f876d4efc79234c530d49ced3e6252c00ec"),
            (5, 3, 0.19, 201, 30, "4a1d6114fbc591bbf5bb920399751c4390c1cc2338c66f07438db9a141714517"),
            (4, 2, 0.28, 185, 31, "545ab5d75c9c5f43cf554ac718dac4445ba6279b3f16a8363fd0d17236ab682d"),
            (5, 1, 0.79, 383, 32, "468a20c075accdc80591c30de3c6516f2b59bed859affccf900412aa2ed77d7a"),
            (5, 4, 0.32, 250, 33, "76b3ee2c7ffd75ae1d28b25b61b6b2f8bd6535e3e5e3c6910360d0eff8b1f0ea"),
            (3, 7, 0.52, 246, 34, "39dd48ac9fcd1a09b5e43fc0ecc37f036cf35a3e45aba8083369269828c798a4"),
            (3, 3, 0.3, 362, 35, "915efcb6f28c241f0d2f547a8a08f0a6c5104bab5bddc4c6d7c345316334a94e"),
            (3, 6, 0.3, 49, 36, "7e36180733410d2d8e6ecf3c769696a9b3767aeac57e9002d93b621b6dcb485e"),
            (3, 0, 0.22, 286, 37, "e17b4e113b3a5baa557a27f07fd480af5bb2bb4fb39729b231d53829eba0048c"),
            (4, 4, 0.53, 258, 38, "42575a82a0cb4cebdb0e4ed99b7508865552195315cf54d05e3363df70410239"),
            (2, 1, 0.5, 297, 39, "a99fe887e7c9d20666a1caefa9543e3559416507fc983065a48bfb75adc80014"),
            (2, 8, 0.03, 60, 40, "858f61945451059a6f05166d7681a70e516095c9d83f04bce2e7720dfd600c0e"),
            (3, 5, 0.05, 80, 41, "cd3e20b9c7149d8e268a74a0bb02d934fb6cee2fdce3a462cbdde0516a3b7211"),
        ],
    )
    def test_map_readout_matches_pinned_digest(self, m, depth, beta, n, seed, digest):
        params = BctHyperParams(m, depth, beta)
        tree = CountTree.from_arrays(self.order_two_chain(m, n + depth, seed), params)
        model = tree.map_model()
        blob = json.dumps(model.to_json(b.Alphabet.of_size(m)), sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest() == digest
        # the read-out tree scores what the bottom-up pass says the best one does
        score = tree_log_score(tree, model.leaves)
        assert score == pytest.approx(tree.root_log_pm(), abs=1e-10)

    def test_slices_match_pinned_digest(self):
        # 200 segments of one series at the ternary benchmark's m and D, as
        # the sampler asks for them: any start and any length
        codes = self.order_two_chain(3, 3000, 12)
        params = BctHyperParams(3, 10)
        rng = np.random.default_rng(13)
        values = []
        for _ in range(200):
            lo = int(rng.integers(0, 3000 - 10))
            hi = int(rng.integers(lo + 10, 3001))
            values.append(span_log_evidence(codes[lo:hi], params))
        digest = "ac2e9cf96835f767671199d77331df79881ad1b8c81d403921120d4e7ae45f39"
        assert hashlib.sha256(repr(values).encode()).hexdigest() == digest

    @staticmethod
    def order_two_chain(m, size, seed):
        rng = np.random.default_rng(seed)
        rows = rng.dirichlet(np.full(m, 0.2), size=m * m)
        codes = [0, 0]
        for _ in range(size - 2):
            codes.append(int(rng.choice(m, p=rows[codes[-1] * m + codes[-2]])))
        return np.array(codes)


class TestEvidenceRow:
    # Every entry must equal the batch kernel's value exactly: the sampler
    # mixes row values and batch values, and cached posteriors are compared
    # with uncached ones by ==.
    @pytest.mark.parametrize(
        "m, depth, beta, n, series",
        [
            (2, 0, None, 60, 0),
            (2, 3, 0.3, 150, 1),
            (3, 4, None, 200, 2),
            (3, 6, 0.05, 120, 3),
            (4, 10, None, 250, 4),
            (4, 10, 0.45, 90, 5),
            (7, 3, None, 200, 7),  # the widest rows summed column by column
            (8, 3, 0.2, 200, 8),
            (9, 2, None, 150, 6),  # rows of 8 or more counts are summed pairwise
            (3, 5, None, 80, "constant"),  # one child per node for the whole sweep
            (2, 4, 0.3, 80, "period-2"),
            (3, 3, None, 1, 11),  # a single observation
        ],
    )
    def test_matches_batch_kernel(self, m, depth, beta, n, series):
        if isinstance(series, str):
            codes = np.arange(n + depth) % {"constant": 1, "period-2": 2}[series]
        else:
            # a sparse order-2 chain, so that many contexts repeat
            rng = np.random.default_rng(series)
            rows = rng.dirichlet(np.full(m, 0.3), size=m * m)
            codes = [0, 1]
            for _ in range(n + depth - 2):
                codes.append(int(rng.choice(m, p=rows[codes[-1] * m + codes[-2]])))
            codes = np.array(codes)
        params = BctHyperParams(m, depth, beta)
        # the whole slice, and one that starts and ends inside the series
        for lo, hi in [(0, n), (n // 3, n - n // 5)]:
            part = codes[lo : depth + hi]
            forward = evidence_row(part, params)
            backward = evidence_row(part, params, reverse=True)
            assert len(forward) == len(backward) == hi - lo
            for k in range(hi - lo):
                assert forward[k] == span_log_evidence(part[: depth + k + 1], params)
                assert backward[k] == span_log_evidence(part[k:], params)

    def test_context_code_overflow_rejected(self):
        params = BctHyperParams(64, 10, 0.5)
        codes = np.arange(40) % 64
        for build in (
            lambda: evidence_row(codes, params),
            lambda: CountTree.from_arrays(codes, params),
        ):
            with pytest.raises(ValueError, match="overflows context codes"):
                build()


class TestPartBuilds:
    # A build cut into parts must give each part the evidence of a build of
    # the part's own codes, bit for bit: exact and the evidence cache mix
    # the two and the tests compare them by ==.
    @staticmethod
    def parts_of(codes, depth, breaks):
        edges = [0, *breaks, codes.size - depth]
        return [codes[a : depth + b] for a, b in zip(edges, edges[1:])]

    @pytest.mark.parametrize("seed", range(16))
    def test_each_part_equals_its_own_build(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(4):
            m, depth = int(rng.integers(2, 12)), int(rng.integers(0, 11))
            L = int(rng.integers(2, 1501)) if seed % 4 else int(rng.integers(2, 40))
            beta = None if seed % 3 else float(rng.uniform(0.05, 0.95))
            codes = rng.integers(0, m, size=depth + L)
            if seed % 2:  # a series skewed toward 0, so that contexts repeat
                codes = (np.cumsum(codes) % m) * (codes % 2)
            count = min(int(rng.integers(1, 3)), L - 1)
            breaks = sorted(rng.choice(np.arange(1, L), size=count, replace=False).tolist())
            params = BctHyperParams(m, depth, beta)
            tree = CountTree.from_arrays(codes, params, breaks)
            alone = [span_log_evidence(c, params) for c in self.parts_of(codes, depth, breaks)]
            assert tree.parts == len(breaks) + 1
            assert tree.part_log_evidence() == alone

    @pytest.mark.parametrize(
        "m, depth, beta, L, breaks",
        [
            (2, 0, None, 2, [1]),  # two parts of one observation each
            (3, 10, None, 3, [1, 2]),  # three parts of one observation each
            (4, 10, 0.3, 300, [1]),
            (4, 10, None, 300, [299]),
            (8, 3, None, 500, [250]),  # rows of 8 or more counts are summed pairwise
            (11, 10, 0.7, 1500, [700, 701]),
            (2, 60, None, 40, [20]),  # the deepest binary tree of the one-part limit
            (3, 38, None, 40, [20]),
        ],
    )
    def test_edge_cases(self, m, depth, beta, L, breaks):
        codes = np.random.default_rng(m * depth + L).integers(0, m, size=depth + L)
        params = BctHyperParams(m, depth, beta)
        tree = CountTree.from_arrays(codes, params, breaks)
        alone = [span_log_evidence(c, params) for c in self.parts_of(codes, depth, breaks)]
        assert tree.part_log_evidence() == alone

    def test_one_part_answers_as_before(self):
        codes = TestPinnedResults.order_two_chain(3, 400, seed=2)
        params = BctHyperParams(3, 10)
        tree = CountTree.from_arrays(codes, params)
        assert tree.parts == 1
        assert tree.part_log_evidence() == [tree.log_evidence()]

    def test_several_parts_have_no_single_answer(self):
        codes = TestPinnedResults.order_two_chain(3, 60, seed=3)
        tree = CountTree.from_arrays(codes, BctHyperParams(3, 4), (20,))
        for ask in (tree.log_evidence, tree.root_log_pm, tree.map_model):
            with pytest.raises(ValueError, match="2 parts"):
                ask()

    @pytest.mark.parametrize("breaks", [(0,), (56,), (57,), (-1,), (30, 30), (40, 20),
                                        np.array([0]), np.array([10, 5])])
    def test_breaks_must_lie_inside_in_order(self, breaks):
        # 60 codes at depth 4 hold 56 observations
        codes = TestPinnedResults.order_two_chain(3, 60, seed=3)
        with pytest.raises(ValueError, match="breaks must increase"):
            CountTree.from_arrays(codes, BctHyperParams(3, 4), breaks)

    @pytest.mark.parametrize("breaks", [np.array([5, 10]), (np.int64(5), np.int64(10)),
                                        np.array([5, 10], dtype=np.int32)])
    def test_numpy_breaks_equal_int_breaks(self, breaks):
        codes = TestPinnedResults.order_two_chain(3, 60, seed=3)
        params = BctHyperParams(3, 4)
        tree = CountTree.from_arrays(codes, params, breaks)
        assert tree.part_log_evidence() == CountTree.from_arrays(
            codes, params, (5, 10)).part_log_evidence()

    @pytest.mark.parametrize("breaks", [(2.5,), (True,), (np.float64(5.0),), ("5",)])
    def test_non_integer_breaks_rejected(self, breaks):
        codes = TestPinnedResults.order_two_chain(3, 60, seed=3)
        with pytest.raises(ValueError, match="break must be an integer"):
            CountTree.from_arrays(codes, BctHyperParams(3, 4), breaks)

    def test_part_digit_overflow_rejected(self):
        # two parts fit an int64 wherever one tree does; keys of k parts
        # need k * m**(D + 1) <= 2**63 - 1
        for m, depth, too_many in [(2, 60, 4), (3, 38, 3)]:
            codes = np.arange(depth + 30) % m
            params = BctHyperParams(m, depth)
            fits = CountTree.from_arrays(codes, params, range(5, 5 * too_many - 5, 5))
            assert fits.parts == too_many - 1
            with pytest.raises(ValueError, match="overflows context codes"):
                CountTree.from_arrays(codes, params, range(5, 5 * too_many, 5))
        # one tree keeps its limit of m**(D + 1) < 2**62
        with pytest.raises(ValueError, match="overflows context codes"):
            CountTree.from_arrays(np.arange(91) % 2, BctHyperParams(2, 61))


class TestContextNodes:
    # The one-sort layout must equal np.unique over context codes computed
    # directly from the symbols, most recent symbol as the leading digit.
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_unique_over_direct_codes(self, seed):
        rng = np.random.default_rng(seed)
        cases = [(int(rng.integers(2, 12)), int(rng.integers(0, 11)), L)
                 for L in (0, int(rng.integers(1, 30)), int(rng.integers(30, 501)))]
        if seed == 0:
            cases += [(2, 0, 0), (2, 0, 7), (11, 10, 0), (11, 10, 500)]
        for m, depth, L in cases:
            codes = rng.integers(0, m, size=depth + L)
            if seed % 2:  # a series skewed toward 0, so that contexts repeat
                codes = (np.cumsum(codes) % m) * (codes % 2)
            params = BctHyperParams(m, depth)
            keys, ordered, opens = _context_nodes(codes, L, params)
            assert opens.shape == (depth + 1, L)
            tree = CountTree.from_arrays(codes, params)
            rows = tree._depth_rows
            assert len(tree._codes) == len(rows) - 1 == depth + 1
            # each observation's node as evidence_row finds it
            place = np.searchsorted(ordered, keys)
            above = None
            for d, nodes in enumerate(tree._codes):
                direct = np.zeros(L, dtype=np.int64)
                for k in range(1, d + 1):
                    direct = direct * m + codes[depth - k : depth - k + L]
                expect, expect_inverse = np.unique(direct, return_inverse=True)
                if d == 0:
                    expect = np.zeros(1, dtype=np.int64)  # the root always exists
                assert np.array_equal(nodes, expect)
                assert np.array_equal(np.cumsum(opens[d])[place] - 1, expect_inverse.ravel())
                if d > 0:
                    parents = tree._parents[rows[d] - 1 : rows[d + 1] - 1]
                    assert np.array_equal(parents, np.searchsorted(above, expect // m))
                above = expect

    def test_empty_tree_is_a_root_without_counts(self):
        for m, depth in [(2, 0), (3, 4), (11, 10)]:
            codes = np.zeros(depth, dtype=np.int64)
            tree = CountTree.from_arrays(codes, BctHyperParams(m, depth))
            assert tree.n == 0
            assert [c.size for c in tree._codes] == [1] + [0] * depth
            assert tree._depth_rows == [0] + [1] * (depth + 1)
            assert tree._all_counts.shape == (1, m)
            assert not count_vector(tree, ()).any()

    @pytest.mark.parametrize("m, depth, evidence, map_score", [
        (2, 0, 0.0, 0.0),
        (3, 4, 5.551115123125783e-17, -0.2876820724517809),
        (11, 10, 1.7750557967932679e-15, -0.0009770396478248364),
    ])
    def test_empty_tree_scores_are_pinned(self, m, depth, evidence, map_score):
        # below depth 0 an empty slice has no node, so the root's CTW child
        # sum is np.bincount's int64 0 from no weights; log beta and
        # log(1 - beta) log-added give 0 up to rounding
        tree = CountTree.from_arrays(np.zeros(depth, dtype=np.int64), BctHyperParams(m, depth))
        assert tree.log_evidence() == evidence
        assert tree.root_log_pm() == map_score

    def test_key_weights_are_read_only(self):
        weights = _key_weights(3, 4)
        assert weights.tolist() == [3, 9, 27, 81, 1]
        assert _key_weights(3, 4) is weights  # made once
        with pytest.raises(ValueError, match="read-only"):
            weights[0] = 0


class TestBruteForce:
    def test_depth_zero_equals_kt(self):
        seq = make_seq([1, 0, 1], 0)
        params = BctHyperParams(2, 0)
        root = count_vector(CountTree.from_sequence(seq, params), ())
        assert brute_force_evidence(seq, params) == pytest.approx(
            b.kt_log_prob(root), abs=1e-14
        )

    def test_tree_prior_normalises(self):
        # |T(3)| must match the recurrence and the prior must sum to one
        for depth in (1, 2, 3):
            params = BctHyperParams(2, depth, 0.41)
            trees = enumerate_proper_trees(2, depth)
            assert len(trees) == count_proper_trees(2, depth)
            total = sum(math.exp(tree_log_prior(t, params)) for t in trees)
            assert total == pytest.approx(1.0, abs=1e-12)
        assert count_proper_trees(2, 3) == 26

    def test_enumeration_guard(self, monkeypatch):
        monkeypatch.setattr(helpers, "ENUMERATION_MAX_TREES", 1000)
        with pytest.raises(ValueError, match="too large"):
            enumerate_proper_trees(2, 6)


class TestLeafPosteriorMean:
    def test_prior_mean(self):
        assert np.allclose(b.leaf_posterior_mean([0, 0]), [0.5, 0.5])

    def test_formula(self):
        assert np.allclose(b.leaf_posterior_mean([3, 1]), [0.7, 0.3])

    @settings(derandomize=True, max_examples=40)
    @given(st.lists(st.integers(0, 50), min_size=2, max_size=6))
    def test_sums_to_one(self, counts):
        assert b.leaf_posterior_mean(counts).sum() == pytest.approx(1.0, abs=1e-12)


class TestTreeModel:
    def test_properness_enforced(self):
        TreeModel(2, [(0,), (1,)])
        with pytest.raises(ValueError, match="improper"):
            TreeModel(2, [(0,)])
        with pytest.raises(ValueError, match="improper"):
            TreeModel(2, [(0,), (1, 0)])

    @pytest.mark.parametrize("leaves", [
        [(0,), (1,), (0, 0), (0, 1)],
        [(), (0,), (1,)],
        [(0,), (1, 0), (1, 1), (1, 0, 0), (1, 0, 1)],
    ])
    def test_leaf_with_leaves_below_rejected(self, leaves):
        # the first used to pass as a depth-2 model with 4 leaves
        with pytest.raises(ValueError, match="has leaves below it"):
            TreeModel(2, leaves)

    def test_walks_to_matching_suffix(self):
        # depth-3 cap, but the two most recent symbols decide: ...11 -> leaf (1,1)
        model = TreeModel(
            2,
            [(0,), (1, 0), (1, 1)],
            {(0,): [0.5, 0.5], (1, 0): [0.9, 0.1], (1, 1): [0.2, 0.8]},
        )
        assert leaf_for(model, [1, 1, 1]) == (1, 1)
        assert leaf_for(model, [0, 1, 1]) == (1, 1)
        assert leaf_for(model, [1, 0]) == (0,)
        assert leaf_for(model, [1, 1, 0]) == (0,)

    def test_history_too_short(self):
        model = TreeModel(2, [(0,), (1, 0), (1, 1)])
        with pytest.raises(ValueError, match="too short"):
            leaf_for(model, [1])

    def test_params_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            TreeModel(2, [()], {(): [0.5, 0.6]})
        with pytest.raises(ValueError, match="missing parameters"):
            TreeModel(2, [(0,), (1,)], {(0,): [0.5, 0.5]})

    @pytest.mark.parametrize("row", [[math.nan, 0.5], [0.5, math.nan], [math.inf, 0.0],
                                     [math.nan, math.nan]])
    def test_non_finite_params_rejected(self, row):
        # NaN compares False with 0 and with the sum tolerance, so only an
        # explicit finiteness check catches it
        with pytest.raises(ValueError, match="finite"):
            TreeModel(2, [()], {(): row})

    def test_json_round_trip(self, ternary_alphabet):
        model = b.model_from_table(
            ternary_alphabet, {"0": [0.5, 0.3, 0.2], "1": [0.3, 0.6, 0.1], "2": [0.3, 0.2, 0.5]}
        )
        obj = model.to_json(ternary_alphabet)
        back = TreeModel.from_json(obj, ternary_alphabet)
        assert back.leaves == model.leaves
        for leaf in model.leaves:
            assert np.allclose(back.theta(leaf), model.theta(leaf))

    def test_root_alias_lambda(self, binary_alphabet):
        obj = {"leaves": ["λ"], "params": {"λ": [0.4, 0.6]}}
        model = TreeModel.from_json(obj, binary_alphabet)
        assert model.leaves == frozenset({()})
        empty = model.to_json(binary_alphabet)
        assert empty["leaves"] == [""]

    def test_lambda_label_round_trip(self):
        # "λ" names the root only when it is not a label; the leaf λ used to
        # read back as the root
        alphabet = b.Alphabet(["λ", "μ"])
        model = TreeModel(2, [(0,), (1, 0), (1, 1)])
        obj = model.to_json(alphabet)
        assert obj["leaves"] == ["λ", "μλ", "μμ"]
        assert TreeModel.from_json(obj, alphabet).leaves == model.leaves

    @pytest.mark.parametrize("labels", [None, ["AA", "CC", "GT", "T"], ["λ", "μ", "ν", "ξ"]])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_trees_round_trip(self, seed, labels):
        rng = np.random.default_rng(seed)
        m = 2 + seed % 3
        alphabet = b.Alphabet.of_size(m) if labels is None else b.Alphabet(labels[:m])
        leaves = helpers.random_proper_tree(m, 5, rng, split=0.6)
        model = TreeModel(m, leaves, {s: rng.dirichlet(np.ones(m)) for s in leaves})
        back = TreeModel.from_json(json.loads(json.dumps(model.to_json(alphabet))), alphabet)
        assert back.leaves == model.leaves
        for leaf in leaves:
            assert np.array_equal(back.theta(leaf), model.theta(leaf))
        assert back.to_json(alphabet) == model.to_json(alphabet)

    @pytest.mark.parametrize("obj", [
        {"leaves": ["", "λ"]},
        {"leaves": [""], "params": {"": [0.5, 0.5], "λ": [0.4, 0.6]}},
    ], ids=["leaves", "params"])
    def test_two_strings_of_one_context_rejected(self, obj, binary_alphabet):
        with pytest.raises(ValueError, match="'' and 'λ' name one context"):
            TreeModel.from_json(obj, binary_alphabet)

    def test_table_with_two_rows_for_one_context_rejected(self, binary_alphabet):
        # model_from_table used to keep the second row and say nothing
        with pytest.raises(ValueError, match="'' and 'λ' name one context"):
            b.model_from_table(binary_alphabet, {"": [0.5, 0.5], "λ": [0.4, 0.6]})
