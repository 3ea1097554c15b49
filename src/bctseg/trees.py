"""Context-tree machinery for variable-memory Markov chains.

Holds per-context transition counts, Krichevsky-Trofimov integrated
likelihoods, the context-tree-weighting evidence recursion and the BCT
recursion that selects the maximising (MAP) tree model (one bottom-up pass
that differs only in how a node combines its stop and split terms), and a
brute-force enumeration oracle used to validate both on small model classes.

All probability arithmetic is carried out in the natural-log domain; the
two-term weighting mixture uses log-sum-exp. Contexts are tuples of symbol
codes with the most recent symbol first, so the children of a node extend its
context one step further into the past. There are two evidence kernels, both
in numpy: the batch builder scores one segment's count tree, and
`evidence_row` scores every segment sharing one end of a slice in one sweep,
one depth at a time. Both take their nodes from `_context_nodes`, the one
place that decides context codes and node order: one sort of the
observations' context keys, in which the nodes of each depth are runs of
sorted keys. The batch builder reads the counts, codes and parents of every
depth off that one sorted array and scores the Krichevsky-Trofimov terms of
all its nodes in one call; the row sweep, which must keep step order inside
each node, sorts once more per depth. Both read Krichevsky-Trofimov scores
only from `_vector_kt`, the one place that knows numpy's summation order,
with their log-gamma terms from tables built once per alphabet size per
process and grown only for a longer segment. The batch builder's CTW pass
sums each depth's children with one `np.bincount`; the MAP pass, whose
absent children score below 0, keeps `np.add.at` from the absent term.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, product as _cartesian

import numpy as np
from scipy.special import gammaln, logsumexp

from .sequences import Alphabet, ParseError, Sequence

MAP_MAX_LEAVES = 1_000_000  # largest MAP tree map_model returns
ENUMERATION_MAX_TREES = 100_000  # largest model class enumerate_proper_trees lists


def default_beta(m: int) -> float:
    """Default mixing weight 1 - 2**-(m-1) for an m-symbol alphabet.

    From m = 55 on that weight rounds to 1, which is no valid beta, so
    those alphabets need an explicit one."""
    beta = 1.0 - 2.0 ** (1 - m)
    if beta == 1.0:
        raise ValueError(
            f"the default beta rounds to 1 for an alphabet of {m} symbols; "
            "set one below 1 with --beta"
        )
    return beta


@dataclass(frozen=True, slots=True)
class BctHyperParams:
    """Alphabet size, maximum memory depth, and tree-prior hyperparameters.

    `beta` is the weight a node gives to stopping (being a leaf); the split
    weight 1 - beta is shared among the m subtrees through
    alpha = (1-beta)**(1/(m-1)). A `beta` of None resolves to the default.
    """

    m: int
    depth: int
    beta: float | None = None

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("alphabet size must be at least 2")
        if self.depth < 0:
            raise ValueError("depth must be nonnegative")
        beta = float(default_beta(self.m) if self.beta is None else self.beta)
        if not 0.0 < beta < 1.0:
            raise ValueError("beta must lie strictly between 0 and 1")
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "depth", int(self.depth))
        object.__setattr__(self, "beta", beta)

    @property
    def alpha(self) -> float:
        return (1.0 - self.beta) ** (1.0 / (self.m - 1))

    @property
    def log_beta(self) -> float:
        return math.log(self.beta)

    @property
    def log_1mbeta(self) -> float:
        return math.log1p(-self.beta)

    @property
    def log_alpha(self) -> float:
        return math.log1p(-self.beta) / (self.m - 1)


def kt_log_prob(counts, m: int | None = None) -> float:
    """Log marginal likelihood of a count vector under a Dirichlet(1/2,..,1/2)
    prior on the next-symbol distribution (the KT estimator).

    Equals log of [prod_j prod_{i<a_j} (i+1/2)] / [prod_{i<M} (i+m/2)] with
    M the total count; the empty count vector gives log 1 = 0.
    """
    a = np.asarray(counts, dtype=np.int64)
    if m is None:
        m = a.size
    elif m != a.size:
        raise ValueError("count vector length must equal the alphabet size")
    if a.size == 0 or a.min() < 0:
        raise ValueError("counts must be a nonempty vector of nonnegative integers")
    if not a.any():
        return 0.0
    # tables of its own: a one-off large total leaves no resident table
    return float(_vector_kt(a[np.newaxis], m, _kt_tables(int(a.sum()), m))[0])


def leaf_posterior_mean(counts) -> np.ndarray:
    """Posterior-mean next-symbol probabilities (a_j + 1/2) / (M + m/2)."""
    a = np.asarray(counts, dtype=np.float64)
    if a.min() < 0:
        raise ValueError("counts must be nonnegative")
    return (a + 0.5) / (a.sum() + 0.5 * a.size)


def _kt_tables(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """gammaln(k + 1/2) and gammaln(k + m/2) for k = 0..n: every log-gamma
    term of a KT likelihood whose counts total at most n."""
    k = np.arange(n + 1, dtype=np.float64)
    return gammaln(k + 0.5), gammaln(k + 0.5 * m)


_RESIDENT_KT_TABLES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _resident_kt_tables(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The evidence kernels' `_kt_tables` for alphabet size m, kept for the
    life of the process and rebuilt only when a total above n's arrives. An
    entry is an elementwise `gammaln` of its index alone, so a longer table
    holds the same bits at every index a shorter one has."""
    tables = _RESIDENT_KT_TABLES.get(m)
    if tables is None or tables[0].size <= n:
        tables = _RESIDENT_KT_TABLES[m] = _kt_tables(n, m)
    return tables


def _vector_kt(counts: np.ndarray, m: int, tables) -> np.ndarray:
    """KT log likelihood for each row of an integer count matrix, with the
    log-gamma terms read from `_kt_tables` of at least the largest row total.
    Rows of fewer than 8 counts are summed column by column, left to right,
    as numpy sums such rows; wider rows numpy sums pairwise."""
    half, whole = tables
    if m < 8:
        row_sum, total = half[counts[:, 0]], counts[:, 0].copy()
        for j in range(1, m):
            row_sum += half[counts[:, j]]
            total += counts[:, j]
    else:
        row_sum, total = half[counts].sum(axis=1), counts.sum(axis=1)
    # in place, in the order of row_sum - m * half[0] - whole[total] + whole[0]:
    # the same bits with one temporary the size of the tree fewer
    row_sum -= m * half[0]
    row_sum -= whole[total]
    row_sum += whole[0]
    return row_sum


def _context_nodes(codes: np.ndarray, L: int, params: BctHyperParams):
    """The context tree of a code array that holds D context symbols and then
    L observations, laid out by one sort.

    Each observation's key holds its depth-D context, most recent symbol as
    the leading base-m digit, and then the observation itself as the last
    digit. A depth-d context's code is the key's leading d digits, so once
    the keys are sorted the depth-d nodes are the runs of keys with equal
    leading d digits, in ascending code order, and the children of a node
    are consecutive runs inside its own. A node's code is its parent's code
    times m plus the symbol one step further back.

    Returns the keys in observation order, the sorted keys, and a (D+1) x L
    boolean array whose entry [d, i] says that sorted key i starts a depth-d
    node. The first key starts one at every depth.
    """
    m, D = params.m, params.depth
    # context codes of depth D plus the next symbol must fit in an int64
    if m ** (D + 1) >= 2**62:
        raise ValueError("alphabet/depth combination overflows context codes")
    # the key of the observation at t is the window codes[t : t + D + 1]
    # weighted by m, m**2, .., m**D for the context and 1 for the observation
    weights = np.array([*(m**k for k in range(1, D + 1)), 1], dtype=np.int64)
    key = np.correlate(codes, weights, "valid") if L else np.zeros(0, dtype=np.int64)
    ordered = np.sort(key)
    # a key starts a depth-d node where its leading d digits differ from
    # those of the key before it
    opens = np.ones((D + 1, L), dtype=bool)
    opens[0, 1:] = False
    prefix = ordered // m
    for d in range(D, 0, -1):
        np.not_equal(prefix[1:], prefix[:-1], out=opens[d, 1:])
        prefix //= m
    return key, ordered, opens


def _empty_log_pm(params: BctHyperParams) -> np.ndarray:
    """Maximised score of a node with no data at each depth 0..D.

    A data-free subtree has estimated probability one everywhere, so its
    maximised value depends only on how far below the depth cap it sits.
    """
    D = params.depth
    e = np.zeros(D + 1)
    for d in range(D - 1, -1, -1):
        e[d] = max(params.log_beta, params.log_1mbeta + params.m * e[d + 1])
    return e


class CountTree:
    """Transition counts for every context of length <= D occurring in a
    sequence, with cached log-domain node scores.

    Only observed contexts are materialised. The tree keeps the layout of
    `_context_nodes`, the sorted context keys and where each depth's runs of
    them start, and one integer count matrix whose rows are the nodes of all
    depths: the root, then depth by depth in ascending code order (leading
    digit = most recent symbol, so a node's children are consecutive). Every
    depth's counts come off the one sorted array and the recursion scores
    all nodes' KT terms at once, so a build and its evidence take a number of
    numpy calls that grows with D but not with the data.
    """

    def __init__(self, params, keys, opens, sizes, counts, n):
        self.params = params
        self._keys, self._opens = keys, opens  # the layout of _context_nodes
        # depth d holds rows _depth_rows[d] up to _depth_rows[d + 1]
        self._depth_rows = list(accumulate(sizes, initial=0))
        self._all_counts = counts
        self.n = n

    @cached_property
    def _codes(self) -> list[np.ndarray]:
        """Each depth's sorted node codes: the leading digits of the first
        key of the node's run (only lookups by context need them)."""
        m, D = self.params.m, self.params.depth
        return [np.zeros(1, dtype=np.int64)] + [
            self._keys[self._opens[d]] // m ** (D + 1 - d) for d in range(1, D + 1)
        ]

    @cached_property
    def _parents(self) -> np.ndarray:
        """For each node below the root, its parent's place among the nodes
        one depth up: of the nodes from the first of its depth up to itself,
        those whose runs start a node one depth up too, counted, minus 1."""
        opens, rows = self._opens, np.array(self._depth_rows)
        parents = np.cumsum(opens.ravel()[np.flatnonzero(opens[1:])])
        parents -= np.repeat(rows[:-2] + 1, np.diff(rows[1:]))
        return parents

    @cached_property
    def _log_pe(self) -> np.ndarray:
        """Each node's KT log likelihood, row by row."""
        m = self.params.m
        return _vector_kt(self._all_counts, m, _resident_kt_tables(self.n, m))

    @cached_property
    def _log_pw(self) -> np.ndarray:
        """Each node's weighted score; an absent subtree has weighted
        probability one, score 0 in logs."""
        return self._bottom_up(np.logaddexp, np.zeros(self.params.depth + 1))

    @cached_property
    def _log_pm(self) -> np.ndarray:
        """Each node's maximised score; an absent subtree scores its
        data-free maximum."""
        return self._bottom_up(np.maximum, _empty_log_pm(self.params))

    # ---------------------------------------------------------------- build

    @classmethod
    def from_arrays(cls, codes: np.ndarray, n_context: int, params: BctHyperParams):
        """Build from a contiguous code array = initial context + observations.

        Every observation is counted once at each depth 0..D; the context
        window may reach into the initial context, which must therefore hold
        exactly D symbols.
        """
        m, D = params.m, params.depth
        if n_context != D:
            raise ValueError("initial context length must equal the tree depth")
        codes = np.ascontiguousarray(codes, dtype=np.int64)
        n = codes.size - n_context
        if n < 0:
            raise ValueError("code array shorter than its declared context")
        keys, opens = _context_nodes(codes, n, params)[1:]
        # the sorted position at which each node's run of keys starts: the
        # root at 0, then the nodes below it, depth by depth
        starts = np.concatenate(([0], np.flatnonzero(opens[1:]) % max(n, 1)))
        sizes = [1, *np.count_nonzero(opens[1:], axis=1).tolist()]
        # a run's counts are the running counts per symbol where the next
        # run of its depth starts (at the end, n) minus those where it starts
        running = np.zeros((n + 1, m), dtype=np.int32)
        running[np.arange(1, n + 1), keys % m] = 1
        np.cumsum(running, axis=0, out=running)
        at_start = np.take(running, starts, axis=0)
        counts = np.empty_like(at_start)
        np.subtract(at_start[1:], at_start[:-1], out=counts[:-1])
        last = np.cumsum(sizes) - 1
        counts[last] = running[n] - at_start[last]
        return cls(params, keys, opens, sizes, counts, n)

    @classmethod
    def from_sequence(cls, seq: Sequence, params: BctHyperParams):
        if seq.alphabet.size != params.m:
            raise ValueError("sequence alphabet does not match the parameters")
        return cls.from_arrays(seq.full_codes(), seq.depth, params)

    # ------------------------------------------------------------- accessors

    @staticmethod
    def encode_context(context, m: int) -> int:
        """Code of a context tuple (most recent symbol first), as laid out by
        `_context_nodes`: the most recent symbol is the leading base-m digit."""
        code = 0
        for sym in context:
            code = code * m + int(sym)
        return code

    @staticmethod
    def decode_context(code: int, depth: int, m: int) -> tuple[int, ...]:
        """The depth-long context tuple of `code`, most recent symbol first."""
        out = []
        for _ in range(depth):
            out.append(int(code % m))
            code //= m
        return tuple(out[::-1])

    def _row(self, d: int, code: int) -> int:
        """Row of the depth-d node with this context code; -1 if unobserved."""
        table = self._codes[d]
        idx = int(np.searchsorted(table, code))
        return self._depth_rows[d] + idx if idx < table.size and table[idx] == code else -1

    def count_vector(self, context) -> np.ndarray:
        """Counts of the symbols following `context`; zeros if never seen."""
        d = len(context)
        if d > self.params.depth:
            raise ValueError("context longer than the tree depth")
        row = self._row(d, self.encode_context(context, self.params.m))
        if row < 0:
            return np.zeros(self.params.m, dtype=np.int64)
        return self._all_counts[row].astype(np.int64)

    def contexts_at_depth(self, d: int):
        """Pairs (context tuple, count vector) for the observed depth-d nodes."""
        m, rows = self.params.m, self._depth_rows
        for code, row in zip(self._codes[d], self._all_counts[rows[d] : rows[d + 1]]):
            yield self.decode_context(int(code), d, m), row.astype(np.int64)

    # ------------------------------------------------------- recursions

    def _bottom_up(self, combine, absent: np.ndarray) -> np.ndarray:
        """Scores of the observed nodes, row by row, under the shared CTW/BCT
        recursion. A depth-D node scores its KT likelihood pe; any other node
        scores combine(log beta + pe, log(1-beta) + the sum of its m children's
        scores), where an unobserved child at depth d scores absent[d]."""
        m, D = self.params.m, self.params.depth
        lb, l1b = self.params.log_beta, self.params.log_1mbeta
        rows = self._depth_rows
        scores = lb + self._log_pe
        scores[rows[D] :] = self._log_pe[rows[D] :]
        for d in range(D, 0, -1):
            a, b, c = rows[d - 1], rows[d], rows[d + 1]
            parents = self._parents[b - 1 : c - 1]
            # the children of a node in symbol order from m * absent[d], as
            # np.add.at sums them, with each observed child's term swapped in;
            # where absent[d] is 0.0 (every CTW depth, and the MAP pass at
            # depth D) np.bincount adds the same terms in the same order from
            # 0.0, so one call gives the same bits as the three
            if absent[d] == 0.0:
                child_sum = np.bincount(parents, scores[b:c], b - a)
            else:
                child_sum = np.full(b - a, m * absent[d])
                np.add.at(child_sum, parents, scores[b:c] - absent[d])
            combine(scores[a:b], l1b + child_sum, out=scores[a:b])
        return scores

    def log_evidence(self) -> float:
        """Log of the prior predictive likelihood: all tree models of depth
        <= D and all leaf parameters integrated out."""
        return float(self._log_pw[0])

    def root_log_pm(self) -> float:
        """Log posterior score of the maximising tree model."""
        return float(self._log_pm[0])

    def log_pw_at(self, context) -> float:
        """Weighted score of an observed node (for invariant checks)."""
        d = len(context)
        row = self._row(d, self.encode_context(context, self.params.m))
        if row < 0:
            raise KeyError(f"context {context!r} not in the tree")
        return float(self._log_pw[row])

    # --------------------------------------------------------------- MAP tree

    def map_model(self, with_params: bool = False):
        """The maximum a posteriori tree model, optionally with posterior-mean
        next-symbol probabilities attached to its leaves.

        One top-down walk over the nodes of the bottom-up pass. An observed
        node compares its maximised score with its stop term log beta + pe;
        an unobserved one (row -1, as are all its children) compares its
        data-free maximum with log beta."""
        log_pm, log_pe = self._log_pm, self._log_pe
        m, D, lb = self.params.m, self.params.depth, self.params.log_beta
        empty = _empty_log_pm(self.params)
        leaves: dict[tuple[int, ...], int] = {}  # leaf context -> row
        stack = [(0, 0, 0, ())]
        while stack:
            row, code, d, ctx = stack.pop()
            best, stop = (log_pm[row], lb + log_pe[row]) if row >= 0 else (empty[d], lb)
            # a node splits only when the split term strictly beats stopping,
            # so ties break toward the leaf (the smaller model)
            if d == D or not best > stop:
                leaves[ctx] = row
                if len(leaves) > MAP_MAX_LEAVES:
                    raise ValueError("MAP tree exceeds the leaf cap")
                continue
            for j in range(m):
                child = code * m + j
                below = self._row(d + 1, child) if row >= 0 else -1
                stack.append((below, child, d + 1, ctx + (j,)))

        params = None
        if with_params:
            unseen = np.zeros(m, dtype=np.int64)
            params = {
                s: leaf_posterior_mean(self._all_counts[row] if row >= 0 else unseen)
                for s, row in leaves.items()
            }
        return TreeModel(m, leaves, params)


class TreeModel:
    """A proper m-ary context-tree model given by its leaf contexts.

    Every non-leaf node has exactly m children. Leaves may carry a
    next-symbol probability vector. Context tuples hold the most recent
    symbol first.
    """

    def __init__(self, m: int, leaves, params=None):
        self.m = int(m)
        leaf_set = frozenset(tuple(int(c) for c in s) for s in leaves)
        if not leaf_set:
            raise ValueError("a tree model needs at least one leaf")
        nodes = set()
        for s in leaf_set:
            for c in s:
                if not 0 <= c < m:
                    raise ValueError(f"symbol code {c} outside alphabet of size {m}")
            for k in range(len(s) + 1):
                nodes.add(s[:k])
        internal = nodes - leaf_set
        for s in internal:
            for j in range(m):
                if s + (j,) not in nodes:
                    raise ValueError(
                        f"improper tree: node {s!r} is missing child symbol {j}"
                    )
        self.leaves = leaf_set
        self._nodes = frozenset(nodes)
        self.depth = max((len(s) for s in leaf_set), default=0)
        if params is not None:
            converted = {}
            for s, vec in params.items():
                key = tuple(int(c) for c in s)
                if key not in leaf_set:
                    raise ValueError(f"parameters given for non-leaf context {key!r}")
                v = np.asarray(vec, dtype=np.float64)
                # NaN passes both the sign and the sum test, so it is named here
                if v.shape != (m,) or not np.isfinite(v).all() or v.min() < 0:
                    raise ValueError("each parameter vector needs m finite nonnegative entries")
                if abs(v.sum() - 1.0) > 1e-12:
                    raise ValueError(f"parameter vector for {key!r} does not sum to 1")
                converted[key] = v
            missing = leaf_set - converted.keys()
            if missing:
                raise ValueError(f"missing parameters for leaves {sorted(missing)!r}")
            params = converted
        self.params = params

    @property
    def size(self) -> int:
        """Number of leaves."""
        return len(self.leaves)

    def theta(self, leaf) -> np.ndarray:
        if self.params is None:
            raise ValueError("this model carries no leaf parameters")
        return self.params[tuple(leaf)]

    def leaf_for(self, history) -> tuple[int, ...]:
        """Leaf context selected by a past-symbol sequence (oldest first)."""
        s = ()
        k = 1
        while s not in self.leaves:
            if k > len(history):
                raise ValueError(
                    f"history of length {len(history)} too short to reach a leaf"
                )
            s = s + (int(history[-k]),)
            k += 1
        return s

    # ------------------------------------------------------------ serialization

    def to_json(self, alphabet: Alphabet) -> dict:
        if alphabet.size != self.m:
            raise ValueError("alphabet size does not match the model")

        def render(s):
            return "".join(alphabet.labels[c] for c in s)

        ordered = sorted(self._nodes, key=lambda s: (len(s), s))
        obj = {
            "contexts": [render(s) for s in ordered],
            "leaves": [render(s) for s in sorted(self.leaves, key=lambda s: (len(s), s))],
        }
        if self.params is not None:
            obj["params"] = {
                render(s): [float(v) for v in self.params[s]]
                for s in sorted(self.leaves, key=lambda s: (len(s), s))
            }
        return obj

    @classmethod
    def from_json(cls, obj: dict, alphabet: Alphabet) -> "TreeModel":
        leaves = [parse_context_string(s, alphabet) for s in obj["leaves"]]
        params = None
        if obj.get("params") is not None:
            params = {
                parse_context_string(s, alphabet): vec
                for s, vec in obj["params"].items()
            }
        return cls(alphabet.size, leaves, params)

    def __repr__(self):
        return f"TreeModel(m={self.m}, leaves={self.size}, depth={self.depth})"


def parse_context_string(s: str, alphabet: Alphabet) -> tuple[int, ...]:
    """Decode a label-joined context string; '' and 'λ' denote the root."""
    if s in ("", "λ"):
        return ()
    if all(len(lab) == 1 for lab in alphabet.labels):
        return tuple(alphabet.code_of(ch) for ch in s)
    # multi-character labels: greedy longest match
    out = []
    i = 0
    by_length = sorted(alphabet.labels, key=len, reverse=True)
    while i < len(s):
        for lab in by_length:
            if s.startswith(lab, i):
                out.append(alphabet.code_of(lab))
                i += len(lab)
                break
        else:
            raise ParseError(f"cannot decode context string {s!r} at offset {i}")
    return tuple(out)


# ------------------------------------------------------------------ operations


def span_log_evidence(codes: np.ndarray, params: BctHyperParams) -> float:
    """Evidence of a contiguous code slice whose first D entries are context."""
    return CountTree.from_arrays(codes, params.depth, params).log_evidence()


def evidence_row(codes: np.ndarray, params: BctHyperParams, reverse: bool = False) -> array:
    """Evidence of every segment of a code slice that shares one of its ends.

    `codes` holds D context symbols and then L observations. Entry k of the
    result is the evidence of observations 0..k (forward), or of
    observations k..L-1 with the D symbols before observation k as their
    context (reverse). Each entry equals `span_log_evidence` of that
    segment bit for bit.

    Step s of the sweep adds one observation, in either direction, to a
    count tree that holds every context of the slice, and rescores the D+1
    nodes on that observation's context path from their counts and their
    children's current scores, in the order and with the operations of
    `CountTree._bottom_up`; that makes each score a function of the counts
    alone, wherever the sweep started. The steps are scored one depth at a
    time, deepest first, all steps at once: grouped by node (in step order
    within a node), a step's counts are running sums over its group, and a
    child's current score is the one it took at its latest step in the
    group, or 0.0 while it has none, as an unreached subtree weighs one.
    """
    m, D = params.m, params.depth
    codes = np.ascontiguousarray(codes, dtype=np.int64)
    L = codes.size - D
    if L < 1:
        raise ValueError("code array holds no observation after its context")
    position = np.arange(L)
    obs = position[::-1] if reverse else position

    def back(k):  # the symbol k steps before each step's observation
        return codes[D - k : D - k + L][obs]

    # a step's node at depth d is the run of sorted keys that holds its key,
    # numbered from 1; equal keys share every node, so any place of the key
    # in the sorted keys will do
    keys, ordered, opens = _context_nodes(codes, L, params)
    place = np.searchsorted(ordered, keys)[obs]
    del keys, ordered
    tables = _resident_kt_tables(L, m)
    lb, l1b = params.log_beta, params.log_1mbeta
    counts = np.empty((L, m), dtype=np.int64)
    for d in range(D, -1, -1):
        # node first, then step: the keys are unique, so any sort is stable
        node = np.cumsum(opens[d])[place]
        order = np.argsort(node * L + position)
        ids = node[order]
        first = np.ones(L, dtype=bool)
        np.not_equal(ids[1:], ids[:-1], out=first[1:])
        group_start = np.maximum.accumulate(np.where(first, position, 0))
        symbol = back(0)[order]
        for j in range(m):
            hit = symbol == j
            run = np.cumsum(hit)
            counts[:, j] = run - (run - hit)[group_start]
        score = _vector_kt(counts, m, tables)
        if d < D:
            child_symbol = back(d + 1)[order]
            # children in symbol order from 0.0, as np.add.at sums them
            child_sum = np.zeros(L)
            for j in range(m):
                latest = np.maximum.accumulate(np.where(child_symbol == j, position, -1))
                child_sum += np.where(latest >= group_start, below[order[latest]], 0.0)
            score = np.logaddexp(lb + score, l1b + child_sum)
        below = np.empty(L)
        below[order] = score
    # obs is its own inverse: entry k is the root's score at the step adding k
    return array("d", below[obs].tobytes())


def map_tree(seq: Sequence, params: BctHyperParams, with_params: bool = False) -> TreeModel:
    """The MAP tree model of the sequence under the hierarchical tree prior."""
    return CountTree.from_sequence(seq, params).map_model(with_params=with_params)


def count_proper_trees(m: int, depth: int) -> int:
    """|T(d+1)| = |T(d)|**m + 1 with |T(0)| = 1."""
    count = 1
    for _ in range(depth):
        count = count**m + 1
    return count


def enumerate_proper_trees(m: int, depth: int):
    """All proper m-ary trees of depth <= `depth` as frozensets of leaf tuples."""
    total = count_proper_trees(m, depth)
    if total > ENUMERATION_MAX_TREES:
        raise ValueError(f"model class too large to enumerate ({total} trees)")

    def build(budget):
        trees = [frozenset({()})]
        if budget == 0:
            return trees
        subtrees = build(budget - 1)
        for combo in _cartesian(subtrees, repeat=m):
            leaves = set()
            for j, sub in enumerate(combo):
                for s in sub:
                    leaves.add((j,) + s)
            trees.append(frozenset(leaves))
        return trees

    return build(depth)


def tree_log_prior(leaves, params: BctHyperParams) -> float:
    """Log prior mass of a tree model: alpha**(|T|-1) * beta**(|T|-L_D)."""
    size = len(leaves)
    at_max_depth = sum(1 for s in leaves if len(s) == params.depth)
    return (size - 1) * params.log_alpha + (size - at_max_depth) * params.log_beta


def brute_force_evidence(seq: Sequence, params: BctHyperParams) -> float:
    """Evidence by explicit enumeration: sum over every proper tree of its
    prior mass times the product of leaf-level KT likelihoods. Tractable only
    for small alphabets and shallow depth caps."""
    counts = CountTree.from_sequence(seq, params)
    kt_cache: dict[tuple, float] = {}

    def leaf_kt(s):
        if s not in kt_cache:
            kt_cache[s] = kt_log_prob(counts.count_vector(s), params.m)
        return kt_cache[s]

    scores = []
    for tree in enumerate_proper_trees(params.m, params.depth):
        scores.append(tree_log_prior(tree, params) + sum(leaf_kt(s) for s in tree))
    return float(logsumexp(scores))
