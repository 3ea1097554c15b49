"""Context-tree machinery for variable-memory Markov chains.

Holds per-context transition counts, Krichevsky-Trofimov integrated
likelihoods, the context-tree-weighting evidence recursion and the BCT
recursion that selects the maximising (MAP) tree model (one bottom-up pass
that differs only in how a node combines its stop and split terms). The
tests check both against a brute-force enumeration of every tree model of a
small class.

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
process and grown only for a longer segment. The count matrices are int32,
so a kernel's gathers index with an intp array or go through `np.take`,
never with an int32 array, which numpy indexes at twice the cost. The batch
builder's CTW pass sums each depth's children with one `np.bincount`; the
MAP pass, whose absent children score below 0, keeps `np.add.at` from the
absent term.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np
from scipy.special import gammaln

from .sequences import Alphabet, Sequence, as_int

MAP_MAX_LEAVES = 1_000_000  # largest MAP tree map_model returns


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
        m, depth = as_int(self.m, "m"), as_int(self.depth, "depth")
        if m < 2:
            raise ValueError("alphabet size must be at least 2")
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        beta = float(default_beta(m) if self.beta is None else self.beta)
        if not 0.0 < beta < 1.0:
            raise ValueError("beta must lie strictly between 0 and 1")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "beta", beta)

    @property
    def log_beta(self) -> float:
        return math.log(self.beta)

    @property
    def log_1mbeta(self) -> float:
        return math.log1p(-self.beta)


def check_fit(seq: Sequence, params: BctHyperParams) -> None:
    """Raise ValueError unless `params` describes models of `seq`: the same
    alphabet size m, and an initial context of D symbols."""
    if seq.alphabet.size != params.m:
        raise ValueError(
            f"the series has an alphabet of {seq.alphabet.size} symbols, "
            f"the parameters m = {params.m}"
        )
    if seq.depth != params.depth:
        raise ValueError(
            f"initial context length must equal the tree depth: the series has "
            f"{seq.depth} context symbols, the parameters D = {params.depth}"
        )


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
    as numpy sums such rows; wider rows numpy sums pairwise.

    Every table read goes through `np.take`: it costs about half what
    indexing with the kernels' int32 counts does, reads the same entries for
    any integer dtype, and returns a C-ordered array whatever the layout of
    `counts`, so wide rows are summed in one order for every layout."""
    half, whole = tables
    if m < 8:
        row_sum, total = np.take(half, counts[:, 0]), counts[:, 0].copy()
        for j in range(1, m):
            row_sum += np.take(half, counts[:, j])
            total += counts[:, j]
    else:
        row_sum, total = np.take(half, counts).sum(axis=1), counts.sum(axis=1)
    # in place, in the order of row_sum - m * half[0] - whole[total] + whole[0]:
    # the same bits with one temporary the size of the tree fewer
    row_sum -= m * half[0]
    row_sum -= np.take(whole, total)
    row_sum += whole[0]
    return row_sum


def _context_nodes(codes: np.ndarray, L: int, params: BctHyperParams, breaks=()):
    """The context tree of a code array that holds D context symbols and then
    L observations, laid out by one sort.

    Each observation's key holds its depth-D context, most recent symbol as
    the leading base-m digit, and then the observation itself as the last
    digit. A depth-d context's code is the key's leading d digits, so once
    the keys are sorted the depth-d nodes are the runs of keys with equal
    leading d digits, in ascending code order, and the children of a node
    are consecutive runs inside its own. A node's code is its parent's code
    times m plus the symbol one step further back.

    With `breaks` (see `CountTree.from_arrays`), the key of an observation
    of part k holds k as a digit above its context, so the parts sort one
    after another, each in the order it has alone, and share no node.

    Returns the keys in observation order, the sorted keys, and a (D+1) x L
    boolean array whose entry [d, i] says that sorted key i starts a depth-d
    node. The first key of each part starts one at every depth.
    """
    m, D = params.m, params.depth
    # keys, part digit included, must fit in an int64; one part keeps a
    # factor of two of headroom, so two parts fit wherever one does
    if max(len(breaks) + 1, 2) * m ** (D + 1) > 2**63 - 1:
        raise ValueError("alphabet/depth combination overflows context codes")
    # the key of the observation at t is the window codes[t : t + D + 1]
    # weighted by m, m**2, .., m**D for the context and 1 for the observation
    weights = np.array([*(m**k for k in range(1, D + 1)), 1], dtype=np.int64)
    key = np.correlate(codes, weights, "valid") if L else np.zeros(0, dtype=np.int64)
    for b in breaks:  # in place: no second key array
        key[b:] += m ** (D + 1)
    ordered = np.sort(key)
    # a key starts a depth-d node where its leading d digits, and with them
    # its part, differ from those of the key before it
    opens = np.ones((D + 1, L), dtype=bool)
    opens[0, 1:] = False
    opens[0, list(breaks)] = True
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
    numpy calls that grows with D but not with the data. A build of several
    parts (`from_arrays` with breaks) holds one such tree per part side by
    side, part by part within each depth, and answers only
    `part_log_evidence`.
    """

    def __init__(self, params, keys, opens, sizes, counts, n):
        self.params = params
        self.parts = sizes[0]  # one root per part
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
        """For each node below the roots, its parent's place among the nodes
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
    def from_arrays(cls, codes: np.ndarray, params: BctHyperParams, breaks=()):
        """Build from a code array of D = params.depth context symbols then
        the observations, as `Sequence.segment_codes` lays them out.

        Every observation is counted once at each depth 0..D; the context
        window may reach into the initial context.

        `breaks`, increasing observation indices strictly inside the array,
        cut the observations into parts: part k runs from breaks[k - 1] (or
        0) up to breaks[k] (or the end), with the D symbols before it as its
        context. Each part's nodes, counts and scores are those of a build of
        its own codes, so `part_log_evidence` gives each part's evidence bit
        for bit as that build's `log_evidence` does.
        """
        m, D = params.m, params.depth
        codes = np.ascontiguousarray(codes, dtype=np.int64)
        n = codes.size - D
        if n < 0:
            raise ValueError("code array shorter than its context")
        edges = [0, *breaks, n]
        if breaks and not all(a < b for a, b in zip(edges, edges[1:])):
            raise ValueError("breaks must increase strictly inside the observations")
        keys, opens = _context_nodes(codes, n, params, breaks)[1:]
        # the sorted position at which each node's run of keys starts: the
        # roots, one per part, then the nodes below them, depth by depth
        starts = np.concatenate((edges[:-1], np.flatnonzero(opens[1:]) % max(n, 1)))
        sizes = [len(edges) - 1, *np.count_nonzero(opens[1:], axis=1).tolist()]
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
        check_fit(seq, params)
        return cls.from_arrays(seq.full_codes(), params)

    def _row(self, d: int, code: int) -> int:
        """Row of the depth-d node with this context code; -1 if unobserved."""
        table = self._codes[d]
        idx = int(np.searchsorted(table, code))
        return self._depth_rows[d] + idx if idx < table.size and table[idx] == code else -1

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
            parents = self._parents[b - self.parts : c - self.parts]
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

    def _one_part(self):
        if self.parts > 1:
            raise ValueError(f"the tree holds {self.parts} parts; use part_log_evidence")

    def log_evidence(self) -> float:
        """Log of the prior predictive likelihood: all tree models of depth
        <= D and all leaf parameters integrated out."""
        self._one_part()
        return float(self._log_pw[0])

    def part_log_evidence(self) -> list[float]:
        """The log evidence of each part of the build, in part order."""
        return self._log_pw[: self.parts].tolist()

    def root_log_pm(self) -> float:
        """Log posterior score of the maximising tree model."""
        self._one_part()
        return float(self._log_pm[0])

    # --------------------------------------------------------------- MAP tree

    def map_model(self) -> "TreeModel":
        """The maximum a posteriori tree model, with the posterior-mean
        next-symbol probabilities of its leaves.

        One top-down walk over the nodes of the bottom-up pass. An observed
        node compares its maximised score with its stop term log beta + pe;
        an unobserved one (row -1, as are all its children) compares its
        data-free maximum with log beta."""
        self._one_part()
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
        for s in leaf_set:
            for c in s:
                if not 0 <= c < m:
                    raise ValueError(f"symbol code {c} outside alphabet of size {m}")
        internal = {s[:k] for s in leaf_set for k in range(len(s))}
        if clash := internal & leaf_set:
            raise ValueError(f"improper tree: leaf {min(clash)!r} has leaves below it")
        nodes = internal | leaf_set
        for s in internal:
            for j in range(m):
                if s + (j,) not in nodes:
                    raise ValueError(f"improper tree: node {s!r} is missing child symbol {j}")
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

    # ------------------------------------------------------------ serialization

    def to_json(self, alphabet: Alphabet) -> dict:
        if alphabet.size != self.m:
            raise ValueError("alphabet size does not match the model")
        ordered = sorted(self._nodes, key=lambda s: (len(s), s))
        leaves = sorted(self.leaves, key=lambda s: (len(s), s))
        obj = {
            "contexts": [alphabet.join(s) for s in ordered],
            "leaves": [alphabet.join(s) for s in leaves],
        }
        if self.params is not None:
            obj["params"] = {alphabet.join(s): [float(v) for v in self.params[s]]
                             for s in leaves}
        return obj

    @classmethod
    def from_json(cls, obj: dict, alphabet: Alphabet) -> "TreeModel":
        """The model of `to_json`'s layout, `params` optional; two strings
        that name one context raise ValueError."""
        leaves = _contexts(obj["leaves"], alphabet)
        params = obj.get("params")
        if params is not None:
            params = dict(zip(_contexts(params, alphabet), params.values()))
        return cls(alphabet.size, leaves, params)

    def __repr__(self):
        return f"TreeModel(m={self.m}, leaves={self.size}, depth={self.depth})"


def _contexts(strings, alphabet: Alphabet) -> list[tuple[int, ...]]:
    """The context each string names; raises ValueError when two name one."""
    named = {}
    for s in strings:
        context = alphabet.split(s)
        if context in named:
            raise ValueError(f"context strings {named[context]!r} and {s!r} name one context")
        named[context] = s
    return list(named)


# ------------------------------------------------------------------ operations


def span_log_evidence(codes: np.ndarray, params: BctHyperParams) -> float:
    """Evidence of a contiguous code slice whose first D entries are context."""
    return CountTree.from_arrays(codes, params).log_evidence()


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
    # the step-by-symbol count matrix, int32 as the batch builder's, held
    # one contiguous column per symbol: `_vector_kt` gathers by column
    columns = np.empty((m, L), dtype=np.int32)
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
            columns[j] = run - (run - hit)[group_start]
        score = _vector_kt(columns.T, m, tables)
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
