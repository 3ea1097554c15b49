"""Independent oracles shared by the test modules.

Everything here recomputes quantities by direct definition (products,
enumerations, per-position loops) so the library's recursions are checked
against a separate code path.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.special import logsumexp

import bctseg as b
from bctseg.trees import span_log_evidence

ENUMERATION_MAX_TREES = 100_000  # largest model class enumerate_proper_trees lists


def alpha(params) -> float:
    """The split weight each of a node's m subtrees gets in the tree prior,
    (1-beta)**(1/(m-1))."""
    return (1.0 - params.beta) ** (1.0 / (params.m - 1))


def log_alpha(params) -> float:
    return math.log1p(-params.beta) / (params.m - 1)


def encode_context(context, m: int) -> int:
    """Code of a context tuple (most recent symbol first), as laid out by
    `_context_nodes`: the most recent symbol is the leading base-m digit."""
    code = 0
    for sym in context:
        code = code * m + int(sym)
    return code


def decode_context(code: int, depth: int, m: int) -> tuple[int, ...]:
    """The depth-long context tuple of `code`, most recent symbol first."""
    out = []
    for _ in range(depth):
        out.append(int(code % m))
        code //= m
    return tuple(out[::-1])


def count_vector(tree, context) -> np.ndarray:
    """Counts of the symbols following `context`; zeros if never seen."""
    d = len(context)
    if d > tree.params.depth:
        raise ValueError("context longer than the tree depth")
    row = tree._row(d, encode_context(context, tree.params.m))
    if row < 0:
        return np.zeros(tree.params.m, dtype=np.int64)
    return tree._all_counts[row].astype(np.int64)


def contexts_at_depth(tree, d: int):
    """Pairs (context tuple, count vector) for the observed depth-d nodes."""
    m, rows = tree.params.m, tree._depth_rows
    for code, row in zip(tree._codes[d], tree._all_counts[rows[d] : rows[d + 1]]):
        yield decode_context(int(code), d, m), row.astype(np.int64)


def log_pw_at(tree, context) -> float:
    """Weighted score of an observed node (for invariant checks)."""
    d = len(context)
    row = tree._row(d, encode_context(context, tree.params.m))
    if row < 0:
        raise KeyError(f"context {context!r} not in the tree")
    return float(tree._log_pw[row])


def leaf_for(model, history) -> tuple[int, ...]:
    """Leaf context selected by a past-symbol sequence (oldest first)."""
    s = ()
    k = 1
    while s not in model.leaves:
        if k > len(history):
            raise ValueError(
                f"history of length {len(history)} too short to reach a leaf"
            )
        s = s + (int(history[-k]),)
        k += 1
    return s


def sample_next(model, history, rng) -> int:
    """Draw the next symbol: walk the tree along the most recent symbols of
    `history` (oldest first) to a leaf and sample from its distribution,
    with one `rng.random()`."""
    theta = model.theta(leaf_for(model, history))
    u = rng.random()
    j = int(np.searchsorted(np.cumsum(theta), u, side="right"))
    return min(j, model.m - 1)


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
        for combo in itertools.product(subtrees, repeat=m):
            leaves = set()
            for j, sub in enumerate(combo):
                for s in sub:
                    leaves.add((j,) + s)
            trees.append(frozenset(leaves))
        return trees

    return build(depth)


def random_proper_tree(m: int, depth: int, rng, split: float = 0.5) -> list:
    """Leaves of a random proper m-ary tree of depth <= `depth`: each node
    above the cap splits with probability `split`."""
    leaves, work = [], [()]
    while work:
        s = work.pop()
        if len(s) < depth and rng.random() < split:
            work += [s + (j,) for j in range(m)]
        else:
            leaves.append(s)
    return leaves


def tree_log_prior(leaves, params) -> float:
    """Log prior mass of a tree model: alpha**(|T|-1) * beta**(|T|-L_D)."""
    size = len(leaves)
    at_max_depth = sum(1 for s in leaves if len(s) == params.depth)
    return (size - 1) * log_alpha(params) + (size - at_max_depth) * params.log_beta


def tree_log_score(counts, leaves) -> float:
    """Log posterior score of the tree model with these leaves on the data
    of the count tree `counts`: its prior plus the KT score of each leaf's
    counts."""
    params = counts.params
    return tree_log_prior(leaves, params) + sum(
        b.kt_log_prob(count_vector(counts, s), params.m) for s in leaves
    )


def brute_force_evidence(seq, params) -> float:
    """Evidence by explicit enumeration: sum over every proper tree of its
    prior mass times the product of leaf-level KT likelihoods. Tractable only
    for small alphabets and shallow depth caps."""
    counts = b.CountTree.from_sequence(seq, params)
    return float(logsumexp([
        tree_log_score(counts, tree) for tree in enumerate_proper_trees(params.m, params.depth)
    ]))


def kt_log_prob_product(counts) -> float:
    """KT likelihood via the explicit running product, one factor per count."""
    a = list(int(c) for c in counts)
    m = len(a)
    val = 0.0
    for aj in a:
        for i in range(aj):
            val += math.log(i + 0.5)
    for i in range(sum(a)):
        val -= math.log(i + m / 2)
    return val


def count_contexts_by_hand(context, obs, depth, m) -> dict:
    """Transition counts by looping over every (position, depth) pair."""
    y = list(context) + list(obs)
    off = len(context)
    counts: dict[tuple, list[int]] = {}
    for i in range(len(obs)):
        sym = y[off + i]
        for d in range(depth + 1):
            s = tuple(y[off + i - k] for k in range(1, d + 1))
            counts.setdefault(s, [0] * m)[sym] += 1
    return counts


def enumerate_map_score(x, params):
    """Best posterior tree score (and the maximisers) by full enumeration."""
    counts = b.CountTree.from_sequence(x, params)
    best_score = -math.inf
    best_trees = []
    for tree in enumerate_proper_trees(params.m, params.depth):
        score = tree_log_score(counts, tree)
        if score > best_score + 1e-12:
            best_score, best_trees = score, [tree]
        elif abs(score - best_score) <= 1e-12:
            best_trees.append(tree)
    return best_score, best_trees


def model_score(x, model, params) -> float:
    return tree_log_score(b.CountTree.from_sequence(x, params), model.leaves)


def all_configs(n: int, ell_max: int):
    """Every change-point configuration with 0..ell_max interior points."""
    configs = []
    for ell in range(ell_max + 1):
        for pos in itertools.combinations(range(2, n), ell):
            configs.append(pos)
    return configs


def reference_log_posterior(x, cp, params, ell_max=None) -> float:
    """Unnormalised log posterior of `cp` by definition: the location prior,
    the count prior when `ell_max` is given, and one batch evidence build per
    segment, with no cache and no evidence rows."""
    lp = b.log_prior_positions(cp)
    if lp == -math.inf:
        return lp
    if ell_max is not None:
        lp += b.log_prior_count(cp.ell, ell_max)
    y, D = x.full_codes(), params.depth
    evidence = 0.0
    for start, end in b.partition(x, cp):
        evidence += span_log_evidence(y[start - 1 : D + end], params)
    return lp + evidence


def exhaustive_joint_posterior(x, params, ell_max):
    """Normalised posterior over all (count, locations) configurations."""
    configs = all_configs(x.n, ell_max)
    logs = np.array(
        [
            reference_log_posterior(x, b.ChangePoints(x.n, pos), params, ell_max)
            for pos in configs
        ]
    )
    probs = np.exp(logs - logsumexp(logs))
    probs[np.isneginf(logs)] = 0.0
    return configs, probs


def empirical_distribution(states, configs):
    index = {pos: i for i, pos in enumerate(configs)}
    emp = np.zeros(len(configs))
    for pos in states:
        emp[index[pos]] += 1
    return emp / emp.sum()


def total_variation(p, q) -> float:
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def window_kernel(model) -> np.ndarray:
    """Dense transition matrix of a model's chain on its length-d context
    windows (d = deepest leaf), by decoding every state and walking the tree
    with `leaf_for`. A state codes its window oldest symbol first in base m,
    so the most recent symbol is the lowest digit."""
    m, d = model.m, model.depth
    n_states = m**d
    P = np.zeros((n_states, n_states))
    for code in range(n_states):
        window = [code // m**i % m for i in range(d)][::-1]
        theta = model.theta(leaf_for(model, window))
        for j in range(m):
            P[code, j + m * (code % m ** (d - 1))] += theta[j]
    return P


def solve_stationary_dense(P: np.ndarray) -> np.ndarray:
    """Stationary law of a dense kernel with one recurrent class: the balance
    equations with the last one replaced by sum(pi) = 1, by a dense solve, or
    by least squares if that system is singular. Its last bits depend on the
    number of BLAS threads."""
    n = P.shape[0]
    A = P.T - np.eye(n)
    A[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    try:
        pi = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError:
        pi, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def exact_stationary_marginal(model) -> np.ndarray:
    """First-order symbol marginal of the window chain's stationary law, by
    Gauss-Jordan elimination in exact rational arithmetic, with each leaf's
    row first scaled to sum to 1 exactly: the slow path for ill-conditioned
    chains. Float rows sum to 1 only within rounding, which leaves the
    balance equations of such a chain inconsistent (by 2e-9 on one sparse-row
    model), so this answer belongs to the stochastic chain the rows stand
    for. The chain must have one recurrent class."""
    m = model.m
    if model.depth == 0:
        return model.theta(()).copy()
    P = [[Fraction(v) for v in row] for row in window_kernel(model)]
    n = len(P)
    totals = [sum(row) for row in P]
    # the balance equations with the last replaced by sum(pi) = 1, each with
    # its right-hand side as a last column
    A = [[P[j][i] / totals[j] - (i == j) for j in range(n)] + [0] for i in range(n - 1)]
    A.append([Fraction(1)] * (n + 1))
    for c in range(n):
        p = next(r for r in range(c, n) if A[r][c])
        A[c], A[p] = A[p], A[c]
        for r in range(n):
            if r != c and A[r][c]:
                f = A[r][c] / A[c][c]
                A[r] = [x - f * y for x, y in zip(A[r], A[c])]
    pi = [row[n] / row[c] for c, row in enumerate(A)]
    return np.array([float(sum(pi[a::m])) for a in range(m)])


def dense_stationary_marginal(model) -> np.ndarray:
    """First-order symbol marginal of `solve_stationary_dense` on the dense
    window kernel: the slow path of `stationary_marginal`."""
    m = model.m
    if model.depth == 0:
        return model.theta(()).copy()
    pi = solve_stationary_dense(window_kernel(model))
    return np.bincount(np.arange(pi.size) % m, weights=pi, minlength=m)
