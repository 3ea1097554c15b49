"""Independent oracles shared by the test modules.

Everything here recomputes quantities by direct definition (products,
enumerations, per-position loops) so the library's recursions are checked
against a separate code path.
"""

import itertools
import math

import numpy as np
from scipy.special import logsumexp

import bctseg as b


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
    for tree in b.enumerate_proper_trees(params.m, params.depth):
        score = b.tree_log_prior(tree, params) + sum(
            b.kt_log_prob(counts.count_vector(s)) for s in tree
        )
        if score > best_score + 1e-12:
            best_score, best_trees = score, [tree]
        elif abs(score - best_score) <= 1e-12:
            best_trees.append(tree)
    return best_score, best_trees


def model_score(x, model, params) -> float:
    counts = b.CountTree.from_sequence(x, params)
    return b.tree_log_prior(model.leaves, params) + sum(
        b.kt_log_prob(counts.count_vector(s)) for s in model.leaves
    )


def all_configs(n: int, ell_max: int):
    """Every change-point configuration with 0..ell_max interior points."""
    configs = []
    for ell in range(ell_max + 1):
        for pos in itertools.combinations(range(2, n), ell):
            configs.append(pos)
    return configs


def exhaustive_joint_posterior(x, params, ell_max):
    """Normalised posterior over all (count, locations) configurations."""
    configs = all_configs(x.n, ell_max)
    logs = np.array(
        [
            b.log_posterior_unnorm(x, b.ChangePoints(x.n, pos), params, ell_max=ell_max)
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
        theta = model.theta(model.leaf_for(window))
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


def dense_stationary_marginal(model) -> np.ndarray:
    """First-order symbol marginal of `solve_stationary_dense` on the dense
    window kernel: the slow path of `stationary_marginal`."""
    m = model.m
    if model.depth == 0:
        return model.theta(()).copy()
    pi = solve_stationary_dense(window_kernel(model))
    return np.bincount(np.arange(pi.size) % m, weights=pi, minlength=m)
