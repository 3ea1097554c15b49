"""Change-point configurations, their priors, and per-series evidence.

A configuration of ell interior change-points for a length-n series is the
sorted vector p_1 < ... < p_ell with each p_i in {2,..,n-1}; the sentinels
p_0 = 1 and p_{ell+1} = n are implicit. Segment j runs from p_{j-1} up to
p_j - 1 (the last segment ends at n), and each segment's initial context is
the D symbols immediately preceding it, reaching into the previous segment or
the global initial context.

`EvidenceCache(x, params)` serves the log evidence of any segment of one
series under one set of hyperparameters; the joint evidence and the
unnormalised posterior of a configuration are sums over its segments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .sequences import Sequence, as_int
from .trees import BctHyperParams, CountTree, check_fit, evidence_row, span_log_evidence

NEG_INF = float("-inf")
CACHE_CAPACITY = 1_000_000  # evidence values an EvidenceCache keeps


@dataclass(frozen=True, slots=True)
class ChangePoints:
    """Sorted interior change-point locations for a length-n series.

    Construction enforces ordering and the {2,..,n-1} range; configurations
    with adjacent points are representable and are ruled out by the location
    prior (probability zero), not by the constructor.
    """

    n: int
    positions: tuple[int, ...] = ()

    def __post_init__(self):
        n = as_int(self.n, "n")
        if n < 1:
            raise ValueError("a series needs at least one observation")
        pos = tuple(as_int(p, "change-point") for p in self.positions)
        for p in pos:
            if not 2 <= p <= n - 1:
                raise ValueError(f"change-point {p} outside {{2,..,{n - 1}}}")
        for a, b in zip(pos, pos[1:]):
            if a >= b:
                raise ValueError("change-points must be strictly increasing")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "positions", pos)

    @property
    def ell(self) -> int:
        return len(self.positions)

    def full(self) -> tuple[int, ...]:
        """Positions with the sentinels 1 and n attached."""
        return (1,) + self.positions + (self.n,)

    def gaps(self) -> list[int]:
        """The prior weights p_{j+1} - p_j - 1 for j = 0..ell."""
        f = self.full()
        return [f[j + 1] - f[j] - 1 for j in range(len(f) - 1)]

    def replace(self, index: int, position: int) -> "ChangePoints":
        pos = list(self.positions)
        pos[index] = position
        return ChangePoints(self.n, sorted(pos))

    def insert(self, position: int) -> "ChangePoints":
        return ChangePoints(self.n, sorted(self.positions + (position,)))

    def delete(self, index: int) -> "ChangePoints":
        pos = list(self.positions)
        del pos[index]
        return ChangePoints(self.n, pos)


def partition(x: Sequence, cp: ChangePoints) -> list[tuple[int, int]]:
    """The (start, end) observation indices (1-based, inclusive) of the ell+1
    segments that `cp` cuts the series `x` into; segment j's codes, initial
    context included, are `x.segment_codes(start, end)`."""
    if cp.n != x.n:
        raise ValueError("change-points were built for a different series length")
    f = cp.full()
    return [(f[j - 1], f[j] - 1 if j < len(f) - 1 else cp.n) for j in range(1, len(f))]


def log_prior_positions(cp: ChangePoints) -> float:
    """Log prior of the locations: the even-order statistics of 2*ell+1
    uniform draws from {2,..,n-1} without replacement, which weights a
    configuration by the product of its segment gaps and gives adjacent
    change-points probability zero. Returns -inf for zero-weight
    configurations; with no change-points the prior is exactly one.
    """
    total = 0.0
    for g in cp.gaps():
        if g <= 0:
            return NEG_INF
        total += math.log(g)
    if cp.ell == 0:
        # single gap of n-2 against K_0 = n-2: exactly one
        return 0.0
    return total - _log_placements(cp.n, cp.ell)


def _log_placements(n: int, ell: int) -> float:
    """log C(n-2, 2*ell+1), the prior's normaliser for ell change-points;
    needs n - 2*ell - 2 >= 1, as gaps all >= 1 guarantee."""
    return math.lgamma(n - 1) - math.lgamma(2 * ell + 2) - math.lgamma(n - 2 * ell - 2)


def log_prior_count(ell: int, ell_max: int) -> float:
    """Uniform prior over {0,..,ell_max} for the number of change-points."""
    if ell_max < 0:
        raise ValueError("ell_max must be nonnegative")
    if not 0 <= ell <= ell_max:
        raise ValueError(f"ell={ell} outside {{0,..,{ell_max}}}")
    return -math.log1p(ell_max)


class EvidenceCache:
    """Per-segment log evidence of the series `x` under one set of
    hyperparameters, kept in a dict keyed by (start, end).

    The dict holds at most `CACHE_CAPACITY` (10**6) values, and a store that
    finds it full empties it. Chains keep far fewer: 1,226 on the benchmark
    chain, 16,404 over 20,000 ternary iterations. A chain past the cap misses
    each segment it still visits once more; evicting the oldest key instead
    would scan the dict's deleted slots on each store.

    A local move alters at most two segments, so nearly every factor of the
    joint evidence is a hit. `spans` serves all the segments of one
    configuration: it looks each one up, then fills the misses. A miss on a
    segment that starts at 1 or ends at n is read off the forward or reverse
    evidence row of the whole series (n floats each, built from
    `x.full_codes()` at the first such miss). Two misses on consecutive
    segments that both stay clear of the series ends, as a moved
    change-point between them leaves, are counted in one build of
    `x.segment_codes` over both, cut into two parts at their boundary; any
    other miss is counted afresh from `x.segment_codes(start, end)`. All
    three give the same value bit for bit.
    """

    def __init__(self, x: Sequence, params: BctHyperParams):
        check_fit(x, params)
        self.x = x
        self._params = params
        self._store: dict[tuple[int, int], float] = {}
        self._rows: dict[bool, np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self):
        return len(self._store)

    def lookup(self, key):
        value = self._store.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def store(self, key, value: float):
        if len(self._store) >= CACHE_CAPACITY:
            self._store.clear()
        self._store[key] = value

    def spans(self, segments) -> list[float]:
        """Log evidence of each (start, end) segment of observations (1-based,
        inclusive), in order: one lookup per segment, then one store per
        miss."""
        values = [self.lookup(key) for key in segments]
        missed = [j for j, value in enumerate(values) if value is None]
        x, params = self.x, self._params
        for j in missed:
            if values[j] is not None:  # the second part of a pair
                continue
            start, end = segments[j]
            after = segments[j + 1] if j + 1 < len(values) and values[j + 1] is None else None
            if start == 1 or end == x.n:
                reverse = start != 1
                row = self._rows.get(reverse)
                if row is None:
                    row = self._rows[reverse] = evidence_row(x.full_codes(), params, reverse)
                values[j] = row[start - 1 if reverse else end - 1]
            elif after is not None and after[0] == end + 1 and after[1] != x.n:
                codes = x.segment_codes(start, after[1])
                tree = CountTree.from_arrays(codes, params, (end - start + 1,))
                values[j : j + 2] = tree.part_log_evidence()
            else:
                values[j] = span_log_evidence(x.segment_codes(start, end), params)
        for j in missed:
            self.store(segments[j], values[j])
        return values

    @property
    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._store),
            "rows": len(self._rows),
        }


def log_joint_evidence(cp: ChangePoints, evidence: EvidenceCache) -> float:
    """Sum of the per-segment log evidences, in segment order."""
    # added one by one, left to right: from Python 3.12 on, sum() of floats
    # is compensated and would change the last bits
    total = 0.0
    for value in evidence.spans(partition(evidence.x, cp)):
        total += value
    return total


def log_posterior_unnorm(
    cp: ChangePoints, evidence: EvidenceCache, ell_max: int | None = None
) -> float:
    """Unnormalised log posterior of (positions[, count]); -inf propagates.

    With `ell_max` given, the uniform count prior is included (the unknown-ell
    model); without it the count is treated as fixed and its constant prior
    term is dropped.
    """
    lp = log_prior_positions(cp)
    if lp == NEG_INF:
        return NEG_INF
    if ell_max is not None:
        lp += log_prior_count(cp.ell, ell_max)
    return lp + log_joint_evidence(cp, evidence)


def exact_single_cp_posterior(x: Sequence, params: BctHyperParams) -> np.ndarray:
    """Exact posterior of a single change-point location.

    Returns the probability vector over p in {2,..,n-1} (index 0 holds p=2).
    Feasible because the single-change-point evidence factorises into just
    two segments per candidate position, 1..p-1 and p..n. Each of those
    segments occurs for one position only, so nothing is cached: one build
    of `x.full_codes()` cut into two parts before observation p scores both
    segments, bit for bit as two builds of their own codes would. Only the
    positions with prior mass, p in {3,..,n-2}, are scored, each with the
    closed-form prior (p-2)(n-p-1) / C(n-2, 3), which equals
    `log_prior_positions` bit for bit; p = 2 and p = n-1 come out exactly
    zero. Both gaps around the change-point must be at least 1, so below
    five observations no position has prior mass.
    """
    check_fit(x, params)
    n = x.n
    if n < 5:
        raise ValueError("need at least five observations")
    codes = x.full_codes()
    log_k = _log_placements(n, 1)
    logs = np.full(n - 2, NEG_INF)
    for p in range(3, n - 1):
        left, right = CountTree.from_arrays(codes, params, (p - 1,)).part_log_evidence()
        logs[p - 2] = ((math.log(p - 2) + math.log(n - p - 1)) - log_k) + (left + right)
    norm = logsumexp(logs)
    return np.exp(logs - norm)
