"""Change-point configurations, their priors, and cached joint evidence.

A configuration of ell interior change-points for a length-n series is the
sorted vector p_1 < ... < p_ell with each p_i in {2,..,n-1}; the sentinels
p_0 = 1 and p_{ell+1} = n are implicit. Segment j runs from p_{j-1} up to
p_j - 1 (the last segment ends at n), and each segment's initial context is
the D symbols immediately preceding it, reaching into the previous segment or
the global initial context.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .sequences import Sequence
from .trees import BctHyperParams, evidence_row, span_log_evidence

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
        n = int(self.n)
        if n < 1:
            raise ValueError("a series needs at least one observation")
        pos = tuple(int(p) for p in self.positions)
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


@dataclass(frozen=True)
class SegmentView:
    """One homogeneous stretch of the observations with its initial context.

    start/end are 1-based observation indices, both inclusive. The context
    and observation arrays are views into the parent sequence.
    """

    index: int
    start: int
    end: int
    context: np.ndarray
    observations: np.ndarray

    @property
    def length(self) -> int:
        return self.end - self.start + 1


def segment_spans(cp: ChangePoints) -> list[tuple[int, int]]:
    """(start, end) observation-index pairs of the ell+1 segments."""
    f = cp.full()
    spans = []
    for j in range(1, len(f)):
        start = f[j - 1]
        end = f[j] - 1 if j < len(f) - 1 else cp.n
        spans.append((start, end))
    return spans


def partition(x: Sequence, cp: ChangePoints) -> list[SegmentView]:
    """Split the observations into the ell+1 segments defined by `cp`."""
    if cp.n != x.n:
        raise ValueError("change-points were built for a different series length")
    D = x.depth
    y = x.full_codes()
    views = []
    for j, (start, end) in enumerate(segment_spans(cp), start=1):
        views.append(
            SegmentView(
                index=j,
                start=start,
                end=end,
                context=y[start - 1 : start - 1 + D],
                observations=y[D + start - 1 : D + end],
            )
        )
    return views


def log_gap_product(cp: ChangePoints) -> float:
    """Log of the product of the segment gaps; -inf when any gap is zero."""
    total = 0.0
    for g in cp.gaps():
        if g <= 0:
            return NEG_INF
        total += math.log(g)
    return total


def log_prior_positions(cp: ChangePoints) -> float:
    """Log prior of the locations: the even-order statistics of 2*ell+1
    uniform draws from {2,..,n-1} without replacement, which weights a
    configuration by the product of its segment gaps and gives adjacent
    change-points probability zero. Returns -inf for zero-weight
    configurations; with no change-points the prior is exactly one.
    """
    total = log_gap_product(cp)
    if total == NEG_INF:
        return NEG_INF
    ell = cp.ell
    if ell == 0:
        # single gap of n-2 against K_0 = n-2: exactly one
        return 0.0
    # log C(n-2, 2*ell+1); gaps all >= 1 guarantee n - 2*ell - 2 >= 1
    log_k = (
        math.lgamma(cp.n - 1)
        - math.lgamma(2 * ell + 2)
        - math.lgamma(cp.n - 2 * ell - 2)
    )
    return total - log_k


def log_prior_count(ell: int, ell_max: int) -> float:
    """Uniform prior over {0,..,ell_max} for the number of change-points."""
    if ell_max < 0:
        raise ValueError("ell_max must be nonnegative")
    if not 0 <= ell <= ell_max:
        raise ValueError(f"ell={ell} outside {{0,..,{ell_max}}}")
    return -math.log1p(ell_max)


class EvidenceCache:
    """LRU cache of per-segment log evidence values keyed by (start, end).

    Keys assume one series, fixed depth and fixed hyperparameters for the
    lifetime of the cache; use a new cache whenever those change. A local
    move alters at most two segments, so nearly every factor of the joint
    evidence is a cache hit. The cache also holds up to two evidence rows,
    of n floats each, that serve the misses on segments at the series ends.
    """

    def __init__(self):
        self._store: OrderedDict[tuple[int, int], float] = OrderedDict()
        self._rows: dict[bool, object] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self):
        return len(self._store)

    def lookup(self, key):
        store = self._store
        if key in store:
            store.move_to_end(key)
            self.hits += 1
            return store[key]
        self.misses += 1
        return None

    def store(self, key, value: float):
        store = self._store
        store[key] = value
        store.move_to_end(key)
        while len(store) > CACHE_CAPACITY:
            store.popitem(last=False)

    def row(self, codes: np.ndarray, params: BctHyperParams, reverse: bool):
        """`evidence_row(codes, params, reverse)` of the whole series, built
        on the first call for each direction."""
        row = self._rows.get(reverse)
        if row is None:
            row = self._rows[reverse] = evidence_row(codes, params, reverse)
        return row

    @property
    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._store),
            "rows": len(self._rows),
        }


def log_joint_evidence(
    x: Sequence,
    cp: ChangePoints,
    params: BctHyperParams,
    cache: EvidenceCache | None = None,
) -> float:
    """Sum of per-segment log evidences, fetched from the cache when present.

    A cache miss on a segment that starts at 1 or ends at n is read off the
    cache's forward or reverse evidence row of the whole series; any other
    segment is counted afresh. Both give the same value bit for bit.
    """
    if x.depth != params.depth:
        raise ValueError("sequence context length must equal params.depth")
    y = x.full_codes()
    D = params.depth
    total = 0.0
    for start, end in segment_spans(cp):
        if cache is None:
            total += span_log_evidence(y[start - 1 : D + end], params)
            continue
        key = (start, end)
        value = cache.lookup(key)
        if value is None:
            if start == 1:
                value = cache.row(y, params, reverse=False)[end - 1]
            elif end == cp.n:
                value = cache.row(y, params, reverse=True)[start - 1]
            else:
                value = span_log_evidence(y[start - 1 : D + end], params)
            cache.store(key, value)
        total += value
    return total


def log_posterior_unnorm(
    x: Sequence,
    cp: ChangePoints,
    params: BctHyperParams,
    cache: EvidenceCache | None = None,
    ell_max: int | None = None,
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
    return lp + log_joint_evidence(x, cp, params, cache)


def exact_single_cp_posterior(x: Sequence, params: BctHyperParams) -> np.ndarray:
    """Exact posterior of a single change-point location.

    Returns the probability vector over p in {2,..,n-1} (index 0 holds p=2).
    Positions with zero prior weight come out exactly zero. Feasible because
    the single-change-point evidence factorises into just two segments per
    candidate position. Each of those segments occurs for one position only,
    so no evidence value is cached. Both gaps around the change-point must
    be at least 1, so below five observations no position has prior mass.
    """
    n = x.n
    if n < 5:
        raise ValueError("need at least five observations")
    logs = np.full(n - 2, NEG_INF)
    for p in range(2, n):
        cp = ChangePoints(n, (p,))
        lp = log_prior_positions(cp)
        if lp == NEG_INF:
            continue
        logs[p - 2] = lp + log_joint_evidence(x, cp, params)
    norm = logsumexp(logs)
    return np.exp(logs - norm)
