"""Metropolis-Hastings sampler over change-point configurations.

With a known number of change-points the chain moves a single point, either
by a uniform jump to an unoccupied position or by a +-1 random-walk step.
With an unknown number it adds birth and death moves. Each state is scored
once, by `log_posterior_unnorm` when it is proposed, and an accepted
candidate carries its score forward. The log acceptance ratio is the
candidate's score minus the current one, plus the log proposal ratio of
`log_move_correction`, which is zero whenever the count is unchanged; both
modes share it.

Each chain owns one seeded generator, and every iteration draws from it in a
fixed order: move-type choice, index/position draws, then the accept coin.
Runs are therefore reproducible given the seed. A `Trace` keeps a chain's
states and sparse histograms, which grow with the states it visits, not with
n; `summarize(*traces)` adds them up over chains and reads the MAP estimate.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .changepoints import (
    NEG_INF,
    ChangePoints,
    EvidenceCache,
    # not called here: bench/tracer.py wraps the joint evidence under this
    # name, until the benchmark reads counters the library keeps itself
    log_joint_evidence,  # noqa: F401
    log_posterior_unnorm,
)
from .sequences import Sequence, as_int
from .trees import BctHyperParams

# a chain that would retain more samples keeps only its histograms
STREAMING_STATE_LIMIT = 10_000_000


@dataclass(frozen=True)
class McmcConfig:
    """Sampler settings: iteration budget, burn-in, seed and thinning, plus
    exactly one of `num_changes` (known count) or `ell_max` (unknown count,
    requires ell_max >= 2). The model is `run`'s own argument."""

    iterations: int
    burn_in: int
    seed: int | np.random.SeedSequence
    num_changes: int | None = None
    ell_max: int | None = None
    thinning: int = 1

    def __post_init__(self):
        for name in ("iterations", "burn_in", "thinning", "num_changes", "ell_max"):
            value = getattr(self, name)
            if value is not None or name not in ("num_changes", "ell_max"):
                object.__setattr__(self, name, as_int(value, name))
        if self.iterations < 1:
            raise ValueError("need at least one iteration")
        if not 0 <= self.burn_in < self.iterations:
            raise ValueError("burn-in must be smaller than the iteration count")
        if self.thinning < 1:
            raise ValueError("thinning must be positive")
        if (self.num_changes is None) == (self.ell_max is None):
            raise ValueError("set exactly one of num_changes and ell_max")
        if self.num_changes is not None and self.num_changes < 1:
            raise ValueError("num_changes must be at least 1")
        if self.ell_max is not None and self.ell_max < 2:
            raise ValueError("ell_max must be at least 2")

    @property
    def fixed_mode(self) -> bool:
        return self.num_changes is not None


class Trace:
    """One chain's retained states and what `summarize` reports, in the shape
    it reports it: `Counter`s of the change-point count (`ell_hist`), of the
    positions (`loc_hist`), of the (k+1)-th position among samples with ell
    points (`rank_hists[ell][k]`), and of proposed and accepted moves by type.

    Row k of `states` is iteration `burn_in + k * thinning`; no states are
    kept when the chain would retain more than `STREAMING_STATE_LIMIT`
    samples. `note_score` tracks the best visited state, and `run` leaves the
    final `stats` of the chain's `EvidenceCache` in `cache_stats`.
    """

    def __init__(self, burn_in: int = 0, thinning: int = 1, store_states: bool = True):
        self.burn_in = burn_in
        self.thinning = thinning
        self.states: list[tuple[int, ...]] | None = [] if store_states else None
        self.ell_hist: Counter[int] = Counter()
        self.loc_hist: Counter[int] = Counter()
        self.rank_hists: dict[int, list[Counter[int]]] = {}
        self.proposed: Counter[str] = Counter()
        self.accepted: Counter[str] = Counter()
        self.best_state: tuple[int, ...] | None = None
        self.best_log_post = NEG_INF
        self.cache_stats: dict = {}

    @property
    def retained(self) -> int:
        return sum(self.ell_hist.values())

    def record(self, cp: ChangePoints):
        pos = cp.positions
        ell = len(pos)
        self.ell_hist[ell] += 1
        self.loc_hist.update(pos)
        if ell not in self.rank_hists:
            self.rank_hists[ell] = [Counter() for _ in pos]
        for hist, p in zip(self.rank_hists[ell], pos):
            hist[p] += 1
        if self.states is not None:
            self.states.append(pos)

    def note_score(self, cp: ChangePoints, log_post: float):
        if log_post > self.best_log_post:
            self.best_log_post = log_post
            self.best_state = cp.positions

    def write_csv(self, fh):
        """Rows iteration,ell,p_1,..,p_ell (ragged; no header)."""
        if self.states is None:
            raise ValueError("trace ran in streaming mode; no states stored")
        for k, pos in enumerate(self.states):
            fields = [str(self.burn_in + k * self.thinning), str(len(pos))]
            fh.write(",".join(fields + [str(p) for p in pos]) + "\n")


@dataclass
class Summary:
    """Posterior summaries extracted from a trace."""

    ell_hist: dict[int, int]
    loc_hist: dict[int, int]
    cond_hists: list[dict[int, int]]
    map_ell: int
    map_positions: tuple[int, ...]
    acceptance_rates: dict[str, float]
    retained: int

    def to_json_obj(self) -> dict:
        return {
            "ell_hist": {str(k): v for k, v in sorted(self.ell_hist.items())},
            "loc_hist": {str(k): v for k, v in sorted(self.loc_hist.items())},
            "cond_hists": [
                {str(k): v for k, v in sorted(h.items())} for h in self.cond_hists
            ],
            "map": {"ell": self.map_ell, "positions": list(self.map_positions)},
            "acceptance_rates": self.acceptance_rates,
            "retained": self.retained,
        }


# ------------------------------------------------------------------ proposals


def _free_position(cp: ChangePoints, rng) -> int:
    """A uniform draw from {2,..,n-1} minus the occupied positions."""
    free = cp.n - cp.ell - 2
    if free < 1:
        raise ValueError("no unoccupied positions available")
    candidate = 2 + int(rng.integers(free))
    for p in cp.positions:
        if candidate >= p:
            candidate += 1
    return candidate


def propose_fixed(cp: ChangePoints, rng) -> tuple[ChangePoints, str]:
    """Candidate that differs from `cp` in one point, tagged "jump" or
    "walk". The proposal is symmetric, so it adds no term to the acceptance
    ratio."""
    ell = cp.ell
    if ell < 1:
        raise ValueError("the fixed-count proposal needs at least one change-point")
    i = int(rng.integers(ell))
    if rng.random() < 0.5:
        return cp.replace(i, _free_position(cp, rng)), "jump"
    delta = 1 if rng.random() < 0.5 else -1
    target = cp.positions[i] + delta
    occupied = target in cp.positions
    if target < 2 or target > cp.n - 1 or occupied:
        # reachable only from zero-prior states; propose the state unchanged
        # (a guaranteed self-transition) so the kernel stays symmetric
        return cp, "walk"
    return cp.replace(i, target), "walk"


def _move_menu(ell: int, ell_max: int) -> tuple[float, float]:
    """P(death) and P(birth) at ell change-points; the rest is a within-count
    move. Birth is forced from zero change-points, the three moves are equally
    likely strictly inside {1,..,ell_max-1}, and at the cap a coin picks
    death or within."""
    if ell == 0:
        return 0.0, 1.0
    if ell < ell_max:
        return 1 / 3, 1 / 3
    return 0.5, 0.0


def propose_variable(
    cp: ChangePoints, ell_max: int, rng
) -> tuple[ChangePoints, str]:
    """Birth/death/within-count candidate drawn from `_move_menu`; no draw
    picks the move when birth is forced."""
    ell = cp.ell
    p_death, p_birth = _move_menu(ell, ell_max)
    if p_birth == 1.0:
        move = "birth"
    else:
        u = rng.random()
        move = "death" if u < p_death else ("birth" if u < p_death + p_birth else "within")

    if move == "birth":
        return cp.insert(_free_position(cp, rng)), "birth"
    if move == "death":
        return cp.delete(int(rng.integers(ell))), "death"
    cand, _ = propose_fixed(cp, rng)
    return cand, "within"


# ------------------------------------------------------------ acceptance


def log_move_correction(ell: int, ell_new: int, n: int, ell_max: int | None) -> float:
    """Log proposal ratio of a move from ell to ell_new change-points, the
    term the acceptance ratio adds to the difference of the two states'
    `log_posterior_unnorm` scores. A birth from k to k+1 change-points
    contributes P(death at k+1)/(k+1) over P(birth at k)/(n-k-2), the
    proposal probabilities of the reverse and forward moves; a death is the
    negative of the birth it undoes. A within-count move adds zero, so the
    known-count chain passes `ell_max=None`. Raises on a count change the
    move menu cannot produce."""
    if ell_new == ell:
        return 0.0
    if abs(ell_new - ell) != 1:
        raise ValueError(
            f"no acceptance case for a move from ell={ell} to ell={ell_new}; "
            "the proposal and the ratio are out of sync"
        )
    k = min(ell, ell_new)
    p_birth = _move_menu(k, ell_max)[1]
    p_death = _move_menu(k + 1, ell_max)[0]
    birth = math.log(p_death * (n - k - 2)) - math.log(p_birth * (k + 1))
    return birth if ell_new > ell else -birth


# ------------------------------------------------------------------ driver


def equispaced_positions(n: int, ell: int) -> tuple[int, ...]:
    """Roughly evenly spread initial change-points with positive prior mass
    (gaps of at least two, clear of the boundary)."""
    if ell < 1:
        return ()
    if ell > (n - 3) // 2:
        raise ValueError(f"cannot place {ell} change-points in a series of length {n}")
    pos = [1 + round(i * (n - 1) / (ell + 1)) for i in range(1, ell + 1)]
    pos[0] = max(pos[0], 3)
    for i in range(1, ell):
        pos[i] = max(pos[i], pos[i - 1] + 2)
    pos[-1] = min(pos[-1], n - 2)
    for i in range(ell - 2, -1, -1):
        pos[i] = min(pos[i], pos[i + 1] - 2)
    return tuple(pos)


def initial_state(x: Sequence, config: McmcConfig) -> ChangePoints:
    """Fixed mode starts from equispaced points; the unknown-count chain
    starts from the empty configuration, exercising the forced-birth case
    immediately and making runs easy to reproduce."""
    if config.fixed_mode:
        return ChangePoints(x.n, equispaced_positions(x.n, config.num_changes))
    return ChangePoints(x.n)


def run(x: Sequence, params: BctHyperParams, config: McmcConfig) -> Trace:
    """Run one chain on the series `x` under the model `params` and return
    its trace. Deterministic given the seed."""
    evidence = EvidenceCache(x, params)
    cap = config.num_changes if config.fixed_mode else config.ell_max
    if cap > (x.n - 3) // 2:
        raise ValueError(f"{cap} change-points do not fit in a series of length {x.n}")

    rng = np.random.default_rng(config.seed)
    ell_max = config.ell_max

    state = initial_state(x, config)
    log_post = log_posterior_unnorm(state, evidence, ell_max)
    if log_post == NEG_INF:
        raise ValueError("initial state has zero prior probability")

    kept = range(config.burn_in, config.iterations, config.thinning)
    trace = Trace(config.burn_in, config.thinning, len(kept) <= STREAMING_STATE_LIMIT)
    trace.note_score(state, log_post)

    for t in range(config.iterations):
        if config.fixed_mode:
            candidate, move = propose_fixed(state, rng)
        else:
            candidate, move = propose_variable(state, ell_max, rng)
        trace.proposed[move] += 1
        candidate_log_post = log_posterior_unnorm(candidate, evidence, ell_max)
        log_r = candidate_log_post - log_post + log_move_correction(
            state.ell, candidate.ell, x.n, ell_max
        )
        # one accept coin per iteration, drawn even when the move is certain
        u = rng.random()
        if log_r >= 0 or u < math.exp(log_r):
            state, log_post = candidate, candidate_log_post
            trace.accepted[move] += 1
            trace.note_score(state, log_post)
        if t in kept:
            trace.record(state)
    trace.cache_stats = evidence.stats
    return trace


def summarize(*traces: Trace) -> Summary:
    """Histograms and MAP readout pooled over the traces of one or more
    chains: histograms, per-rank histograms and move counts are summed.

    The count estimate is the histogram mode (ties to the smaller count); the
    location estimates are the per-rank marginal modes among the samples with
    that count (ties to the earlier position), change-points matched to
    clusters by rank order.
    """
    ell_hist = sum((tr.ell_hist for tr in traces), Counter())
    loc_hist = sum((tr.loc_hist for tr in traces), Counter())
    proposed = sum((tr.proposed for tr in traces), Counter())
    accepted = sum((tr.accepted for tr in traces), Counter())
    if not ell_hist:
        raise ValueError("empty trace")
    map_ell = _mode(ell_hist)
    ranks = [tr.rank_hists[map_ell] for tr in traces if map_ell in tr.rank_hists]
    by_rank = [sum(hists, Counter()) for hists in zip(*ranks)]
    return Summary(
        ell_hist=dict(sorted(ell_hist.items())),
        loc_hist=dict(sorted(loc_hist.items())),
        cond_hists=[dict(sorted(hist.items())) for hist in by_rank],
        map_ell=map_ell,
        map_positions=tuple(map(_mode, by_rank)),
        # key order follows first proposal: summary.json keeps it unsorted
        acceptance_rates={move: accepted[move] / c for move, c in proposed.items()},
        retained=sum(ell_hist.values()),
    )


def _mode(hist: Counter) -> int:
    """The most frequent key, the smallest among ties."""
    return min(hist, key=lambda key: (-hist[key], key))
