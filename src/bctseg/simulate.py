"""Generation of piece-wise homogeneous variable-memory chains and
stationary-distribution analysis of fitted tree models.

Draw rule: the next symbol is the first j with theta_0 + ... + theta_j > u
for a uniform u in [0, 1), capped at m - 1 (a row's cumulative sum can round
below 1). A chain takes its uniforms from one `np.random.default_rng(seed)`
stream, one double per symbol, in order. `generate_piecewise` draws them
DRAW_CHUNK at a time with `rng.random(k)`, the same doubles as k scalar
`rng.random()` calls, and finds each symbol's leaf by walking a nested dict
of the segment's tree, built once per segment with each leaf's cumulative row
in its place. `sample_next` applies the rule one step at a time; the tests
check that a loop of it gives `generate_piecewise`'s output bit for bit.

The stationary analysis solves the sparse context-window kernel with one
recurrent state's probability pinned to 1, by SuperLU (see
`stationary_marginal`), so no dense matrix is formed and the result does not
depend on the number of BLAS threads. scipy.sparse is imported inside it, its
only user, so generating, fitting and segmenting do not load it through this
module.
"""

from __future__ import annotations

import bisect
import operator
from dataclasses import dataclass

import numpy as np

from .sequences import Alphabet, Sequence
from .trees import TreeModel, parse_context_string

MAX_STATES = 1_000_000  # largest context state space stationary_marginal solves
POWER_TOL = 1e-12  # max-norm step at which power iteration has converged
POWER_MAX_ITER = 1_000_000
DRAW_CHUNK = 4096  # uniforms drawn at a time by generate_piecewise


class NumericalError(RuntimeError):
    """A numerical routine failed to produce a trustworthy result."""


@dataclass(frozen=True)
class SegmentSpec:
    """A generating tree model (with leaf parameters) and a segment length."""

    model: TreeModel
    length: int

    def __post_init__(self):
        if self.model.params is None:
            raise ValueError("segment models need parameters on every leaf")
        if self.length < 1:
            raise ValueError("segment length must be positive")


@dataclass(frozen=True)
class PiecewiseSpec:
    """Recipe for a piece-wise homogeneous chain: alphabet, memory cap,
    ordered segment specs, a global initial context (default all zeros),
    and a seed."""

    alphabet: Alphabet
    depth: int
    segments: tuple[SegmentSpec, ...]
    initial_context: tuple[int, ...] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError("depth must be nonnegative")
        if not self.segments:
            raise ValueError("need at least one segment")
        segs = tuple(self.segments)
        object.__setattr__(self, "segments", segs)
        for spec in segs:
            if spec.model.m != self.alphabet.size:
                raise ValueError("segment model alphabet mismatch")
            if spec.model.depth > self.depth:
                raise ValueError("segment model deeper than the configured depth")
        ctx = self.initial_context
        if ctx is None:
            ctx = (0,) * self.depth
        ctx = tuple(_spec_int(c, "initial_context entry") for c in ctx)
        if len(ctx) != self.depth:
            raise ValueError("initial context length must equal the depth")
        for c in ctx:
            if not 0 <= c < self.alphabet.size:
                raise ValueError("initial context symbol outside the alphabet")
        object.__setattr__(self, "initial_context", ctx)

    def change_points(self) -> tuple[int, ...]:
        """Implied true change-point locations: segment j starts at p_{j-1}."""
        points = []
        running = 1
        for spec in self.segments[:-1]:
            running += spec.length
            points.append(running)
        return tuple(points)


def sample_next(model: TreeModel, history, rng) -> int:
    """Draw the next symbol: walk the tree along the most recent symbols of
    `history` (oldest first) to a leaf and sample from its distribution,
    with one `rng.random()`."""
    theta = model.theta(model.leaf_for(history))
    u = rng.random()
    j = int(np.searchsorted(np.cumsum(theta), u, side="right"))
    return min(j, model.m - 1)


def generate_piecewise(spec: PiecewiseSpec) -> tuple[Sequence, tuple[int, ...]]:
    """Emit the segments in order, each continuing from the previous tail,
    and return the concatenated sequence with the true change-points."""
    rng = np.random.default_rng(spec.seed)
    history: list[int] = list(spec.initial_context)
    for seg in spec.segments:
        tree = _cumulative_rows(seg.model, ())
        last = seg.model.m - 1
        for start in range(0, seg.length, DRAW_CHUNK):
            for u in rng.random(min(DRAW_CHUNK, seg.length - start)).tolist():
                # the history holds at least spec.depth >= model depth symbols
                node, k = tree, len(history)
                while type(node) is dict:
                    k -= 1
                    node = node[history[k]]
                history.append(min(bisect.bisect_right(node, u), last))
    seq = Sequence(spec.alphabet, spec.initial_context, history[spec.depth :])
    return seq, spec.change_points()


def _cumulative_rows(model: TreeModel, s: tuple[int, ...]):
    """The subtree of `model` below context `s` as nested dicts keyed by the
    next older symbol, with each leaf's cumulative row (a list) in its place."""
    if s in model.leaves:
        return np.cumsum(model.theta(s)).tolist()
    return {j: _cumulative_rows(model, s + (j,)) for j in range(model.m)}


def stationary_marginal(model: TreeModel) -> np.ndarray:
    """First-order symbol marginal of the stationary law of a fitted model.

    The chain runs on length-d context windows (d = deepest leaf), with a
    sparse kernel P of m entries per row. Up to 4,096 states the balance
    equations (I - P)^T pi = 0 are solved with pi_r = 1 for one state r of
    the recurrent class: row and column r are deleted, column r becomes the
    right-hand side, and SuperLU factors the nonsingular rest. Larger state
    spaces use power iteration. Raises NumericalError when the kernel has no
    unique stationary distribution, the state space exceeds the cap, the
    factorisation fails, or the solution's residual is above 1e-9.
    """
    import scipy.sparse as sparse
    from scipy.sparse.linalg import splu

    if model.params is None:
        raise ValueError("stationary analysis needs a model with parameters")
    m, d = model.m, model.depth
    if d == 0:
        return model.theta(()).copy()
    n_states = m**d
    if n_states > MAX_STATES:
        raise NumericalError(f"context state space too large ({n_states} states)")

    # state code: the window oldest first in base m, so the most recent
    # symbol is the lowest digit and the states that leaf s selects are those
    # whose len(s) lowest digits spell s
    theta = np.empty((n_states, m))
    for s in model.leaves:
        k = len(s)
        low = sum(c * m**i for i, c in enumerate(s))
        theta.reshape(m ** (d - k), m**k, m)[:, low, :] = model.theta(s)
    drop_oldest = np.arange(n_states) % (m ** (d - 1))
    successors = np.stack([j + m * drop_oldest for j in range(m)], axis=1)

    rows = np.repeat(np.arange(n_states), m)
    cols = successors.ravel()
    vals = theta.ravel()
    kernel = sparse.csr_matrix((vals, (rows, cols)), shape=(n_states, n_states))

    r = _require_unique_recurrent_class(kernel)

    if n_states <= 4096:
        # pinning a recurrent state makes the reduced system nonsingular; a
        # row of ones for the normalisation would instead be dense, and gave
        # 1.5-1.7 times the entries in SuperLU's factors on random m = 4
        # models. The right-hand side, minus column r of (I - P)^T, is row r
        # of P.
        keep = np.delete(np.arange(n_states), r)
        reduced = (sparse.identity(n_states, format="csr") - kernel)[keep][:, keep]
        try:
            solved = splu(reduced.T).solve(kernel[[r]].toarray()[0, keep])
        except RuntimeError as exc:
            raise NumericalError(f"stationary solve failed: {exc}") from None
        pi = np.clip(np.insert(solved, r, 1.0), 0.0, None)
        pi /= pi.sum()
    else:
        pi = _power_iteration(kernel, n_states)

    residual = np.abs(pi @ kernel - pi).max()
    if residual > 1e-9:
        raise NumericalError(f"stationary solve residual {residual:.3e} too large")

    marginal = np.zeros(m)
    np.add.at(marginal, np.arange(n_states) % m, pi)
    return marginal


def _require_unique_recurrent_class(kernel) -> int:
    """Raise NumericalError unless the sparse kernel has exactly one
    recurrent class, and return one state of it: the last state of that
    class (the last state overall when the chain is irreducible)."""
    from scipy.sparse.csgraph import connected_components

    positive = kernel > 0
    n_comp, labels = connected_components(positive, connection="strong")
    if n_comp == 1:
        return kernel.shape[0] - 1
    # recurrent classes are the strongly connected components with no exits;
    # only positive-probability edges count, not stored zeros
    edges = positive.tocoo()
    src, dst = labels[edges.row], labels[edges.col]
    recurrent = np.setdiff1d(np.arange(n_comp), src[src != dst])
    if recurrent.size != 1:
        raise NumericalError(
            "the fitted chain has no unique stationary distribution "
            f"({recurrent.size} recurrent classes)"
        )
    return int(np.flatnonzero(labels == recurrent[0])[-1])


def _power_iteration(kernel, n_states):
    pi = np.full(n_states, 1.0 / n_states)
    for _ in range(POWER_MAX_ITER):
        new = pi @ kernel
        if np.abs(new - pi).max() <= POWER_TOL:
            return new
        pi = new
    raise NumericalError("power iteration did not converge")


# ----------------------------------------------------------- spec (de)serialisation


def model_from_table(alphabet: Alphabet, table: dict[str, list[float]]) -> TreeModel:
    """Tree model from a mapping of leaf-context strings to probability rows."""
    params = {parse_context_string(s, alphabet): vec for s, vec in table.items()}
    return TreeModel(alphabet.size, params.keys(), params)


def piecewise_spec_from_json(obj: dict) -> PiecewiseSpec:
    """Parse the generation-spec JSON layout:
    {"alphabet": [...], "D": int, "segments": [{"contexts": {...},
    "length": int}, ...], "seed": int, "initial_context": "..."}. Each int
    field must hold an integer: a float or a bool raises ValueError."""
    alpha = obj["alphabet"]
    alphabet = Alphabet.of_size(alpha) if isinstance(alpha, int) else Alphabet(alpha)
    depth = _spec_int(obj.get("D", obj.get("depth", 0)), "D")
    segments = tuple(
        SegmentSpec(model_from_table(alphabet, seg["contexts"]),
                    _spec_int(seg["length"], "length"))
        for seg in obj["segments"]
    )
    ctx = obj.get("initial_context")
    if ctx is not None:
        # the context string reads chronologically, oldest symbol first
        ctx = parse_context_string(ctx, alphabet) if isinstance(ctx, str) else tuple(ctx)
    return PiecewiseSpec(
        alphabet=alphabet,
        depth=depth,
        segments=segments,
        initial_context=ctx,
        seed=_spec_int(obj.get("seed", 0), "seed"),
    )


def _spec_int(value, field: str) -> int:
    """`value` as an int; a float, a bool or any other non-integer raises
    ValueError rather than being truncated."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{field} must be an integer, got {value!r}")


def piecewise_spec_to_json(spec: PiecewiseSpec) -> dict:
    segments = []
    for seg in spec.segments:
        table = seg.model.to_json(spec.alphabet)["params"]
        segments.append({"contexts": table, "length": seg.length})
    labels = spec.alphabet.labels
    return {
        "alphabet": list(labels),
        "D": spec.depth,
        "segments": segments,
        "seed": spec.seed,
        "initial_context": "".join(labels[c] for c in spec.initial_context),
    }


# ----------------------------------------------------------------- benchmark


def ternary_benchmark_spec(seed: int = 1, depth: int = 10) -> PiecewiseSpec:
    """Four-regime ternary benchmark with change-points at 2500, 3500 and
    4000 (total length 4300). The four generating models are deliberately
    similar, so recovering the segmentation is a nontrivial exercise."""
    alphabet = Alphabet.of_size(3)

    model1 = model_from_table(
        alphabet,
        {
            "0": [0.3, 0.4, 0.3],
            "2": [0.5, 0.3, 0.2],
            "10": [0.2, 0.5, 0.3],
            "11": [0.1, 0.4, 0.5],
            "121": [0.7, 0.2, 0.1],
            "122": [0.4, 0.2, 0.4],
            "1200": [0.6, 0.1, 0.3],
            "1201": [0.3, 0.5, 0.2],
            "1202": [0.4, 0.1, 0.5],
        },
    )
    model2 = model_from_table(
        alphabet,
        {
            "0": [0.4, 0.5, 0.1],
            "2": [0.4, 0.4, 0.2],
            "10": [0.4, 0.2, 0.4],
            "11": [0.2, 0.4, 0.4],
            "12": [0.6, 0.1, 0.3],
        },
    )
    model3 = model_from_table(
        alphabet,
        {
            "0": [0.5, 0.3, 0.2],
            "1": [0.3, 0.6, 0.1],
            "2": [0.3, 0.2, 0.5],
        },
    )
    model4 = model_from_table(alphabet, {"": [0.4, 0.2, 0.4]})

    return PiecewiseSpec(
        alphabet=alphabet,
        depth=depth,
        segments=(
            SegmentSpec(model1, 2499),
            SegmentSpec(model2, 1000),
            SegmentSpec(model3, 500),
            SegmentSpec(model4, 301),
        ),
        seed=seed,
    )
