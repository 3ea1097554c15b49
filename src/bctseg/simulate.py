"""Generation of piece-wise homogeneous variable-memory chains and
stationary-distribution analysis of fitted tree models.

Both run on the FSM closure of a segment's tree (`_closure`): the smallest
refinement of the tree whose leaves, the states, know their successor on
every symbol, so a chain moves from state to state by one table lookup per
symbol. The closure is about as small as the tree, where the m^d context
windows of a depth-d tree are not.

Draw rule: the next symbol is the first j with theta_0 + ... + theta_j > u
for a uniform u in [0, 1), capped at m - 1 (a row's cumulative sum can round
below 1). A chain takes its uniforms from one `np.random.default_rng(seed)`
stream, one double per symbol, in order. `generate_piecewise` draws them
DRAW_CHUNK at a time with `rng.random(k)`, the same doubles as k scalar
`rng.random()` calls, and bisects the cumulative row of the current closure
state. The tests check its output bit for bit against the rule applied one
step at a time, by walking the tree along the history for every symbol.

The stationary analysis solves the closure's sparse kernel with one
recurrent state's probability pinned to 1, by SuperLU (see
`stationary_marginal`), so no dense matrix is formed and the result does not
depend on the number of BLAS threads. scipy.sparse is imported inside it, its
only user, so generating, fitting and segmenting do not load it through this
module.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .sequences import Alphabet, Sequence, as_int
from .trees import TreeModel

MAX_STATES = 1_000_000  # largest FSM closure that _closure builds
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
        object.__setattr__(self, "length", as_int(self.length, "length"))
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
        object.__setattr__(self, "depth", as_int(self.depth, "depth D"))
        object.__setattr__(self, "seed", as_int(self.seed, "seed"))
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
        ctx = tuple(as_int(c, "initial_context entry") for c in ctx)
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


def generate_piecewise(spec: PiecewiseSpec) -> tuple[Sequence, tuple[int, ...]]:
    """Emit the segments in order, each continuing from the previous tail,
    and return the concatenated sequence with the true change-points."""
    rng = np.random.default_rng(spec.seed)
    history: list[int] = list(spec.initial_context)
    for seg in spec.segments:
        states, leaves, succ = _closure(seg.model)
        rows = [np.cumsum(seg.model.theta(s)).tolist() for s in leaves]
        succ, last = succ.tolist(), seg.model.m - 1
        # the state on the path of the history, which holds at least
        # spec.depth >= model depth symbols
        state = next(i for i, s in enumerate(states) if tuple(history[: -len(s) - 1 : -1]) == s)
        for start in range(0, seg.length, DRAW_CHUNK):
            for u in rng.random(min(DRAW_CHUNK, seg.length - start)).tolist():
                symbol = min(bisect.bisect_right(rows[state], u), last)
                history.append(symbol)
                state = succ[state][symbol]
    seq = Sequence(spec.alphabet, spec.initial_context, history[spec.depth :])
    return seq, spec.change_points()


def _closure(model: TreeModel):
    """FSM closure of the model's tree (Martin, Seroussi and Weinberger
    2004): its smallest refinement whose leaves, the states, each know their
    successor on every symbol. A leaf s is split into its m children while
    some symbol a makes (a,) + s an internal node. Returns the states
    (contexts, most recent symbol first, sorted), the model leaf whose theta
    each state inherits, and the (S, m) table of successor state indices.
    Raises NumericalError once the states outnumber MAX_STATES."""
    m = model.m
    inherits = {s: s for s in model.leaves}  # state -> model leaf
    internal = {s[:k] for s in inherits for k in range(len(s))}
    work = sorted(inherits)
    while work:
        s = work.pop()
        if s in inherits and any((a,) + s in internal for a in range(m)):
            internal.add(s)
            leaf = inherits.pop(s)
            inherits.update((s + (j,), leaf) for j in range(m))
            if len(inherits) > MAX_STATES:
                raise NumericalError(f"closure state space too large (over {MAX_STATES} states)")
            # s is internal now, so the leaf s[1:] may need splitting too
            work += [s + (j,) for j in range(m)] + [s[1:]]
    states = sorted(inherits)
    index = dict(zip(states, range(len(states))))

    def state_of(context):
        return next(index[context[:k]] for k in range(len(context) + 1) if context[:k] in index)

    succ = np.array([[state_of((a,) + s) for a in range(m)] for s in states], dtype=np.int64)
    return states, [inherits[s] for s in states], succ


def stationary_marginal(model: TreeModel) -> np.ndarray:
    """First-order symbol marginal of the stationary law of a fitted model.

    The chain runs on the states of the tree's FSM closure (`_closure`),
    with a sparse kernel P of m entries per row. The balance equations
    (I - P)^T pi = 0 are solved with pi_r = 1 for the state r of the
    recurrent class that holds the most mass after 4 d power steps from the
    uniform law (d = deepest leaf): row and column r are deleted, column r
    becomes the right-hand side, and SuperLU factors the nonsingular rest.
    The marginal sums pi over the states by their most recent symbol.
    Raises NumericalError when the kernel has no unique stationary
    distribution, the closure exceeds MAX_STATES, the factorisation fails,
    or the solution's residual is above 1e-9.
    """
    import scipy.sparse as sparse
    from scipy.sparse.linalg import splu

    if model.params is None:
        raise ValueError("stationary analysis needs a model with parameters")
    m, d = model.m, model.depth
    if d == 0:
        return model.theta(()).copy()
    states, leaves, succ = _closure(model)
    n_states = len(states)
    theta = np.array([model.theta(s) for s in leaves])
    rows = np.repeat(np.arange(n_states), m)
    kernel = sparse.csr_matrix((theta.ravel(), (rows, succ.ravel())), shape=(n_states,) * 2)
    # I - P with each diagonal entry summed from its row's exits, as in the
    # GTH algorithm (Grassmann, Taksar and Heyman 1985): 1 - P_ii cancels
    # the digits that a self-loop near 1 needs, and on sparse-row models
    # left 2e-9 where this leaves 1e-16 against an exact rational solve
    exits = kernel - sparse.diags(kernel.diagonal())
    balance = (sparse.diags(np.asarray(exits.sum(axis=1)).ravel()) - exits).tocsr()

    # a pinned state of tiny mass scales every other entry by its inverse,
    # and left the reduced system near-singular (residuals of 0.4-1.0)
    recurrent = _recurrent_class(kernel)
    pi = np.full(n_states, 1.0 / n_states)
    for _ in range(4 * d):
        pi = pi @ kernel
    r = int(recurrent[np.argmax(pi[recurrent])])

    # pinning a recurrent state makes the reduced system nonsingular; a row
    # of ones for the normalisation would instead be dense, and gave 1.5-1.7
    # times the entries in SuperLU's factors on random m = 4 models. The
    # right-hand side, minus column r of (I - P)^T, is row r of P.
    keep = np.delete(np.arange(n_states), r)
    reduced = balance[keep][:, keep]
    try:
        solved = splu(reduced.T).solve(kernel[[r]].toarray()[0, keep])
    except RuntimeError as exc:
        raise NumericalError(f"stationary solve failed: {exc}") from None
    pi = np.clip(np.insert(solved, r, 1.0), 0.0, None)
    pi /= pi.sum()

    residual = np.abs(pi @ kernel - pi).max()
    if residual > 1e-9:
        raise NumericalError(f"stationary solve residual {residual:.3e} too large")
    return np.bincount([s[0] for s in states], weights=pi, minlength=m)


def _recurrent_class(kernel) -> np.ndarray:
    """The states of the sparse kernel's one recurrent class, in increasing
    order; raises NumericalError unless there is exactly one."""
    from scipy.sparse.csgraph import connected_components

    positive = kernel > 0
    n_comp, labels = connected_components(positive, connection="strong")
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
    return np.flatnonzero(labels == recurrent[0])


# ----------------------------------------------------------- spec (de)serialisation


def model_from_table(alphabet: Alphabet, table: dict[str, list[float]]) -> TreeModel:
    """Tree model from a mapping of leaf-context strings to probability rows."""
    return TreeModel.from_json({"leaves": list(table), "params": table}, alphabet)


def piecewise_spec_from_json(obj: dict) -> PiecewiseSpec:
    """Parse the generation-spec JSON layout:
    {"alphabet": [...], "D": int, "segments": [{"contexts": {...},
    "length": int}, ...], "seed": int, "initial_context": "..."}. Each int
    field must hold an integer: a float or a bool raises ValueError."""
    alpha = obj["alphabet"]
    alphabet = Alphabet.of_size(alpha) if isinstance(alpha, int) else Alphabet(alpha)
    segments = tuple(
        SegmentSpec(model_from_table(alphabet, seg["contexts"]), seg["length"])
        for seg in obj["segments"]
    )
    ctx = obj.get("initial_context")
    if ctx is not None:
        # the context string reads chronologically, oldest symbol first
        ctx = alphabet.split(ctx) if isinstance(ctx, str) else tuple(ctx)
    return PiecewiseSpec(
        alphabet=alphabet,
        depth=obj.get("D", obj.get("depth", 0)),
        segments=segments,
        initial_context=ctx,
        seed=obj.get("seed", 0),
    )


def piecewise_spec_to_json(spec: PiecewiseSpec) -> dict:
    segments = []
    for seg in spec.segments:
        table = seg.model.to_json(spec.alphabet)["params"]
        segments.append({"contexts": table, "length": seg.length})
    return {
        "alphabet": list(spec.alphabet.labels),
        "D": spec.depth,
        "segments": segments,
        "seed": spec.seed,
        "initial_context": spec.alphabet.join(spec.initial_context),
    }


# ----------------------------------------------------------------- benchmark


def ternary_benchmark_spec(seed: int = 1, depth: int = 10) -> PiecewiseSpec:
    """Four-regime ternary benchmark with change-points at 2500, 3500 and
    4000 (total length 4300). The four generating models are deliberately
    similar, so recovering the segmentation is a nontrivial exercise."""
    tables = (
        {"0": [0.3, 0.4, 0.3], "2": [0.5, 0.3, 0.2], "10": [0.2, 0.5, 0.3],
         "11": [0.1, 0.4, 0.5], "121": [0.7, 0.2, 0.1], "122": [0.4, 0.2, 0.4],
         "1200": [0.6, 0.1, 0.3], "1201": [0.3, 0.5, 0.2], "1202": [0.4, 0.1, 0.5]},
        {"0": [0.4, 0.5, 0.1], "2": [0.4, 0.4, 0.2], "10": [0.4, 0.2, 0.4],
         "11": [0.2, 0.4, 0.4], "12": [0.6, 0.1, 0.3]},
        {"0": [0.5, 0.3, 0.2], "1": [0.3, 0.6, 0.1], "2": [0.3, 0.2, 0.5]},
        {"": [0.4, 0.2, 0.4]},
    )
    alphabet = Alphabet.of_size(3)
    segments = tuple(SegmentSpec(model_from_table(alphabet, table), length)
                     for table, length in zip(tables, (2499, 1000, 500, 301)))
    return PiecewiseSpec(alphabet=alphabet, depth=depth, segments=segments, seed=seed)
