"""Per-layer tracing from outside the program.

The tracer replaces public functions of bctseg with timing wrappers at the
place where their caller looks them up (``cli.run``, ``mcmc.log_joint_evidence``,
``CountTree.from_arrays`` ...) and puts the originals back on exit. Each
wrapped call becomes a span (id, job, name, start, end, parent); spans stay in
memory until the benchmark writes them out. Cache lookups and stores, which
happen several times per sampler iteration, are counters only.

A span's self time is its duration minus the durations of its child spans,
minus what the tracer's own wrappers cost inside it: at start-up the tracer
times its wrappers around a no-op, and subtracts that cost once per child
span, per proposal and per cache lookup or store. The layer of a span is the
part of its name before the dot, which is the bctseg module the wrapped code
belongs to.
"""

from __future__ import annotations

import functools
import json
import statistics
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

from bctseg import changepoints, cli, mcmc
from bctseg.changepoints import EvidenceCache
from bctseg.trees import CountTree

MOVES = ("birth", "death", "jump", "walk")
CALIBRATION_CALLS = 4000
CALIBRATION_ROUNDS = 7


def classify_move(current, candidate, tag: str) -> str:
    """birth/death as proposed; a within move is a walk when one point moved
    by +-1 (or the state was proposed unchanged), a jump otherwise."""
    if tag != "within":
        return tag
    old = set(current.positions) - set(candidate.positions)
    new = set(candidate.positions) - set(current.positions)
    if not old:
        return "walk"
    return "walk" if abs(old.pop() - new.pop()) == 1 else "jump"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.miss_lengths: list[int] = []
        self.job = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._caches: dict[int, EvidenceCache] = {}
        self._tally = [0, 0, 0]  # cache lookups, hits and stores of the job
        # per job: (current, candidate, tag) of every proposal, and the index
        # of the latest proposal at each miss and each rescoring
        self._proposals: list[tuple] = []
        self._miss_at: list[int] = []
        self._rescore_at: list[int] = []
        self._saved: list[tuple] = []
        self.origin = perf_counter()
        self.span_cost_s, self.proposal_cost_s, self.counter_cost_s = self._calibrate()

    # ------------------------------------------------------------ wrapping

    def _span(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            sid = tracer._next_id
            tracer._next_id = sid + 1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((sid, tracer.job, name, start, end, parent))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _patch(self, owner, attr, make):
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(make(original.__func__)))
        else:
            setattr(owner, attr, make(original))

    def __enter__(self):
        span = self._span
        for fn in ("parse_fasta", "parse_plain", "parse_csv", "split_context"):
            self._patch(cli, fn, lambda f: span("sequences.parse", f))
        self._patch(CountTree, "from_arrays", lambda f: span("trees.build", f, self._on_build))
        self._patch(CountTree, "log_evidence", lambda f: span("trees.evidence", f))
        self._patch(CountTree, "map_model", lambda f: span("trees.map", f))
        self._patch(changepoints, "span_log_evidence",
                    lambda f: span("changepoints.miss", f, self._on_miss))
        self._patch(changepoints, "log_joint_evidence", lambda f: span("changepoints.joint", f))
        self._patch(mcmc, "log_joint_evidence", lambda f: span("changepoints.joint", f))
        self._patch(cli, "exact_single_cp_posterior", lambda f: span("changepoints.exact", f))
        self._patch(cli, "partition", lambda f: span("changepoints.partition", f))
        self._patch(EvidenceCache, "lookup", self._counted_lookup)
        self._patch(EvidenceCache, "store", self._counted_store)
        self._patch(cli, "run", lambda f: span("mcmc.run", f))
        self._patch(mcmc, "propose_variable", self._recorded_proposal)
        self._patch(mcmc, "log_posterior_unnorm",
                    lambda f: span("mcmc.rescore", f, self._on_rescore))
        self._patch(cli, "summarize", lambda f: span("mcmc.summarize", f))
        self._patch(cli, "stationary_marginal",
                    lambda f: span("simulate.stationary", f, self._on_stationary))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    # --------------------------------------------------------------- hooks

    def _on_build(self, args, tree):
        self.counts["trees.build_calls"] += 1
        self.counts["trees.build_symbols"] += tree.n

    def _on_miss(self, args, value):
        codes, params = args
        self.miss_lengths.append(len(codes) - params.depth)
        self._miss_at.append(len(self._proposals) - 1)

    def _on_rescore(self, args, value):
        # run() rescores the initial state, then once after each acceptance
        self._rescore_at.append(len(self._proposals) - 1)

    def _on_stationary(self, args, marginal):
        model = args[0]
        self.counts["simulate.stationary_states"] += model.m**model.depth

    def _counted_lookup(self, fn):
        tally = self._tally  # start_job resets it in place

        @functools.wraps(fn)
        def lookup(cache, key):
            value = fn(cache, key)
            tally[0] += 1
            if value is not None:
                tally[1] += 1
            return value

        return lookup

    def _counted_store(self, fn):
        tally, caches = self._tally, self._caches

        @functools.wraps(fn)
        def store(cache, key, value):
            fn(cache, key, value)
            tally[2] += 1
            caches[id(cache)] = cache

        return store

    def _recorded_proposal(self, fn):
        proposals = self._proposals  # cleared in place

        @functools.wraps(fn)
        def propose(cp, ell_max, rng):
            candidate, tag = fn(cp, ell_max, rng)
            proposals.append((cp, candidate, tag))
            return candidate, tag

        return propose

    def _calibrate(self) -> tuple[float, float, float]:
        """Seconds that a span wrapper, the proposal wrapper and a cache
        counter add to their caller's self time, per call (median over
        rounds)."""

        def noop(a, b, c=None):
            return a, b

        def per_call(fn, *args):
            start = perf_counter()
            for _ in range(CALIBRATION_CALLS):
                fn(*args)
            return (perf_counter() - start) / CALIBRATION_CALLS

        costs = [], [], []
        for _ in range(CALIBRATION_ROUNDS):
            bare = per_call(noop, None, None, None)
            first = len(self.spans)
            spanned = self._span("calibration", noop, after=lambda args, result: None)
            wall = per_call(spanned, None, None, None)
            inside = sum(end - start for _, _, _, start, end, _ in self.spans[first:])
            del self.spans[first:]
            costs[0].append(wall - bare - inside / CALIBRATION_CALLS)
            costs[1].append(per_call(self._recorded_proposal(noop), None, None, None) - bare)
            self._proposals.clear()
            costs[2].append(per_call(self._counted_lookup(noop), None, None) - bare)
        self._tally[:] = [0, 0, 0]
        return tuple(max(0.0, statistics.median(c)) for c in costs)

    # ----------------------------------------------------------------- jobs

    def call_job(self, fn, *args):
        """Run one CLI call as the root span of the current job."""
        return self._span("cli.job", fn)(*args)

    def start_job(self):
        self.job += 1
        self.counts.clear()
        self.miss_lengths.clear()
        self._caches.clear()
        self._tally[:] = [0, 0, 0]
        self._proposals.clear()
        self._miss_at.clear()
        self._rescore_at.clear()

    def _move_counts(self) -> Counter:
        """Proposals, acceptances and misses per move type."""
        moves = [classify_move(*p) for p in self._proposals]
        c = Counter(f"mcmc.proposed.{m}" for m in moves)
        # the first rescoring is the initial state's, before any proposal
        c.update(f"mcmc.accept.{moves[i]}" for i in self._rescore_at if i >= 0)
        c.update(f"mcmc.misses.{moves[i]}" for i in self._miss_at if i >= 0)
        return c

    def finish_job(self, bytes_written: int) -> tuple[dict, dict]:
        """Per-layer metrics of the job just run, and the tracer's own
        figures: its wrapper cost (``trace.overhead_s``, taken out of the
        self times) and the sum of all self times plus that cost, which
        equals the root span by construction."""
        spans = [s for s in self.spans if s[1] == self.job]
        total = defaultdict(float)
        self_time = defaultdict(float)
        child = defaultdict(float)
        children = Counter()
        for sid, _, name, start, end, parent in spans:
            child[parent] += end - start
            children[parent] += 1
        miss_ms = []
        overhead = 0.0
        for sid, _, name, start, end, parent in spans:
            cost = children[sid] * self.span_cost_s
            total[name] += end - start
            self_time[name] += end - start - child[sid] - cost
            overhead += cost
            if name == "changepoints.miss":
                miss_ms.append((end - start) * 1e3)
        c = self.counts + self._move_counts()
        lookups, hits, stores = self._tally
        # wrappers that make no span: proposals run inside the sampler's
        # loop, cache lookups and stores inside log_joint_evidence
        for name, cost in (
            ("mcmc.run", len(self._proposals) * self.proposal_cost_s),
            ("changepoints.joint", (lookups + stores) * self.counter_cost_s),
        ):
            self_time[name] -= cost
            overhead += cost
        entries = sum(len(cache) for cache in self._caches.values())
        iterations = len(self._proposals)
        build_s, evidence_s = total["trees.build"], total["trees.evidence"]
        mcmc_self = self_time["mcmc.run"] + self_time["mcmc.rescore"]
        m = {
            "sequences.parse_s": total["sequences.parse"],
            "trees.build_calls": c["trees.build_calls"],
            "trees.build_symbols": c["trees.build_symbols"],
            "trees.build_s": build_s,
            "trees.evidence_s": evidence_s,
            "trees.us_per_call": _ratio(build_s + evidence_s, c["trees.build_calls"]) * 1e6,
            "trees.ns_per_symbol": _ratio(build_s, c["trees.build_symbols"]) * 1e9,
            "trees.map_s": total["trees.map"],
            "changepoints.lookups": lookups,
            "changepoints.hits": hits,
            "changepoints.misses": lookups - hits,
            "changepoints.hit_ratio": _ratio(hits, lookups),
            "changepoints.entries": entries,
            "changepoints.evictions": stores - entries,
            "changepoints.miss_s": total["changepoints.miss"],
            "changepoints.miss_ms_p50": _quantile(miss_ms, 0.5),
            "changepoints.miss_ms_p99": _quantile(miss_ms, 0.99),
            "changepoints.miss_len_p50": _quantile(self.miss_lengths, 0.5),
            "changepoints.cache_self_s": self_time["changepoints.joint"],
            "changepoints.exact_s": total["changepoints.exact"],
            "mcmc.run_s": total["mcmc.run"],
            "mcmc.self_s": mcmc_self,
            "mcmc.self_us_per_iter": _ratio(mcmc_self, iterations) * 1e6,
            "mcmc.rescore_s": total["mcmc.rescore"],
            "mcmc.summarize_s": total["mcmc.summarize"],
            "simulate.stationary_s": total["simulate.stationary"],
            "simulate.stationary_states": c["simulate.stationary_states"],
            "cli.self_s": self_time["cli.job"],
            "cli.bytes_written": bytes_written,
        }
        for move in MOVES:
            m[f"mcmc.misses.{move}"] = c[f"mcmc.misses.{move}"]
        # counts that repeat exactly for a seed: sanity checks, not metrics
        own = {"mcmc.iterations": iterations}
        for kind in ("proposed", "accept"):
            for move in MOVES:
                own[f"mcmc.{kind}.{move}"] = c[f"mcmc.{kind}.{move}"]
        own["trace.overhead_s"] = overhead
        own["trace.self_sum_s"] = sum(self_time.values()) + overhead
        return m, own

    def write_spans(self, path: Path):
        with open(path, "w") as fh:
            for sid, job, name, start, end, parent in self.spans:
                row = {"id": sid, "job": job, "name": name, "parent": parent,
                       "start": start - self.origin, "end": end - self.origin}
                fh.write(json.dumps(row) + "\n")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _quantile(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, int(q * len(ordered)))])


def median_metrics(per_job: list[dict]) -> dict:
    """Median over jobs; counts stay whole numbers."""
    out = {}
    for k in per_job[0]:
        values = [d[k] for d in per_job]
        pick = statistics.median_low if isinstance(values[0], int) else statistics.median
        out[k] = pick(values)
    return out
