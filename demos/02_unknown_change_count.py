"""Inferring how many change-points a series has, and where they are.

The number of change-points is rarely known in advance. The birth/death
sampler walks over (count, locations) jointly: it adds a change-point,
removes one, or moves one, and every proposal is scored with the exact
per-segment marginal likelihoods, so no segment models or parameters are
ever sampled.

We generate a three-change-point ternary series from four similar
variable-memory models (a deliberately hard instance) and watch the sampler
recover the truth.
"""

import time

import bctseg as b

spec = b.ternary_benchmark_spec(seed=1)
x, truth = b.generate_piecewise(spec)
print(f"series: n={x.n} ternary observations, true change-points {truth}")

# the model (alphabet size, memory depth, the default beta) and the sampler
# settings go to `run` as two arguments
params = b.BctHyperParams(m=x.alphabet.size, depth=x.depth)
config = b.McmcConfig(
    iterations=20_000,
    burn_in=2_000,
    seed=5,
    ell_max=10,
)
print(f"running {config.iterations} iterations (burn-in {config.burn_in}) ...")
t0 = time.perf_counter()
trace = b.run(x, params, config)
print(f"done in {time.perf_counter() - t0:.1f}s")

summary = b.summarize(trace)
print("\nposterior over the number of change-points:")
for ell, count in sorted(summary.ell_hist.items()):
    share = count / summary.retained
    print(f"  ell = {ell}:  {share:7.3%}  {'#' * int(60 * share)}")

print(f"\nestimated locations (conditional marginal modes): {summary.map_positions}")
print(f"true locations:                                   {truth}")
print(f"acceptance rates: { {k: round(v, 3) for k, v in summary.acceptance_rates.items()} }")
print(f"best visited state: {trace.best_state} (log score {trace.best_log_post:.2f})")
