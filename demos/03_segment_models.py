"""Reading off what each segment looks like once it is delimited.

Given change-point locations (known, estimated, or hypothesised), each
segment can be summarised by its MAP context-tree model: the memory
structure the segment most plausibly used. The fitted trees need not share
a depth, and comparing their stationary symbol frequencies shows how the
regimes differ in the long run.
"""

import numpy as np

import bctseg as b

spec = b.ternary_benchmark_spec(seed=1)
x, truth = b.generate_piecewise(spec)
params = b.BctHyperParams(m=3, depth=10)

cp = b.ChangePoints(x.n, truth)  # pretend the estimation step already ran
print(f"series of n={x.n} with segments delimited at {truth}\n")

for index, (start, end) in enumerate(b.partition(x, cp), start=1):
    model = b.CountTree.from_arrays(x.segment_codes(start, end), params).map_model()
    marginal = b.stationary_marginal(model)
    true_depth = spec.segments[index - 1].model.depth
    print(f"segment {index}: observations {start}..{end} (length {end - start + 1})")
    print(f"  MAP tree depth {model.depth} (generator depth {true_depth}), "
          f"{model.size} leaves")
    print(f"  stationary symbol frequencies: {np.round(marginal, 3)}")
    shallowest = sorted(model.leaves, key=len)[:4]
    for leaf in shallowest:
        label = x.alphabet.join(leaf) or "(root)"
        probs = np.round(model.theta(leaf), 3)
        print(f"    context {label:>6}: next-symbol probabilities {probs}")
    print()

print("the generating models for comparison:")
for k, seg_spec in enumerate(spec.segments, start=1):
    print(f"  regime {k}: depth {seg_spec.model.depth}, {seg_spec.model.size} leaves")
