"""Randomized k-path detection versus the exhaustive search.

The color-coding detector finds a k-path with high probability; every
returned path is verified, so a positive answer is always trustworthy. Each
trial colors the vertices at random and runs the colorful-path DP, which
finds a k-path whose colors are all distinct if the coloring gave one.
"""

import time

from pvcover import GeneratorConfig, gen_graph
from pvcover.kpaths import default_trials, find_k_path, is_k_path

K = 6
g = gen_graph(GeneratorConfig(n=40, edge_target=60, seed=11))
print(f"graph: n={g.n} m={g.m}, looking for a {K}-path")
print(f"default trial budget: {default_trials(K)}")

t0 = time.perf_counter()
p_cc = find_k_path(g, K, strategy="color-coding", seed=1)
t1 = time.perf_counter()
p_ex = find_k_path(g, K, strategy="exhaustive")
t2 = time.perf_counter()

print(f"color coding: {p_cc}  ({(t1 - t0) * 1000:.1f} ms)")
print(f"exhaustive:   {p_ex}  ({(t2 - t1) * 1000:.1f} ms)")
assert p_cc is None or is_k_path(g, p_cc, K)
assert (p_cc is None) == (p_ex is None) or p_cc is None  # one-sided error only

# miss-rate estimate over many seeds on a graph that does contain a path
misses = sum(
    find_k_path(g, K, strategy="color-coding", seed=s) is None for s in range(50)
)
print(f"misses over 50 seeds: {misses}")
