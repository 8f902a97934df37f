# Wall-clock scaling of one propagation layer: linear in the incidence
# count and in the layer count.

import statistics
import time

import numpy as np

from hyperprop import Hypergraph, PropagationConfig, propagate


def seeded_hypergraph(n_nodes, n_edges, nnz, seed):
    """Random hypergraph of about ``nnz`` incidences: every edge gets one
    member first, the rest are drawn uniformly (repeats collapse)."""
    rng = np.random.default_rng(seed)
    nodes = rng.integers(0, n_nodes, size=nnz)
    edges = np.concatenate([np.arange(n_edges),
                            rng.integers(0, n_edges, size=nnz - n_edges)])
    return Hypergraph(nodes, edges, n_nodes, n_edges)


def median_micros(h, x, layers, reps=15):
    cfg = PropagationConfig(layers=layers)
    propagate(h, x, cfg)  # warm-up
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        propagate(h, x, cfg)
        samples.append((time.perf_counter() - t0) * 1e6)
    return statistics.median(samples)


print(f"{'nnz':>10} {'1 layer (us)':>14} {'vs previous':>12}")
previous = None
for nnz in (50_000, 100_000, 200_000, 400_000, 800_000):
    h = seeded_hypergraph(nnz // 5, nnz // 50, nnz, seed=1)
    x = np.random.default_rng(0).random(h.n_nodes)
    t = median_micros(h, x, layers=1)
    ratio = "" if previous is None else f"x{t / previous:.2f}"
    print(f"{h.nnz:>10} {t:>14.1f} {ratio:>12}")
    previous = t

h = seeded_hypergraph(80_000, 8_000, 400_000, seed=1)
x = np.random.default_rng(0).random(h.n_nodes)
print(f"\n{'layers':>7} {'time (us)':>12} {'vs 1 layer':>12}")
base = None
for layers in (1, 2, 3, 4):
    t = median_micros(h, x, layers)
    base = base or t
    print(f"{layers:>7} {t:>12.1f} {'x%.2f' % (t / base):>12}")
