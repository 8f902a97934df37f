# The four normalization variants and the effect of stacking layers.

import numpy as np

from hyperprop import PropagationConfig, build_hypergraph, propagate

rng = np.random.default_rng(0)

# A random hypergraph: 12 nodes, up to 6 edges, one isolated straggler.
pairs = [(i, j) for i in range(11) for j in range(6) if rng.random() < 0.3]
h, _ = build_hypergraph(pairs, node_universe=range(12))
print(h, "- node 11 is isolated:", h.node_degree[11] == 0)

x = rng.random(h.n_nodes)

# The same layers as explicit dense matrix products, for a check.  H is
# small enough here to materialize; isolated nodes get 1/0 := 0.
H = h.node_edge_matrix.toarray()
node_deg = H.sum(axis=1)
D_inv = np.diag(np.divide(1.0, node_deg, out=np.zeros_like(node_deg),
                          where=node_deg > 0))
K = H @ np.diag(1.0 / H.sum(axis=0)) @ H.T  # H B^-1 H^T
dense = {
    "row":       D_inv @ K @ x,
    "column":    K @ D_inv @ x,
    "symmetric": np.sqrt(D_inv) @ K @ np.sqrt(D_inv) @ x,
    "alpha=0.3": 0.6 * (D_inv @ K @ x) + 0.4 * x,
}

configs = {
    "row":       PropagationConfig(variant="row"),
    "column":    PropagationConfig(variant="column"),
    "symmetric": PropagationConfig(variant="symmetric"),
    "alpha=0.3": PropagationConfig(variant="alpha", alpha=0.3),
}

print(f"\n{'variant':<10} {'min':>8} {'max':>8} {'sum':>8}   matches dense ref")
for name, cfg in configs.items():
    out = propagate(h, x, cfg)
    ok = np.allclose(out, dense[name], rtol=0, atol=1e-12)
    print(f"{name:<10} {out.min():8.4f} {out.max():8.4f} {out.sum():8.4f}   {ok}")
    assert ok

# Kernel-only variants zero out isolated nodes; the alpha variant keeps
# the residual (1 - 2a) * x there, since its blend includes the input.
for name in ("row", "column", "symmetric"):
    assert propagate(h, x, configs[name])[11] == 0.0
assert np.isclose(propagate(h, x, configs["alpha=0.3"])[11], 0.4 * x[11])

# More layers smooth the signal towards a constant on each connected
# component: the value spread shrinks monotonically.
print("\nsignal spread (max - min over non-isolated nodes) by layer count:")
active = h.node_degree > 0
for layers in (1, 2, 4, 8, 16):
    out = propagate(h, x, PropagationConfig(layers=layers))
    print(f"  {layers:>2} layers: {out[active].max() - out[active].min():.6f}")
