# Build a small hypergraph from (node, edge) pairs and push a signal
# through one averaging layer, step by step.

import numpy as np

from hyperprop import (PropagationConfig, build_hypergraph, edge_average,
                       node_average, propagate)

# Three papers (p1..p3) connected through two shared authors (alice, bob):
# alice wrote p1 and p2, bob wrote p2 and p3.  Papers are the nodes,
# authors are the hyperedges.
pairs = [
    ("p1", "alice"),
    ("p2", "alice"),
    ("p2", "bob"),
    ("p3", "bob"),
]
h, maps = build_hypergraph(pairs)
print(h)
print("node degrees:", dict(zip(maps.node_ids.ids, h.node_degree.tolist())))
print("edge degrees:", dict(zip(maps.edge_ids.ids, h.edge_degree.tolist())))

# Start with all the "signal" concentrated on p1.
x = np.array([1.0, 0.0, 0.0])
print("\ninitial signal:", x.tolist())

# Pass 1: each author averages over their papers.
r = edge_average(h, x)
print("author averages:", dict(zip(maps.edge_ids.ids, r.tolist())))

# Pass 2: each paper averages over its authors.
out = node_average(h, r)
print("propagated signal:", dict(zip(maps.node_ids.ids, out.tolist())))

# One layer of the default (row) variant does both passes at once.
assert np.allclose(propagate(h, x, PropagationConfig()), out)

# p2 sits between both authors, so it picks up half of alice's average;
# p3 is two hops from the source and gets nothing after a single layer.
print("\none layer moves signal exactly one author-hop outwards")
