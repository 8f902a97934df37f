"""Seeded planted-partition datasets for the benchmark.

A dataset is a labeled hypergraph written as two CSV files,
``incidence.csv`` (``nodeId,edgeId``) and ``labels.csv`` (``nodeId,label``),
plus ``truth.npz``, the distinct (node, edge) pairs and labels as integer
arrays that the benchmark's own oracles read.  The program under test only
ever sees the two CSV files.

Structure planted by :func:`generate`:

* every hyperedge has a home class; each member slot draws a node of that
  class with probability ``homophily`` and a node of any class otherwise;
* hyperedge sizes follow a Pareto law, rescaled so the distinct incidence
  count is the same for every seed;
* a fixed share of nodes are isolated: they occur in the label file only;
* a fixed share of incidence rows repeat an earlier pair;
* rows of both files are shuffled and identifiers are strings ``p<i>``,
  ``a<j>``, ``c<k>``.

The output is a pure function of ``(spec, seed)``.

Usage: ``python3 perfbench/gen.py --workload NAME --seed N --out DIR``
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class GraphSpec:
    """Size and shape of one generated dataset."""

    n_nodes: int
    n_edges: int
    rows: int            # incidence rows in the file, duplicates included
    n_classes: int
    homophily: float = 0.8
    isolated: float = 0.05
    duplicates: float = 0.03
    pareto_shape: float = 2.0
    max_edge_size: int = 400

    def scaled(self, factor: float) -> "GraphSpec":
        """Same shape with node, edge and row counts multiplied by ``factor``."""
        return GraphSpec(
            n_nodes=max(self.n_classes * 20, round(self.n_nodes * factor)),
            n_edges=max(self.n_classes * 2, round(self.n_edges * factor)),
            rows=max(self.n_classes * 40, round(self.rows * factor)),
            n_classes=self.n_classes, homophily=self.homophily,
            isolated=self.isolated, duplicates=self.duplicates,
            pareto_shape=self.pareto_shape, max_edge_size=self.max_edge_size)


@dataclass(frozen=True)
class Dataset:
    """Generated arrays; ``nodes``/``edges`` are the distinct pairs."""

    labels: np.ndarray       # class of node i, for i in [0, n_nodes)
    nodes: np.ndarray        # distinct incidence pairs, node side
    edges: np.ndarray        # distinct incidence pairs, edge side
    row_nodes: np.ndarray    # file rows in file order, duplicates included
    row_edges: np.ndarray
    label_order: np.ndarray  # node indices in label-file order

    def counts(self) -> dict:
        connected = np.zeros(self.labels.size, dtype=bool)
        connected[self.nodes] = True
        return {
            "nodes": int(self.labels.size),
            "edges": int(self.edges.max()) + 1,
            "rows": int(self.row_nodes.size),
            "distinct_pairs": int(self.nodes.size),
            "duplicate_rows": int(self.row_nodes.size - self.nodes.size),
            "isolated_nodes": int((~connected).sum()),
            "classes": int(np.unique(self.labels).size),
        }


def _edge_sizes(rng, spec: GraphSpec, total: int) -> np.ndarray:
    """Pareto sizes in [2, max_edge_size] summing to exactly ``total``."""
    raw = 1.0 + rng.pareto(spec.pareto_shape, size=spec.n_edges)
    sizes = np.clip(np.rint(raw * total / raw.sum()), 2,
                    spec.max_edge_size).astype(np.int64)
    diff = total - int(sizes.sum())
    order = rng.permutation(spec.n_edges)
    step = 1 if diff > 0 else -1
    while diff:
        room = (sizes[order] < spec.max_edge_size) if step > 0 \
            else (sizes[order] > 2)
        pick = order[room][:abs(diff)]
        if pick.size == 0:
            raise ValueError(f"cannot fit {total} incidences in {spec}")
        sizes[pick] += step
        diff -= step * pick.size
    return sizes


def generate(spec: GraphSpec, seed: int) -> Dataset:
    rng = np.random.default_rng(seed)
    n, m, c = spec.n_nodes, spec.n_edges, spec.n_classes
    labels = rng.integers(0, c, size=n)
    labels[:c] = np.arange(c)  # every class occurs
    isolated = np.zeros(n, dtype=bool)
    isolated[rng.choice(n, size=round(spec.isolated * n), replace=False)] = True

    # non-isolated nodes grouped by class, for homophilous draws
    pool = np.flatnonzero(~isolated)
    pool = pool[np.argsort(labels[pool], kind="stable")]
    per_class = np.bincount(labels[pool], minlength=c)
    if (per_class == 0).any():
        raise ValueError(f"a class has no connected node in {spec}")
    start = np.concatenate([[0], np.cumsum(per_class)[:-1]])

    n_dup = round(spec.duplicates * spec.rows)
    distinct_target = spec.rows - n_dup
    home = rng.integers(0, c, size=m)
    home[:c] = np.arange(c)  # every class has a home edge
    slot_edge = np.repeat(np.arange(m), _edge_sizes(rng, spec, distinct_target))
    slot_class = home[slot_edge]
    homo = rng.random(slot_edge.size) < spec.homophily
    offset = (rng.random(slot_edge.size) * per_class[slot_class]).astype(np.int64)
    slot_node = np.where(homo, pool[start[slot_class] + offset],
                         pool[rng.integers(0, pool.size, size=slot_edge.size)])

    # every non-isolated node joins at least one edge of its own class
    covered = np.zeros(n, dtype=bool)
    covered[slot_node] = True
    missing = np.flatnonzero(~isolated & ~covered)
    edges_by_class = np.argsort(home, kind="stable")
    edge_start = np.concatenate([[0], np.cumsum(np.bincount(home, minlength=c))[:-1]])
    edge_count = np.bincount(home, minlength=c)
    cls = labels[missing]
    pick = (rng.random(missing.size) * edge_count[cls]).astype(np.int64)
    slot_node = np.concatenate([slot_node, missing])
    slot_edge = np.concatenate([slot_edge, edges_by_class[edge_start[cls] + pick]])

    # distinct pairs, then top up with fresh random pairs to the target
    key = np.unique(slot_node * m + slot_edge)
    while key.size < distinct_target:
        extra = (pool[rng.integers(0, pool.size, size=distinct_target - key.size)]
                 * m + rng.integers(0, m, size=distinct_target - key.size))
        key = np.union1d(key, extra)
    if key.size > distinct_target:
        # drop random pairs, but never a node's or an edge's last one
        node_deg = np.bincount(key // m, minlength=n)
        edge_deg = np.bincount(key % m, minlength=m)
        excess = key.size - distinct_target
        for i in rng.permutation(key.size).tolist():
            u, e = divmod(int(key[i]), m)
            if node_deg[u] > 1 and edge_deg[e] > 1:
                node_deg[u] -= 1
                edge_deg[e] -= 1
                key[i] = -1
                excess -= 1
                if excess == 0:
                    break
        key = key[key >= 0]
    nodes, edges = key // m, key % m

    rows = np.concatenate([key, key[rng.integers(0, key.size, size=n_dup)]])
    rows = rows[rng.permutation(rows.size)]
    return Dataset(labels=labels, nodes=nodes, edges=edges,
                   row_nodes=rows // m, row_edges=rows % m,
                   label_order=rng.permutation(n))


def write(ds: Dataset, out_dir) -> dict:
    """Write the CSV files and ``truth.npz``; return the dataset's counts."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["nodeId,edgeId"]
    lines += [f"p{u},a{e}" for u, e in zip(ds.row_nodes.tolist(),
                                          ds.row_edges.tolist())]
    (out / "incidence.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    lines = ["nodeId,label"]
    lines += [f"p{u},c{ds.labels[u]}" for u in ds.label_order.tolist()]
    (out / "labels.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    np.savez(out / "truth.npz", labels=ds.labels, nodes=ds.nodes, edges=ds.edges)
    counts = ds.counts()
    (out / "counts.json").write_text(json.dumps(counts, sort_keys=True) + "\n")
    return counts


def main(argv=None) -> int:
    from workloads import WORKLOADS  # imports this module for GraphSpec

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload].graph.scaled(args.scale)
    counts = write(generate(spec, args.seed), args.out)
    print(json.dumps({"spec": asdict(spec), "seed": args.seed,
                      "counts": counts}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
