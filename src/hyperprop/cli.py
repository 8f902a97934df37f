"""Command-line interface.

Subcommands
-----------
propagate
    Run L propagation layers over a per-node signal and write the result.
classify
    10-fold one-vs-rest transductive classification, reported as ROC-AUC.
retrieve
    Positive-only retrieval, reported as precision at the top K positions.
bench
    Micro-benchmark of propagation (1-3 layers) and the Naive Bayes
    baseline on a real or synthetic hypergraph.

Exit codes: 0 success, 2 input/configuration error, 3 every evaluation
cell was degenerate.
"""

from __future__ import annotations

import argparse
import csv
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from .errors import HyperpropError, ParseError
from .evaluation import TaskSpec, run_classification, run_retrieval
from .hypergraph import random_hypergraph
from .io import (canonical_json_bytes, load_dataset, load_incidence,
                 load_signal, read_labels, write_report, write_signal)
from .naive_bayes import fit_naive_bayes, naive_bayes_log_odds
from .propagation import VARIANTS, PropagationConfig, propagate


def _add_propagation_flags(parser):
    parser.add_argument("--variant", choices=VARIANTS, default="row")
    parser.add_argument("--alpha", type=float, default=None,
                        help="blend factor in (0,1); alpha variant only")
    parser.add_argument("--layers", type=int, default=1)


def _add_eval_flags(parser):
    parser.add_argument("--incidence", required=True)
    parser.add_argument("--labels", required=True)
    parser.add_argument("--method", choices=("propagation", "naive-bayes"),
                        default="propagation")
    _add_propagation_flags(parser)
    parser.add_argument("--smoothing", type=float, default=1.0,
                        help="Naive Bayes additive smoothing")
    parser.add_argument("--folds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--jobs", type=int, default=1,
                        help="max parallel (fold, class block) workers")
    parser.add_argument("--output", default=None)
    parser.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperprop",
        description="Averaging signal propagation on hypergraphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("propagate", help="propagate a per-node signal")
    p.add_argument("--incidence", required=True)
    p.add_argument("--signal", default=None,
                   help="nodeId + value column(s); defaults to a "
                        "one-vs-rest signal derived from --labels")
    p.add_argument("--labels", default=None)
    _add_propagation_flags(p)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("classify", help="k-fold one-vs-rest classification")
    _add_eval_flags(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("retrieve", help="positive-only retrieval ranking")
    _add_eval_flags(p)
    p.add_argument("--top-k", type=int, default=100, dest="top_k")
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("bench", help="micro-benchmark propagation and NB")
    p.add_argument("--incidence", default=None)
    p.add_argument("--synthetic", nargs=4, type=int, default=None,
                   metavar=("N", "M", "NNZ", "SEED"),
                   help="generate a random hypergraph instead of loading one")
    p.add_argument("--repetitions", type=int, default=20)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--output", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_bench)
    return parser


def _propagation_config(args) -> PropagationConfig:
    return PropagationConfig(variant=args.variant, layers=args.layers,
                             alpha=args.alpha)


def cmd_propagate(args) -> int:
    if args.signal is not None:
        ids, values = load_signal(args.signal)
    elif args.labels is not None:
        ids, classes, class_names = read_labels(args.labels)
        if not ids:
            raise ParseError(f"{args.labels}: no label rows")
        values = np.zeros((len(ids), len(class_names)))
        values[np.arange(len(ids)), classes] = 1.0
    else:
        print("error: propagate needs --signal or --labels", file=sys.stderr)
        return 2
    h, maps = load_incidence(args.incidence, node_universe=ids)
    x0 = np.zeros((h.n_nodes, values.shape[1]))
    x0[:len(ids)] = values  # universe ids occupy the leading indices
    out = propagate(h, x0, _propagation_config(args))
    write_signal(args.output, maps.node_ids.ids, out)
    return 0


def _run_eval(args, task_name: str) -> int:
    bundle = load_dataset(args.incidence, args.labels,
                          name=Path(args.incidence).stem)
    spec = TaskSpec(
        task=task_name,
        method=args.method,
        propagation=(_propagation_config(args)
                     if args.method == "propagation" else PropagationConfig()),
        smoothing=args.smoothing,
        n_folds=args.folds,
        top_k=getattr(args, "top_k", 100),
        seed=args.seed,
    )
    runner = run_classification if task_name == "classification" else run_retrieval
    report = runner(bundle.hypergraph, bundle.labels, spec,
                    dataset_name=bundle.name, class_names=bundle.class_names,
                    n_jobs=args.jobs)
    if args.output:
        write_report(report, args.output, args.format)
    mean = report.mean()
    if mean is None:
        print("error: every (class, fold) cell was degenerate",
              file=sys.stderr)
        return 3
    print(f"mean_metric={mean:.17g}")
    return 0


def cmd_classify(args) -> int:
    return _run_eval(args, "classification")


def cmd_retrieve(args) -> int:
    return _run_eval(args, "retrieval")


def _bench_labels(n_nodes: int, seed: int) -> np.ndarray:
    y = np.random.default_rng(seed).integers(0, 2, size=n_nodes)
    if n_nodes >= 2:  # benchmark fit needs both classes
        y[0], y[1] = 0, 1
    return y


def cmd_bench(args) -> int:
    if args.synthetic is not None:
        n, m, nnz, seed = args.synthetic
        h = random_hypergraph(n, m, nnz, seed)
        source = f"synthetic(n={n}, m={m}, nnz={nnz}, seed={seed})"
    elif args.incidence is not None:
        h, _ = load_incidence(args.incidence)
        source = str(args.incidence)
    else:
        print("error: bench needs --incidence or --synthetic", file=sys.stderr)
        return 2
    if args.repetitions < 1:
        print("error: --repetitions must be >= 1", file=sys.stderr)
        return 2

    y = _bench_labels(h.n_nodes, args.seed)
    x0 = y.astype(np.float64)
    all_nodes = np.arange(h.n_nodes)

    def timed(fn):
        fn()  # warm caches outside the measurement
        samples = []
        for _ in range(args.repetitions):
            t0 = time.perf_counter()
            fn()
            samples.append((time.perf_counter() - t0) * 1e6)
        return samples

    cells = []
    for layers in (1, 2, 3):
        cfg = PropagationConfig(layers=layers)
        samples = timed(lambda: propagate(h, x0, cfg))
        cells.append({"cell": f"propagation_layers_{layers}",
                      "micros": samples,
                      "median_micros": statistics.median(samples)})

    def nb_once():
        model = fit_naive_bayes(h, all_nodes, y)
        naive_bayes_log_odds(model, h)

    samples = timed(nb_once)
    cells.append({"cell": "naive_bayes_fit_score", "micros": samples,
                  "median_micros": statistics.median(samples)})

    for cell in cells:
        print(f"{cell['cell']} median_micros={cell['median_micros']:.3f}")

    if args.output:
        doc = {"source": source, "n_nodes": h.n_nodes, "n_edges": h.n_edges,
               "nnz": h.nnz, "repetitions": args.repetitions, "cells": cells}
        if args.format == "json":
            with open(args.output, "wb") as fh:
                fh.write(canonical_json_bytes(doc))
        else:
            with open(args.output, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["cell", "rep", "micros"])
                for cell in cells:
                    for rep, us in enumerate(cell["micros"]):
                        writer.writerow([cell["cell"], rep,
                                         format(us, ".17g")])
                    writer.writerow([cell["cell"], "median",
                                     format(cell["median_micros"], ".17g")])
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (HyperpropError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
