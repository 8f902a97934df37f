"""Command-line interface.

Subcommands
-----------
propagate
    Run L propagation layers over a per-node signal and write the result.
classify
    10-fold one-vs-rest transductive classification, reported as ROC-AUC.
retrieve
    Positive-only retrieval, reported as precision at the top K positions.

Exit codes: 0 success, 2 input/configuration error, 3 every evaluation
cell was degenerate.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .errors import HyperpropError, ParseError
from .evaluation import (TaskSpec, check_n_jobs, run_classification,
                         run_retrieval)
from .io import (load_dataset, load_incidence, load_signal, read_labels,
                 write_report, write_signal)
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
                        help="Naive Bayes additive smoothing, > 0")
    parser.add_argument("--folds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="parallel (fold, class block) workers; they share one block "
             "memory budget, down to one column each (default: the CPUs "
             "this process may run on, from its CPU affinity; a cgroup CPU "
             "quota is not read)")
    parser.add_argument("--output", default=None)
    parser.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperprop",
        description="Averaging signal propagation on hypergraphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("propagate", help="propagate a per-node signal")
    p.add_argument("--incidence", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--signal", help="nodeId + value column(s)")
    source.add_argument("--labels",
                        help="derive one one-vs-rest column per class")
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
    return parser


def _propagation_config(args) -> PropagationConfig:
    return PropagationConfig(variant=args.variant, layers=args.layers,
                             alpha=args.alpha)


def cmd_propagate(args) -> int:
    config = _propagation_config(args)  # bad flags fail before any read
    if args.signal is not None:
        ids, values = load_signal(args.signal)
    else:
        ids, classes, class_names = read_labels(args.labels)
        if not ids:
            raise ParseError(f"{args.labels}: no label rows")
    h, maps = load_incidence(args.incidence, node_universe=ids)
    # universe ids occupy the leading indices
    if args.signal is not None:
        x0 = np.zeros((h.n_nodes, values.shape[1]))
        x0[:len(ids)] = values
    else:  # one-vs-rest indicators, which propagate converts once
        x0 = np.zeros((h.n_nodes, len(class_names)), dtype=bool)
        x0[np.arange(len(ids)), classes] = True
    out = propagate(h, x0, config)
    write_signal(args.output, maps.node_ids.ids, out)
    return 0


def _usable_cores() -> int:
    """The CPUs this process may run on: its affinity set, where the OS has
    one, else every CPU.  A cgroup CPU quota is not read."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_eval(args, task_name: str) -> int:
    spec = TaskSpec(  # bad flags fail before any read
        task=task_name,
        method=args.method,
        propagation=_propagation_config(args),
        smoothing=args.smoothing,
        n_folds=args.folds,
        top_k=getattr(args, "top_k", 100),
        seed=args.seed,
    )
    n_jobs = check_n_jobs(
        _usable_cores() if args.jobs is None else args.jobs)
    bundle = load_dataset(args.incidence, args.labels)
    runner = run_classification if task_name == "classification" else run_retrieval
    report = runner(bundle.hypergraph, bundle.labels, spec,
                    dataset_name=bundle.name, class_names=bundle.class_names,
                    n_jobs=n_jobs)
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (HyperpropError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
