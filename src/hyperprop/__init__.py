"""hyperprop: sparse averaging signal propagation on hypergraphs.

A hypergraph (equivalently, a bipartite incidence graph) connects nodes
through shared hyperedges.  This package propagates per-node signals by
alternately averaging them into hyperedges and back into nodes, entirely
through sparse two-pass aggregation.  It ships four normalization
variants, a multinomial Naive Bayes baseline on incidence features, the
ROC-AUC / precision@k metrics, a seeded k-fold transductive evaluation
harness for classification and retrieval, and loaders for simple
delimited incidence and label files.
"""

from .errors import (DegenerateLabelsError, EmptyGraphError, HyperpropError,
                     InvalidConfigError, InvalidFoldsError, MissingClassError,
                     MissingColumnError, MissingLabelError, ParseError,
                     ShapeError, UnknownClassError, UnknownNodeError)
from .evaluation import (FoldAssignment, MetricCell, MetricReport, SkippedCell,
                         TaskSpec, assign_folds, binarize, run_classification,
                         run_retrieval)
from .hypergraph import Hypergraph, IdMap, IdMaps, build_hypergraph
from .io import (DatasetBundle, dataset_stats, load_dataset, load_incidence,
                 load_labels, load_signal, write_report, write_signal)
from .metrics import precision_at_k, roc_auc
from .naive_bayes import NaiveBayesModel, fit_naive_bayes, naive_bayes_log_odds
from .propagation import (VARIANTS, PropagationConfig, edge_average,
                          node_average, propagate)

__version__ = "0.1.0"

__all__ = [
    "DatasetBundle", "DegenerateLabelsError", "EmptyGraphError",
    "FoldAssignment", "Hypergraph", "HyperpropError", "IdMap", "IdMaps",
    "InvalidConfigError", "InvalidFoldsError", "MetricCell", "MetricReport",
    "MissingClassError", "MissingColumnError", "MissingLabelError",
    "NaiveBayesModel", "ParseError", "PropagationConfig", "ShapeError",
    "SkippedCell", "TaskSpec", "UnknownClassError", "UnknownNodeError",
    "VARIANTS", "assign_folds", "binarize", "build_hypergraph",
    "dataset_stats", "edge_average", "fit_naive_bayes", "load_dataset",
    "load_incidence", "load_labels", "load_signal", "naive_bayes_log_odds",
    "node_average", "precision_at_k", "propagate", "roc_auc",
    "run_classification", "run_retrieval",
    "write_report", "write_signal",
]
