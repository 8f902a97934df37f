import hyperprop

PUBLIC = [
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


def test_public_names():
    assert PUBLIC == sorted(PUBLIC)
    assert hyperprop.__all__ == PUBLIC
    for name in PUBLIC:
        assert hasattr(hyperprop, name), name
    # the dense reference and the random graph generator live under
    # tests/, not in the package; one layer is propagate with layers=1
    for name in ("dense_kernel", "dense_propagate_layer", "SizeGuardError",
                 "check_stats", "random_hypergraph", "propagate_layer"):
        assert not hasattr(hyperprop, name), name
