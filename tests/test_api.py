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
    "node_average", "precision_at_k", "propagate", "propagate_layer",
    "random_hypergraph", "roc_auc", "run_classification", "run_retrieval",
    "write_report", "write_signal",
]


def test_public_names():
    assert PUBLIC == sorted(PUBLIC)
    assert hyperprop.__all__ == PUBLIC
    for name in PUBLIC:
        assert hasattr(hyperprop, name), name
    # the dense reference lives in the tests' oracles, not the package
    for name in ("dense_kernel", "dense_propagate_layer", "SizeGuardError",
                 "check_stats"):
        assert not hasattr(hyperprop, name), name
