"""The benchmark's workloads: one generated dataset and one CLI run each.

Every workload is a closed loop with one client: the next CLI run starts
when the previous one has returned.  ``why`` records which layers the
workload stresses, so a change can be predicted to move it or not.
"""

from __future__ import annotations

from dataclasses import dataclass

from gen import GraphSpec


@dataclass(frozen=True)
class Workload:
    name: str
    graph: GraphSpec
    args: tuple          # subcommand, then its flags besides the file paths
    why: str

    @property
    def command(self) -> str:
        return self.args[0]

    @property
    def folds(self) -> int:
        return int(self.args[self.args.index("--folds") + 1])

    def argv(self, data_dir, output) -> list:
        """Full argv for ``hyperprop.cli.main``."""
        return [self.command, "--incidence", f"{data_dir}/incidence.csv",
                "--labels", f"{data_dir}/labels.csv",
                "--output", str(output), *self.args[1:]]


WORKLOADS = {w.name: w for w in (
    Workload(
        "classify-prop",
        GraphSpec(n_nodes=16_000, n_edges=3_200, rows=120_000, n_classes=40),
        ("classify", "--layers", "3", "--folds", "10", "--jobs", "1"),
        "classify, 3 row layers, 400 cells, --jobs 1: propagation, roc_auc "
        "and the per-cell harness dominate; ingest is about a third"),
    Workload(
        "retrieve-nb",
        # At 80% homophily precision@100 is 1.0 in every cell, so the report
        # would not depend on the input and its pin would check nothing.
        GraphSpec(n_nodes=12_500, n_edges=2_500, rows=100_000, n_classes=20,
                  homophily=0.35),
        ("retrieve", "--method", "naive-bayes", "--top-k", "100",
         "--folds", "10"),
        "retrieve with Naive Bayes: fit, score, pseudo-negative sampling "
        "and precision_at_k; propagation never runs, so a propagation "
        "change shows no effect"),
    Workload(
        "propagate-labels",
        GraphSpec(n_nodes=30_000, n_edges=3_000, rows=150_000, n_classes=7),
        ("propagate", "--layers", "1"),
        "propagate --labels, 1 layer: ingest, CSR build and the signal "
        "writer; evaluation, metrics and Naive Bayes never run"),
)}
