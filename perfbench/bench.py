"""Seeded end-to-end runs of the hyperprop CLI, checked and timed.

One invocation benchmarks one workload (see ``workloads.py``) in this
process, after generating its dataset in a separate process:

1. ``gen.py`` writes the seeded CSV files under ``.perfbench_work/``.
2. ``hyperprop.cli.main(argv)`` runs in-process, again and again, until
   ``--seconds`` have passed; every run loads the CSV files afresh, as a
   user's run would.  One untimed warm-up run comes first.
3. Each run's output is checked outside the timed interval: a JSON report
   must match its pinned sha256 (or, for an unpinned seed, the first
   run's), count ``classes x folds`` cells plus skipped cells, and carry
   the ``mean_metric`` the CLI printed; a propagated signal must agree
   within 1e-10 with an independent scipy ``D^-1 H B^-1 H^T X``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced runs and reports per-layer metrics from the traced
ones (see ``spans.py``), plus a four-pass propagation probe.  The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy
import scipy.sparse as sp

import hyperprop
from hyperprop import cli
from hyperprop import propagation

from spans import Recorder, layer_metrics, mark_return, traced
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SIGNAL_TOLERANCE = 1e-10
MIN_SAMPLES = 3

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "work_s": "s",
                    "peak_rss_mb": "MB"}
# The end-to-end metric each layer metric should move, and on which workload:
#   io.{parse,labels,universe}_s, io.rows_in, io.bytes_in, hypergraph.*_s and
#     counts, cli.self_s -> setup_s, most on propagate-labels;
#   hypergraph.bytes_per_nnz -> peak_rss_mb on propagate-labels;
#   io.write_s, io.bytes_out -> work_s on propagate-labels;
#   propagation.* -> work_s on classify-prop (no calls on retrieve-nb);
#   naive_bayes.* -> work_s on retrieve-nb (no calls on classify-prop);
#   metrics.roc_auc_* -> work_s on classify-prop; metrics.precision_at_k_*,
#     metrics.items_ranked -> work_s on retrieve-nb; evaluation.* -> work_s
#     on classify-prop.  evaluation.concurrency is child busy time over the
#     harness span: below 1 with --jobs 1, the share not spent in children.
PER_LAYER_UNITS = {
    "io.parse_s": "s", "io.labels_s": "s", "io.universe_s": "s",
    "io.rows_in": "count", "io.bytes_in": "B", "io.parse_rows_per_s": "1/s",
    "io.write_s": "s", "io.bytes_out": "B",
    "hypergraph.build_s": "s", "hypergraph.pairs_in": "count",
    "hypergraph.nnz": "count", "hypergraph.dup_collapsed": "count",
    "hypergraph.bytes_per_nnz": "B/nnz",
    "propagation.calls": "count", "propagation.busy_s": "s",
    "propagation.layer_columns": "count", "propagation.ns_per_nnz_col": "ns",
    "propagation.gather_s": "s", "propagation.edge_scale_s": "s",
    "propagation.scatter_s": "s", "propagation.node_scale_s": "s",
    "propagation.flops": "computed_flop",
    "propagation.bytes_moved": "computed_B",
    "naive_bayes.fit_calls": "count", "naive_bayes.fit_s": "s",
    "naive_bayes.score_s": "s", "naive_bayes.scored_nodes": "count",
    "metrics.roc_auc_calls": "count", "metrics.roc_auc_s": "s",
    "metrics.precision_at_k_calls": "count", "metrics.precision_at_k_s": "s",
    "metrics.items_ranked": "count",
    "evaluation.cells": "count", "evaluation.skipped": "count",
    "evaluation.binarize_calls": "count", "evaluation.binarize_s": "s",
    "evaluation.assign_folds_s": "s", "evaluation.self_s": "s",
    "evaluation.concurrency": "ratio",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def machine() -> dict:
    """The machine and software the numbers were measured on."""
    def sysconf(code):  # glibc _SC_LEVEL2_CACHE_SIZE / _SC_LEVEL3_CACHE_SIZE
        try:
            return os.sysconf(code)
        except (ValueError, OSError):
            return None

    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "l2_bytes": sysconf(191), "l3_bytes": sysconf(194)}


def generate(workload, seed: int, out_dir: Path, scale: float = 1.0) -> dict:
    """Generate the workload's dataset in a separate process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "gen.py"), "--workload", workload.name,
         "--seed", str(seed), "--out", str(out_dir), "--scale", str(scale)],
        capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"dataset generation failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


class ReportCheck:
    """Checks one JSON report; ``digest`` is the pinned sha256, if any."""

    def __init__(self, n_classes: int, n_folds: int, digest: str | None):
        self.cells = n_classes * n_folds
        self.digest = digest
        self.how = "pinned" if digest else "unpinned seed: checked run to run"

    def __call__(self, stdout: str, output: Path) -> str | None:
        data = output.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if self.digest is None:
            self.digest = digest  # unpinned seed: later runs must match it
        elif digest != self.digest:
            return f"report sha256 {digest} != expected {self.digest}"
        doc = json.loads(data)
        if len(doc["cells"]) + len(doc["skipped"]) != self.cells:
            return (f"{len(doc['cells'])} cells + {len(doc['skipped'])} "
                    f"skipped != {self.cells}")
        printed = [line for line in stdout.splitlines()
                   if line.startswith("mean_metric=")]
        if len(printed) != 1:
            return f"expected one mean_metric line, got {stdout!r}"
        mean = doc[f"mean_{doc['metric']}"]
        if float(printed[0].split("=", 1)[1]) != mean:
            return f"printed {printed[0]} but report holds {mean!r}"
        return None


class SignalCheck:
    """Compares a propagated one-hot label signal with a scipy oracle."""

    def __init__(self, data_dir: Path):
        truth = np.load(data_dir / "truth.npz")
        labels, nodes, edges = truth["labels"], truth["nodes"], truth["edges"]
        n, m = labels.size, int(edges.max()) + 1
        H = sp.csr_matrix((np.ones(nodes.size), (nodes, edges)), shape=(n, m))
        d = np.asarray(H.sum(axis=1)).ravel()
        b = np.asarray(H.sum(axis=0)).ravel()
        d_inv = np.divide(1.0, d, out=np.zeros(n), where=d > 0)
        # class columns in the CLI's order: label strings sorted
        names = sorted({f"c{c}" for c in labels.tolist()})
        column = {int(name[1:]): i for i, name in enumerate(names)}
        X = np.zeros((n, len(names)))
        X[np.arange(n), [column[c] for c in labels.tolist()]] = 1.0
        self.expected = d_inv[:, None] * (H @ ((H.T @ X) / b[:, None]))
        self.digest = None
        self.how = f"within {SIGNAL_TOLERANCE:g} of a scipy oracle"

    def __call__(self, stdout: str, output: Path) -> str | None:
        lines = output.read_text(encoding="utf-8").splitlines()
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != self.expected.shape[0]:
            return f"{len(rows)} signal rows, expected {self.expected.shape[0]}"
        ids = np.array([int(r[0][1:]) for r in rows])
        got = np.array([r[1:] for r in rows], dtype=np.float64)
        if got.shape[1] != self.expected.shape[1]:
            return f"{got.shape[1]} signal columns, expected {self.expected.shape[1]}"
        err = float(np.abs(got - self.expected[ids]).max())
        if not err <= SIGNAL_TOLERANCE:
            return f"signal differs from the oracle by {err:.3g}"
        if self.digest is None:
            self.digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        return None


def run_cli(workload, argv, output: Path, check, recorder=None, run=0):
    """One CLI run.  Returns ``((wall_s, setup_s), None)`` or ``(None, why)``."""
    loader = "load_incidence" if workload.command == "propagate" else "load_dataset"
    marks: list = []
    out = io.StringIO()
    root = recorder.cli_run(run) if recorder else contextlib.nullcontext()
    try:
        with mark_return(cli, loader, marks), contextlib.redirect_stdout(out):
            with root:
                t0 = time.perf_counter()
                rc = cli.main(argv)
                t1 = time.perf_counter()
    except (Exception, SystemExit) as exc:  # a raising run is a failed run
        return None, f"raised {exc!r}"
    if rc != 0:
        return None, f"exit code {rc}"
    if len(marks) != 1:
        return None, f"loader returned {len(marks)} times"
    why = check(out.getvalue(), output)
    return (None, why) if why else ((t1 - t0, marks[0] - t0), None)


def probe(h, width: int, seed: int, budget_s: float = 1.0) -> dict:
    """Median times of the four passes of one row-normalized layer.

    ``edge_average`` and ``node_average`` each do one product plus one
    degree scale; the scale's time is the call's minus the bare product's.
    """
    if h is None:
        raise AttributeError("no Hypergraph was built")
    x = np.random.default_rng(seed).random((h.n_nodes, width))
    r = propagation.edge_average(h, x)
    samples = {k: [] for k in ("gather", "edge_scale", "scatter", "node_scale")}
    deadline = time.perf_counter() + budget_s
    while time.perf_counter() < deadline or len(samples["gather"]) < MIN_SAMPLES:
        t0 = time.perf_counter()
        h.edge_node_matrix @ x
        t1 = time.perf_counter()
        propagation.edge_average(h, x)
        t2 = time.perf_counter()
        h.node_edge_matrix @ r
        t3 = time.perf_counter()
        propagation.node_average(h, r)
        t4 = time.perf_counter()
        samples["gather"].append(t1 - t0)
        samples["edge_scale"].append((t2 - t1) - (t1 - t0))
        samples["scatter"].append(t3 - t2)
        samples["node_scale"].append((t4 - t3) - (t3 - t2))
    return {f"propagation.{k}_s": statistics.median(v) for k, v in samples.items()}


def summary(values) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "n": len(values)}


def end_to_end(samples, log) -> dict:
    """Medians of the untraced runs' (wall_s, setup_s) samples, plus RSS."""
    stats = {"wall_s": summary([w for w, _ in samples]),
             "setup_s": summary([s for _, s in samples]),
             "work_s": summary([w - s for w, s in samples])}
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    stats["peak_rss_mb"] = {"median": rss, "q1": rss, "q3": rss, "n": 1}
    for key, st in stats.items():
        log(f"{key} {st['median']:.6g} {END_TO_END_UNITS[key]} "
            f"(q1 {st['q1']:.6g}, q3 {st['q3']:.6g}, n {st['n']})")
    return {k: st["median"] for k, st in stats.items()}


def per_layer(recorder, untraced, traced_runs, workload, counts, files,
              output, seed, probe_s) -> dict:
    """Medians over the traced runs of each layer metric, plus the probe."""
    per_run, graph = [], None
    for run in range(1, len(traced_runs) + 1):
        spans = [s for s in recorder.spans if s.run == run]
        graphs = [s.attrs["graph"] for s in spans if "graph" in s.attrs]
        graph = graphs[-1] if graphs else None
        per_run.append(layer_metrics(spans, graph))
    layers = {k: statistics.median_low(r[k] for r in per_run)
              for k in per_run[0]}
    layers["io.rows_in"] = counts["rows"] + counts["nodes"]
    layers["io.bytes_in"] = sum(f.stat().st_size for f in files)
    layers["io.parse_rows_per_s"] = statistics.median_low(
        counts["rows"] / r["io.parse_s"] if r["io.parse_s"] else 0.0
        for r in per_run)
    layers["io.bytes_out"] = output.stat().st_size
    layers["trace.overhead_s"] = (statistics.median(w for w, _ in traced_runs)
                                  - statistics.median(w for w, _ in untraced))
    passes = ("gather", "edge_scale", "scatter", "node_scale")
    layers.update({f"propagation.{k}_s": 0.0 for k in passes})
    width = counts["classes"] if workload.command == "propagate" else 1
    try:
        layers.update(probe(graph, width, seed, probe_s))
    except AttributeError as exc:  # a public name the probe calls is gone
        recorder.absent.append(f"probe: {exc}")
    return layers


def bench(name: str, seed: int, seconds: float, trace: bool,
          work_root: Path, scale: float = 1.0, pins=None,
          log=print) -> dict:
    """Benchmark one workload; returns the result object of the last line.

    ``pins`` maps workload name -> seed (as a string) -> the sha256 its JSON
    report must have; ``scale`` shrinks the dataset, for smoke tests.
    """
    workload = WORKLOADS[name]
    data_dir = work_root / f"{name}-{seed}-{os.getpid()}"
    output = data_dir / ("out.csv" if workload.command == "propagate" else "out.json")
    try:
        made = generate(workload, seed, data_dir, scale)
        counts = made["counts"]
        files = [data_dir / "incidence.csv", data_dir / "labels.csv"]
        log("# machine " + json.dumps(machine(), sort_keys=True))
        log("# input " + json.dumps({
            "workload": name, "seed": seed, "spec": made["spec"],
            "counts": counts, "bytes_in": sum(f.stat().st_size for f in files),
            "argv": workload.argv("DATA", "OUT"),
            "hyperprop": str(Path(hyperprop.__file__).parent)}, sort_keys=True))
        if workload.command == "propagate":
            check = SignalCheck(data_dir)
        else:
            check = ReportCheck(counts["classes"], workload.folds,
                                (pins or {}).get(name, {}).get(str(seed)))
        argv = workload.argv(data_dir, output)

        attempted, failures = 0, []
        recorder = Recorder() if trace else None
        untraced, traced_runs = [], []

        def once(rec=None, run=0):
            nonlocal attempted
            attempted += 1
            sample, why = run_cli(workload, argv, output, check, rec, run)
            if why:
                failures.append(why)
            return sample

        once()  # warm-up: imports, allocator, page cache; not timed
        start = time.perf_counter()
        while not failures and (
                time.perf_counter() - start < seconds
                or len(untraced) < MIN_SAMPLES
                or (trace and len(traced_runs) < MIN_SAMPLES)):
            sample = once()
            if sample:
                untraced.append(sample)
            if trace:
                with traced(recorder):
                    sample = once(recorder, len(traced_runs) + 1)
                if sample:
                    traced_runs.append(sample)

        result = {"correct": not failures, "attempted": attempted,
                  "failed": len(failures), "metrics": {}}
        for why in failures[:5]:
            log(f"# FAILED: {why}")
        log(f"# error_rate {len(failures) / attempted:.6g} "
            f"({len(failures)} failed / {attempted} attempted)")
        log(f"# output sha256 {check.digest} ({check.how})")
        if failures:
            return result
        if not trace:
            values, units = end_to_end(untraced, log), END_TO_END_UNITS
        else:
            values, units = per_layer(recorder, untraced, traced_runs, workload,
                                      counts, files, output, seed,
                                      min(1.0, seconds)), PER_LAYER_UNITS
            if recorder.absent:
                log("# absent from the program, read as zero: "
                    + ", ".join(recorder.absent))
            spans_path = work_root / f"{name}-{seed}.spans.jsonl"
            spans_path.write_text("".join(s.to_json() + "\n"
                                          for s in recorder.spans))
            log(f"# {len(recorder.spans)} spans of {len(traced_runs)} traced "
                f"runs written to {spans_path}")
            log("# propagation.flops and propagation.bytes_moved are computed "
                "from array sizes, not measured; every working set fits the "
                "L3 cache, so they are no measure of memory bandwidth")
            for key, unit in units.items():
                log(f"{key} {values[key]:.6g} {unit}")
        result["metrics"] = {k: {"value": values[k], "unit": u}
                             for k, u in units.items()}
        return result
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    work_root = Path.cwd() / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    pins = json.loads((HERE / "pins.json").read_text())
    result = bench(args.workload, args.seed, args.seconds, bool(args.trace),
                   work_root, pins=pins)
    print(json.dumps(result, sort_keys=False))
    return 0
