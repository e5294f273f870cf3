"""Per-layer tracing from outside the package: wrap public functions, record spans.

Each traced function is wrapped under every module-level name that a caller
resolves it by.  ``inexad.training.score_batch`` and
``inexad.harness.score_batch`` get their own wrappers around the one
``inexad.scorer.score_batch``, so calls made from every module are seen.  A
span is named after the function's defining module (``scorer.score_batch``)
whichever name the call went through.

Spans are kept in memory as ``(id, parent, op, name, start_ns, end_ns)`` and
written out by :meth:`Tracer.write_spans`.  ``op`` groups the spans of one
training run or one review.  Self time is a span's duration minus that of
its child spans; the package is single-threaded, so children never overlap.
"""

import contextlib
import functools
import importlib
import os
import time

import numpy as np

LAYERS = ("cli", "harness", "data", "training", "scorer", "network", "metrics")

TRACED = {
    "cli": ("main",),
    "harness": ("run_experiment", "emit_report"),
    "data": ("gen_synthetic", "load_csv", "preprocess", "make_splits", "materialize"),
    "training": ("grid_search", "train", "objective_grad", "mode_objective",
                 "validation_metric", "make_batches"),
    "scorer": ("score_batch", "reconstruct", "ae_from_vector", "load_params"),
    "network": ("mlp_forward", "mlp_backward", "sigmoid_stable"),
    "metrics": ("empirical_auc", "empirical_inexact_auc", "set_max_scores",
                "roc_curve"),
}

# Spans with these names start a new operation id; all others inherit one.
OP_ROOTS = frozenset({"training.train", "bench.review"})


def _rows(x):
    shape = np.shape(x)
    return shape[0] if len(shape) == 2 else 1


def _matmul_work(layers, n, passes):
    """Computed matmul flops and operand bytes for `passes` products per layer.

    The forward pass makes one (n, in) x (in, out) product per layer, the
    backward pass two (weight gradient and input gradient).  Bytes count
    both operands and the result once, in float64.
    """
    flops = nbytes = 0
    for layer in layers:
        out_dim, in_dim = layer.weight.shape
        flops += passes * 2 * n * in_dim * out_dim
        nbytes += passes * 8 * (n * in_dim + in_dim * out_dim + n * out_dim)
    return flops, nbytes


def _count_mlp_forward(counts, args, result):
    n = _rows(args[1])
    counts["network.mlp_forward.rows"] += n
    flops, nbytes = _matmul_work(args[0], n, 1)
    counts["network.flops_computed"] += flops
    counts["network.bytes_computed"] += nbytes


def _count_mlp_backward(counts, args, result):
    flops, nbytes = _matmul_work(args[0], _rows(args[2]), 2)
    counts["network.flops_computed"] += flops
    counts["network.bytes_computed"] += nbytes


def _count_score_batch(counts, args, result):
    counts["scorer.score_batch.rows"] += len(result)


def _count_set_max_scores(counts, args, result):
    counts["metrics.set_max_scores.sets"] += len(result)


def _count_load_csv(counts, args, result):
    counts["data.load_csv.rows"] += result.n


def _count_emit_report(counts, args, result):
    counts["harness.emit_report.files"] += len(result)
    counts["harness.emit_report.bytes"] += sum(os.path.getsize(p) for p in result)


def _count_train(counts, args, result):
    history = result.history
    counts["training.epochs"] += result.stopped_epoch
    if history:
        metrics = [m for _, _, m in history]
        # train() keeps patience from the first epoch reaching the best metric
        counts["training.best_epochs"] += history[metrics.index(max(metrics))][0]


def _count_grid_search(counts, args, result):
    counts["training.grid_runs"] += len(result)


COUNTERS = {
    "network.mlp_forward": _count_mlp_forward,
    "network.mlp_backward": _count_mlp_backward,
    "scorer.score_batch": _count_score_batch,
    "metrics.set_max_scores": _count_set_max_scores,
    "data.load_csv": _count_load_csv,
    "harness.emit_report": _count_emit_report,
    "training.train": _count_train,
    "training.grid_search": _count_grid_search,
}


class Tracer:
    """Context manager that wraps the traced functions and restores them on exit."""

    def __init__(self):
        self.spans = []
        self.calls = {}
        self.total_ns = {}
        self.self_ns = {}
        self.counts = {name: 0 for name in (
            "network.mlp_forward.rows", "network.flops_computed",
            "network.bytes_computed", "scorer.score_batch.rows",
            "metrics.set_max_scores.sets", "data.load_csv.rows",
            "harness.emit_report.files", "harness.emit_report.bytes",
            "training.epochs", "training.best_epochs", "training.grid_runs")}
        self._stack = []  # [span id, op id, start_ns, child_ns]
        self._next_id = 1
        self._next_op = 1
        self._patched = []  # (module, attribute, original)

    def __enter__(self):
        modules = {m: importlib.import_module(f"inexad.{m}") for m in LAYERS}
        targets = {}
        for layer, names in TRACED.items():
            for fname in names:
                targets[id(getattr(modules[layer], fname))] = f"{layer}.{fname}"
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                name = targets.get(id(value))
                if name is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, self._wrap(value, name))
        return self

    def __exit__(self, *exc):
        for module, attr, original in self._patched:
            setattr(module, attr, original)
        for module, attr, original in self._patched:
            if getattr(module, attr) is not original:
                raise RuntimeError(f"{module.__name__}.{attr} was not restored")
        self._patched = []
        return False

    def _start(self, name):
        span_id = self._next_id
        self._next_id += 1
        if name in OP_ROOTS:
            op = self._next_op
            self._next_op += 1
        else:
            op = self._stack[-1][1] if self._stack else 0
        self._stack.append([span_id, op, time.perf_counter_ns(), 0])

    def _finish(self, name):
        end = time.perf_counter_ns()
        span_id, op, start, child_ns = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append((span_id, parent[0] if parent else 0, op, name, start, end))
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_ns[name] = self.total_ns.get(name, 0) + duration
        self.self_ns[name] = self.self_ns.get(name, 0) + duration - child_ns

    def _wrap(self, fn, name):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._start(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._finish(name)
            if counter is not None:
                counter(self.counts, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """A span around the benchmark's own code, e.g. one review."""
        self._start(name)
        try:
            yield
        finally:
            self._finish(name)

    def seconds(self, name):
        return self.total_ns.get(name, 0) / 1e9

    def self_seconds(self, name):
        return self.self_ns.get(name, 0) / 1e9

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("id,parent,op,name,start_ns,end_ns\n")
            for span in self.spans:
                fh.write("%d,%d,%d,%s,%d,%d\n" % span)

    def layer_values(self):
        """Per-layer values by metric name: `<layer>.<fn>.<calls|self_s|s>`
        (0 for a function never called), the boundary counts, and the derived
        step and waste ratios."""
        values = dict(self.counts)
        names = {f"{layer}.{fname}" for layer, fnames in TRACED.items() for fname in fnames}
        for name in names | set(self.calls):
            values[f"{name}.calls"] = self.calls.get(name, 0)
            values[f"{name}.self_s"] = self.self_seconds(name)
            values[f"{name}.s"] = self.seconds(name)
        values["training.steps"] = self.calls.get("training.objective_grad", 0)
        epochs = self.counts["training.epochs"]
        values["training.useful_epoch_ratio"] = (
            self.counts["training.best_epochs"] / epochs if epochs else 0.0)
        grid_runs = self.counts["training.grid_runs"]
        values["training.grid_chosen_ratio"] = (
            self.calls.get("training.grid_search", 0) / grid_runs if grid_runs else 0.0)
        values["trace.spans"] = len(self.spans)
        return values
