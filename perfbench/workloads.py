"""The benchmark's workloads: inputs from the seed, set-up, timed passes, output checks.

Every workload drives the package through its public functions only, looked
up on the module at call time (``training.train``, not a name imported once),
so that a tracer that wraps those functions sees every call.

``setup()`` builds the inputs and may run several times to time set-up.
``run_pass(tracer)`` does one unit of work and checks its outputs outside the
timed region.  A pass returns a :class:`Pass`; one failed check counts one
failed operation.
"""

import contextlib
import csv
import json
import math
import os
import shutil
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

from inexad import cli, data, metrics, scorer, training

MODES = training.MODES


@dataclass
class Pass:
    wall_s: float  # timed part of the pass
    work: int  # epochs trained, or reviews made
    work_s: float  # time spent on that work
    latency_ms: list  # per-operation latency samples
    attempted: int
    failed: int


def _fail(message):
    print(f"check failed: {message}", file=sys.stderr)
    return False


class PaperSynthetic:
    """The paper's 4-mode synthetic experiment through ``inexad.cli.main``.

    Default λ grid and patience, but at most ``epochs`` epochs per training:
    with the default 1000, when early stopping fires moves the epochs of one
    repeat between 2.2k and 5.4k across seeds, too wide for the benchmark's
    bounds.  Every training then runs the same number of epochs.  The work
    is fixed by the seed and the size, not by the run's length, so the AUCs
    never depend on speed.
    """

    name = "paper-synthetic"
    min_passes = 1
    repeats_until_deadline = False
    SIZES = {"full": {"repeats": 4, "epochs": 100, "grid": None, "setup_repeats": 5},
             "tiny": {"repeats": 1, "epochs": 3, "grid": "0,1", "setup_repeats": 1}}

    def __init__(self, seed, size, out_root):
        self.seed = seed
        self.size = self.SIZES[size]
        self.setup_repeats = self.size["setup_repeats"]
        self.out_dir = os.path.join(out_root, self.name)
        self.auc_means = {}

    def setup(self):
        argv = ["--dataset", "synthetic"]
        for mode in MODES:
            argv += ["--mode", mode]
        argv += ["--repeats", str(self.size["repeats"]), "--seed", str(self.seed),
                 "--epochs", str(self.size["epochs"]), "--out", self.out_dir]
        if self.size["grid"] is not None:
            argv += ["--lambda-grid", self.size["grid"]]
        self.argv = argv

    def run_pass(self, tracer=None):
        shutil.rmtree(self.out_dir, ignore_errors=True)
        with contextlib.redirect_stdout(sys.stderr):
            start = time.perf_counter()
            try:
                code = cli.main(self.argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                traceback.print_exc(file=sys.stderr)
                code = None
            wall = time.perf_counter() - start
        rounds = len(MODES) * self.size["repeats"]
        if code != 0:
            _fail(f"cli.main exited with {code!r}")
            return Pass(wall, 0, wall, [], rounds, rounds)
        try:
            with open(os.path.join(self.out_dir, "summary.json")) as fh:
                summary = json.load(fh)
        except (OSError, ValueError) as exc:
            _fail(f"summary.json unreadable: {exc}")
            return Pass(wall, 0, wall, [], rounds, rounds)
        return self._check_rounds(summary, wall, rounds)

    def _round_epochs(self, mode, repeat):
        prefix = f"history_{mode}_{repeat}_"
        epochs = 0
        for fname in os.listdir(self.out_dir):
            if fname.startswith(prefix) and fname.endswith(".csv"):
                with open(os.path.join(self.out_dir, fname)) as fh:
                    epochs += sum(1 for _ in fh) - 2  # header and epoch 0
        return epochs

    def _check_rounds(self, summary, wall, rounds):
        failed = 0
        repeats = self.size["repeats"]
        epochs = [0] * repeats
        train_s = [0.0] * repeats
        for mode in MODES:
            try:
                entry = summary["modes"][mode]
                aucs = [float(a) for a in entry["aucs"]]
                seconds = [float(s) for s in entry["seconds"]]
                self.auc_means[mode] = float(entry["mean_auc"])
            except (KeyError, TypeError, ValueError):
                _fail(f"summary.json has no AUCs and seconds for {mode}")
                failed += repeats
                continue
            for r in range(repeats):
                round_epochs = self._round_epochs(mode, r)
                problem = None
                if r >= len(aucs) or r >= len(seconds):
                    problem = "missing from summary.json"
                elif not (math.isfinite(aucs[r]) and 0.0 <= aucs[r] <= 1.0):
                    problem = f"AUC {aucs[r]!r} outside [0, 1]"
                elif not os.path.isfile(os.path.join(self.out_dir, f"roc_{mode}_{r}.csv")):
                    problem = "no ROC file"
                elif round_epochs <= 0:
                    problem = "no training epochs recorded"
                if problem is not None:
                    _fail(f"{mode} repeat {r}: {problem}")
                    failed += 1
                    continue
                epochs[r] += round_epochs
                train_s[r] += seconds[r]
        # one latency sample per repeat: its training seconds per epoch, all modes
        latency = [1000.0 * t / e for t, e in zip(train_s, epochs) if e]
        return Pass(wall, sum(epochs), sum(train_s), latency, rounds, failed)

    def quality(self):
        return self.auc_means.get("proposed", 0.0)


def _write_mixture_csv(path, rng, size):
    """Gaussian mixture CSV; each anomaly is shifted slightly off its component mean.

    A shift drawn per anomaly, not per component, keeps the test AUC from
    depending on which way a few component shifts happen to point.
    """
    dim, k = size["dim"], size["components"]
    means = rng.normal(0.0, 1.0, size=(k, dim))
    comp_n = rng.integers(0, k, size=size["normals"])
    comp_a = rng.integers(0, k, size=size["anomalies"])
    shifts = rng.normal(0.0, size["shift_std"], size=(comp_a.size, dim))
    X = np.vstack([
        means[comp_n] + rng.normal(size=(comp_n.size, dim)),
        means[comp_a] + shifts + rng.normal(size=(comp_a.size, dim)),
    ])
    labels = np.r_[np.zeros(comp_n.size, dtype=int), np.ones(comp_a.size, dtype=int)]
    order = rng.permutation(labels.size)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{j}" for j in range(dim)] + ["label"])
        for row, label in zip(X[order], labels[order]):
            writer.writerow([repr(float(v)) for v in row] + [label])


class WideFixedLambda:
    """One `proposed` training at a fixed λ on 32-feature CSV data, then test scoring.

    ``patience=None`` makes every training run the same number of epochs.
    There is no λ grid, and 13 steps per epoch of 128-wide layers on 32-d
    inputs make the matmuls, not call overhead, the cost.
    """

    name = "wide-fixed-lambda"
    min_passes = 3
    repeats_until_deadline = True
    LAMBDA = 1.0
    SIZES = {
        "full": {"normals": 4000, "anomalies": 400, "dim": 32, "components": 4,
                 "shift_std": 0.7, "train_sets": 100, "val_sets": 25,
                 "set_size": 10, "epochs": 30, "setup_repeats": 3},
        "tiny": {"normals": 400, "anomalies": 60, "dim": 8, "components": 2,
                 "shift_std": 0.7, "train_sets": 10, "val_sets": 5,
                 "set_size": 4, "epochs": 3, "setup_repeats": 1},
    }

    def __init__(self, seed, size, out_root):
        self.seed = seed
        self.size = self.SIZES[size]
        self.setup_repeats = self.size["setup_repeats"]
        self.csv_path = os.path.join(out_root, f"{self.name}.csv")
        self.first = None  # (test AUC, final objective) of the first pass
        self.auc = 0.0

    def setup(self):
        size = self.size
        _write_mixture_csv(self.csv_path, np.random.default_rng(self.seed), size)
        ds = data.preprocess(data.load_csv(self.csv_path, "label"))
        split = data.make_splits(ds, np.random.default_rng(self.seed),
                                 n_train_sets=size["train_sets"],
                                 n_val_sets=size["val_sets"], set_size=size["set_size"])
        self.train_data, self.val_data, self.test_data = data.materialize(ds, split)
        self.config = training.TrainConfig(mode="proposed", lam=self.LAMBDA,
                                           max_epochs=size["epochs"], patience=None,
                                           rng_seed=self.seed)

    def run_pass(self, tracer=None):
        epochs = self.size["epochs"]
        start = time.perf_counter()
        try:
            result = training.train(self.train_data, self.val_data, self.config)
            trained = time.perf_counter()
            a_scores = scorer.score_batch(result.best_params, self.test_data.anomalies)
            n_scores = scorer.score_batch(result.best_params, self.test_data.normals)
            auc = metrics.empirical_auc(a_scores, n_scores)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            wall = time.perf_counter() - start
            return Pass(wall, 0, wall, [], 1, 1)
        end = time.perf_counter()
        train_s = trained - start
        if not self._check(result, auc):
            return Pass(end - start, 0, train_s, [], 1, 1)
        self.auc = auc
        return Pass(end - start, epochs, train_s, [1000.0 * train_s / epochs], 1, 0)

    def _check(self, result, auc):
        history = result.history
        if len(history) != self.size["epochs"] + 1:
            return _fail(f"{len(history) - 1} epochs run, expected {self.size['epochs']}")
        first_obj, last_obj = history[0][1], history[-1][1]
        if not (math.isfinite(last_obj) and last_obj < first_obj):
            return _fail(f"final objective {last_obj!r} not below epoch-0 {first_obj!r}")
        if not (math.isfinite(auc) and 0.0 <= auc <= 1.0):
            return _fail(f"test AUC {auc!r} outside [0, 1]")
        if self.first is None:
            self.first = (auc, last_obj)
        elif self.first != (auc, last_obj):
            return _fail(f"pass gave AUC {auc!r} and objective {last_obj!r}, "
                         f"first pass {self.first!r}")
        return True

    def quality(self):
        return self.auc


@dataclass
class Review:
    rows: np.ndarray  # set members, then reference normals
    offsets: np.ndarray  # set k is rows[offsets[k]:offsets[k + 1]]

    @property
    def n_set_rows(self):
        return int(self.offsets[-1])


def _make_review(rng, size):
    """Ragged weak sets, each with one wider-spread member, plus reference normals."""
    dim = size["dim"]
    lengths = rng.integers(1, size["max_set"] + 1, size=size["sets"])
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    members = rng.normal(size=(offsets[-1], dim))
    planted = offsets[:-1] + rng.integers(0, lengths)
    members[planted] *= size["anomaly_scale"]
    normals = rng.normal(size=(size["normals"], dim))
    return Review(rows=np.vstack([members, normals]), offsets=offsets)


def _reference_scores(params, X):
    """Squared reconstruction error from a plain forward pass over the layers."""
    act = np.tanh if params.activation == "tanh" else (lambda z: np.maximum(z, 0.0))
    h = X
    for half in (params.encoder, params.decoder):
        for i, layer in enumerate(half):
            h = h @ layer.weight.T + layer.bias
            if i < len(half) - 1:
                h = act(h)
    return ((X - h) ** 2).sum(axis=1)


class ScoreReview:
    """Closed loop, one client: score a batch of ragged weak sets with a saved model.

    Each review is one ``scorer.score_batch`` call on the stacked set members
    and reference normals, then the set-level AUC and the ROC curve of the
    set maxima.  A pass is a block of reviews.
    """

    name = "score-review"
    repeats_until_deadline = True
    SIZES = {
        "full": {"dim": 32, "sets": 256, "max_set": 8, "normals": 512,
                 "anomaly_scale": 1.2, "pool": 8, "block": 100,
                 "min_reviews": 1000, "setup_repeats": 5},
        "tiny": {"dim": 8, "sets": 16, "max_set": 4, "normals": 32,
                 "anomaly_scale": 1.2, "pool": 2, "block": 4,
                 "min_reviews": 8, "setup_repeats": 1},
    }

    def __init__(self, seed, size, out_root):
        self.seed = seed
        self.size = self.SIZES[size]
        self.setup_repeats = self.size["setup_repeats"]
        self.min_passes = self.size["min_reviews"] // self.size["block"]
        self.model_path = os.path.join(out_root, f"{self.name}.npz")
        self.auc_by_input = {}
        self.next_review = 0

    def setup(self):
        size = self.size
        rng = np.random.default_rng(self.seed)
        self.pool = [_make_review(rng, size) for _ in range(size["pool"])]
        self.init_params = scorer.ae_init(size["dim"], self.seed)
        scorer.save_params(self.model_path, self.init_params, rng_seed=self.seed)
        self.params, _ = scorer.load_params(self.model_path)

    def run_pass(self, tracer=None):
        latency = []
        failed = 0
        for _ in range(self.size["block"]):
            k = self.next_review % len(self.pool)
            self.next_review += 1
            review = self.pool[k]
            span = tracer.span("bench.review") if tracer else contextlib.nullcontext()
            with span:
                start = time.perf_counter()
                try:
                    scores = scorer.score_batch(self.params, review.rows)
                    cut = review.n_set_rows
                    per_set = np.split(scores[:cut], review.offsets[1:-1])
                    normal = scores[cut:]
                    auc = metrics.empirical_inexact_auc(per_set, normal)
                    roc = metrics.roc_curve(metrics.set_max_scores(per_set), normal)
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    failed += 1
                    continue
                latency.append(1000.0 * (time.perf_counter() - start))
            if not self._check(k, review, scores, auc, roc):
                failed += 1
        wall = sum(latency) / 1000.0
        return Pass(wall, len(latency), wall, latency, self.size["block"], failed)

    def _check(self, k, review, scores, auc, roc):
        cut = review.n_set_rows
        if k not in self.auc_by_input:
            expect = _reference_scores(self.init_params, review.rows)
            if not np.allclose(scores, expect, rtol=1e-9, atol=1e-12):
                return _fail(f"input {k}: scores differ from the reference forward pass")
                return False
        maxima = np.maximum.reduceat(scores[:cut], review.offsets[:-1])
        normal = scores[cut:]
        pairs = maxima.size * normal.size
        wins = int((maxima[:, None] > normal[None, :]).sum())
        ties = int((maxima[:, None] == normal[None, :]).sum())
        if auc != wins / pairs:
            return _fail(f"input {k}: set-level AUC {auc!r}, pair count gives {wins / pairs!r}")
            return False
        if abs(roc.auc - (wins + 0.5 * ties) / pairs) > 1e-9:
            return _fail(f"input {k}: ROC area {roc.auc!r} disagrees with the pair count")
            return False
        if self.auc_by_input.setdefault(k, auc) != auc:
            return _fail(f"input {k}: AUC {auc!r} differs from an earlier review")
            return False
        return True

    def quality(self):
        """Mean set-level AUC over the distinct review inputs."""
        if not self.auc_by_input:
            return 0.0
        return float(np.mean(list(self.auc_by_input.values())))


WORKLOADS = {w.name: w for w in (PaperSynthetic, WideFixedLambda, ScoreReview)}
