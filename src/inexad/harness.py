"""Experiment orchestration: repeated splits, lambda selection, report emission.

One experiment = n_repeats independent split/train/evaluate rounds per
mode, each seeded as base_seed + repeat so any single round can be
replayed in isolation.  Test groups are singletons (exact labels), so
the reported test AUC is the set-level AUC over singleton sets, which
coincides with the plain pairwise AUC.
"""

import collections
import csv
import itertools
import json
import math
import numbers
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .data import gen_synthetic, load_csv, make_splits, materialize, preprocess
from .metrics import empirical_auc, roc_curve
from .scorer import score_batch
from .training import (
    MODES,
    VAL_METRIC,
    TrainConfig,
    _is_plain,
    _lambda_groups,
    _train_members,
    _usable_cpus,
    best_of_grid,
    write_history,
)


@dataclass
class ExperimentConfig:
    csv_path: str = None  # None -> the synthetic benchmark
    label_col: str = "label"
    modes: tuple = ("proposed",)
    n_repeats: int = 10
    seed: int = 0
    out_dir: str = "results"
    # every training setting: epochs, patience, the lambda grid, ...
    train_config: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        for name, low in (("n_repeats", 1), ("seed", 0)):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= low):
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        if self.csv_path is None and self.label_col != "label":
            raise ValueError(f"label_col {self.label_col!r} needs csv_path: the "
                             "synthetic data has no label column")
        for i, m in enumerate(self.modes):
            if m not in MODES:
                raise ValueError(f"unknown mode {m!r}")
            if m in self.modes[:i]:
                raise ValueError(f"mode {m!r} is given more than once")
        # each round sets these itself, so another value would be ignored
        default = TrainConfig()
        for name, owner in (("lam", "train_config.lambda_grid=(lam,)"),
                            ("mode", "modes"), ("rng_seed", "seed")):
            if getattr(self.train_config, name) != getattr(default, name):
                raise ValueError(f"train_config.{name} is set per round; "
                                 f"give it as {owner}")
        grid = tuple(self.train_config.lambda_grid)
        first = {}
        for i, lam in enumerate(grid):
            j = first.setdefault(_history_label(lam), i)
            if j != i:
                raise ValueError(
                    f"lambda grid values {grid[j]!r} and {lam!r} would share the "
                    f"history file label {_history_label(lam)!r}")


@dataclass
class ModeResult:
    aucs: list
    chosen_lambdas: list
    seconds: list

    @property
    def mean(self):
        return float(np.mean(self.aucs))

    @property
    def stderr(self):
        if len(self.aucs) < 2:
            return 0.0
        return float(np.std(self.aucs, ddof=1) / math.sqrt(len(self.aucs)))


@dataclass
class EvaluationReport:
    dataset_name: str
    n_repeats: int
    seed: int
    modes: dict  # mode -> ModeResult
    roc_curves: dict = field(default_factory=dict)  # (mode, repeat) -> RocCurve
    histories: dict = field(default_factory=dict)  # (mode, repeat, lam) -> history

    def to_dict(self, include_timing=True):
        out = {
            "dataset": self.dataset_name,
            "n_repeats": self.n_repeats,
            "seed": self.seed,
            "modes": {},
        }
        for mode, res in sorted(self.modes.items()):
            entry = {
                "aucs": [float(a) for a in res.aucs],
                "chosen_lambdas": [
                    None if l is None else float(l) for l in res.chosen_lambdas
                ],
                "mean_auc": res.mean,
                "stderr_auc": res.stderr,
            }
            if include_timing:
                entry["seconds"] = [float(s) for s in res.seconds]
            out["modes"][mode] = entry
        return out


def _history_label(lam):
    """How lam appears in a history file name."""
    return f"{lam:g}"


def _lambdas_for(mode, grid):
    """The lambda values one mode's rounds train: the grid where lambda matters."""
    if mode == "ae":
        return (0.0,)
    if mode == "mil":
        return (1.0,)  # unused by the mil objective
    return grid


def _train_task(train_data, val_data, cfg, lams, tracks, overlap=None):
    """Train one objective group of one repeat in a worker process.

    Returns ({track: {lam: TrainResult}}, seconds).  Per track, only the
    group's best_of_grid winner keeps its parameters: a mode's winner over
    its whole grid is always one of these.  overlap goes to the training
    kernel: False in pool workers, which keep every CPU busy already.
    """
    t0 = time.perf_counter()
    out = {}
    trained = _train_members(train_data, val_data, cfg, lams, tracks, overlap=overlap)
    for track, results in zip(tracks, trained):
        best = best_of_grid(list(zip(lams, results)))
        for res in results:
            if res is not best:
                res.best_params = None
        out[track] = dict(zip(lams, results))
    return out, time.perf_counter() - t0


def _worker_count(n_tasks):
    """One worker per usable CPU, at most one per task; 1 where fork is unavailable."""
    if not hasattr(os, "fork"):
        return 1
    return min(n_tasks, _usable_cpus())


def _one_blas_thread():
    """Pool worker initializer: BLAS on one thread in this worker only.

    The workers already fill the CPUs, and BLAS threads on top of them
    slowed a 4-mode run several-fold.  The caller's process keeps its
    own setting; with no known setter, nothing changes.
    """
    from . import blas  # imported here: ctypes is not needed at import time

    blas.set_num_threads(1)


def _map_tasks(tasks):
    """_train_task over tuples of its arguments, results in task order.

    Tasks are seeded on their own, so the results do not depend on how
    many workers run them.  Workers are forked, so they inherit the
    imported package instead of importing it again, and each runs its
    BLAS on one thread (see _one_blas_thread).
    """
    workers = _worker_count(len(tasks))
    if workers <= 1:
        return list(itertools.starmap(_train_task, tasks))
    # imported here: at module level they add about 20 ms to `import inexad`
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_one_blas_thread)
    try:
        # the workers fill the CPUs, so no training overlaps its evaluation
        return list(pool.map(_train_task, *zip(*tasks), itertools.repeat(False)))
    finally:
        # after a failed task, do not start the tasks still queued
        pool.shutdown(cancel_futures=True)


def run_experiment(config):
    """Run every (repeat, mode) round and aggregate test AUCs.

    The parent draws the splits and scores the test data; the training
    runs in a pool of worker processes (see _map_tasks), one task per
    objective group.  Per repeat, the plain objective (ae, and proposed
    and sae at lambda 0) is trained once, with one validation track per
    metric; each other group of lambda values, and mil, is its own task.
    """
    base_ds = None
    if config.csv_path is not None:
        base_ds = preprocess(load_csv(config.csv_path, config.label_col))

    tc = config.train_config

    report = EvaluationReport(
        dataset_name="synthetic" if base_ds is None else base_ds.name,
        n_repeats=config.n_repeats,
        seed=config.seed,
        modes={m: ModeResult(aucs=[], chosen_lambdas=[], seconds=[])
               for m in config.modes},
    )

    rounds = []  # (repeat, mode, test data, lams, indices of the tasks it uses)
    tasks = []  # _train_task arguments
    for r in range(config.n_repeats):
        seed_r = config.seed + r
        rng = np.random.default_rng(seed_r)
        if base_ds is None:
            ds, split = gen_synthetic(rng)
        else:
            ds, split = base_ds, make_splits(base_ds, rng)
        train_data, val_data, test_data = materialize(ds, split)
        shared = None  # this repeat's plain task
        for mode in config.modes:
            lams = _lambdas_for(mode, tc.lambda_grid)
            cfg, metric, used = replace(tc, mode=mode, rng_seed=seed_r), VAL_METRIC[mode], []
            for group in _lambda_groups(mode, lams):
                if not _is_plain(mode, lams[group[0]]):
                    used.append(len(tasks))
                    tasks.append((train_data, val_data, cfg,
                                  [float(lams[i]) for i in group], [metric]))
                    continue
                if shared is None:
                    shared = len(tasks)
                    tasks.append((train_data, val_data, cfg, [0.0], []))
                if metric not in tasks[shared][4]:
                    tasks[shared][4].append(metric)
                used.append(shared)
            rounds.append((r, mode, test_data, lams, used))

    # the costliest tasks first, so that none of them starts last; ties in plan order
    order = sorted(range(len(tasks)), key=lambda i: -len(tasks[i][3]))
    done = dict(zip(order, _map_tasks([tasks[i] for i in order])))
    # a task's seconds are split equally between the rounds it serves
    users = collections.Counter(t for *_, used in rounds for t in used)
    for r, mode, test_data, lams, used in rounds:
        found = {}
        for t in used:
            found.update(done[t][0][VAL_METRIC[mode]])
        results = [(lam, found[lam]) for lam in lams]
        best = best_of_grid(results)
        for lam, res in results:
            report.histories[(mode, r, lam)] = res.history
        a_scores = score_batch(best.best_params, test_data.anomalies)
        n_scores = score_batch(best.best_params, test_data.normals)
        auc = empirical_auc(a_scores, n_scores)
        report.modes[mode].aucs.append(auc)
        # mil ignores lambda entirely; don't report a fake choice
        report.modes[mode].chosen_lambdas.append(
            None if mode == "mil" else next(float(lam) for lam, res in results if res is best))
        report.modes[mode].seconds.append(sum(done[t][1] / users[t] for t in used))
        report.roc_curves[(mode, r)] = roc_curve(a_scores, n_scores)

    return report


def emit_report(report, out_dir):
    """Write summary.json plus per-mode AUC, ROC, and history CSVs."""
    os.makedirs(out_dir, exist_ok=True)
    written = []

    path = os.path.join(out_dir, "summary.json")
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(path)

    for mode, res in sorted(report.modes.items()):
        path = os.path.join(out_dir, f"auc_{mode}.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["repeat", "test_auc", "chosen_lambda"])
            for r, (auc, lam) in enumerate(zip(res.aucs, res.chosen_lambdas)):
                writer.writerow([r, repr(float(auc)),
                                 "" if lam is None else repr(float(lam))])
        written.append(path)

    for (mode, r), curve in sorted(report.roc_curves.items()):
        path = os.path.join(out_dir, f"roc_{mode}_{r}.csv")
        curve.to_csv(path)
        written.append(path)

    for (mode, r, lam), history in sorted(
            report.histories.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2])):
        path = os.path.join(out_dir, f"history_{mode}_{r}_{_history_label(lam)}.csv")
        write_history(path, history, mode)
        written.append(path)

    return written
