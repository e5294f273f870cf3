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
import os
import pickle
import select
import signal
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .data import gen_synthetic, load_csv, make_splits, materialize, preprocess
from .metrics import RocCurve, empirical_auc, roc_curve
from .network import check_path, choice, integer, sequence
from .scorer import score_batch
from .training import (
    MODES,
    VAL_METRIC,
    TrainConfig,
    _lambda_groups,
    _train_members,
    _usable_cpus,
    best_of_grid,
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
        self.n_repeats = integer("n_repeats", self.n_repeats, 1)  # json.dump takes no np.int64
        self.seed = integer("seed", self.seed, 0)
        if self.csv_path is not None:
            self.csv_path = check_path("csv_path", self.csv_path)
        self.out_dir = check_path("out_dir", self.out_dir)
        if not isinstance(self.label_col, str):  # else a column index
            self.label_col = integer("label_col", self.label_col, 0)
        if self.csv_path is None and self.label_col != "label":
            raise ValueError(f"label_col {self.label_col!r} needs csv_path: the "
                             "synthetic data has no label column")
        self.modes = sequence("modes", self.modes)
        if not self.modes:
            raise ValueError("modes must name at least one mode")
        for i, m in enumerate(self.modes):
            choice(f"modes[{i}]", m, MODES)
            if m in self.modes[:i]:
                raise ValueError(f"modes: mode {m!r} is given more than once")
        if not isinstance(self.train_config, TrainConfig):
            raise ValueError(f"train_config takes a TrainConfig, got {self.train_config!r}")
        # each round sets these itself, so another value would be ignored
        default = TrainConfig()
        for name, owner in (("lam", "train_config.lambda_grid=(lam,)"),
                            ("mode", "modes"), ("rng_seed", "seed")):
            if getattr(self.train_config, name) != getattr(default, name):
                raise ValueError(f"train_config.{name} is set per round; "
                                 f"give it as {owner}")
        # run_experiment gathers a round's results by value and names each history
        # file by its %g label; TrainConfig rejects -0, so equal values print alike
        grid = self.train_config.lambda_grid
        for i, lam in enumerate(grid):
            for earlier in grid[:i]:
                if _history_label(earlier) == _history_label(lam):
                    raise ValueError(f"train_config.lambda_grid values {earlier!r} and {lam!r} "
                                     "would share one history: they print alike")


@dataclass
class Round:
    """One (repeat, mode) round of an experiment."""

    auc: float  # test AUC of the model chosen on validation
    chosen_lambda: float  # None for mil, which ignores lambda
    seconds: float  # training time, see run_experiment
    roc: RocCurve  # of the chosen model on the test data
    results: list  # [(lam, TrainResult)] of the mode's grid, in grid order; best_params None


@dataclass
class ModeResult:
    rounds: list  # of Round, in repeat order

    @property
    def aucs(self):
        return [rd.auc for rd in self.rounds]

    @property
    def mean(self):
        return float(np.mean(self.aucs))

    @property
    def stderr(self):
        if len(self.rounds) < 2:
            return 0.0
        return float(np.std(self.aucs, ddof=1) / math.sqrt(len(self.rounds)))


@dataclass
class EvaluationReport:
    dataset_name: str
    n_repeats: int
    seed: int
    modes: dict  # mode -> ModeResult

    def to_dict(self, include_timing=True):
        out = {
            "dataset": self.dataset_name,
            "n_repeats": self.n_repeats,
            "seed": self.seed,
            "modes": {},
        }
        for mode, res in sorted(self.modes.items()):
            entry = {
                "aucs": [float(rd.auc) for rd in res.rounds],
                "chosen_lambdas": [rd.chosen_lambda for rd in res.rounds],
                "mean_auc": res.mean,
                "stderr_auc": res.stderr,
            }
            if include_timing:
                entry["seconds"] = [float(rd.seconds) for rd in res.rounds]
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


def _train_task(train_data, val_data, cfg, lams, plain, tracks, test_data, overlap=None):
    """Train one objective group of one repeat (plain as _lambda_groups
    flagged it), then score test_data with each track's best_of_grid winner.

    Returns ({track: ([TrainResult per lam], (anomaly scores, normal
    scores))}, seconds), where seconds counts the training only.  A mode's
    winner over its whole grid is always the first maximum of its own
    group, so the caller needs the scores but no model: every best_params
    is None.  overlap goes to the training kernel: False in the pool's
    children, which keep every CPU busy already.
    """
    t0 = time.perf_counter()
    trained = _train_members(train_data, val_data, cfg, lams, plain, tracks, overlap=overlap)
    seconds, out = time.perf_counter() - t0, {}
    for track, results in zip(tracks, trained):
        best = best_of_grid(list(zip(lams, results))).best_params
        out[track] = results, (score_batch(best, test_data.anomalies),
                               score_batch(best, test_data.normals))
        for res in results:
            res.best_params = None
    return out, seconds


def _worker_count(n_tasks):
    """One worker per usable CPU, at most one per task; 1 where fork is unavailable."""
    return min(n_tasks, _usable_cpus()) if hasattr(os, "fork") else 1


def _map_tasks(tasks):
    """_train_task over tuples of its arguments, results in task order.

    Tasks are seeded on their own, so the results do not depend on how
    many run at once.  With one worker they run in the calling process.
    Otherwise each task runs in a child forked for it, in task order and
    at most one per worker at a time.  The child inherits the task table
    and the imported package, writes one pickled (ok, result or
    exception) to a pipe of its own and exits; the parent reaps it once
    it has read that, and starts no thread.  The children inherit one
    BLAS thread, which the parent sets for the call: BLAS threads on top
    of full workers slowed a 4-mode run several-fold, and a child that
    set it itself would first restart the BLAS threads its fork stopped.
    The first failed task, a child that ends without its result (a
    RuntimeError saying how it ended) or an interrupt kills every running
    child at once.  No child outlives the call.
    """
    workers = _worker_count(len(tasks))
    if workers <= 1:
        return list(itertools.starmap(_train_task, tasks))
    from . import blas  # imported here: ctypes is not needed at import time

    threads = blas.num_threads()
    results, queue = [None] * len(tasks), iter(range(len(tasks)))
    running, poller = {}, select.poll()  # result fd -> (task index, pid, reader)

    def start(i):
        """Fork the child of task i and record it in running."""
        # an interrupt waits until the child is recorded
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            reader, writer = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    try:
                        # the parent ends its children, so an interrupt sent to the whole
                        # process group must not end one first and read as a lost child
                        signal.signal(signal.SIGINT, signal.SIG_IGN)
                        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                        try:  # the children fill the CPUs, so no training overlaps its evaluation
                            message = True, _train_task(*tasks[i], False)
                        except Exception as exc:
                            message = False, exc
                        with open(writer, "wb") as out:
                            pickle.dump(message, out, pickle.HIGHEST_PROTOCOL)
                        os._exit(0)
                    finally:  # never return into the caller's stack
                        os._exit(1)
            except BaseException:
                os.close(reader)
                raise
            finally:  # before the next fork: a later child holding it would hide EOF
                os.close(writer)
            running[reader] = i, pid, open(reader, "rb")
            poller.register(reader, select.POLLIN)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)

    try:
        blas.set_num_threads(1)
        for i in itertools.islice(queue, workers):
            start(i)
        while running:
            for fd, _ in poller.poll():
                i, pid, reader = running[fd]
                with reader:
                    try:
                        ok, value = pickle.load(reader)
                    except (EOFError, pickle.UnpicklingError):
                        ok = None
                # an interrupt waits until the reaped child is out of running
                mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
                try:
                    status = os.waitpid(pid, 0)[1]
                    del running[fd]
                finally:
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                poller.unregister(fd)
                if ok is None:
                    code = os.waitstatus_to_exitcode(status)
                    how = (f"was killed by {signal.Signals(-code).name}" if code < 0
                           else f"exited with code {code}")
                    raise RuntimeError(f"a pool worker {how} while training task {i}")
                if not ok:
                    raise value
                results[i] = value
                for j in itertools.islice(queue, 1):
                    start(j)
    finally:  # only a failure or an interrupt leaves children running
        for _, pid, reader in running.values():
            os.kill(pid, signal.SIGKILL)
            reader.close()
            os.waitpid(pid, 0)
        blas.set_num_threads(threads)  # threads is None only where no setter is found
    return results


def run_experiment(config):
    """Run every (repeat, mode) round and aggregate test AUCs.

    The parent draws the splits; each task trains in a child process
    (see _map_tasks) and scores the test data with its winners there, so
    the parent computes only AUCs and ROC curves from the scores and
    holds no model.  There is one task per objective group, keyed
    (repeat, mode, lambdas).  The plain objective (ae, and proposed and
    sae at lambda 0) has mode None, so each repeat trains it once, with
    one validation track per metric.
    """
    base_ds = None
    if config.csv_path is not None:
        base_ds = preprocess(load_csv(config.csv_path, config.label_col))

    tc = config.train_config

    report = EvaluationReport(
        dataset_name="synthetic" if base_ds is None else base_ds.name,
        n_repeats=config.n_repeats,
        seed=config.seed,
        modes={m: ModeResult(rounds=[]) for m in config.modes},
    )

    plan = []  # (repeat, mode, lams, keys of the tasks it uses)
    tasks = {}  # (repeat, mode or None when plain, lams) -> _train_task arguments
    for r in range(config.n_repeats):
        seed_r = config.seed + r
        rng = np.random.default_rng(seed_r)
        if base_ds is None:
            ds, split = gen_synthetic(rng)
        else:
            ds, split = base_ds, make_splits(base_ds, rng)
        train_data, val_data, test_data = materialize(ds, split)
        for mode in config.modes:
            lams = _lambdas_for(mode, tc.lambda_grid)
            cfg, metric, used = replace(tc, mode=mode, rng_seed=seed_r), VAL_METRIC[mode], []
            for plain, group in _lambda_groups(mode, lams):
                key = (r, None if plain else mode, tuple(lams[i] for i in group))
                task = tasks.setdefault(key, (train_data, val_data, cfg, key[2], plain, [],
                                              test_data))
                if metric not in task[5]:
                    task[5].append(metric)
                used.append(key)
            plan.append((r, mode, lams, used))

    # the costliest tasks first, so that none of them starts last; ties in plan order
    order = sorted(tasks, key=lambda key: -len(key[2]))
    done = dict(zip(order, _map_tasks([tasks[key] for key in order])))
    # a task's seconds are split equally between the rounds it serves
    users = collections.Counter(t for *_, used in plan for t in used)
    for r, mode, lams, used in plan:
        found = {}  # lam -> (TrainResult, test scores of its task's winner)
        for t in used:
            results, scores = done[t][0][VAL_METRIC[mode]]
            found.update((lam, (res, scores)) for lam, res in zip(t[2], results))
        results = [(lam, found[lam][0]) for lam in lams]
        best = best_of_grid(results)
        a_scores, n_scores = found[best.chosen_lambda][1]
        report.modes[mode].rounds.append(Round(
            auc=empirical_auc(a_scores, n_scores),
            # mil ignores lambda entirely; don't report a fake choice
            chosen_lambda=None if mode == "mil" else best.chosen_lambda,
            seconds=sum(done[t][1] / users[t] for t in used),
            roc=roc_curve(a_scores, n_scores),
            results=results,
        ))

    return report


def _write_csv(path, header, rows):
    """Write one report CSV.  A float is written by repr, so it reads back
    exactly, None as an empty cell, and an integer as is."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, float) else "" if v is None else v
                          for v in row] for row in rows)


def emit_report(report, out_dir):
    """Write summary.json and, per mode, its AUC CSV and each round's ROC CSV
    and history CSVs; returns the paths written."""
    os.makedirs(out_dir, exist_ok=True)
    written = [os.path.join(out_dir, "summary.json")]
    with open(written[0], "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")

    def write(name, header, rows):
        written.append(os.path.join(out_dir, name))
        _write_csv(written[-1], header, rows)

    for mode, res in sorted(report.modes.items()):
        write(f"auc_{mode}.csv", ["repeat", "test_auc", "chosen_lambda"],
              [(r, rd.auc, rd.chosen_lambda) for r, rd in enumerate(res.rounds)])
        for r, rd in enumerate(res.rounds):
            write(f"roc_{mode}_{r}.csv", ["threshold", "fpr", "tpr"],
                  zip(rd.roc.thresholds.tolist(), rd.roc.fpr.tolist(), rd.roc.tpr.tolist()))
            for lam, result in rd.results:
                write(f"history_{mode}_{r}_{_history_label(lam)}.csv",
                      ["epoch", "train_objective", VAL_METRIC[mode]], result.history)
    return written
