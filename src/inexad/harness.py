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
    results: list  # [(lam, TrainResult)] of the mode's grid, in grid order


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


def _train_task(train_data, val_data, cfg, lams, plain, tracks, overlap=None):
    """Train one objective group of one repeat: plain as _lambda_groups flagged it.

    Returns ({track: [TrainResult per lam]}, seconds).  Per track, only the
    group's best_of_grid winner keeps its parameters: a mode's winner over
    its whole grid is always one of these.  overlap goes to the training
    kernel: False in pool workers, which keep every CPU busy already.
    """
    t0 = time.perf_counter()
    trained = _train_members(train_data, val_data, cfg, lams, plain, tracks, overlap=overlap)
    for results in trained:
        best = best_of_grid(list(zip(lams, results)))
        for res in results:
            if res is not best:
                res.best_params = None
    return dict(zip(tracks, trained)), time.perf_counter() - t0


def _worker_count(n_tasks):
    """One worker per usable CPU, at most one per task; 1 where fork is unavailable."""
    if not hasattr(os, "fork"):
        return 1
    return min(n_tasks, _usable_cpus())


_INDEX_BYTES = 4  # a task index on a worker's task pipe; one write, so atomic


def _serve(tasks, task_in, result_out):
    """Body of a forked pool worker: for each task index read from task_in,
    until the parent closes it, write one pickled (index, ok, result or
    exception) to result_out."""
    # the parent ends its workers, so an interrupt sent to the whole process
    # group must not end one first and read as a lost worker
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    from . import blas

    blas.set_num_threads(1)
    with open(result_out, "wb") as out:
        while index := os.read(task_in, _INDEX_BYTES):
            i = int.from_bytes(index, "little")
            try:  # the workers fill the CPUs, so no training overlaps its evaluation
                message = (i, True, _train_task(*tasks[i], False))
            except Exception as exc:
                message = (i, False, exc)
            pickle.dump(message, out, pickle.HIGHEST_PROTOCOL)
            out.flush()


def _fork_worker(tasks, senders, readers):
    """Fork one pool worker running _serve; append the parent's ends of its
    task and result pipes to senders and readers, and return its pid."""
    task_in, sender = os.pipe()
    senders.append(sender)
    reader, result_out = os.pipe()
    readers.append(open(reader, "rb"))
    try:
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                # the parent's ends of every pipe so far: a task pipe's writer held
                # open here, a sibling's or its own, would hide EOF from its reader
                for fd in senders:
                    os.close(fd)
                for r in readers:
                    r.close()
                _serve(tasks, task_in, result_out)
                code = 0
            finally:
                os._exit(code)  # never return into the caller's stack
    finally:
        os.close(task_in)
        os.close(result_out)
    return pid


def _map_tasks(tasks):
    """_train_task over tuples of its arguments, results in task order.

    Tasks are seeded on their own, so the results do not depend on how
    many workers run them.  With one worker they run in the calling
    process.  Otherwise each worker is forked after the task table is
    built, so it inherits the table and the imported package, and only
    task indices and results cross a pipe.  The parent hands the next
    index to whichever worker answered, and starts no thread for the
    pool.  Each worker runs its BLAS on one thread, and the caller keeps
    its own setting: BLAS threads on top of full workers slowed a 4-mode
    run several-fold.  A worker leaves when the parent closes its task
    pipe.  The first failed task, a worker that ends without its result
    (a RuntimeError saying how it ended) or an interrupt kills every
    worker at once instead.  No worker outlives the call.
    """
    workers = _worker_count(len(tasks))
    if workers <= 1:
        return list(itertools.starmap(_train_task, tasks))
    results = [None] * len(tasks)
    queue = iter(range(len(tasks)))
    pids, senders, readers = [], [], []  # per worker; None once reaped or closed
    in_flight, poller = {}, select.poll()  # result fd -> (worker, task index)

    def hand_out(k):
        """Send worker k its next task, or close its task pipe if none is left."""
        i = next(queue, None)
        if i is None:
            os.close(senders[k])
            senders[k] = None
        else:
            os.write(senders[k], i.to_bytes(_INDEX_BYTES, "little"))
            in_flight[readers[k].fileno()] = k, i
            poller.register(readers[k], select.POLLIN)

    try:
        # an interrupt while forking waits until every worker's pid is known
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            for _ in range(workers):
                pids.append(_fork_worker(tasks, senders, readers))
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for k in range(workers):
            hand_out(k)
        while in_flight:
            for fd, _ in poller.poll():
                k, i = in_flight.pop(fd)
                poller.unregister(fd)
                try:
                    index, ok, value = pickle.load(readers[k])
                except (EOFError, pickle.UnpicklingError):
                    code = os.waitstatus_to_exitcode(os.waitpid(pids[k], 0)[1])
                    pids[k] = None
                    how = (f"was killed by {signal.Signals(-code).name}" if code < 0
                           else f"exited with code {code}")
                    raise RuntimeError(f"a pool worker {how} while training task {i}") from None
                if not ok:
                    raise value
                results[index] = value
                hand_out(k)
    except BaseException:
        for pid in pids:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for fd in senders:
            if fd is not None:
                os.close(fd)
        for reader in readers:
            reader.close()
        for pid in pids:
            if pid is not None:
                os.waitpid(pid, 0)
    return results


def run_experiment(config):
    """Run every (repeat, mode) round and aggregate test AUCs.

    The parent draws the splits and scores the test data; the training
    runs in a pool of worker processes (see _map_tasks), one task per
    objective group, keyed (repeat, mode, lambdas).  The plain objective
    (ae, and proposed and sae at lambda 0) has mode None, so each repeat
    trains it once, with one validation track per metric.
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

    plan = []  # (repeat, mode, test data, lams, keys of the tasks it uses)
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
                task = tasks.setdefault(key, (train_data, val_data, cfg, key[2], plain, []))
                if metric not in task[5]:
                    task[5].append(metric)
                used.append(key)
            plan.append((r, mode, test_data, lams, used))

    # the costliest tasks first, so that none of them starts last; ties in plan order
    order = sorted(tasks, key=lambda key: -len(key[2]))
    done = dict(zip(order, _map_tasks([tasks[key] for key in order])))
    # a task's seconds are split equally between the rounds it serves
    users = collections.Counter(t for *_, used in plan for t in used)
    for r, mode, test_data, lams, used in plan:
        found = dict(pair for t in used for pair in zip(t[2], done[t][0][VAL_METRIC[mode]]))
        results = [(lam, found[lam]) for lam in lams]
        best = best_of_grid(results)
        a_scores = score_batch(best.best_params, test_data.anomalies)
        n_scores = score_batch(best.best_params, test_data.normals)
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
