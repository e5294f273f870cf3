"""Tests for the experiment harness, report emission, and the CLI front end."""

import csv
import errno
import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from dataclasses import fields, replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from inexad import harness
from inexad.cli import cli_parse, main
from inexad.harness import (
    EvaluationReport,
    ExperimentConfig,
    ModeResult,
    Round,
    emit_report,
    run_experiment,
)
from inexad.data import gen_synthetic, materialize
from inexad.metrics import roc_curve
from inexad.scorer import score_batch
from inexad.training import (
    DEFAULT_LAMBDA_GRID,
    VAL_METRIC,
    TrainConfig,
    TrainResult,
    grid_search,
    train,
)


def experiment_config(**kw):
    """An ExperimentConfig from keywords of either config: those that are not
    ExperimentConfig fields build its train_config."""
    own = {f.name for f in fields(ExperimentConfig)}
    training = {k: kw.pop(k) for k in list(kw) if k not in own}
    return ExperimentConfig(train_config=TrainConfig(**training), **kw)


def tiny_config(**kw):
    """A config that trains for a handful of epochs so tests stay fast."""
    base = dict(modes=("proposed", "mil"), n_repeats=2, seed=0, lambda_grid=(1.0,),
                max_epochs=3, patience=None, hidden_dim=8, code_dim=2)
    base.update(kw)
    return experiment_config(**base)


class TestExperimentConfig:
    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            ExperimentConfig(modes=("proposed", "gan"))

    def test_repeated_mode(self):
        with pytest.raises(ValueError, match="'ae' is given more than once"):
            ExperimentConfig(modes=("ae", "mil", "ae"))

    def test_bare_string_modes(self):
        # a string is a sequence too, of one-letter "modes"
        with pytest.raises(ValueError, match="modes takes a sequence, got 'proposed'"):
            ExperimentConfig(modes="proposed")

    def test_no_modes(self):
        # there would be nothing to train, yet every split would be drawn
        with pytest.raises(ValueError, match="modes must name at least one mode"):
            ExperimentConfig(modes=())

    def test_bad_repeats(self):
        with pytest.raises(ValueError, match="repeats"):
            ExperimentConfig(n_repeats=0)

    @pytest.mark.parametrize("kw, message", [
        (dict(lambda_grid=(float("nan"),)), "finite"),
        (dict(lambda_grid=(float("inf"),)), "finite"),
        (dict(lambda_grid=(0.0, float("inf"))), "finite"),
        (dict(max_epochs=-1), "max_epochs"),
        (dict(patience=0), "patience"),
        (dict(seed=2.5), "seed"),
        (dict(n_repeats=1.5), "n_repeats"),
        (dict(n_repeats=True), "n_repeats"),
        (dict(seed=False), "seed"),
    ])
    def test_bad_training_settings(self, kw, message):
        with pytest.raises(ValueError, match=message):
            experiment_config(**kw)

    def test_label_col_without_csv_rejected(self):
        # the synthetic data has no label column, so the setting would be ignored
        with pytest.raises(ValueError, match="label_col 'y' needs csv_path"):
            ExperimentConfig(label_col="y")
        assert ExperimentConfig(csv_path="d.csv", label_col="y").label_col == "y"

    @pytest.mark.parametrize("kw, owner", [
        (dict(lam=7.0), "lambda_grid=(lam,)"),
        (dict(mode="mil"), "modes"),
        (dict(rng_seed=99), "seed"),
    ])
    def test_settings_each_round_sets_are_rejected(self, kw, owner):
        # run_experiment replaces these per round, so they would be ignored
        (name,) = kw
        with pytest.raises(ValueError, match=f"train_config.{name} ") as exc:
            experiment_config(**kw)
        assert str(exc.value).endswith(owner)

    @pytest.mark.parametrize("grid, values", [
        ((1234567.0, 1234568.0), "1234567.0 and 1234568.0"),  # both print as 1.23457e+06
        ((0.0, 1.0, 1.0), "1.0 and 1.0"),
        ((0, 0.0, 1.0), "0 and 0.0"),
    ])
    def test_grid_values_sharing_a_history_file_rejected(self, grid, values):
        with pytest.raises(ValueError, match=values):
            experiment_config(lambda_grid=grid)


@pytest.fixture(scope="module")
def report():
    return run_experiment(tiny_config())


@pytest.fixture(scope="module")
def emitted(report, tmp_path_factory):
    out = tmp_path_factory.mktemp("results")
    files = emit_report(report, out)
    return report, out, files


class TestRunExperiment:
    def test_shape(self, report):
        assert set(report.modes) == {"proposed", "mil"}
        for res in report.modes.values():
            assert len(res.aucs) == 2
            assert all(0.0 <= a <= 1.0 for a in res.aucs)

    def test_mean_and_stderr_recompute(self, report):
        for res in report.modes.values():
            assert res.mean == float(np.mean(res.aucs))
            assert res.stderr == pytest.approx(
                float(np.std(res.aucs, ddof=1) / np.sqrt(len(res.aucs))))

    def test_mil_reports_no_lambda(self, report):
        assert [rd.chosen_lambda for rd in report.modes["mil"].rounds] == [None, None]
        assert [rd.chosen_lambda for rd in report.modes["proposed"].rounds] == [1.0, 1.0]

    def test_roc_curves_present(self, report):
        for mode in ("proposed", "mil"):
            for rd in report.modes[mode].rounds:
                assert (rd.roc.fpr[0], rd.roc.tpr[0]) == (0.0, 0.0)
                assert (rd.roc.fpr[-1], rd.roc.tpr[-1]) == (1.0, 1.0)

    def test_rounds_hold_their_grid_results(self, report):
        for mode in ("proposed", "mil"):
            for rd in report.modes[mode].rounds:
                # mil trains once, at a lambda its objective ignores
                assert [lam for lam, _ in rd.results] == [1.0]
                assert [row[0] for row in rd.results[0][1].history] == [0, 1, 2, 3]

    def test_deterministic(self, report):
        again = run_experiment(tiny_config())
        assert json.dumps(report.to_dict(include_timing=False), sort_keys=True) \
            == json.dumps(again.to_dict(include_timing=False), sort_keys=True)

    def test_fraction_grid_value_is_reported(self, tmp_path):
        # history file names format lambda with %g, which Fraction lacks before Python 3.12
        report = run_experiment(tiny_config(modes=("proposed",), n_repeats=1,
                                            lambda_grid=(Fraction(1, 2),)))
        written = emit_report(report, str(tmp_path))
        assert str(tmp_path / "history_proposed_0_0.5.csv") in written
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["modes"]["proposed"]["chosen_lambdas"] == [0.5]

    def test_numpy_integer_seed_and_repeats(self, tmp_path):
        # json.dump writes no numpy integer
        def summary(name, **kw):
            emit_report(run_experiment(tiny_config(**kw)), str(tmp_path / name))
            out = json.loads((tmp_path / name / "summary.json").read_text())
            for entry in out["modes"].values():
                del entry["seconds"]
            return out

        assert summary("numpy", seed=np.int64(3), n_repeats=np.int64(2)) \
            == summary("int", seed=3, n_repeats=2)

    def test_stderr_single_repeat(self):
        res = ModeResult(rounds=[Round(auc=0.9, chosen_lambda=1.0, seconds=0.1,
                                       roc=None, results=[])])
        assert res.stderr == 0.0


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="rounds run in forked worker processes")


def assert_no_children():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def group_processes(group):
    """'pid state command line' of each process in the process group, from /proc;
    a command line is cut to its first 80 characters, blanks squeezed."""
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat") as fh:
                state, _, pgrp = fh.read().rsplit(")", 1)[1].split()[:3]
            if int(pgrp) == group:
                with open(f"/proc/{pid}/cmdline", "rb") as fh:
                    command = fh.read().replace(b"\0", b" ").decode(errors="replace")
                found.append(f"{pid} {state} {' '.join(command.split())[:80]}")
        except OSError:  # it left while being read
            pass
    return found


class TestParallelRounds:
    @needs_fork
    def test_worker_count_does_not_change_results(self, monkeypatch):
        config = tiny_config(modes=("proposed", "ae", "mil", "sae"),
                             lambda_grid=(0.0, 1.0, 10.0))
        reports = []
        for workers in (1, 2):
            monkeypatch.setattr(harness, "_worker_count", lambda n, w=workers: w)
            reports.append(run_experiment(config))
        serial, pooled = reports
        assert json.dumps(serial.to_dict(include_timing=False), sort_keys=True) \
            == json.dumps(pooled.to_dict(include_timing=False), sort_keys=True)
        assert list(serial.modes) == list(pooled.modes)
        histories = 0
        for mode, res in serial.modes.items():
            for ours, theirs in zip(res.rounds, pooled.modes[mode].rounds, strict=True):
                assert [(lam, result.history) for lam, result in ours.results] \
                    == [(lam, result.history) for lam, result in theirs.results]
                histories += len(ours.results)
                for name in ("thresholds", "fpr", "tpr"):
                    assert np.array_equal(getattr(ours.roc, name), getattr(theirs.roc, name))
                assert ours.roc.auc == theirs.roc.auc
        assert histories == 2 * (3 + 1 + 1 + 3)

    @needs_fork
    def test_failed_round_reaches_the_cli(self, monkeypatch, tmp_path, capsys):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        # the training kernel every task calls; forked workers inherit the patch
        monkeypatch.setattr(harness, "_train_members", boom)
        monkeypatch.setattr(harness, "_worker_count", lambda n: 2)
        code = main(["--mode", "ae", "--mode", "mil", "--repeats", "2",
                     "--epochs", "2", "--out", str(tmp_path / "run")])
        assert code == 1
        assert "error: boom" in capsys.readouterr().err
        assert_no_children()

    @needs_fork
    def test_lost_worker_reaches_the_cli(self, monkeypatch, tmp_path, capsys):
        parent = os.getpid()

        def killed(*args):
            if os.getpid() == parent:
                raise AssertionError("the task ran in the parent")
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(harness, "_train_task", killed)
        monkeypatch.setattr(harness, "_worker_count", lambda n: 2)
        code = main(["--mode", "ae", "--mode", "mil", "--repeats", "2",
                     "--epochs", "2", "--out", str(tmp_path / "run")])
        assert code == 1
        assert "error: a pool worker was killed by SIGKILL while training task" \
            in capsys.readouterr().err
        assert_no_children()

    @needs_fork
    @pytest.mark.parametrize("leave, how", [
        (lambda: os._exit(3), "exited with code 3"),
        (lambda: os.kill(os.getpid(), signal.SIGTERM), "was killed by SIGTERM"),
    ], ids=["exit", "signal"])
    def test_lost_worker_is_named(self, monkeypatch, leave, how):
        parent = os.getpid()

        def task(i, overlap):
            if i == 2 and os.getpid() != parent:
                leave()
            return i

        monkeypatch.setattr(harness, "_train_task", task)
        monkeypatch.setattr(harness, "_worker_count", lambda n: 2)
        with pytest.raises(RuntimeError, match=f"a pool worker {how} while training task 2"):
            harness._map_tasks([(i,) for i in range(5)])
        assert_no_children()

    @needs_fork
    def test_pool_of_three_over_seven_tasks(self, monkeypatch):
        monkeypatch.setattr(harness, "_train_task", lambda i, overlap: (i, os.getpid()))
        monkeypatch.setattr(harness, "_worker_count", lambda n: 3)
        out = harness._map_tasks([(i,) for i in range(7)])
        assert [i for i, _ in out] == list(range(7))
        assert os.getpid() not in {pid for _, pid in out}
        assert_no_children()

    @needs_fork
    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads /proc")
    def test_idle_worker_leaves_before_its_siblings(self, monkeypatch, tmp_path):
        # task 0's child finishes first, with no task left for its worker; it
        # must leave while its siblings, forked after it, still run
        first = tmp_path / "first"

        def task(i):
            if i == 0:
                first.write_text(str(os.getpid()))
                return True
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                try:
                    pid = int(first.read_text())
                except (FileNotFoundError, ValueError):  # not written yet
                    pid = None
                if pid is not None:
                    try:
                        with open(f"/proc/{pid}/stat") as fh:
                            if fh.read().rsplit(")", 1)[1].split()[0] == "Z":
                                return True  # exited, and not yet reaped
                    except FileNotFoundError:
                        return True  # exited and reaped
                time.sleep(0.01)
            return False

        monkeypatch.setattr(harness, "_train_task", lambda i, overlap: task(i))
        monkeypatch.setattr(harness, "_worker_count", lambda n: 3)
        assert harness._map_tasks([(i,) for i in range(3)]) == [True] * 3
        assert_no_children()

    @needs_fork
    def test_lost_child_is_seen_while_a_sibling_runs(self, monkeypatch):
        # the sibling, forked after the lost child, must not hold its result pipe open
        def task(i):
            if i == 0:
                os._exit(3)
            time.sleep(60)

        monkeypatch.setattr(harness, "_train_task", lambda i, overlap: task(i))
        monkeypatch.setattr(harness, "_worker_count", lambda n: 2)
        began = time.monotonic()
        with pytest.raises(RuntimeError, match="a pool worker exited with code 3 while "
                                               "training task 0"):
            harness._map_tasks([(i,) for i in range(2)])
        assert time.monotonic() - began < 10
        assert_no_children()

    @needs_fork
    @pytest.mark.skipif(not os.path.exists("/proc/self/fd"), reason="reads /proc")
    def test_failed_fork_leaves_no_child_and_no_descriptor(self, monkeypatch):
        fork, forks = os.fork, []

        def failing_fork():
            forks.append(None)
            if len(forks) == 3:
                raise OSError(errno.EAGAIN, "no process left")
            return fork()

        monkeypatch.setattr(harness, "_train_task", lambda i, overlap: i)
        monkeypatch.setattr(harness, "_worker_count", lambda n: 2)
        monkeypatch.setattr(os, "fork", failing_fork)
        before = sorted(os.listdir("/proc/self/fd"))
        with pytest.raises(OSError, match="no process left"):
            harness._map_tasks([(i,) for i in range(4)])
        assert len(forks) == 3
        assert_no_children()
        assert sorted(os.listdir("/proc/self/fd")) == before

    @needs_fork
    def test_parent_imports_no_process_pool(self, tmp_path):
        code = textwrap.dedent("""
            import sys
            from inexad import cli, harness

            harness._worker_count = lambda n: 2  # the pool even on one CPU
            argv = ["--repeats", "1", "--epochs", "2", "--lambda-grid", "0,1", "--out", "run"]
            for mode in ("proposed", "ae", "mil", "sae"):
                argv += ["--mode", mode]
            assert cli.main(argv) == 0
            # numpy.ma too: np.setdiff1d and 1-d np.unique import it, and the parent needs neither
            print([m for m in ("multiprocessing", "concurrent.futures", "numpy.ma")
                   if m in sys.modules])
        """)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(harness.__file__)))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=env, cwd=tmp_path, timeout=120)
        assert out.stdout.splitlines()[-1] == "[]"

    @needs_fork
    def test_interrupt_ends_the_pool(self, tmp_path):
        # Ctrl-C in a terminal sends SIGINT to the whole foreground process group
        code = textwrap.dedent("""
            import os, signal, sys, time
            # a process started with SIGINT ignored, as a background job of a
            # non-interactive shell is, gets no KeyboardInterrupt; a terminal's run does
            signal.signal(signal.SIGINT, signal.default_int_handler)
            from inexad import cli, harness

            def task(*args):
                # one write, so that two children's lines cannot interleave, as
                # print's two writes can when PYTHONUNBUFFERED is set
                os.write(1, b"training\\n")
                time.sleep(60)

            harness._train_task = task  # forked workers inherit the patch
            harness._worker_count = lambda n: 2
            sys.exit(cli.main(["--mode", "proposed", "--mode", "sae", "--repeats", "4",
                               "--out", "run"]))
        """)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(harness.__file__)))
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, env=env, cwd=tmp_path,
                              start_new_session=True) as proc:
            assert [proc.stdout.readline() for _ in range(2)] == ["training\n"] * 2
            sent = time.monotonic()
            os.killpg(proc.pid, signal.SIGINT)
            try:
                out, err = proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                left = group_processes(proc.pid)
                os.killpg(proc.pid, signal.SIGKILL)
                pytest.fail("the run outlived SIGINT by 30 s; its process group held "
                            "(pid state command): " + "; ".join(left))
        assert time.monotonic() - sent < 10  # the workers' tasks were not waited for
        assert (proc.returncode, out, err) == (130, "", "interrupted\n")
        with pytest.raises(ProcessLookupError):  # no process is left in the group
            os.killpg(proc.pid, 0)

    @needs_fork
    def test_parent_scores_nothing(self, monkeypatch):
        # a child's appends die with it, so the list holds the caller's calls only
        scored, score = [], harness.score_batch

        def recorder(*args):
            scored.append(os.getpid())
            return score(*args)

        monkeypatch.setattr(harness, "score_batch", recorder)
        config = tiny_config(lambda_grid=(0.0, 1.0))
        reports = []
        for workers in (2, 1):
            monkeypatch.setattr(harness, "_worker_count", lambda n, w=workers: w)
            reports.append(run_experiment(config))
            assert set(scored) == (set() if workers == 2 else {os.getpid()})
        pooled, serial = reports
        assert list(pooled.modes) == list(serial.modes) == ["proposed", "mil"]
        for mode, res in pooled.modes.items():
            for ours, theirs in zip(res.rounds, serial.modes[mode].rounds, strict=True):
                assert (ours.auc, ours.chosen_lambda) == (theirs.auc, theirs.chosen_lambda)
                for name in ("thresholds", "fpr", "tpr"):
                    assert np.array_equal(getattr(ours.roc, name), getattr(theirs.roc, name))
                assert [(lam, result.history) for lam, result in ours.results] \
                    == [(lam, result.history) for lam, result in theirs.results]
                assert all(result.best_params is None for _, result in ours.results)

    def test_costliest_tasks_start_first(self, monkeypatch):
        config = tiny_config(modes=("proposed", "ae", "mil", "sae"),
                             lambda_grid=(0.0, 1.0, 10.0))
        started = []
        task = harness._train_task

        def spy(*args):
            started.append((args[2].rng_seed, args[2].mode, list(args[3])))
            return task(*args)

        monkeypatch.setattr(harness, "_worker_count", lambda n: 1)
        monkeypatch.setattr(harness, "_train_task", spy)
        run_experiment(config)
        # per repeat: the non-plain proposed and sae groups, then the
        # shared plain run and mil
        assert started[:4] == [(seed, mode, [1.0, 10.0]) for seed in (0, 1)
                               for mode in ("proposed", "sae")]
        assert [lams for *_, lams in started[4:]] == [[0.0], [1.0]] * 2
        assert [seed for seed, *_ in started[4:]] == [0, 0, 1, 1]

    @needs_fork
    def test_pool_workers_do_not_overlap_evaluation(self, monkeypatch):
        def spy(train_data, val_data, cfg, lams, plain, tracks, overlap=None):
            # the overlap setting the kernel was given, returned as the history
            return [[TrainResult(best_params=None, best_val_metric=0.0, history=[overlap],
                                 stopped_epoch=0, chosen_lambda=lam) for lam in lams]
                    for _ in tracks]

        # forked workers inherit the patched kernel and scorer
        monkeypatch.setattr(harness, "_train_members", spy)
        monkeypatch.setattr(harness, "score_batch", lambda params, rows: rows)
        test_data = SimpleNamespace(anomalies=None, normals=None)
        tasks = [(None, None, TrainConfig(), [1.0], False, ["val_auc"], test_data)] * 3
        monkeypatch.setattr(harness, "_worker_count", lambda n: 2)
        pooled = harness._map_tasks(tasks)
        assert [out["val_auc"][0][0].history for out, _ in pooled] == [[False]] * 3
        # one worker: the caller's process, where the kernel decides
        monkeypatch.setattr(harness, "_worker_count", lambda n: 1)
        serial = harness._map_tasks(tasks)
        assert [out["val_auc"][0][0].history for out, _ in serial] == [[None]] * 3

    @needs_fork
    def test_pool_workers_run_blas_on_one_thread(self):
        # OpenBLAS reads its thread count from the environment when it loads,
        # so the run needs a fresh interpreter without the pin conftest sets
        code = textwrap.dedent("""
            import json
            from inexad import blas, harness

            def report(*args):
                return blas.num_threads()

            harness._train_task = report  # forked workers inherit the patch
            harness._worker_count = lambda n: 2
            before = blas.num_threads()
            workers = harness._map_tasks([(None,)] * 4)
            print(json.dumps([before, workers, blas.num_threads()]))
        """)
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(harness.__file__))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=env, timeout=120)
        before, workers, after = json.loads(out.stdout)
        if before is None:
            pytest.skip("no OpenBLAS thread count to read")
        assert workers == [1] * 4
        # the caller's process keeps the library's default
        assert after == before

    def test_worker_count_bounded_by_rounds_and_cpus(self):
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
            else os.cpu_count()
        assert harness._worker_count(1) == 1
        assert 1 <= harness._worker_count(10_000) <= cpus


class TestEmitReport:
    def test_summary_round_trip(self, emitted):
        report, out, _ = emitted
        with open(out / "summary.json") as fh:
            loaded = json.load(fh)
        assert loaded == report.to_dict()

    def test_auc_csv_rows(self, emitted):
        report, out, _ = emitted
        lines = (out / "auc_proposed.csv").read_text().strip().splitlines()
        assert lines[0] == "repeat,test_auc,chosen_lambda"
        assert len(lines) == 1 + report.n_repeats
        r, auc, lam = lines[1].split(",")
        assert (int(r), float(auc), float(lam)) == (
            0, report.modes["proposed"].aucs[0], 1.0)

    def test_mil_lambda_column_blank(self, emitted):
        _, out, _ = emitted
        lines = (out / "auc_mil.csv").read_text().strip().splitlines()
        assert lines[1].endswith(",")

    def test_roc_first_row_fpr_zero(self, emitted):
        _, out, _ = emitted
        lines = (out / "roc_proposed_0.csv").read_text().strip().splitlines()
        assert float(lines[1].split(",")[1]) == 0.0

    def test_history_files_written(self, emitted):
        _, out, files = emitted
        assert (out / "history_proposed_1_1.csv").exists()
        assert all(str(out) in str(f) for f in files)


def _result(lam, history):
    return lam, TrainResult(best_params=None, best_val_metric=history[-1][2],
                            history=history, stopped_epoch=history[-1][0], chosen_lambda=lam)


@pytest.fixture
def hand_emitted(tmp_path):
    """A report of every mode built from hand-made rounds, no training, and its files."""
    tied = roc_curve([0.9, 0.4], [0.1, 0.4])  # a tie at 0.4, and thresholds inf and -inf
    report = EvaluationReport(dataset_name="hand", n_repeats=2, seed=3, modes={
        "proposed": ModeResult(rounds=[
            Round(auc=0.1 + 0.2, chosen_lambda=1e-3, seconds=0.5, roc=tied, results=[
                _result(0.0, [(0, -0.5, 0.25), (1, -0.75, 0.5)]),
                _result(1e-3, [(0, 1 / 3, 2 / 3), (1, 5e-324, -0.0)])]),
            Round(auc=0.75, chosen_lambda=0.0, seconds=0.25, roc=roc_curve([0.3], [1 / 7]),
                  results=[_result(0.0, [(0, 1e300, 0.125)]),
                           _result(1e-3, [(0, 2.5, 0.0)])]),
        ]),
        "mil": ModeResult(rounds=[
            Round(auc=2 / 3, chosen_lambda=None, seconds=0.125, roc=tied,
                  results=[_result(1.0, [(0, -1e-300, 1.0)])]),
        ]),
        "ae": ModeResult(rounds=[
            Round(auc=0.5, chosen_lambda=0.0, seconds=1.0, roc=tied,
                  results=[_result(0.0, [(0, 0.1, 0.2)])]),
        ]),
        "sae": ModeResult(rounds=[
            Round(auc=0.625, chosen_lambda=10.0, seconds=2.0, roc=tied,
                  results=[_result(10.0, [(0, 0.3, 0.4)])]),
        ]),
    })
    return report, tmp_path / "out", emit_report(report, tmp_path / "out")


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _exact(cells, values):
    """Whether each cell reads back as exactly its value, sign of zero included."""
    return [repr(float(c)) for c in cells] == [repr(float(v)) for v in values]


class TestEmitReportWithoutTraining:
    def test_directory_holds_exactly_the_returned_paths(self, hand_emitted):
        _, out, files = hand_emitted
        assert len(set(files)) == len(files)
        assert sorted(files) == sorted(os.path.join(out, name) for name in os.listdir(out))
        # summary, 4 AUC files, 5 ROC files and 7 histories
        assert len(files) == 1 + 4 + 5 + 7

    def test_every_float_reads_back_exactly(self, hand_emitted):
        report, out, _ = hand_emitted
        for mode, res in report.modes.items():
            auc_rows = _rows(out / f"auc_{mode}.csv")[1:]
            assert [int(row[0]) for row in auc_rows] == list(range(len(res.rounds)))
            assert _exact([row[1] for row in auc_rows], res.aucs)
            for r, rd in enumerate(res.rounds):
                roc_rows = _rows(out / f"roc_{mode}_{r}.csv")[1:]
                assert _exact([c for row in roc_rows for c in row],
                              np.c_[rd.roc.thresholds, rd.roc.fpr, rd.roc.tpr].ravel())
                for lam, result in rd.results:
                    rows = _rows(out / f"history_{mode}_{r}_{lam:g}.csv")[1:]
                    assert [int(row[0]) for row in rows] == [e for e, *_ in result.history]
                    assert _exact([c for row in rows for c in row[1:]],
                                  [v for _, *values in result.history for v in values])
        # the tied curve runs from +inf down to -inf
        thresholds = [row[0] for row in _rows(out / "roc_mil_0.csv")[1:]]
        assert (thresholds[0], thresholds[-1]) == ("inf", "-inf")
        assert _exact([row[2] for row in _rows(out / "auc_proposed.csv")[1:]], [1e-3, 0.0])

    def test_mil_row_has_an_empty_lambda_cell(self, hand_emitted):
        _, out, _ = hand_emitted
        assert _rows(out / "auc_mil.csv") == [["repeat", "test_auc", "chosen_lambda"],
                                              ["0", repr(2 / 3), ""]]

    @pytest.mark.parametrize("mode, metric", [
        ("proposed", "val_set_auc"), ("mil", "val_set_auc"),
        ("ae", "val_auc"), ("sae", "val_auc"),
    ])
    def test_history_header_names_the_mode_metric(self, hand_emitted, mode, metric):
        _, out, _ = hand_emitted
        histories = sorted(out.glob(f"history_{mode}_*.csv"))
        assert histories
        for path in histories:
            assert _rows(path)[0] == ["epoch", "train_objective", metric]


class TestCliParse:
    def test_defaults(self):
        config = cli_parse(["--dataset", "synthetic", "--mode", "proposed",
                            "--seed", "7"])
        assert config.csv_path is None
        assert config.modes == ("proposed",)
        assert config.seed == 7
        assert config.n_repeats == 10
        assert config.train_config == TrainConfig()
        assert config.train_config.lambda_grid == DEFAULT_LAMBDA_GRID

    def test_repeatable_mode(self):
        config = cli_parse(["--mode", "ae", "--mode", "mil"])
        assert config.modes == ("ae", "mil")

    def test_repeated_mode_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_parse(["--mode", "ae", "--mode", "ae", "--repeats", "2", "--epochs", "2"])
        assert exc.value.code == 2
        assert "'ae' is given more than once" in capsys.readouterr().err

    def test_lambda_grid(self):
        config = cli_parse(["--lambda-grid", "0,0.5,2", "--epochs", "7", "--patience", "3"])
        assert config.train_config.lambda_grid == (0.0, 0.5, 2.0)
        assert (config.train_config.max_epochs, config.train_config.patience) == (7, 3)

    def test_fixed_lambda_is_a_one_value_grid(self):
        assert cli_parse(["--lambda", "0.5"]).train_config.lambda_grid == (0.5,)

    def test_conflicting_lambda_flags(self):
        with pytest.raises(SystemExit) as exc:
            cli_parse(["--lambda", "1", "--lambda-grid", "0,1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, message", [
        (["--repeats", "0"], "n_repeats"),
        (["--lambda", "nan"], "finite"),
        (["--lambda", "inf"], "finite"),
        (["--lambda-grid", "0,inf"], "finite"),
        (["--epochs", "-1"], "max_epochs"),
        (["--patience", "0"], "patience"),
    ])
    def test_invalid_settings_are_usage_errors(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_parse(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_no_args_shows_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_parse([])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().out.lower()

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            cli_parse(["--frobnicate"])
        assert exc.value.code == 2

    def test_csv_requires_path(self):
        with pytest.raises(SystemExit) as exc:
            cli_parse(["--dataset", "csv"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [["--csv", "data.csv"],
                                      ["--dataset", "synthetic", "--csv", "data.csv"]])
    def test_csv_without_csv_dataset_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_parse(argv)
        assert exc.value.code == 2
        assert "--csv requires --dataset csv" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--label-col", "nosuchcol"],
                                      ["--dataset", "synthetic", "--label-col", "label"]])
    def test_label_col_without_csv_dataset_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_parse(argv)
        assert exc.value.code == 2
        assert "--label-col requires --dataset csv" in capsys.readouterr().err

    def test_grid_values_sharing_a_history_file_are_usage_errors(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_parse(["--lambda-grid", "1234567,1234568"])
        assert exc.value.code == 2
        assert "1234567.0 and 1234568.0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--lambda", "-0"], ["--lambda-grid=-0,1"],
                                      ["--lambda-grid", "0,-0,1"]])
    def test_negative_zero_lambda_is_a_usage_error(self, argv, capsys):
        # -0 would train as 0 but name its history file "-0"
        with pytest.raises(SystemExit) as exc:
            cli_parse(argv)
        assert exc.value.code == 2
        assert "not -0, got -0.0" in capsys.readouterr().err

    @pytest.mark.parametrize("out", ["taken", os.path.join("taken", "run")])
    def test_out_blocked_by_a_file_fails_before_training(self, tmp_path, out, capsys):
        (tmp_path / "taken").write_text("")
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(["--mode", "proposed", "--repeats", "1", "--epochs", "30",
                  "--out", str(tmp_path / out)])
        assert time.perf_counter() - start < 0.5
        assert exc.value.code == 2
        assert "exists and is not a directory" in capsys.readouterr().err

    def test_bad_grid_value(self):
        with pytest.raises(SystemExit) as exc:
            cli_parse(["--lambda-grid", "0,abc"])
        assert exc.value.code == 2


class TestMain:
    def test_success_writes_files(self, tmp_path, capsys):
        code = main(["--mode", "ae", "--repeats", "1", "--epochs", "2",
                     "--out", str(tmp_path / "run")])
        assert code == 0
        out = capsys.readouterr().out
        assert "ae: mean test AUC" in out
        assert (tmp_path / "run" / "summary.json").exists()

    def test_csv_experiment(self, tmp_path, capsys):
        # 25 anomalies: 15 for the weakly labeled sets, 10 for the test split
        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(size=(200, 3)), rng.normal(3.0, 1.0, size=(25, 3))])
        path = tmp_path / "mixture.csv"
        np.savetxt(path, np.c_[X, [0] * 200 + [1] * 25], fmt=["%.17g"] * 3 + ["%d"],
                   delimiter=",", header="f0,f1,f2,label", comments="")
        out = tmp_path / "run"
        modes = ("proposed", "ae", "mil", "sae")
        argv = ["--dataset", "csv", "--csv", str(path), "--repeats", "1", "--epochs", "2",
                "--lambda-grid", "0,1", "--out", str(out)]
        code = main(argv + [arg for mode in modes for arg in ("--mode", mode)])
        assert code == 0, capsys.readouterr().err
        with open(out / "summary.json") as fh:
            summary = json.load(fh)
        assert summary["dataset"] == str(path)
        assert sorted(summary["modes"]) == sorted(modes)
        assert sorted(p.name for p in out.glob("auc_*.csv")) == sorted(
            f"auc_{mode}.csv" for mode in modes)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_stop_is_named_on_stderr(self, tmp_path, capsys):
        # lambda 1e170 overflows the Adam state in the first epoch's steps
        argv = ["--mode", "proposed", "--repeats", "1", "--epochs", "20"]
        assert main(argv + ["--lambda", "1e170", "--out", str(tmp_path / "overflow")]) == 0
        out, err = capsys.readouterr()
        assert "warning: proposed repeat 0 lambda 1e+170 stopped at epoch 0: " \
               "its Adam state became non-finite\n" in err
        assert out.startswith("proposed: mean test AUC ") and "warning" not in out
        # a run that stays finite names nothing
        assert main(argv + ["--lambda", "1", "--out", str(tmp_path / "finite")]) == 0
        assert "warning" not in capsys.readouterr().err

    def test_runtime_failure_exit_one(self, tmp_path, capsys):
        code = main(["--dataset", "csv", "--csv", str(tmp_path / "missing.csv"),
                     "--repeats", "1"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_csv_without_features_exit_one(self, tmp_path, capsys):
        # named as the fault, not as a lack of eligible anomalies in an n x 0 X
        path = tmp_path / "labels.csv"
        path.write_text("label\n0\n1\n0\n1\n0\n")
        code = main(["--dataset", "csv", "--csv", str(path), "--repeats", "1",
                     "--out", str(tmp_path / "run")])
        assert code == 1
        assert f"{path} has no feature column" in capsys.readouterr().err


class TestSharedPlainRun:
    """ae, and proposed and sae at lambda 0, share one training run per repeat."""

    def test_equals_standalone_training(self, monkeypatch):
        # synthetic seed 5: the plain and set-level validation tracks stop
        # at different epochs
        config = experiment_config(modes=("proposed", "ae", "sae"), n_repeats=1, seed=5,
                                   lambda_grid=(0.0, 1.0), max_epochs=300, patience=20)
        shared = {}
        task = harness._train_task

        def spy(*args):
            out = task(*args)
            if args[3] == (0.0,):
                shared.update(out[0])
            return out

        monkeypatch.setattr(harness, "_worker_count", lambda n: 1)
        monkeypatch.setattr(harness, "_train_task", spy)
        report = run_experiment(config)
        ds, split = gen_synthetic(np.random.default_rng(5))
        train_data, val_data, test_data = materialize(ds, split)
        tc = replace(config.train_config, rng_seed=5)
        expected = {
            "ae": train(train_data, val_data, replace(tc, mode="ae", lam=0.0)),
            "proposed": grid_search(train_data, val_data, replace(tc, mode="proposed"))[0][1],
            "sae": grid_search(train_data, val_data, replace(tc, mode="sae"))[0][1],
        }
        assert expected["ae"].stopped_epoch != expected["proposed"].stopped_epoch
        for mode, want in expected.items():
            (got,), (a_scores, n_scores) = shared[VAL_METRIC[mode]]
            lam, reported = report.modes[mode].rounds[0].results[0]
            assert lam == 0.0 and reported is got
            assert got.history == want.history
            assert (got.stopped_epoch, got.best_epoch, got.stop_reason) \
                == (want.stopped_epoch, want.best_epoch, want.stop_reason)
            # the task sends back its winner's test scores, not its parameters
            np.testing.assert_array_equal(a_scores, score_batch(want.best_params,
                                                                test_data.anomalies))
            np.testing.assert_array_equal(n_scores, score_batch(want.best_params,
                                                                test_data.normals))
