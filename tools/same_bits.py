"""Check that this working tree gives the same bits as another commit, and
as itself on one CPU and at the default BLAS thread count.

    python tools/same_bits.py --against <rev>

The commit <rev> is extracted with `git archive` into a temporary
directory, so the repository's .git gains nothing, not even after an
interrupted run.  One fixed probe set then runs on that copy and on
this working tree, uncommitted changes included.  Each probe runs in
its own subprocess with OPENBLAS_NUM_THREADS=1 and PYTHONPATH at the
tree's src/:

- hashes: one sha256 per function of score_batch, objective_grad
  (λ 0 and 1) and mode_objective (λ 0 and 1) over 4 modes × relu/tanh ×
  D ∈ {2, 32} × widths 128/16 and 7/3, the sets and normals reaching
  the two objective functions as a data.TrainData, and of
  network.mlp_backward (layer gradients and input gradient) through
  the encoder and decoder halves of the same models;
- cli-4-mode: `--mode proposed --mode ae --mode mil --mode sae
  --repeats 2 --seed 5 --epochs 300 --patience 20` on the synthetic
  data, trained by up to one worker process per usable CPU;
- cli-csv-32: a generated 4,400 × 32 CSV with `--mode proposed
  --lambda 1 --repeats 1 --epochs 30`, a training that evaluates each
  epoch on a helper thread when a CPU is spare.

Each CLI probe also runs on this tree under each of two settings:

- one-cpu: the subprocess is pinned to the lowest CPU the tool may
  run on, as `taskset -c 0` would pin it, so the run has one worker
  and never overlaps its evaluation.  Where os.sched_setaffinity does
  not exist, this run is reported as skipped;
- blas-default: OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
  GOTO_NUM_THREADS are removed, so BLAS runs its default thread count
  (and, with more than one thread, no evaluation overlaps).  Pool
  workers set their own BLAS to one thread, so cli-4-mode, whose
  `workers` is above 1 on 2 or more CPUs, then varies only the
  thread count of the parent's test scoring; training at the default
  thread count is covered by cli-csv-32, which trains in-process.

Each run is compared with this tree's plain run: the function hashes,
or the CLI output directories file by file, as `diff -r` would, after
removing every `seconds` field from summary.json.  The tool prints one
JSON verdict.  Its `first_difference` names the first probe, the run
that differs (`setting`: `against`, `one-cpu` or `blas-default`) and
the function or file.  For every run it records the OpenBLAS kernel set
(`blas_core`, read by that side's inexad.blas), the number of usable
CPUs (`cpus`) and the probe process's BLAS thread count
(`blas_threads`); for each CLI run also the number of pool workers
run_experiment trained in (`workers`, 1 when it trained in-process)
and, for cli-csv-32, whether its training overlapped its evaluation
(`overlapped`).  Equal bits are expected only within one kernel set,
and a setting proves nothing when its run saw the same CPUs, threads,
workers and overlap as the plain one.  Both trees need the package's
current API: CI compares only with HEAD and its first parent.  Exit
code: 0 when every run is equal, 1 when one differs or fails, 2 on a
usage error such as an unknown <rev>.  The tool itself uses the
standard library only; the probes import numpy and the package.
"""

import argparse
import functools
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROBES = ("hashes", "cli-4-mode", "cli-csv-32")
SETTINGS = ("one-cpu", "blas-default")
CLI_ARGS = {
    "cli-4-mode": ["--mode", "proposed", "--mode", "ae", "--mode", "mil", "--mode", "sae",
                   "--repeats", "2", "--seed", "5", "--epochs", "300", "--patience", "20"],
    "cli-csv-32": ["--dataset", "csv", "--mode", "proposed", "--lambda", "1",
                   "--repeats", "1", "--epochs", "30"],
}


# --- probes: each runs in a subprocess whose PYTHONPATH is one tree's src/ ---

def _probe_hashes():
    import numpy as np

    from inexad.data import TrainData
    from inexad.network import mlp_backward, mlp_forward
    from inexad.scorer import ae_init, score_batch
    from inexad.training import MODES, mode_objective, objective_grad

    digests = {name: hashlib.sha256() for name in
               ("score_batch", "objective_grad", "mode_objective", "mlp_backward")}
    for activation in ("relu", "tanh"):
        for dim in (2, 32):
            for hidden, code in ((128, 16), (7, 3)):
                rng = np.random.default_rng(dim * 1000 + hidden)
                params = ae_init(dim, dim + hidden, hidden=hidden, code=code,
                                 activation=activation)
                # through the layers: trees before the flat theta had them too
                for layer in params.encoder + params.decoder:
                    layer.weight[...] += rng.normal(scale=0.1, size=layer.weight.shape)
                    layer.bias[...] += rng.normal(scale=0.1, size=layer.bias.shape)
                normals = rng.normal(size=(40, dim))
                sets = [rng.normal(0.5, 1.0, size=(int(rng.integers(1, 6)), dim))
                        for _ in range(6)]
                digests["score_batch"].update(
                    score_batch(params, np.concatenate([normals] + sets)).tobytes())
                data = TrainData(np.concatenate(sets), [len(s) for s in sets], normals)
                for mode in MODES:
                    for lam in (0.0, 1.0):
                        digests["objective_grad"].update(
                            objective_grad(params, data, lam, mode=mode).tobytes())
                        value = mode_objective(mode, params, data, lam)
                        digests["mode_objective"].update(np.float64(value).tobytes())
                x = normals
                for half in (params.encoder, params.decoder):
                    x, tape = mlp_forward(half, x, activation=activation)
                    grads, input_grad = mlp_backward(half, tape, rng.normal(size=x.shape),
                                                     activation=activation)
                    for part in [g for layer in grads for g in layer] + [input_grad]:
                        digests["mlp_backward"].update(part.tobytes())
    return {name: d.hexdigest() for name, d in digests.items()}


def _write_wide_csv(path):
    """4,000 normals around 4 random means and 400 wider anomalies, 32 features."""
    rng = random.Random(1)
    means = [[rng.gauss(0.0, 1.0) for _ in range(32)] for _ in range(4)]
    with open(path, "w") as fh:
        fh.write(",".join([f"f{j}" for j in range(32)] + ["label"]) + "\n")
        for label, count, spread in ((0, 4000, 1.0), (1, 400, 1.5)):
            for _ in range(count):
                mean = rng.choice(means)
                fh.write(",".join([repr(m + rng.gauss(0.0, spread)) for m in mean]
                                  + [str(label)]) + "\n")


def _recorded(module, name):
    """Wrap module.name so that each value it returns is also appended to the
    returned list."""
    original, values = getattr(module, name), []

    def wrapper(*args):
        values.append(original(*args))
        return values[-1]

    setattr(module, name, wrapper)
    return values


def _run_cli(name):
    from inexad import harness, training
    from inexad.cli import main

    # relative paths: summary.json records the CSV's path as given
    argv = CLI_ARGS[name] + ["--out", "run"]
    if name == "cli-csv-32":
        _write_wide_csv("wide.csv")
        argv += ["--csv", "wide.csv"]
    # the pool size run_experiment chose, and the kernel's overlap decisions
    workers = _recorded(harness, "_worker_count")
    overlapped = _recorded(training, "_overlap_pays")
    code = main(argv)
    if code:
        raise RuntimeError(f"inexad exited with {code}")
    result = {"workers": max(workers)}
    if name == "cli-csv-32":
        result["overlapped"] = any(overlapped)
    return result


def _run_probe(name, out_dir):
    """Body of the probe subprocess: run one probe in out_dir, write its result
    there as JSON."""
    import inexad
    from inexad import blas, training

    src = os.environ["SAME_BITS_SRC"]
    if not Path(inexad.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"imported {inexad.__file__}, not the package under {src}")
    os.chdir(out_dir)
    result = {"hashes": _probe_hashes()} if name == "hashes" else _run_cli(name)
    result.update(blas_core=blas.core_name(), cpus=training._usable_cpus(),
                  blas_threads=blas.num_threads())
    Path("result.json").write_text(json.dumps(result))


# --- the driver: standard library only ---

def _git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def _extract(rev, dest):
    """The tree of commit rev, as files under dest."""
    # extraction filters came in Python 3.10.12 and 3.11.4
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, **safe)


def _probe(tree, name, out_dir, setting=None):
    """Run probe `name` on `tree` into out_dir, under setting (None or one of
    SETTINGS); returns (result, error text or None)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(tree / "src"),
               SAME_BITS_SRC=str((tree / "src").resolve()))
    pin = (functools.partial(os.sched_setaffinity, 0, {min(os.sched_getaffinity(0))})
           if setting == "one-cpu" else None)
    if setting == "blas-default":
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS"):
            env.pop(var, None)
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           "--run-probe", name, "--out", str(out_dir)],
                          env=env, preexec_fn=pin, capture_output=True, text=True)
    if proc.returncode:
        lines = proc.stderr.strip().splitlines()
        return None, lines[-1] if lines else f"exit code {proc.returncode}"
    return json.loads((out_dir / "result.json").read_text()), None


def _normalised(path):
    """A file's bytes, with every `seconds` field dropped from summary.json."""
    if path.name != "summary.json":
        return path.read_bytes()

    def drop(node):
        if isinstance(node, dict):
            return {k: drop(v) for k, v in node.items() if k != "seconds"}
        if isinstance(node, list):
            return [drop(v) for v in node]
        return node

    return json.dumps(drop(json.loads(path.read_text())), indent=2, sort_keys=True).encode()


def _first_differing_file(a, b):
    """The first relative path, in sorted order, that is missing on one side or
    differs; None when the trees match."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    for rel in sorted(files_a | files_b):
        if rel not in files_a or rel not in files_b:
            return str(rel)
        if _normalised(a / rel) != _normalised(b / rel):
            return str(rel)
    return None


def _difference(name, work, side, results):
    """How run `side` of probe `name` differs from this tree's plain run; None if not."""
    errors = {s: results[s][1] for s in ("tree", side) if results[s][1]}
    if errors:
        return {"error": errors}
    if name == "hashes":
        ours, theirs = results["tree"][0]["hashes"], results[side][0]["hashes"]
        differing = [fn for fn in theirs if theirs[fn] != ours.get(fn)]
        return {"function": differing[0]} if differing else None
    rel = _first_differing_file(work / f"{name}-{side}" / "run", work / f"{name}-tree" / "run")
    return None if rel is None else {"file": rel}


def compare(rev, work):
    """Run every probe on the commit rev and on this tree, and each CLI probe
    on this tree under each of SETTINGS; returns the verdict."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    base = work / "against"
    base.mkdir()
    _extract(commit, base)
    verdict = {"equal": True, "against": rev, "against_commit": commit, "tree": str(ROOT),
               "probes": {}, "first_difference": None}
    for name in PROBES:
        started = time.perf_counter()
        runs = [("tree", ROOT, None), ("against", base, None)]
        if name != "hashes":
            runs += [(setting, ROOT, setting) for setting in SETTINGS]
        entry, results = {"status": "equal", "runs": {}}, {}
        for side, tree, setting in runs:
            if setting == "one-cpu" and not hasattr(os, "sched_setaffinity"):
                entry["runs"][side] = "skipped"
                continue
            out_dir = work / f"{name}-{side}"
            out_dir.mkdir()
            result, error = results[side] = _probe(tree, name, out_dir, setting)
            entry["runs"][side] = {"error": error} if error else \
                {key: value for key, value in result.items() if key != "hashes"}
        for side in list(results)[1:]:
            difference = _difference(name, work, side, results)
            if difference is None:
                continue
            if entry["status"] != "error":
                entry["status"] = "error" if "error" in difference else "differs"
            if verdict["equal"]:
                verdict["equal"] = False
                verdict["first_difference"] = {"probe": name, "setting": side, **difference}
        entry["seconds"] = round(time.perf_counter() - started, 1)
        verdict["probes"][name] = entry
    return verdict


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Check that this working tree gives the same bits as another commit.")
    parser.add_argument("--against", metavar="REV",
                        help="the commit to compare with, e.g. HEAD or a parent's hash")
    parser.add_argument("--run-probe", choices=PROBES, help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.run_probe:
        _run_probe(args.run_probe, args.out)
        return 0
    if not args.against:
        parser.error("--against REV is required")
    with tempfile.TemporaryDirectory(prefix="same-bits-") as tmp:
        try:
            verdict = compare(args.against, Path(tmp))
        except subprocess.CalledProcessError as exc:  # git: not a repository, or no such rev
            print(json.dumps({"equal": False, "against": args.against,
                              "error": exc.stderr.decode().strip()}))
            return 2
    print(json.dumps(verdict, indent=2))
    return 0 if verdict["equal"] else 1


if __name__ == "__main__":
    sys.exit(main())
