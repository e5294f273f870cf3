"""Check that this working tree gives the same bits as another commit.

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
  the two objective functions as a data.TrainData;
- cli-4-mode: `--mode proposed --mode ae --mode mil --mode sae
  --repeats 2 --seed 5 --epochs 300 --patience 20` on the synthetic
  data;
- cli-csv-32: a generated 4,400 × 32 CSV with `--mode proposed
  --lambda 1 --repeats 1 --epochs 30`, a training that evaluates each
  epoch on a helper thread when a CPU is spare.  The verdict says
  whether each side did.

The CLI probes compare their output directories file by file, as
`diff -r` would, after removing every `seconds` field from
summary.json.  The tool prints one JSON verdict that names the first
probe, function or file that differs.  For each probe it also names
the OpenBLAS kernel set each side ran (`blas_core`, read by that
side's inexad.blas), since equal bits are expected only within one
kernel set.  Both trees need the package's current API: CI compares
only with HEAD and its first parent.  Exit code: 0 when every probe
is equal, 1 when one differs or fails, 2 on a usage error such as an
unknown <rev>.  The tool itself uses the standard library only; the
probes import numpy and the package.
"""

import argparse
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
    from inexad.scorer import ae_init, score_batch
    from inexad.training import MODES, mode_objective, objective_grad

    digests = {name: hashlib.sha256() for name in
               ("score_batch", "objective_grad", "mode_objective")}
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


def _run_cli(name):
    from inexad import training
    from inexad.cli import main

    # relative paths: summary.json records the CSV's path as given
    argv = CLI_ARGS[name] + ["--out", "run"]
    if name == "cli-csv-32":
        _write_wide_csv("wide.csv")
        argv += ["--csv", "wide.csv"]
    # record the kernel's overlap decisions
    decide, overlapped = training._overlap_pays, []

    def recorded(work):
        overlapped.append(decide(work))
        return overlapped[-1]

    training._overlap_pays = recorded
    code = main(argv)
    if code:
        raise RuntimeError(f"inexad exited with {code}")
    return {"overlapped": any(overlapped)}


def _run_probe(name, out_dir):
    """Body of the probe subprocess: run one probe in out_dir, write its result
    there as JSON."""
    import inexad
    from inexad import blas

    src = os.environ["SAME_BITS_SRC"]
    if not Path(inexad.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"imported {inexad.__file__}, not the package under {src}")
    os.chdir(out_dir)
    result = _probe_hashes() if name == "hashes" else _run_cli(name)
    result["blas_core"] = blas.core_name()
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


def _probe(tree, name, out_dir):
    """Run probe `name` on `tree` into out_dir; returns (result, error text or None)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(tree / "src"),
               SAME_BITS_SRC=str((tree / "src").resolve()))
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           "--run-probe", name, "--out", str(out_dir)],
                          env=env, capture_output=True, text=True)
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


def compare(rev, work):
    """Run every probe on the commit rev and on this tree; returns the verdict."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    base = work / "against"
    base.mkdir()
    _extract(commit, base)
    verdict = {"equal": True, "against": rev, "against_commit": commit, "tree": str(ROOT),
               "probes": {}, "first_difference": None}
    for name in PROBES:
        started = time.perf_counter()
        results = {}
        for side, tree in (("against", base), ("tree", ROOT)):
            out_dir = work / f"{name}-{side}"
            out_dir.mkdir()
            results[side] = _probe(tree, name, out_dir)
        errors = {side: err for side, (_, err) in results.items() if err}
        if errors:
            status, difference = "error", {"probe": name, "error": errors}
        elif name == "hashes":
            a, b = results["against"][0], results["tree"][0]
            differing = [fn for fn in a if fn != "blas_core" and a[fn] != b.get(fn)]
            status = "differs" if differing else "equal"
            difference = {"probe": name, "function": differing[0]} if differing else None
        else:
            rel = _first_differing_file(work / f"{name}-against" / "run",
                                        work / f"{name}-tree" / "run")
            status = "equal" if rel is None else "differs"
            difference = None if rel is None else {"probe": name, "file": rel}
        entry = {"status": status, "seconds": round(time.perf_counter() - started, 1)}
        if not errors:
            entry["blas_core"] = {side: r[0]["blas_core"] for side, r in results.items()}
            if name == "cli-csv-32":
                entry["overlapped"] = {side: r[0]["overlapped"] for side, r in results.items()}
        verdict["probes"][name] = entry
        if difference is not None and verdict["equal"]:
            verdict["equal"], verdict["first_difference"] = False, difference
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
