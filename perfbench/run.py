"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload score-review --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

With ``--trace 0`` the package runs unmodified and the end-to-end metrics are
reported.  With ``--trace 1`` one untraced pass and one traced pass run, and
the per-layer metrics are reported.  ``--workload all`` runs the three
workloads in turn in this one process.  Metric names and units come from
BENCHMARK.json; perfbench/METRICS.md says what each one means.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 whenever that line is printed,
and 2 when the package source or BENCHMARK.json is missing.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("paper-synthetic", "wide-fixed-lambda", "score-review")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_REPEATS = 5
# Counts that must repeat exactly between traced runs of one seed.
EXACT_COUNTS = ("training.epochs", "training.steps", "network.mlp_forward.calls",
                "scorer.score_batch.rows", "metrics.set_max_scores.sets")


class SetupError(Exception):
    """The checkout lacks what the benchmark needs to run."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny is for the smoke tests")
    return parser.parse_args(argv)


def pin_blas_threads():
    """One BLAS thread; must run before numpy is first imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_package():
    src = ROOT / "src"
    if not (src / "inexad" / "__init__.py").is_file():
        raise SetupError(f"no package source at {src / 'inexad'}")
    sys.path.insert(0, str(src))
    import inexad
    if Path(inexad.__file__).resolve().parent != (src / "inexad").resolve():
        raise SetupError(f"imported inexad from {inexad.__file__}, not {src}")


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read BENCHMARK.json: {exc}") from None


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "malloc_env": {k: v for k, v in os.environ.items() if k.startswith("MALLOC_")},
    }


def import_seconds(repeats):
    """Wall time of `import inexad` in a fresh interpreter, `repeats` times."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        # no timeout: with one, the wait polls and rounds the time up to 50 ms steps
        subprocess.run([sys.executable, "-c", "import inexad"], env=env, check=True)
        times.append(time.perf_counter() - start)
    return times


def setup_seconds(workload):
    """Median import time plus the median of repeated workload set-ups."""
    times = []
    for _ in range(workload.setup_repeats):
        start = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - start)
    imports = import_seconds(IMPORT_REPEATS)
    return statistics.median(imports) + statistics.median(times)


def percentile(samples, q):
    import numpy as np
    return float(np.percentile(samples, q)) if samples else 0.0


def run_untraced(workload, seconds):
    setup_s = setup_seconds(workload)
    # where passes are cheap, one untimed warm-up pass lets lazy set-up finish
    warmup = [workload.run_pass()] if workload.repeats_until_deadline else []
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < workload.min_passes or (
            workload.repeats_until_deadline and time.perf_counter() < deadline):
        passes.append(workload.run_pass())
    latency = [x for p in passes for x in p.latency_ms]
    medians = [statistics.median(p.latency_ms) for p in passes if p.latency_ms]
    work_s = sum(p.work_s for p in passes)
    attempted = sum(p.attempted for p in warmup + passes)
    failed = sum(p.failed for p in warmup + passes)
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.fmean(p.wall_s for p in passes),
        "throughput_per_s": sum(p.work for p in passes) / work_s if work_s > 0 else 0.0,
        # each pass's median, averaged: the machine's speed drifts between
        # passes, and one median over the whole run flips between its states
        "latency_ms_p50": statistics.fmean(medians) if medians else 0.0,
        "latency_ms_p99": percentile(latency, 99),
        "test_auc": workload.quality(),
        "success_rate": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"passes": len(passes), "latency_samples": len(latency)}
    return values, attempted, failed, info


def count_mismatches(values, path):
    """Compare the exact counts with those of an earlier traced run of this seed."""
    counts = {name: values.get(name, 0) for name in EXACT_COUNTS}
    mismatches = 0
    if path.is_file():
        earlier = json.loads(path.read_text())
        mismatches = sum(earlier.get(name) != counts[name] for name in EXACT_COUNTS)
        if mismatches:
            print(f"warning: exact counts differ from the earlier traced run: "
                  f"now {counts}, before {earlier}", file=sys.stderr)
    path.write_text(json.dumps(counts, sort_keys=True) + "\n")
    return mismatches


def run_traced(workload, counts_path):
    import workloads
    from tracing import Tracer

    workload.setup()
    # the same warm-up as untraced runs, so that the untraced pass is not the cold one
    untraced = [workload.run_pass() for _ in range(1 + workload.repeats_until_deadline)]
    plain = untraced[-1]
    with Tracer() as tracer:
        with tracer.span("bench.setup"):
            workload.setup()
        with tracer.span("bench.pass"):
            traced = workload.run_pass(tracer)
    tracer.write_spans(OUT / f"spans-{workload.name}.csv")
    values = tracer.layer_values()
    values["trace.overhead_s"] = traced.wall_s - plain.wall_s
    auc_means = getattr(workload, "auc_means", {})
    for mode in workloads.MODES:
        values[f"harness.auc_mean.{mode}"] = auc_means.get(mode, 0.0)
    values["trace.count_mismatches"] = count_mismatches(values, counts_path)
    info = {"spans": len(tracer.spans)}
    passes = untraced + [traced]
    return (values, sum(p.attempted for p in passes), sum(p.failed for p in passes),
            info)


def run_workload(name, seed, seconds, trace, size, spec):
    """Run one workload; returns (result dict for the JSON line, info dict)."""
    import workloads

    OUT.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[name](seed, size, str(OUT))
    if trace:
        counts_path = OUT / f"counts-{name}-{size}-{seed}.json"
        values, attempted, failed, info = run_traced(workload, counts_path)
        listed = spec["per_layer"]
    else:
        values, attempted, failed, info = run_untraced(workload, seconds)
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, info


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    pin_blas_threads()
    try:
        import_package()
        spec = load_spec()
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result, info = run_workload(name, args.seed, args.seconds, args.trace,
                                    args.size, spec)
        results[name] = result
        print(f"{name}: {result['attempted']} operations, {result['failed']} failed, "
              f"outputs {'correct' if result['correct'] else 'WRONG'} "
              + json.dumps(info, sort_keys=True))
        for metric, entry in result["metrics"].items():
            print(f"  {metric} = {entry['value']!r} {entry['unit']}")
        with open(OUT / "results.jsonl", "a") as fh:
            fh.write(json.dumps({"workload": name, "seed": args.seed,
                                 "seconds": args.seconds, "trace": args.trace,
                                 "size": args.size, "env": env, "info": info,
                                 "result": result}, sort_keys=True) + "\n")
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": entry for name, r in results.items()
                        for metric, entry in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
