"""Benchmark of the symspec CLI: fixed workloads, checked outputs, traced layers.

Run from the repository root:

    python3 bench/run.py --workload spectra_smash --seed 1 --seconds 35 --trace 0

The seeded inputs are generated first, outside all timing.  Then each
repetition is one fresh interpreter (bench/worker.py) that imports symspec
and runs the workload's command list through `symspec.cli.main`, which is
what a CLI user pays.  Repetitions run one at a time until the next one would
end after --seconds; a few extra launches that import symspec and run no
command give more set-up samples.  Repetitions alternate PYTHONHASHSEED
between 1 and 2, and every command's exit code and stdout sha256 are checked
against bench/reference.json, so each run also checks that the outputs do
not depend on the hash seed.

With --trace 0 the last stdout line reports the end-to-end metrics:
    wall_s       median seconds from the first cli.main call to the last return
    setup_s      median seconds from interpreter launch to ready to run
    peak_rss_mb  median peak resident memory of a repetition
Both times are rescaled to a reference CPU speed by the probe of
bench/speed.py.  With --trace 1 repetitions alternate untraced and traced,
and the last line reports the per-layer metrics of bench/reduce.py (medians
over the traced repetitions) and trace_overhead_frac, the rescaled traced
wall time over the rescaled untraced one, less 1.  The line before it gives each timing's
median, quartiles and sample count.  A failed command is one whose exit code
or stdout hash differs from the reference; `failed` / `attempted` is the
failed fraction.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reduce
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
HASH_SEEDS = ("1", "2")
SETUP_PROBES = 5
HARD_LIMIT_S = 165.0

WORKLOADS = ("spectra_smash", "homology_snf", "lifting_search")


class WorkerError(RuntimeError):
    pass


def launch(commands, trace, hash_seed, timeout):
    """Run one repetition in a fresh interpreter; return (setup_s, seconds, report)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SYMSPEC_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = hash_seed
    job = json.dumps({"commands": commands, "trace": trace})
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=job, capture_output=True, text=True, cwd=ROOT, env=env,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"repetition did not finish within {timeout:.0f} s") from None
    took = time.monotonic() - launched
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    setup = speed.normalized(report["ready"] - launched, report["ready_probe"])
    return setup, took, report


def quartiles(values):
    """(median, first quartile, third quartile, count)."""
    if len(values) == 1:
        return values[0], values[0], values[0], 1
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, len(values)


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_frac", "_ratio", "probe_yield")):
        return "ratio"
    if metric == "jsonio.bytes_out":
        return "B"
    if metric == "peak_rss_mb":
        return "MB"
    return "count"


def measure(keys, commands, seconds, trace, refs, started):
    """Run repetitions for `seconds`; return (samples, attempted, failed)."""
    samples = {
        "setup_s": [], "wall_s": [], "raw_wall_s": [], "peak_rss_mb": [],
        "traced_wall_s": [], "layers": [],
    }
    attempted = failed = 0

    def timeout():
        return max(1.0, HARD_LIMIT_S - (time.monotonic() - started))

    for i in range(SETUP_PROBES):
        setup, _, _ = launch([], False, HASH_SEEDS[i % 2], timeout())
        samples["setup_s"].append(setup)

    deadline = time.monotonic() + seconds
    modes = (False, True) if trace else (False,)
    took = {}
    rep = 0
    while True:
        traced = modes[rep % len(modes)]
        setup, took[traced], report = launch(commands, traced, HASH_SEEDS[rep % 2], timeout())
        samples["setup_s"].append(setup)
        for key, (code, digest) in zip(keys, report["results"]):
            attempted += 1
            if [code, digest] != refs.get(key):
                failed += 1
                print(f"mismatch: {key}: exit {code}, sha256 {digest}; "
                      f"reference {refs.get(key)}", file=sys.stderr)
        wall = speed.normalized(report["wall_s"], report["probe"])
        if traced:
            samples["traced_wall_s"].append(wall)
            samples["layers"].append(reduce.layer_metrics(report["spans"]))
        else:
            samples["raw_wall_s"].append(report["wall_s"])
            samples["wall_s"].append(wall)
            samples["peak_rss_mb"].append(report["rss_kb"] / 1024)
        rep += 1
        following = modes[rep % len(modes)]
        if rep >= len(modes) and time.monotonic() + took[following] > deadline:
            break
    return samples, attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (SRC / "symspec" / "cli.py").is_file():
        sys.exit(f"no symspec sources under {SRC}; run from a checkout of the repository")
    if not REFERENCE.is_file():
        sys.exit(f"missing {REFERENCE}; record it with bench/record.py")
    refs = json.loads(REFERENCE.read_text())[args.workload]

    sys.path.insert(0, str(SRC))
    import workloads

    try:
        with workloads.work_dir(ROOT, f"{args.workload}-{args.seed}") as workdir:
            built = workloads.build(workloads.templates(args.workload, args.seed), workdir)
            keys = [key for key, _ in built]
            commands = [argv for _, argv in built]
            samples, attempted, failed = measure(
                keys, commands, args.seconds, bool(args.trace), refs, started
            )
    except WorkerError as exc:
        sys.exit(f"benchmark run failed: {exc}")

    summary = {}
    for name in ("wall_s", "setup_s", "raw_wall_s", "traced_wall_s"):
        if samples[name]:
            med, q1, q3, n = quartiles(samples[name])
            summary[name] = {"median": med, "q1": q1, "q3": q3, "n": n}
    print(json.dumps({"workload": args.workload, "seed": args.seed, "timings": summary}))

    if args.trace:
        layers = samples["layers"]
        metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        metrics["trace_overhead_frac"] = (
            statistics.median(samples["traced_wall_s"]) / statistics.median(samples["wall_s"]) - 1
        )
    else:
        metrics = {
            name: statistics.median(samples[name])
            for name in ("wall_s", "setup_s", "peak_rss_mb")
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit_of(name)} for name, v in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
