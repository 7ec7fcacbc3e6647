"""One benchmark repetition: a fresh interpreter running CLI commands in order.

Reads a job from stdin, {"commands": [argv, ...], "trace": bool}, runs each
argv through `symspec.cli.main` with stdout and stderr captured, and writes
one JSON report line to stdout:

    ready         CLOCK_MONOTONIC time at which symspec was imported and the
                  first command could start; the parent subtracts its launch
                  time to get the set-up time
    ready_probe   speed probe samples taken right after `ready`
    wall_s        seconds from the first cli.main call to the last return,
                  less the time spent in speed probe samples
    probe         speed probe samples taken while the commands ran (see
                  speed.py)
    rss_kb        peak resident memory of this process
    results       [exit code, sha256 of stdout] per command
    spans         the recorded spans, when tracing

Run with the repository's `src` on PYTHONPATH.
"""

import sys
import time

import symspec.cli

# Set-up ends here: interpreter start plus the package imports, nothing else.
READY = time.monotonic()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import speed  # noqa: E402

READY_PROBES = 25


def run_command(argv):
    """Exit code (or the exception's name) and stdout of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = symspec.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
        except Exception as exc:  # a crash is a failed command, not a failed run
            code = f"exception {type(exc).__name__}: {exc}"
    return code, out.getvalue()


def main():
    ready_probe = [speed.time_probe() for _ in range(READY_PROBES)]
    job = json.load(sys.stdin)
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    sampler = speed.Sampler()
    outputs = []
    start = time.perf_counter()
    with sampler:
        for i, argv in enumerate(job["commands"]):
            if tracer is not None:
                tracer.run = i
            outputs.append(run_command(argv))
    wall = time.perf_counter() - start
    report = {
        "ready": READY,
        "ready_probe": ready_probe,
        "wall_s": wall - sum(sampler.samples),
        "probe": sampler.samples,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "results": [
            [code, hashlib.sha256(text.encode("utf-8")).hexdigest()]
            for code, text in outputs
        ],
    }
    if tracer is not None:
        report["spans"] = tracer.spans()
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
