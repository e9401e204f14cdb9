"""One repetition of a workload in a fresh interpreter.

    python3 perfbench/rep.py WORKDIR --trace 0|1 [--setup-only]

Set-up imports xjoin from the checkout's ``src`` and reads the instance
files; the monotonic clock at the first job is reported so the driver can
measure set-up from the moment it started this process.  The jobs then run
one at a time, each timed on its own with stdout and stderr captured.  Each
job's stdout is written to ``WORKDIR/out/<index>.txt`` after its timing
stops, for the driver to check.  With ``--trace 1`` the layers are wrapped
by ``tracer`` before the first job and the trace summary and spans are
written at the end.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPIN_S = 0.5


def probe(cpu: int) -> float:
    """Best time of a short fixed loop on one CPU."""
    os.sched_setaffinity(0, {cpu})
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        sum(i * i % 7 for i in range(40_000))
        best = min(best, time.perf_counter() - t0)
    return best


def pin_fastest_cpu(cpus: set[int]) -> None:
    """Pin this process, and the processes it starts, to the CPU that runs a
    short loop fastest.  On a shared host another tenant keeps one CPU's
    sibling busy for seconds at a time; this moves off that CPU."""
    if len(cpus) > 1:
        os.sched_setaffinity(0, {min(cpus, key=probe)})


def run_job(job: dict, paths: dict):
    """Run one job; return (exit code or error text, stdout, stderr)."""
    from xjoin import cli

    import workloads

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            if job["kind"] == "cli":
                argv = [paths[a[1:]] if a.startswith("@") else a for a in job["argv"]]
                code = cli.main(argv)
            else:
                code = 0
                print(workloads.run_lib(job["call"], job["args"], paths), end="")
        except Exception as exc:  # noqa: BLE001 - a crash is a failed answer
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workdir")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--cpus", default="", help="CPUs to choose from between jobs")
    args = ap.parse_args(argv)
    work = Path(args.workdir)

    sys.path.insert(0, str(ROOT / "src"))
    import xjoin
    import xjoin.cli
    import xjoin.suites

    if Path(xjoin.__file__).resolve().parent != ROOT / "src" / "xjoin":
        print(f"error: imported xjoin from {xjoin.__file__}", file=sys.stderr)
        return 2
    jobs = json.loads((work / "jobs.json").read_text())
    paths = {}
    for f in sorted((work / "inst").glob("*.json")):
        json.loads(f.read_text())
        paths[f.stem] = str(f)

    tracer = None
    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.install()
    first_job = time.monotonic()
    result = {"first_job": first_job, "jobs": []}
    if not args.setup_only:
        outdir = work / "out"
        outdir.mkdir(exist_ok=True)
        cpus = {int(c) for c in args.cpus.split(",") if c}
        pinned = time.monotonic()
        for i, job in enumerate(jobs):
            if time.monotonic() - pinned >= REPIN_S:
                pin_fastest_cpu(cpus)
                pinned = time.monotonic()
            t0 = time.perf_counter()
            code, out, err = run_job(job, paths)
            seconds = time.perf_counter() - t0
            (outdir / f"{i}.txt").write_text(out)
            result["jobs"].append({"seconds": seconds, "code": code,
                                   "stdout_bytes": len(out.encode()), "stderr": err[-400:]})
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write_spans(work / "spans.jsonl")
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
