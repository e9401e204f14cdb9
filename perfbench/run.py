"""xjoin benchmark driver.

    python3 perfbench/run.py --workload spectra|germs|identities|hull \
        --seed N --seconds S --trace 0|1 [--size full|small]

Writes the workload's inputs for the seed under ``.perfbench/`` in the
checkout, then measures in a closed loop with one client: repetitions of
the whole job list, one at a time, each in a fresh interpreter
(``rep.py``), started while the slowest repetition so far still fits in the
measuring window.  Every repetition's answers are checked.  Set-up is also
measured on its own in a few interpreters that stop before the first job.

With ``--trace 0`` the end-to-end metrics are reported:
  wall_s         seconds to finish the job list, set-up excluded: the sum
                 of each job's median time over the repetitions
  setup_s        process start to the first job (import xjoin, read
                 inputs), median over all starts
  slowest_job_s  the largest per-job median time
  peak_rss_mb    peak resident memory of a repetition's process, median
With ``--trace 1`` untraced and traced repetitions alternate and the
per-layer metrics of ``BENCHMARK.json`` are reported, plus
``trace.overhead_ratio``.  The failure ratio (failed jobs over jobs
attempted) is printed with the table and carried by the ``attempted`` and
``failed`` fields of the last line, a JSON object.

Exit code 2, with no result, when the checkout has no ``src/xjoin``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl
from rep import pin_fastest_cpu

ROOT = Path(__file__).resolve().parent.parent
REP = Path(__file__).resolve().parent / "rep.py"
GOLDEN = ROOT / "tests" / "data" / "adding_machine_x_depth3.json"
DEADLINE_S = 170          # the whole run, generation and checks included
SETUP_SAMPLES = 5


class Run:
    """The repetitions of one benchmark run and their checked answers."""

    def __init__(self, work: Path, jobs: list[dict], deadline: float):
        self.work, self.jobs, self.deadline = work, jobs, deadline
        self.cpus = os.sched_getaffinity(0)
        self.ref = wl.load_reference()
        golden = json.loads(GOLDEN.read_text())
        self.golden = {"xa": golden["xa"], "xu": golden["xu"]}
        self.inputs = {p.stem: json.loads(p.read_text()) for p in (work / "inst").glob("*.json")}
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def spawn(self, trace: int, setup_only: bool = False) -> dict | None:
        """Run rep.py once; its result, with set-up measured from the spawn."""
        (self.work / "result.json").unlink(missing_ok=True)
        cmd = [sys.executable, str(REP), str(self.work), "--trace", str(trace),
               "--cpus", ",".join(map(str, sorted(self.cpus)))]
        if setup_only:
            cmd.append("--setup-only")
        env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"}
        pin_fastest_cpu(self.cpus)
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)
        try:
            _, err = proc.communicate(timeout=max(1.0, self.deadline - start))
        except subprocess.TimeoutExpired:
            proc.kill()
            _, err = proc.communicate()
        result_file = self.work / "result.json"
        if proc.returncode != 0 or not result_file.exists():
            self.errors.append(f"rep.py exited {proc.returncode}: {err.strip()[-300:]}")
            return None
        result = json.loads(result_file.read_text())
        result["setup_s"] = result["first_job"] - start
        return result

    def repetition(self, trace: int) -> dict | None:
        """One measured repetition; checks every answer it gave."""
        result = self.spawn(trace)
        self.attempted += len(self.jobs)
        if result is None:
            self.failed += len(self.jobs)
            return None
        for i, (job, rec) in enumerate(zip(self.jobs, result["jobs"])):
            out = (self.work / "out" / f"{i}.txt").read_text()
            errs = wl.check_job(job, rec["code"], out, self.ref, self.golden, self.inputs)
            if errs:
                self.failed += 1
                self.errors.append(f"{job['key']}: {'; '.join(errs)} {rec['stderr'][-200:]}")
        return result


def measure(run: Run, seconds: float, trace: int) -> tuple[list[dict], list[dict]]:
    """Alternate repetitions (untraced only, or untraced and traced) in a
    closed loop while the slowest one so far still fits in the window."""
    modes = (0, 1) if trace else (0,)
    reps: dict[int, list[dict]] = {m: [] for m in modes}
    begin = time.monotonic()
    i = 0
    while True:
        mode = modes[i % len(modes)]
        i += 1
        done = reps[mode]
        elapsed = time.monotonic() - begin
        if done and elapsed + max(r["rep_s"] for r in done) > seconds:
            if all(reps[m] for m in modes):
                break
            continue
        if time.monotonic() > run.deadline:
            break
        t0 = time.monotonic()
        result = run.repetition(mode)
        if result is None:
            break
        result["rep_s"] = time.monotonic() - t0
        done.append(result)
    return reps[0], reps.get(1, [])


def job_medians(reps: list[dict]) -> list[float]:
    """Each job's median time over the repetitions.  Slow phases of a shared
    machine last a few seconds, so they hit single jobs, which a per-job
    median drops, more often than whole repetitions."""
    return [statistics.median(times) for times in zip(*(
        [rec["seconds"] for rec in r["jobs"]] for r in reps))]


def layer_metrics(plain: list[dict], traced: list[dict], jobs: list[dict]) -> dict:
    """Per-layer metrics: times are medians over traced repetitions, counts
    come from the first one (they repeat exactly)."""
    first = traced[0]["trace"]
    calls, sizes = first["calls"], first["sizes"]

    def med(f):
        return statistics.median(f(r["trace"]) for r in traced)

    def self_s(layer):
        return med(lambda t: t["self_s"][layer])

    def incl(name):
        return med(lambda t: t["incl"].get(name, 0.0))

    relgen_calls = calls.get("semilattice.is_cover@relgen", 0)
    stdout = sum(rec["stdout_bytes"] for job, rec in zip(jobs, traced[0]["jobs"])
                 if job["kind"] == "cli")
    return {
        "cli.self_s": (self_s("cli"), "s"),
        "cli.stdout_bytes": (stdout, "bytes"),
        "suites.self_s": (self_s("suites"), "s"),
        "semilattice.self_s": (self_s("semilattice"), "s"),
        "semilattice.is_cover.calls": (calls.get("semilattice.is_cover", 0), "count"),
        "semilattice.minimal_covers.calls": (calls.get("semilattice.minimal_covers", 0), "count"),
        "semilattice.relations": (sizes.get("semilattice.relations", 0), "count"),
        "semilattice.cover_yield": (
            sizes.get("semilattice.relgen_relations", 0) / relgen_calls if relgen_calls else 0.0,
            "ratio"),
        "boolalg.self_s": (self_s("boolalg"), "s"),
        "boolalg.x_pi_s": (incl("boolalg.x_pi"), "s"),
        "boolalg.x_pi.relations": (sizes.get("boolalg.x_pi.relations", 0), "count"),
        "boolalg.booleanization.atoms": (sizes.get("boolalg.booleanization.atoms", 0), "count"),
        "invsgp.self_s": (self_s("invsgp"), "s"),
        "invsgp.validate_s": (incl("invsgp.validate"), "s"),
        "invsgp.validate.elements": (sizes.get("invsgp.validate.elements", 0), "count"),
        "invsgp.from_partial_maps_s": (incl("invsgp.from_partial_maps"), "s"),
        "invsgp.idempotent_semilattice.calls": (
            calls.get("invsgp.idempotent_semilattice", 0), "count"),
        "invsgp.invariant_closure_s": (incl("invsgp.invariant_closure"), "s"),
        "groupoid.self_s": (self_s("groupoid"), "s"),
        "groupoid.germ_groupoid_s": (incl("groupoid.germ_groupoid"), "s"),
        "groupoid.units": (sizes.get("groupoid.units", 0), "count"),
        "groupoid.arrows": (sizes.get("groupoid.arrows", 0), "count"),
        "groupoid.theta.calls": (calls.get("groupoid.theta", 0), "count"),
        "bisection.self_s": (self_s("bisection"), "s"),
        "bisection.enumerate_s": (incl("bisection.BisAlgebra"), "s"),
        "bisection.elements": (sizes.get("bisection.elements", 0), "count"),
        "bisection.op.calls": (
            sum(v for k, v in calls.items() if k.startswith("bisection.BisAlgebra.")), "count"),
        "bisection.variety_triples": (sizes.get("bisection.variety_triples", 0), "count"),
        "bisection.presentation_s": (incl("bisection.check_presentation"), "s"),
        "bisection.quotient_s": (incl("bisection.theorem_quotients_check"), "s"),
        "lcmhull.self_s": (self_s("lcmhull"), "s"),
        "lcmhull.hull_mul.calls": (calls.get("lcmhull.hull_mul", 0), "count"),
        "lcmhull.right_lcm.calls": (calls.get("lcmhull.right_lcm", 0), "count"),
        "lcmhull.right_lcm_s": (incl("lcmhull.right_lcm"), "s"),
        "lcmhull.relations": (sizes.get("lcmhull.relations", 0), "count"),
        "trace.overhead_ratio": (
            sum(job_medians(traced)) / sum(job_medians(plain)), "ratio"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=wl.SIZES, default="full")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "xjoin" / "__init__.py").is_file() or not GOLDEN.is_file():
        print(f"error: {ROOT} is not an xjoin checkout (no src/xjoin or golden file)",
              file=sys.stderr)
        return 2

    work = ROOT / ".perfbench" / f"{args.workload}-{args.size}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        jobs = wl.write_inputs(work, args.workload, args.size, args.seed)
        for pkg in (ROOT / "src" / "xjoin", REP.parent):
            compileall.compile_dir(pkg, quiet=1)
        run = Run(work, jobs, deadline)
        setups = [r["setup_s"] for r in (run.spawn(0, setup_only=True)
                                         for _ in range(SETUP_SAMPLES)) if r]
        plain, traced = measure(run, args.seconds, args.trace)
        spans = work / "spans.jsonl"
        if spans.exists():
            spans.replace(work.parent / f"spans-{args.workload}-{args.seed}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for err in run.errors[:20]:
        print(f"FAIL {err}", file=sys.stderr)
    if not plain or (args.trace and not traced):
        metrics = {}
    elif args.trace:
        metrics = layer_metrics(plain, traced, jobs)
    else:
        setups += [r["setup_s"] for r in plain]
        per_job = job_medians(plain)
        metrics = {
            "wall_s": (sum(per_job), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "slowest_job_s": (max(per_job), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
        }
    print(f"workload={args.workload} size={args.size} seed={args.seed} "
          f"jobs={len(jobs)} repetitions={len(plain)}+{len(traced)} traced")
    for name, (value, unit) in metrics.items():
        print(f"  {name:38s} {value:14.6g} {unit}")
    print(f"  {'fail_ratio':38s} {run.failed / max(1, run.attempted):14.6g} "
          f"({run.failed} of {run.attempted} jobs)")
    correct = bool(metrics) and run.failed == 0 and not run.errors
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, run.attempted),
        "failed": run.failed if run.attempted else 1,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
