"""Write reference.json: input pools and the seed code's answers.

    python3 perfbench/make_reference.py

The pools are drawn from fixed seeds: random semilattice families whose
cover walks fall in a fixed band, and adding-machine hull pairs whose
product the bounded right-LCM search decides.  For every job that has no
independent invariant, the sha256 of its stdout is recorded, keyed by the
job's command line with instance names in place of paths.  Jobs on
relabelled or reshuffled inputs are run under two workload seeds, and their
outputs must agree.  Run this only on the code whose answers are the
reference, and commit the result.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
from pathlib import Path

import rep
import workloads as wl

FAMILIES = 48
HULL_PAIRS = 600
POOL_SEED = 20200729


def hull_pool(rng: random.Random) -> list[list[str]]:
    from xjoin import lcmhull

    P = lcmhull.monoid_from_spec("adding")

    def element() -> str:
        u = "".join(rng.choice("01") for _ in range(rng.randint(0, 3)))
        a = "g" * rng.randint(0, 2)
        return f"{u or 'e'}.{a or 'e'}"

    pairs = []
    while len(pairs) < HULL_PAIRS:
        x, y = f"[{element()},{element()}]", f"[{element()},{element()}]"
        try:
            z = lcmhull.hull_mul(P, lcmhull.parse_hull(P, x), lcmhull.parse_hull(P, y))
        except lcmhull.UndecidedError:
            continue
        pairs.append([x, y, z.format(P)])
    return pairs


def run_all(work: Path, docs: dict, jobs: list[dict], digests: dict) -> None:
    inst = work / "inst"
    shutil.rmtree(work, ignore_errors=True)
    inst.mkdir(parents=True)
    paths = {}
    for name, doc in docs.items():
        (inst / f"{name}.json").write_text(json.dumps(doc))
        paths[name] = str(inst / f"{name}.json")
    for job in jobs:
        if not job["digest"]:
            continue
        code, out, err = rep.run_job(job, paths)
        if code != job["code"]:
            raise SystemExit(f"{job['key']}: exit {code}: {err}")
        d = wl.digest(out)
        if digests.setdefault(job["key"], d) != d:
            raise SystemExit(f"{job['key']}: output depends on the workload seed")


def main() -> int:
    sys.path.insert(0, str(rep.ROOT / "src"))
    rng = random.Random(POOL_SEED)
    ref = {"families": [], "hull_pairs": [], "digests": {}}
    seen = set()
    while len(ref["families"]) < FAMILIES:
        fam = wl.random_family(rng)
        key = tuple(tuple(sorted(s)) for s in fam)
        if key not in seen:
            seen.add(key)
            ref["families"].append([sorted(s) for s in fam])
    ref["hull_pairs"] = hull_pool(rng)

    work = rep.ROOT / ".perfbench" / "reference"
    digests = ref["digests"]
    for size in wl.SIZES:
        names = [(f"fam{i:02d}", fam) for i, fam in enumerate(ref["families"])]
        docs, _ = wl.instances("spectra", size, 0, ref)
        docs.update((name, wl.semilattice_doc(fam)) for name, fam in names)
        run_all(work, docs, wl.spectra_jobs(size, names), digests)
        for workload in ("germs", "identities", "hull"):
            for seed in (0, 1):
                docs, jobs = wl.instances(workload, size, seed, ref)
                run_all(work, docs, jobs, digests)
    shutil.rmtree(work, ignore_errors=True)
    wl.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {wl.REFERENCE.name}: {len(ref['families'])} families, "
          f"{len(ref['hull_pairs'])} hull pairs, {len(digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
