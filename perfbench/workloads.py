"""Workloads of the xjoin benchmark: seeded inputs, job lists and answer checks.

A workload is a list of jobs that one interpreter runs one after another.
A job is either an ``xjoin`` command line, run through ``xjoin.cli.main``,
or a short library script; both yield the text a user would read.
``check_job`` compares that text against invariants known independently of
the code and, where no invariant exists, against the stdout digest the seed
code produced for the same job (``reference.json``, written by
``make_reference.py``).

Inputs are generated here, from the workload seed, with no help from
``xjoin``: meet tables, partial-map files, a multiplication table and
sampled hull pairs are built by the small routines below and written as
JSON before any timed process starts.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import product as iproduct
from pathlib import Path

WORKLOADS = ("spectra", "germs", "identities", "hull")
SIZES = ("full", "small")

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# partial-map generators; the comment gives the semigroup's order
GENERATORS = {
    "i2": (2, [{1: 2, 2: 1}, {1: 1}]),                                 # 7
    "b2": (2, [{1: 2}]),                                               # 5
    "p3": (3, [{1: 2, 2: 3}]),                                         # 14
    "i3": (3, [{1: 2, 2: 3, 3: 1}, {1: 2, 2: 1, 3: 3}, {1: 1, 2: 2}]),  # 34
    "i4": (4, [{1: 2, 2: 3, 3: 4, 4: 1}, {1: 2, 2: 1, 3: 3, 4: 4},
               {1: 1, 2: 2, 3: 3}]),                                   # 209
}
ORDER = {"i2": 7, "b2": 5, "p3": 14, "i3": 34, "i4": 209}

# random semilattice families: ground set, size range and the band of
# subset-walk sizes (sum over nonzero x of 2^|nonzero downset of x|) a pool
# member must fall in; a run draws families until their walks reach
# SPECTRA_WALK, so every seed does about the same cover-walk work
FAMILY_GROUND = 7
FAMILY_SIZE = (10, 24)
FAMILY_WALK = (1 << 12, 1 << 14)
SPECTRA_WALK = {"full": 1 << 17, "small": 1 << 13}

HULL_PRODUCTS = {"full": 400, "small": 20}
SAMPLED_BUDGET = {"full": 6_000, "small": 300}


# ---------------------------------------------------------------------------
# instance builders (independent of xjoin)

def set_label(s) -> str:
    return "{" + ",".join(str(v) for v in sorted(s)) + "}" if s else "0"


def semilattice_doc(family, labels=None) -> dict:
    """Meet table of an intersection-closed family, bottom first."""
    sets = sorted({frozenset(s) for s in family}, key=lambda s: (len(s), sorted(s)))
    idx = {s: i for i, s in enumerate(sets)}
    meet = [[idx[a & b] for b in sets] for a in sets]
    if labels is None:
        labels = [set_label(s) for s in sets]
    return {"elements": list(labels), "meet": meet}


def powerset_family(k: int) -> list[frozenset]:
    return [frozenset(i + 1 for i in range(k) if bits >> i & 1) for bits in range(1 << k)]


def chain_doc(n: int) -> dict:
    family = [frozenset(range(1, i + 1)) for i in range(n + 1)]
    return semilattice_doc(family, ["0"] + [f"e{i}" for i in range(1, n + 1)])


def family_atoms(family) -> int:
    nonzero = [frozenset(s) for s in family if s]
    return sum(1 for s in nonzero if not any(t < s for t in nonzero))


def family_walk(family) -> int:
    nonzero = [frozenset(s) for s in family if s]
    return sum(1 << sum(1 for t in nonzero if t <= s) for s in nonzero)


def random_family(rng: random.Random) -> list[frozenset]:
    """Intersection closure of a few random subsets of the ground set."""
    while True:
        sets = {frozenset()}
        for _ in range(rng.randint(3, 8)):
            sets.add(frozenset(i for i in range(FAMILY_GROUND) if rng.random() < 0.5))
        frontier = list(sets)
        while frontier:
            a = frontier.pop()
            for b in list(sets):
                if a & b not in sets:
                    sets.add(a & b)
                    frontier.append(a & b)
        lo, hi = FAMILY_SIZE
        wlo, whi = FAMILY_WALK
        if lo <= len(sets) <= hi and wlo <= family_walk(sets) <= whi:
            return sorted(sets, key=lambda s: (len(s), sorted(s)))


def pmap_doc(points: int, maps, perm=None) -> dict:
    """Partial-map file, with the points renamed by ``perm`` if given."""
    perm = perm or {p: p for p in range(1, points + 1)}
    return {
        "points": points,
        "partial_maps": [{str(perm[k]): str(perm[v]) for k, v in m.items()} for m in maps],
    }


def close_partial_maps(maps) -> list[tuple]:
    """All products of the generators and their inverses, plus the empty map.

    Maps are sorted item tuples; the closure is a breadth-first search over
    right multiplication by the generators.
    """
    gens = [tuple(sorted(m.items())) for m in maps]
    gens += [tuple(sorted((v, k) for k, v in g)) for g in gens]
    seen = set(gens)
    frontier = list(gens)
    while frontier:
        f = frontier.pop()
        for g in gens:
            h = compose(f, g)
            if h not in seen:
                seen.add(h)
                frontier.append(h)
    seen.add(())
    return sorted(seen, key=lambda m: (len(m), m))


def compose(f: tuple, g: tuple) -> tuple:
    """f after g."""
    fd = dict(f)
    return tuple(sorted((x, fd[y]) for x, y in g if y in fd))


def table_doc(points: int, maps, rng: random.Random) -> dict:
    """Explicit multiplication table of a generated semigroup, rows shuffled."""
    elems = close_partial_maps(maps)
    rng.shuffle(elems)
    idx = {m: i for i, m in enumerate(elems)}
    mult = [[idx[compose(f, g)] for g in elems] for f in elems]
    labels = [",".join(f"{k}>{v}" for k, v in m) or "0" for m in elems]
    return {"elements": labels, "mult": mult, "zero": "0"}


def random_words(rng: random.Random, alphabet: str, count: int, maxlen: int) -> list[str]:
    words = {"".join(rng.choice(alphabet) for _ in range(rng.randint(1, maxlen)))
             for _ in range(count)}
    return sorted(words)


# ---------------------------------------------------------------------------
# jobs

def cli(*argv, expect=None, code=0, digest=True) -> dict:
    """A command-line job; "@name" arguments name instance files."""
    return {"kind": "cli", "argv": list(argv), "expect": expect or {}, "code": code,
            "digest": digest, "key": " ".join(argv)}


def lib(call: str, expect=None, digest=True, **args) -> dict:
    key = call + "".join(f" {k}={v}" for k, v in sorted(args.items()))
    return {"kind": "lib", "call": call, "args": args, "expect": expect or {},
            "code": 0, "digest": digest, "key": key}


def spectra_jobs(size: str, families) -> list[dict]:
    """Cover walks, spectra, Booleanizations and the all-subsets x_pi."""
    fixed = [("pow3", 3), ("chain6", 1)] + ([("pow4", 4)] if size == "full" else [])
    insts = fixed + [(name, family_atoms(fam)) for name, fam in families]
    jobs = []
    for name, atoms in insts:
        for x in ("tight", "prime", "core"):
            expect = {"atoms": atoms}
            if x == "tight":
                expect["spectrum"] = atoms
            jobs.append(cli("semilattice", "--input", "@" + name, "--x", x, expect=expect))
        for x in ("tight", "prime", "core"):
            expect = {"pow2": True}
            if x == "tight":
                expect["spectrum"] = atoms
            jobs.append(cli("booleanize", "--semilattice", "@" + name, "--x", x, expect=expect))
    top = "pow4" if size == "full" else "pow3"
    jobs.append(lib("isom", inst=top, expect={"isom": "true", "atoms": int(top[-1])}))
    jobs.append(lib("suite", name="semilattice", expect={"suite": True}))
    jobs.append(lib("suite", name="boolalg", expect={"suite": True}))
    return jobs


def germs_jobs(size: str) -> list[dict]:
    """Validation, closure, germ groupoids and bisection enumeration.

    The tight and prime groupoids of I_n are the pair groupoid on n points
    (n units, n^2 arrows); the core relations of a powerset are trivial, so
    the core groupoid has one unit per nonzero idempotent (2^n - 1) and one
    arrow per nonzero element; the local bisections of the pair groupoid are
    the partial bijections, |I_n| of them.
    """
    big, n = ("i4", 4) if size == "full" else ("i3", 3)
    pair = {"units": n, "arrows": n * n}
    core = {"units": 2 ** n - 1, "arrows": ORDER[big] - 1}
    jobs = [
        cli("groupoid", "--invsgp", "@" + big, "--x", "tight", expect=pair),
        cli("groupoid", "--invsgp", "@" + big, "--x", "core", "--format", "json",
            expect={"json_units": core["units"], "json_arrows": core["arrows"]}),
        cli("groupoid", "--invsgp", "@" + big + "t", "--x", "prime", expect=pair),
        cli("groupoid", "--invsgp", "@" + big + "t", "--x", "core", expect=core),
    ]
    jobs.append(cli("booleanize", "--invsgp", "@" + big, "--x", "tight",
                    expect={**pair, "elements": ORDER[big]}))
    universal = {"units": 7, "arrows": 33, "elements": 33_082}
    if size == "small":
        universal = {"units": 3, "arrows": 6, "elements": 21}
    uni = "i3" if size == "full" else "i2"
    jobs.append(cli("booleanize", "--invsgp", "@" + uni, "--x", "none", expect=universal))
    jobs.append(cli("booleanize", "--invsgp", "@" + uni, "--x", "core", "--format", "json",
                    expect={"json_elements": universal["elements"]}))
    jobs.append(lib("suite", name="invsgp", expect={"suite": True}))
    jobs.append(lib("suite", name="groupoid", expect={"suite": True}))
    return jobs


def identities_jobs(size: str) -> list[dict]:
    """Presentation and quotient checks and variety identities: many
    operations on algebras that are cheap to build.

    The 7/21/7 counts are the tight and universal algebras of I2 and the
    universal algebra of B2; the tight algebra of I_n has |I_n| elements.
    """
    ladder = ["i2", "b2"] + (["p3"] if size == "full" else [])
    universal = {"i2": 21, "b2": 7, "p3": 238}
    jobs = []
    for name in ladder:
        size_n = universal[name]
        jobs.append(cli("presentation-check", "--invsgp", "@" + name, "--x", "none",
                        expect={"ok": "true", "total": size_n, "generated": size_n}))
        jobs.append(cli("presentation-check", "--invsgp", "@" + name, "--x", "tight",
                        expect={"ok": "true", "same": ("generated", "total")}))
        jobs.append(cli("quotient-check", "--invsgp", "@" + name, "--x", "tight",
                        expect={"ok": "true", "wmp": "true", "same": ("classes", "quotient")}))
    tight = "i3" if size == "full" else "i2"
    for x in ("tight", "prime"):
        jobs.append(cli("presentation-check", "--invsgp", "@" + tight, "--x", x,
                        expect={"ok": "true", "total": ORDER[tight], "generated": ORDER[tight]}))
    jobs.append(lib("variety", inst=tight, x="tight", budget=250_000,
                    expect={"ok": "true", "exhaustive": "true", "elements": ORDER[tight],
                            "checked": ORDER[tight] ** 3}))
    budget = SAMPLED_BUDGET[size]
    uni, n = ("i3", 33_082) if size == "full" else ("i2", 21)
    total = n ** 3
    checked = total if total <= budget else len(range(0, total, total // budget + 1))
    jobs.append(lib("variety", inst=uni, x="none", budget=budget,
                    expect={"ok": "true", "exhaustive": str(total <= budget).lower(),
                            "elements": n, "checked": checked}))
    jobs.append(lib("suite", name="bisection", expect={"suite": True}))
    return jobs


def hull_jobs(size: str, foundation_sets) -> list[dict]:
    """Right-LCM oracles and hull products, cheap and costly side by side."""
    jobs = [lib("suite", name="hull", depth=2 if size == "full" else 1, expect={"suite": True})]
    jobs.append(lib("products", inst="pairs", expect={"products": True}, digest=False))
    deep = 4 if size == "full" else 3
    jobs.append(cli("hull", "--monoid", "adding", "xu", "--depth", "3", expect={"golden": "xu"}))
    jobs.append(cli("hull", "--monoid", "adding", "xu", "--depth", str(deep)))
    jobs.append(cli("hull", "--monoid", "adding", "xa", "--depth", "3", expect={"golden": "xa"}))
    jobs.append(cli("hull", "--monoid", "adding", "xa", "--depth", "8" if size == "full" else "4"))
    for monoid, words in foundation_sets:
        verdict = foundation_oracle(monoid, words)
        jobs.append(cli("hull", "--monoid", monoid, "foundation", "--set", ",".join(words),
                        "--depth", "4", code=1 if verdict == "no" else 0, digest=False,
                        expect={"verdict": verdict, "witness_for": [monoid, words]}))
        jobs.append(cli("hull", "--monoid", monoid, "lemma", "--set", ",".join(words),
                        "--depth", "4", digest=False, expect={"agree": "true"}))
    return jobs


def foundation_oracle(monoid: str, words) -> str:
    """Foundation verdict from first principles.

    In N^k any two principal right ideals meet, so every nonempty set is a
    foundation set.  In a free monoid two ideals meet iff the words are
    prefix-comparable, and a set is a foundation set iff every word of the
    longest member's length has a prefix in it.
    """
    if monoid.startswith("nat:"):
        return "yes" if words else "no"
    alphabet = "abcdefghijklmnopqrstuvwxyz"[: int(monoid[5:])]
    top = max(len(w) for w in words)
    for letters in iproduct(alphabet, repeat=top):
        w = "".join(letters)
        if not any(w.startswith(f) for f in words):
            return "no"
    return "yes"


# ---------------------------------------------------------------------------
# inputs

def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def instances(workload: str, size: str, seed: int, ref: dict) -> tuple[dict, list[dict]]:
    """Instance documents (name -> JSON document) and the job list."""
    rng = random.Random(f"{workload}:{seed}")
    docs: dict[str, object] = {}
    if workload == "spectra":
        docs["pow3"] = semilattice_doc(powerset_family(3))
        docs["pow4"] = semilattice_doc(powerset_family(4))
        docs["chain6"] = chain_doc(6)
        pool = list(enumerate(ref["families"]))
        rng.shuffle(pool)
        chosen, walk = [], 0
        for i, fam in pool:
            if walk >= SPECTRA_WALK[size]:
                break
            chosen.append((f"fam{i:02d}", fam))
            walk += family_walk(fam)
        for name, fam in chosen:
            docs[name] = semilattice_doc(fam)
        return docs, spectra_jobs(size, chosen)
    if workload == "germs":
        for name in ("i2", "i3", "i4"):
            docs[name] = pmap_doc(*GENERATORS[name])
        big = "i4" if size == "full" else "i3"
        docs[big + "t"] = table_doc(*GENERATORS[big], rng)
        return docs, germs_jobs(size)
    if workload == "identities":
        for name in ("i2", "b2", "p3", "i3"):
            points, maps = GENERATORS[name]
            perm = list(range(1, points + 1))
            rng.shuffle(perm)
            docs[name] = pmap_doc(points, maps, dict(zip(range(1, points + 1), perm)))
        return docs, identities_jobs(size)
    if workload == "hull":
        docs["pairs"] = rng.sample(ref["hull_pairs"], HULL_PRODUCTS[size])
        sets = []
        for monoid in ("free:2", "free:3"):
            alphabet = "abc"[: int(monoid[5:])]
            for _ in range(2):
                sets.append((monoid, random_words(rng, alphabet, rng.randint(1, 5), 3)))
        for _ in range(2):
            pts = {f"{rng.randint(0, 3)}.{rng.randint(0, 3)}" for _ in range(rng.randint(1, 3))}
            sets.append(("nat:2", sorted(pts)))
        return docs, hull_jobs(size, sets)
    raise ValueError(f"unknown workload {workload!r}")


def write_inputs(workdir: Path, workload: str, size: str, seed: int) -> list[dict]:
    """Write the instance files and jobs.json; return the job list."""
    docs, jobs = instances(workload, size, seed, load_reference())
    inst = workdir / "inst"
    inst.mkdir(parents=True, exist_ok=True)
    for name, doc in docs.items():
        (inst / f"{name}.json").write_text(json.dumps(doc))
    (workdir / "jobs.json").write_text(json.dumps(jobs))
    return jobs


# ---------------------------------------------------------------------------
# library jobs (run inside the measured interpreter)

def run_lib(call: str, args: dict, paths: dict) -> str:
    """Run a library job and return its printable result."""
    from xjoin import boolalg, bisection, invsgp, lcmhull, semilattice, suites

    if call == "suite":
        fn = getattr(suites, f"{args['name']}_suite")
        results = fn(depth=args["depth"]) if "depth" in args else fn()
        return "".join(f"{'ok' if ok else 'FAIL'} - {name}\n" for name, ok, _ in results)
    if call == "isom":
        E = semilattice.semilattice_from_json(Path(paths[args["inst"]]).read_text())
        B, rep = boolalg.booleanization(E, semilattice.x_tight(E))
        ok = boolalg.theorem_isom_check(rep)
        return f"isom={str(ok).lower()} atoms={B.m}\n"
    if call == "variety":
        S = invsgp.invsgp_from_json(Path(paths[args["inst"]]).read_text())
        rep = bisection.iota(S, invsgp.semigroup_relations(S, args["x"]))
        vr = bisection.check_variety_identities(rep.algebra, args["budget"])
        return (f"ok={str(vr.ok).lower()} exhaustive={str(vr.exhaustive).lower()} "
                f"checked={vr.checked} elements={len(rep.algebra)}\n")
    if call == "products":
        P = lcmhull.monoid_from_spec("adding")
        lines = []
        for x, y, _ in json.loads(Path(paths[args["inst"]]).read_text()):
            z = lcmhull.hull_mul(P, lcmhull.parse_hull(P, x), lcmhull.parse_hull(P, y))
            lines.append(f"{x}*{y}={z.format(P)}\n")
        return "".join(lines)
    raise ValueError(f"unknown library job {call!r}")


# ---------------------------------------------------------------------------
# answer checks (run by the driver after timing)

def fields(text: str) -> dict[str, str]:
    out = {}
    for token in text.split():
        key, sep, value = token.partition("=")
        if sep:
            out[key] = value
    return out


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_job(job: dict, code, out: str, ref: dict, golden: dict, inputs: dict) -> list[str]:
    """Errors in one job's answer; an empty list means it is correct."""
    if code != job["code"]:
        return [f"exit code {code}, want {job['code']}"]
    errors = []
    if job["digest"]:
        want = ref["digests"].get(job["key"])
        if want is None:
            errors.append("no reference digest")
        elif digest(out) != want:
            errors.append("stdout differs from the seed code's")
    try:
        errors += _check_expect(job["expect"], out, golden, inputs)
    except (ValueError, KeyError, TypeError) as exc:
        errors.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return errors


def _check_expect(expect: dict, out: str, golden: dict, inputs: dict) -> list[str]:
    errors = []
    got = fields(out)
    for key, want in expect.items():
        if key == "same":
            a, b = want
            if got.get(a) is None or got.get(a) != got.get(b):
                errors.append(f"{a}={got.get(a)} differs from {b}={got.get(b)}")
        elif key == "pow2":
            if got.get("elements") != str(2 ** int(got.get("spectrum", -1))):
                errors.append(f"elements={got.get('elements')} is not 2^spectrum")
        elif key == "suite":
            lines = out.splitlines()
            if not lines or any(not line.startswith("ok - ") for line in lines):
                errors.append("suite has a failing property")
        elif key.startswith("json_"):
            doc = json.loads(out)
            n = len(doc[key[5:]])
            if n != want:
                errors.append(f"{key[5:]} has {n} entries, want {want}")
        elif key == "golden":
            if json.loads(out) != golden[want]:
                errors.append(f"{want} differs from the golden file")
        elif key == "products":
            want_lines = "".join(f"{x}*{y}={z}\n" for x, y, z in inputs["pairs"])
            if out != want_lines:
                errors.append("hull products differ from the seed code's")
        elif key == "witness_for":
            monoid, words = want
            w = got.get("witness")
            if got.get("verdict") == "no" and (w is None or any(
                    w.startswith(f) or f.startswith(w) for f in words)):
                errors.append(f"witness {w} meets the ideal of a member")
        elif str(got.get(key)) != str(want):
            errors.append(f"{key}={got.get(key)}, want {want}")
    return errors
