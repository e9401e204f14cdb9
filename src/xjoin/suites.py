"""Property suites over small and randomly generated instances.

Each suite returns (name, ok, detail) triples; the command line aggregates
them and the tests reuse them directly.  All randomness is seeded, so runs
are reproducible.
"""

from __future__ import annotations

import random
from itertools import combinations, product as iproduct

from . import boolalg, invsgp, lcmhull, semilattice
from .bisection import (
    check_presentation,
    check_variety_identities,
    iota,
)
from .groupoid import germ_groupoid, is_local_bisection, theta
from .semilattice import FinMeetSemilattice, XRelation, _bits


def _catalog(max_size: int) -> list[FinMeetSemilattice]:
    out = [semilattice.chain(1), semilattice.chain(2), semilattice.chain(3),
           semilattice.diamond(), semilattice.antichain(2), semilattice.antichain(3)]
    if max_size >= 8:
        out.append(semilattice.powerset_semilattice(3))
    return [E for E in out if E.n <= max_size]


def brute_force_characters(E: FinMeetSemilattice) -> set[frozenset[int]]:
    """All nonzero meet-preserving 0/1 maps, as their 1-sets."""
    out = set()
    nonzero = range(1, E.n)
    for bits in iproduct((0, 1), repeat=E.n - 1):
        phi = (0,) + bits
        if not any(bits):
            continue
        if all(phi[E.meet(x, y)] == phi[x] * phi[y] for x in range(E.n) for y in range(E.n)):
            out.add(frozenset(x for x in nonzero if phi[x]))
    return out


def all_covers(E: FinMeetSemilattice, x: int) -> list[int]:
    """Every cover of x inside its nonzero downset, without minimality, by
    the definition on the meet table: every nonzero y <= x meets a member.
    Covers are element masks."""
    pool = [y for y in range(1, E.n) if E.meet(y, x) == y]
    return [
        sum(1 << z for z in c)
        for size in range(1, len(pool) + 1)
        for c in combinations(pool, size)
        if all(any(E.meet(y, z) for z in c) for y in pool)
    ]


def tight_spectrum_brute(E: FinMeetSemilattice) -> int:
    """Spectrum constrained by every cover, not only the minimal ones."""
    rels = [XRelation(x, c) for x in range(1, E.n) for c in all_covers(E, x)]
    return semilattice.spectrum(E, rels)


def semilattice_suite(max_size: int = 8):
    rng = random.Random(7)
    out = []
    pool = _catalog(max_size)
    pool.extend(semilattice.random_semilattice(rng, max_size) for _ in range(20))

    ok = True
    for E in pool:
        chars = _bits(semilattice.characters(E))
        filters = {
            frozenset(x for x in range(1, E.n) if E.leq(c, x)) for c in chars
        }
        if len(chars) != E.n - 1 or filters != brute_force_characters(E):
            ok = False
    out.append(("characters match brute-force filter enumeration", ok, ""))

    tight = [semilattice.spectrum(E, semilattice.x_tight(E)) for E in pool]
    ok = True
    detail = ""
    for E, spec in zip(pool, tight):
        if spec != E.atom_bits:
            ok, detail = False, f"at semilattice of size {E.n}"
            break
        if spec != tight_spectrum_brute(E):
            ok, detail = False, f"minimal covers changed the spectrum, size {E.n}"
            break
    out.append(("tight spectrum equals the atoms, against all-covers oracle", ok, detail))

    ok = True
    for E in pool:
        for e in range(1, E.n):
            for f in E.down(e):
                if f and semilattice.dense_in(E, f, e) != semilattice.is_cover(E, e, 1 << f):
                    ok = False
    out.append(("dense element iff singleton cover", ok, ""))

    ok = True
    for E, spec in zip(pool, tight):
        if spec & ~semilattice.spectrum(E, semilattice.x_prime(E)):
            ok = False
        if spec & ~semilattice.spectrum(E, semilattice.x_core(E)):
            ok = False
    out.append(("tight spectrum sits inside the prime and core spectra", ok, ""))
    return out


def boolalg_suite(max_size: int = 8):
    out = []
    pool = _catalog(max_size)
    ok = True
    detail = ""
    for E in pool:
        for name in semilattice.BUILTIN_RELATION_SETS:
            rels = semilattice.builtin_relations(E, name)
            B, rep = boolalg.booleanization(E, rels)
            if not boolalg.generates(B, rep.images):
                ok, detail = False, f"size {E.n}, {name}: image does not generate"
    out.append(("canonical images generate the Booleanization", ok, detail))

    ok = True
    for E in pool:
        for name in ("none", "tight"):
            rels = semilattice.builtin_relations(E, name)
            _, rep = boolalg.booleanization(E, rels)
            psi = boolalg.universal_extension(rep, rels)
            if not psi.is_bijective():
                ok = False
    out.append(("universal extension of the canonical map is the identity", ok, ""))

    ok = True
    for E in pool:
        if E.n > 6:
            continue
        for name in semilattice.BUILTIN_RELATION_SETS:
            rels = semilattice.builtin_relations(E, name)
            _, rep = boolalg.booleanization(E, rels)
            for c in _bits(semilattice.spectrum(E, boolalg.x_pi(rep))):
                hit = any(
                    all(E.leq(c, x) == bool(rep.images[x] >> i & 1) for x in range(E.n))
                    for i in range(rep.codomain.m)
                )
                if not hit:
                    ok = False
    out.append(("spectrum characters factor through ultra characters", ok, ""))
    return out


def invsgp_suite():
    out = []
    cat = [invsgp.i2(), invsgp.b2(), invsgp.z2_with_zero(), invsgp.chain_semigroup(3)]

    ok = True
    detail = ""
    for S in cat:
        E, elems, pos = S.semilattice, S.idems, S.idem_pos
        for s in range(S.n):
            for e_idx in range(1, E.n):
                for cov in semilattice.minimal_covers(E, e_idx):
                    e2 = pos[invsgp.conjugate(S, s, elems[e_idx])]
                    if e2 == 0:
                        continue
                    parts2 = sum({1 << pos[invsgp.conjugate(S, s, elems[p])] for p in _bits(cov)})
                    if not semilattice.is_cover(E, e2, parts2):
                        ok, detail = False, f"{S.label(s)} breaks a cover in {S.n}-element semigroup"
    out.append(("conjugation carries covers to covers", ok, detail))

    ok = True
    for S in cat:
        for name in semilattice.BUILTIN_RELATION_SETS:
            rels = invsgp.semigroup_relations(S, name)
            closed = invsgp.invariant_closure(S, rels)
            if invsgp.invariant_closure(S, closed) != closed:
                ok = False
            if not rels <= closed:
                ok = False
            if not invsgp.spectrum_invariant(S, rels):
                ok = False
    out.append(("invariant closure is a closure and spectra are invariant", ok, ""))

    ok = True
    for S in cat:
        elems = S.idems
        for c in _bits(semilattice.characters(S.semilattice)):
            g = elems[c]
            for t in range(S.n):
                if not invsgp.natural_leq(S, g, S.d(t)):
                    continue
                ct = invsgp.act(S, t, c)
                for s in range(S.n):
                    lhs_ok = invsgp.natural_leq(S, elems[ct], S.d(s))
                    st = S.mul(s, t)
                    rhs_ok = invsgp.natural_leq(S, g, S.d(st))
                    if lhs_ok != rhs_ok:
                        ok = False
                    elif lhs_ok and invsgp.act(S, s, ct) != invsgp.act(S, st, c):
                        ok = False
    out.append(("the character action composes like the product", ok, ""))
    return out


def groupoid_suite():
    out = []
    cat = [invsgp.i2(), invsgp.b2(), invsgp.chain_semigroup(3)]

    ok = True
    for S in cat:
        for name in ("none", "tight"):
            gg = germ_groupoid(S, invsgp.semigroup_relations(S, name))
            spec, reps = set(gg.units), set(gg.germs)
            if len(reps) != len(gg.germs):
                ok = False
            for a in range(1, S.n):
                in_spec = S.idem_pos[S.d(a)] in spec
                if in_spec != (a in reps):
                    ok = False
            G = gg.groupoid
            for ai, row in enumerate(G.comp):
                for bi, c in row.items():
                    if gg.germs[c] != S.mul(gg.germs[ai], gg.germs[bi]):
                        ok = False
    out.append(("arrows biject with elements with admissible domain", ok, ""))

    ok = True
    for S in cat:
        gg = germ_groupoid(S, frozenset())
        G = gg.groupoid
        for s in range(S.n):
            base = theta(gg, s)
            below = [t for t in range(S.n) if invsgp.natural_leq(S, t, s)]
            for k in range(0, min(2, len(below)) + 1):
                for excl in combinations(below, k):
                    got = theta(gg, s, excl)
                    want = base
                    for t in excl:
                        want &= ~theta(gg, t)
                    if got != want:
                        ok = False
                    if not is_local_bisection(G, got):
                        ok = False
    out.append(("basic arrow sets are bisections and subtract as sets", ok, ""))
    return out


def bisection_suite():
    out = []
    cat = [invsgp.i2(), invsgp.b2(), invsgp.chain_semigroup(3)]

    ok = True
    detail = ""
    for S in cat:
        for name in semilattice.BUILTIN_RELATION_SETS:
            rep = iota(S, invsgp.semigroup_relations(S, name))
            vr = check_variety_identities(rep.algebra)
            if not vr.ok:
                ok, detail = False, f"{S.n}-element semigroup, {name}: {vr.first_failure()}"
    out.append(("variety identities hold on the bisection algebras", ok, detail))

    ok = True
    for S in cat:
        B = iota(S, frozenset()).algebra
        for x in B.elements:
            for y in B.elements:
                if B.compatible(x, y) != is_local_bisection(B.groupoid, x | y):
                    ok = False
    out.append(("compatibility test agrees with the union criterion", ok, ""))

    for S in cat:
        for name in semilattice.BUILTIN_RELATION_SETS:
            check_presentation(S, invsgp.semigroup_relations(S, name))  # raises on a missed arrow
    out.append(("generators and relations present the algebras", True, ""))
    return out


def hull_suite(depth: int = 2):
    """Right LCM oracles against bounded ideal search, the inverse semigroup
    laws on the hull fragments over free:2, nat:2 and nx (every triple of
    the zero and the classes [p,q] with p, q of grade up to the depth, by
    ``lcmhull.fragment_law_failure``, which decides associativity once per
    middle quadruple), and foundation sets against covers.
    A failing check reports its first failure with the witness."""
    out = []
    monoids = [
        lcmhull.FreeMonoid("ab"),
        lcmhull.NatPow(2),
        lcmhull.NRtimesNx(),
    ]
    detail = ""
    for M in monoids:
        try:
            lcmhull._check_lcm_oracle(M, 3, 4)
        except Exception as exc:  # noqa: BLE001 - report any law failure
            detail = f"{M!r}: {exc}"
            break
    out.append(("lcm oracles agree with bounded ideal search", not detail, detail))

    detail = next(
        filter(None, (lcmhull.fragment_law_failure(M, depth) for M in monoids)), ""
    )
    out.append(("hull fragments behave as inverse semigroups", not detail, detail))

    ok = True
    free = lcmhull.FreeMonoid("ab")
    cases = [
        (free, ["a", "b"]),
        (free, ["a"]),
        (free, ["a", "ba", "bb"]),
        (lcmhull.NatPow(2), [(1, 0)]),
    ]
    for M, F in cases:
        if not lcmhull.lemma_found_check(M, F, depth=4):
            ok = False
    out.append(("foundation sets match covers of the hull identity", ok, ""))
    return out


def run_all(max_size: int = 8):
    results = []
    results.extend(semilattice_suite(max_size=max_size))
    results.extend(boolalg_suite(max_size=max_size))
    results.extend(invsgp_suite())
    results.extend(groupoid_suite())
    results.extend(bisection_suite())
    results.extend(hull_suite())
    return results
