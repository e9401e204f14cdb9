"""Property suites over small and randomly generated instances.

Each suite returns (name, ok, detail) triples; the command line aggregates
them and the tests reuse them directly.  All randomness is seeded, so runs
are reproducible.
"""

from __future__ import annotations

import random
from functools import reduce
from itertools import combinations
from operator import or_

from . import boolalg, invsgp, lcmhull, semilattice
from .bisection import (
    check_presentation,
    check_variety_identities,
    iota,
)
from .groupoid import germ_groupoid, is_local_bisection, theta
from .semilattice import BudgetExceeded, FinMeetSemilattice, _bits


def _catalog(max_size: int) -> list[FinMeetSemilattice]:
    out = [semilattice.chain(1), semilattice.chain(2), semilattice.chain(3),
           semilattice.diamond(), semilattice.antichain(2), semilattice.antichain(3)]
    if max_size >= 8:
        out.append(semilattice.powerset_semilattice(3))
    return [E for E in out if E.n <= max_size]


MAP_BUDGET = 1 << 23
"""The most 0/1 maps, 2^(n-1) for n elements, that the semilattice suite's
oracles test at once; a column of that many bits is 1 MB."""


def _columns(k: int) -> list[int]:
    """The k membership columns over the 2^k subsets of k items: bit s of
    column i is bit i of s, so an int operation on columns tests a condition
    at every subset at once."""
    cols = []
    for i in range(k):
        col, width = ((1 << (1 << i)) - 1) << (1 << i), 2 << i
        while width < 1 << k:
            col |= col << width
            width <<= 1
        cols.append(col)
    return cols


def brute_force_characters(E: FinMeetSemilattice) -> set[frozenset[int]]:
    """All nonzero meet-preserving 0/1 maps, as their 1-sets.  Map s sends
    0 to 0 and each x >= 1 to bit x-1 of s; bit s of ``bad`` records a pair
    (x, y) with phi(x meet y) != phi(x) phi(y)."""
    col = [0, *_columns(E.n - 1)]
    bad = 1  # the zero map
    for x, row in enumerate(E.meet_table):
        cx = col[x]
        for y, m in enumerate(row):
            bad |= col[m] ^ (cx & col[y])
    good = ((1 << (1 << (E.n - 1))) - 1) & ~bad
    return {frozenset(x for x in range(1, E.n) if s >> (x - 1) & 1) for s in _bits(good)}


def tight_spectrum_brute(E: FinMeetSemilattice) -> int:
    """The nonzero g whose character satisfies (x, C) for every nonzero x and
    every cover C of x, not only the minimal ones, by the definitions on the
    meet table.  Bit s of ``covers`` says whether the s-th subset of the pool,
    the nonzero y <= x, meets every member of the pool; of ``above_g``,
    whether it holds an element above g.  The character at g satisfies (x, C)
    when g <= x exactly when g lies below a member of C."""
    meet, bad = E.meet_table, 0
    for x in range(1, E.n):
        pool = [y for y in range(1, E.n) if meet[y][x] == y]
        col = _columns(len(pool))
        covers = (1 << (1 << len(pool))) - 1
        for y in pool:
            covers &= reduce(or_, (c for c, z in zip(col, pool) if meet[y][z]), 0)
        for g in range(1, E.n):
            above_g = reduce(or_, (c for c, z in zip(col, pool) if meet[g][z] == g), 0)
            if covers & (~above_g if meet[g][x] == g else above_g):
                bad |= 1 << g
    return ((1 << E.n) - 2) & ~bad


def semilattice_suite(max_size: int = 8):
    """The characters and the tight spectrum of the catalog and 20 seeded
    random semilattices of at most ``max_size`` elements, against oracles
    that test every 0/1 map and every cover.  ``BudgetExceeded`` before any
    work when a semilattice could have over ``MAP_BUDGET`` maps."""
    if max_size - 1 > MAP_BUDGET.bit_length() - 1:
        maps = f"{1 << max_size - 1:,}" if max_size <= 64 else f"2^{max_size - 1}"
        raise BudgetExceeded(
            f"the semilattice suite at max-size {max_size} would test {maps} maps "
            f"at once, over the budget of {MAP_BUDGET:,}"
        )
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
