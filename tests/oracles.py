"""Independent brute-force oracles the tests check the library against.

Everything here works from first definitions (exhaustive enumeration over
subsets and words), deliberately avoiding the library's own shortcuts.  The
semilattice oracles below read the order off the meet table, never the
order masks.  ``xjoin.suites`` runs bit-sliced character and all-covers
oracles in the ``suite`` command; ``characters_by_maps`` and
``tight_spectrum_by_covers`` are the loops they are checked against.  The
groupoid oracles read a composition table in its dense JSON form, -1 where
a composite is undefined: ``dense_comp`` expands a groupoid's rows, which
hold only the composable arrows, and ``sparse_comp`` packs a dense table
back into rows.
"""

from __future__ import annotations

import json
import weakref
from functools import reduce
from itertools import combinations, product as iproduct
from operator import itemgetter, or_
from typing import NamedTuple

from xjoin import lcmhull
from xjoin.bisection import AdditiveMorphism, BisAlgebra, VarietyReport, _check_additive, iota
from xjoin.boolalg import character_rep, x_pi
from xjoin.groupoid import FinGroupoid, germ_groupoid
from xjoin.invsgp import conjugate, natural_leq
from xjoin.semilattice import LawViolation, XRelation, _associativity_witness, _generators


# ---------------------------------------------------------------------------
# semilattice order, covers and spectra, on the meet table

def mask_of(elements) -> int:
    """The int mask of a collection of element indices, as the library
    stores relation parts and covers."""
    return sum(1 << x for x in set(elements))


def elements_of(mask: int) -> list[int]:
    """The element indices of a mask, ascending."""
    return [x for x in range(mask.bit_length()) if mask >> x & 1]


def down_brute(E, x: int) -> tuple[int, ...]:
    return tuple(y for y in range(E.n) if E.meet(y, x) == y)


def atoms_brute(E) -> tuple[int, ...]:
    return tuple(x for x in range(1, E.n) if down_brute(E, x) == (0, x))


def join_brute(E, xs):
    """The upper bound of xs below every other upper bound, or None."""
    ubs = [u for u in range(E.n) if all(E.meet(x, u) == x for x in xs)]
    return next((u for u in ubs if all(E.meet(u, v) == u for v in ubs)), None)


def covers_brute(E, x: int, parts) -> bool:
    """Every nonzero y <= x meets some part."""
    return all(any(E.meet(y, z) for z in parts) for y in down_brute(E, x) if y)


def minimal_sets_brute(E, x: int, accept) -> list[int]:
    """Inclusion-minimal subsets of the nonzero downset of x that `accept`
    holds on, walking every subset by size; returned as element masks."""
    pool = [y for y in down_brute(E, x) if y]
    found: list[frozenset[int]] = []
    for size in range(1, len(pool) + 1):
        for combo in combinations(pool, size):
            cand = frozenset(combo)
            if any(prev <= cand for prev in found):
                continue
            if accept(cand):
                found.append(cand)
    return [mask_of(c) for c in found]


def minimal_covers_brute(E, x: int) -> list[int]:
    return minimal_sets_brute(E, x, lambda c: covers_brute(E, x, c))


def x_prime_brute(E) -> frozenset[XRelation]:
    """Relations for the sets minimal among covers of x whose join is x."""
    return frozenset(
        XRelation(x, c)
        for x in range(1, E.n)
        for c in minimal_sets_brute(
            E, x, lambda c, x=x: join_brute(E, c) == x and covers_brute(E, x, c)
        )
    )


def x_core_brute(E) -> frozenset[XRelation]:
    return frozenset(
        XRelation(e, mask_of((f,)))
        for e in range(1, E.n)
        for f in down_brute(E, e)
        if f and covers_brute(E, e, (f,))
    )


def spectrum_brute(E, relations) -> int:
    """The mask of the characters' generators g with g <= e exactly when
    g <= some part, for every relation."""
    def below(g, y):
        return E.meet(g, y) == g

    return mask_of(
        g
        for g in range(1, E.n)
        if all(below(g, r.e) == any(below(g, p) for p in elements_of(r.parts)) for r in relations)
    )


def characters_by_maps(E) -> set[frozenset[int]]:
    """All nonzero meet-preserving 0/1 maps, as their 1-sets, one map at a
    time."""
    out = set()
    nonzero = range(1, E.n)
    for bits in iproduct((0, 1), repeat=E.n - 1):
        phi = (0,) + bits
        if not any(bits):
            continue
        if all(phi[E.meet(x, y)] == phi[x] * phi[y] for x in range(E.n) for y in range(E.n)):
            out.add(frozenset(x for x in nonzero if phi[x]))
    return out


def all_covers(E, x: int) -> list[int]:
    """Every cover of x inside its nonzero downset, without minimality, by
    the definition on the meet table: every nonzero y <= x meets a member.
    Covers are element masks."""
    pool = [y for y in range(1, E.n) if E.meet(y, x) == y]
    return [
        mask_of(c)
        for size in range(1, len(pool) + 1)
        for c in combinations(pool, size)
        if all(any(E.meet(y, z) for z in c) for y in pool)
    ]


def tight_spectrum_by_covers(E) -> int:
    """The spectrum constrained by every cover, not only the minimal ones,
    one relation per cover."""
    return spectrum_brute(E, [XRelation(x, c) for x in range(1, E.n) for c in all_covers(E, x)])


def relation_sort_key(rel: XRelation):
    """Orders relations by e, then parts by size, then ascending element list."""
    return rel.e, rel.parts.bit_count(), elements_of(rel.parts)


def relations_to_json(E, rels) -> str:
    """A relation file naming the relations by element labels, as
    ``semilattice.relations_from_json`` reads it."""
    doc = [
        {"e": E.label(r.e), "parts": sorted(E.label(p) for p in elements_of(r.parts))}
        for r in sorted(rels, key=relation_sort_key)
    ]
    return json.dumps(doc, indent=2, sort_keys=True)


def count_bisections_brute(G) -> int:
    """Subset filter over all arrow sets; independent of the backtracker."""
    n = G.n_arrows
    count = 0
    for bits in range(1 << n):
        arrows = [a for a in range(n) if bits >> a & 1]
        srcs = [G.src[a] for a in arrows]
        rngs = [G.rng[a] for a in arrows]
        if len(set(srcs)) == len(arrows) and len(set(rngs)) == len(arrows):
            count += 1
    return count


def all_bisections_brute(G) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Arrow, source and range masks of every local bisection, by size and
    then by ascending arrow list: depth first on an explicit stack, each
    bisection extended by every arrow above its last one that shares no
    source or range with it, smallest first, which reaches sets of equal
    size in ascending order, so bucketing by size sorts."""
    clash = [
        sum(1 << b for b in range(G.n_arrows) if G.src[b] == G.src[a] or G.rng[b] == G.rng[a])
        for a in range(G.n_arrows)
    ]
    by_size: list[list[tuple[int, int, int]]] = [[] for _ in range(G.n_units + 1)]
    stack = [(0, (1 << G.n_arrows) - 1, 0, 0)]
    while stack:
        mask, free, src_mask, rng_mask = stack.pop()
        by_size[src_mask.bit_count()].append((mask, src_mask, rng_mask))
        for a in reversed(elements_of(free)):  # highest first, so the lowest is popped first
            stack.append((
                mask | 1 << a, free & ~clash[a] & -(2 << a),
                src_mask | 1 << G.src[a], rng_mask | 1 << G.rng[a],
            ))
    return tuple(zip(*(t for bucket in by_size for t in bucket)))


def product_brute(G, left: int, right: int) -> int:
    """The arrow mask of the product of two arrow masks: every arrow of the
    left factor composed with every arrow of the right one, where defined."""
    comp = dense_comp(G)
    out = 0
    for a in elements_of(left):
        for b in elements_of(right):
            if comp[a][b] >= 0:
                out |= 1 << comp[a][b]
    return out


def is_associative_brute(rows) -> bool:
    """(ab)c = a(bc) for every triple of a multiplication table."""
    n = len(rows)
    for a in range(n):
        for b in range(n):
            ab = rows[a][b]
            for c in range(n):
                if rows[ab][c] != rows[a][rows[b][c]]:
                    return False
    return True


def partial_map_table_lookup(pmaps, points: int):
    """The multiplication table of partial maps in the given order, one dict
    lookup per entry, with f*g the map f after g."""
    width = max(points, 1) + 1
    elems = [tuple(m.get(x, 0) for x in range(width)) for m in pmaps]
    idx = {f: i for i, f in enumerate(elems)}
    through = [itemgetter(*g) for g in elems]
    return tuple(tuple(idx[get(f)] for get in through) for f in elems)


def validate_brute(table, labels=None):
    """The checks of ``invsgp.validate`` entry by entry, in its order and
    wording, returning (rows, inverses, idempotents) or raising
    ``LawViolation``: the range loop, Light's test (checked against the
    triple loop by its own tests), the n² scan for generalized inverses,
    the idempotent pairs and the zero's row and column."""
    try:
        rows = tuple(tuple(map(int, row)) for row in table)
    except (TypeError, ValueError):
        raise LawViolation("'mult' must be a square table of element indices") from None
    n = len(rows)
    if labels is None:
        labels = tuple("0" if i == 0 else f"s{i}" for i in range(n))
    labels = tuple(str(x) for x in labels)
    if len(labels) != n:
        raise LawViolation(f"{n} 'mult' rows but {len(labels)} labels")
    for i, x in enumerate(labels):
        if x in labels[:i]:
            raise LawViolation(f"label {x!r} names two 'mult' rows")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise LawViolation(f"'mult' row {labels[i]} has length {len(row)}, want {n}")
        for v in row:
            if not 0 <= v < n:
                raise LawViolation(f"'mult' entry {v} out of range in row {labels[i]}")
    if n == 0:
        raise LawViolation("semigroup needs at least the zero element")
    bad = _associativity_witness(rows, _generators(rows, [len(set(r)) for r in rows])[0])
    if bad:
        raise LawViolation("not associative at ({},{},{})".format(*(labels[a] for a in bad)))
    inv = []
    for a in range(n):
        cands = [x for x in range(n) if rows[rows[a][x]][a] == a and rows[rows[x][a]][x] == x]
        if len(cands) != 1:
            raise LawViolation(
                f"element {labels[a]} has {len(cands)} generalized inverses, want exactly 1"
            )
        inv.append(cands[0])
    idems = tuple(a for a in range(n) if rows[a][a] == a)
    for e in idems:
        for f in idems:
            if rows[e][f] != rows[f][e]:
                raise LawViolation(f"idempotents {labels[e]} and {labels[f]} do not commute")
    for a in range(n):
        if rows[0][a] != 0 or rows[a][0] != 0:
            raise LawViolation(f"element {labels[0]} is not absorbing against {labels[a]}")
    return rows, tuple(inv), idems


def dense_comp(G) -> list[list[int]]:
    """The composition table of G as an arrows x arrows list, -1 where a
    composite is undefined: the form of the JSON documents."""
    out = []
    for row in G.comp:
        dense = [-1] * G.n_arrows
        for b, ab in row.items():
            dense[b] = ab
        out.append(dense)
    return out


def sparse_comp(rows) -> tuple[dict[int, int], ...]:
    """The rows of a dense composition table as ``FinGroupoid.comp`` holds
    them, keeping only the defined entries."""
    return tuple({b: ab for b, ab in enumerate(row) if ab >= 0} for row in rows)


def check_groupoid_brute(G) -> None:
    """The groupoid laws pair by pair and triple by triple, naming the first
    violated law with a witness.  The library builds only germ groupoids,
    whose laws its docstrings prove, so this is the one groupoid checker.
    A row of ``comp`` must name arrows only, as keys and as composites."""
    n, m = G.n_arrows, G.n_units
    if any(k != n for k in (len(G.src), len(G.rng), len(G.inv), len(G.comp))):
        raise LawViolation("arrow table sizes disagree")
    if any(not 0 <= x < n for row in G.comp for item in row.items() for x in item):
        raise LawViolation("composition table names a non-arrow")
    comp = dense_comp(G)
    if len(G.unit_arrow) != m:
        raise LawViolation("need one identity arrow per unit")
    for u in range(m):
        ua = G.unit_arrow[u]
        if G.src[ua] != u or G.rng[ua] != u:
            raise LawViolation(f"identity arrow of unit {G.unit_labels[u]} is not a loop at it")
    for a in range(n):
        for b in range(n):
            c = comp[a][b]
            if (c >= 0) != (G.src[a] == G.rng[b]):
                raise LawViolation(
                    f"composability of ({G.arrow_labels[a]},{G.arrow_labels[b]}) "
                    "disagrees with source/range"
                )
            if c >= 0 and (G.src[c] != G.src[b] or G.rng[c] != G.rng[a]):
                raise LawViolation(f"composite of ({G.arrow_labels[a]},{G.arrow_labels[b]}) mislocated")
    for a in range(n):
        for b in range(n):
            ab = comp[a][b]
            if ab < 0:
                continue
            for c in range(n):
                if G.rng[c] == G.src[b] and comp[ab][c] != comp[a][comp[b][c]]:
                    raise LawViolation(
                        f"composition not associative at "
                        f"({G.arrow_labels[a]},{G.arrow_labels[b]},{G.arrow_labels[c]})"
                    )
    for a in range(n):
        ia = G.inv[a]
        if G.src[ia] != G.rng[a] or G.rng[ia] != G.src[a]:
            raise LawViolation(f"inverse of {G.arrow_labels[a]} mislocated")
        if comp[a][ia] != G.unit_arrow[G.rng[a]] or comp[ia][a] != G.unit_arrow[G.src[a]]:
            raise LawViolation(f"inverse law fails at {G.arrow_labels[a]}")
        for b in range(n):
            if G.src[a] == G.rng[b] and comp[comp[a][b]][G.inv[b]] != a:
                raise LawViolation("cancellation fails")


def from_parts(unit_labels, arrow_labels, src, rng, unit_arrow, inv, comp) -> FinGroupoid:
    """A groupoid from its tables as any sequences, the composition table
    dense, checked by :func:`check_groupoid_brute`."""
    G = FinGroupoid(
        tuple(unit_labels),
        tuple(arrow_labels),
        tuple(src),
        tuple(rng),
        tuple(unit_arrow),
        tuple(inv),
        sparse_comp(comp),
    )
    check_groupoid_brute(G)
    return G


def groupoid_from_json(text: str) -> FinGroupoid:
    """The inverse of ``groupoid.groupoid_to_json``, checked."""
    doc = json.loads(text)
    return from_parts(
        unit_labels=doc["units"],
        arrow_labels=[a["label"] for a in doc["arrows"]],
        src=[a["src"] for a in doc["arrows"]],
        rng=[a["rng"] for a in doc["arrows"]],
        unit_arrow=doc["unit_arrow"],
        inv=[a["inv"] for a in doc["arrows"]],
        comp=doc["comp"],
    )


def partial_map_closure_brute(points: int, maps):
    """Partial injections closed by rounds over all pairs, as dicts.

    Returns the maps in element order (domain size, then sorted pairs), their
    labels and the multiplication table, with f*g the map f after g.
    """
    def key(m):
        return tuple(sorted(m.items()))

    def compose(f, g):
        return {x: f[y] for x, y in g.items() if y in f}

    def inverse(f):
        return {v: k for k, v in f.items()}

    seen = {(): {}}
    for g in maps:
        for h in (g, inverse(g)):
            seen.setdefault(key(h), h)
    changed = True
    while changed:
        changed = False
        current = list(seen.values())
        for f in current:
            for g in current:
                for h in (compose(f, g), inverse(f)):
                    if key(h) not in seen:
                        seen[key(h)] = h
                        changed = True
    pmaps = sorted(seen.values(), key=lambda m: (len(m), key(m)))
    idx = {key(m): i for i, m in enumerate(pmaps)}
    table = tuple(tuple(idx[key(compose(f, g))] for g in pmaps) for f in pmaps)
    labels = tuple(",".join(f"{k}>{v}" for k, v in key(m)) or "0" for m in pmaps)
    return tuple(pmaps), labels, table


def invariant_closure_brute(S, relations) -> frozenset:
    """Close a relation set under conjugation, one ``conjugate`` call per
    idempotent, semigroup element and relation."""
    elems, pos = S.idems, S.idem_pos
    out = set(relations)
    frontier = list(out)
    while frontier:
        rel = frontier.pop()
        for s in range(S.n):
            e2 = pos[conjugate(S, s, elems[rel.e])]
            parts2 = mask_of(pos[conjugate(S, s, elems[p])] for p in elements_of(rel.parts))
            cand = XRelation(e2, parts2)
            if cand not in out:
                out.add(cand)
                frontier.append(cand)
    return frozenset(out)


def left_normed_closure(S, gens) -> frozenset[int]:
    """Every left-normed product (...(g1 g2)...) gk of the given elements."""
    reached = set(gens)
    frontier = list(reached)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = S.mul(x, g)
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    return frozenset(reached)


def character_set_invariant_brute(S, chars: int) -> bool:
    """Every element s moves each character c below d(s) = s*s to the
    character at s c s*, inside the set, a mask of generators."""
    gens = elements_of(chars)
    for c in gens:
        g = S.idems[c]
        for s in range(S.n):
            if S.mul(g, S.mul(S.inv[s], s)) == g:
                moved = S.mul(S.mul(s, g), S.inv[s])
                if S.idem_pos[moved] not in gens:
                    return False
    return True


def is_multiplicative_brute(S, T, phi) -> bool:
    """phi(st) = phi(s)phi(t) in T for every pair of elements of S."""
    return all(
        T.mul(phi[s], phi[t]) == phi[S.mul(s, t)] for s in range(S.n) for t in range(S.n)
    )


def theta_brute(gg, s: int, excl=()) -> int:
    """The germs of s as ``theta`` defines them, one ``natural_leq`` per unit:
    the [s, c] with f_c below d(s) and below no d(t) for t in excl.
    Refuses an excluded element not below s."""
    S = gg.semigroup
    for t in excl:
        if not natural_leq(S, t, s):
            raise LawViolation(f"excluded element {S.label(t)} is not below {S.label(s)}")
    out = 0
    for c in gg.units:
        f = S.idems[c]
        if natural_leq(S, f, S.d(s)) and not any(natural_leq(S, f, S.d(t)) for t in excl):
            out |= 1 << gg.arrow_index[S.mul(s, f)]
    return out


def germ_of(S, s: int, c: int) -> int:
    """The germ of s at the character with generator c, as its canonical
    representative; needs the generator below d(s)."""
    f = S.idems[c]
    if not natural_leq(S, f, S.d(s)):
        raise LawViolation(f"character at {S.label(f)} is outside the domain of {S.label(s)}")
    return S.mul(s, f)


def germs_equal_existential(S, s: int, t: int, f: int) -> bool:
    """The germ equivalence by its defining existential: some idempotent e
    with f below e and se = te."""
    for e in range(S.n):
        if S.is_idempotent(e) and S.mul(e, f) == f and S.mul(s, e) == S.mul(t, e):
            return True
    return False


# ---------------------------------------------------------------------------
# left inverse hull fragments, triple by triple, and Zappa-Szep division

def free_foundation_brute(alphabet: str, F) -> tuple[str, str | None]:
    """(verdict, witness) of a nonempty set of words, by every word of the
    longest member's length in alphabet order: "no" at the first one that
    extends no member, "yes" when there is none."""
    top = max(len(f) for f in F)
    for w in iproduct(alphabet, repeat=top):
        word = "".join(w)
        if not any(word.startswith(f) for f in F):
            return "no", word
    return "yes", None


def hull_idem_leq(P, p, q) -> bool:
    """[p,p] <= [q,q], i.e. the ideal of p sits inside the ideal of q."""
    return P.left_divide(q, p) is not None


def hull_fragment_brute(M, depth: int) -> str | None:
    """The first failure of the inverse semigroup laws on the hull fragment
    (the zero and every [p,q], p and q up to the depth), by three fresh
    products per triple, in the order and wording of
    ``lcmhull.fragment_law_failure``; None when the laws hold."""
    frag = M.elements_up_to(depth)
    els = [lcmhull.HULL_ZERO] + [lcmhull.HullElement(p, q) for p in frag for q in frag]

    def mul(x, y):
        return lcmhull.hull_mul(M, x, y)

    def failure(law, **named):
        where = " ".join(f"{k}={u.format(M)}" for k, u in named.items())
        return f"{M!r}: {law} at {where}"

    for x in els:
        for y in els:
            xy = mul(x, y)
            for z in els:
                if mul(xy, z) != mul(x, mul(y, z)):
                    return failure("associativity fails", x=x, y=y, z=z)
    for x in els:
        if mul(mul(x, lcmhull.hull_inv(x)), x) != x:
            return failure("inverse law fails", x=x)
    idems = [lcmhull.HullElement(p, p) for p in frag]
    for e in idems:
        for f in idems:
            if mul(e, f) != mul(f, e):
                return failure("idempotents do not commute", e=e, f=f)
    return None


def zappa_walk_brute(data, a: str, u: str) -> tuple[str, str]:
    """(act(a, u), res(a, u)) by the defining recursion on the letter
    tables: a word acts by its last letter first, and a letter acts on u's
    first letter and hands its restriction on to the rest of u."""
    if not a or not u:
        return u, a
    if len(a) > 1:
        v, r = zappa_walk_brute(data, a[1:], u)
        w, r0 = zappa_walk_brute(data, a[0], v)
        return w, r0 + r
    head = next(v for b, x, v in data.act_letter if (b, x) == (a, u[0]))
    restricted = next(w for b, x, w in data.res_letter if (b, x) == (a, u[0]))
    w, r = zappa_walk_brute(data, restricted, u[1:])
    return head + w, r


def left_divide_brute(P, x, r):
    """The cofactor z with x z = r in a Zappa-Szep product, or None: the
    action inverted letter by letter, trying every letter through ``act``
    at every step, with no memo of the inverse."""
    (u1, a1), (u2, a2) = x, r
    if not u2.startswith(u1):
        return None
    w = u2[len(u1):]
    v = ""
    a_cur = a1
    for wl in w:
        cand = None
        for c in P.data.u_alphabet:
            if P.act(a_cur, c) == wl:
                cand = c
                break
        if cand is None:
            return None
        v += cand
        a_cur = P.res(a_cur, cand)
    rest = P.a_monoid.left_divide(P.res(a1, v), a2)
    if rest is None:
        return None
    return (v, rest)


# the answer of right_lcm_search_brute when its bounded search cannot decide
UNDECIDED = "undecided"
# per product, x's multiples by every cofactor up to the depth, keyed by (x, depth)
_MULTIPLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def right_lcm_search_brute(P, x, y, depth: int = 6):
    """The least common right multiple of x and y in a Zappa-Szep product,
    or None when their ideals miss, by a bounded search: multiply x by every
    cofactor up to the depth, take the least multiple (by grade) that y
    divides, and check that it divides every other.  Grade is not monotone
    under the product ((e, ggg)(0, e) = (1, g) in the adding machine), so
    the search may find no common multiple or no least one; it then
    returns ``UNDECIDED``."""
    (u1, a1), (u2, a2) = x, y
    if not (u1.startswith(u2) or u2.startswith(u1)):
        return None  # the u-part of every multiple keeps its prefix
    multiples = _MULTIPLES.setdefault(P, {})
    if (x, depth) not in multiples:
        multiples[x, depth] = [P.multiply(x, z) for z in P.elements_up_to(depth)]
    frag_x = multiples[x, depth]
    inter = [t for t in frag_x if P.left_divide(y, t) is not None]
    if not inter:
        return UNDECIDED
    best = min(inter, key=lambda t: (P.grade(t), t))
    for t in inter:
        if P.left_divide(best, t) is None:
            return UNDECIDED
    return best


# ---------------------------------------------------------------------------
# adding-machine relation sets, from the definitions

def _fmt_idem(w: str) -> str:
    return f"[{w or 'e'}.e,{w or 'e'}.e]"


def _fmt_a_idem(a: str) -> str:
    return f"[e.{a or 'e'},e.{a or 'e'}]"


def xa_oracle(depth: int) -> list[dict]:
    """Pairs (a, b) of g-powers with b in aA, by divisibility of exponents."""
    out = []
    for j in range(depth + 1):
        for k in range(depth + 1):
            if k >= j:
                out.append({"e": _fmt_a_idem("g" * j), "parts": [_fmt_a_idem("g" * k)]})
    return sorted(out, key=lambda d: (d["e"], len(d["parts"]), d["parts"]))


def _covers_all_words(alphabet: str, parts: frozenset[str], maxlen: int) -> bool:
    for w in iproduct(alphabet, repeat=maxlen):
        word = "".join(w)
        if not any(word.startswith(p) for p in parts):
            return False
    return True


def minimal_word_covers(alphabet: str, maxlen: int) -> list[frozenset[str]]:
    """Inclusion-minimal word sets meeting every infinite word, by subset scan."""
    universe = [""]
    for length in range(1, maxlen + 1):
        universe.extend("".join(w) for w in iproduct(alphabet, repeat=length))
    found: list[frozenset[str]] = []
    for size in range(1, len(universe) + 1):
        for combo in combinations(universe, size):
            cand = frozenset(combo)
            if any(prev <= cand for prev in found):
                continue
            if _covers_all_words(alphabet, cand, maxlen):
                found.append(cand)
    return found


def prefix_codes(alphabet: str, maxlen: int) -> list[frozenset[str]]:
    """All finite complete prefix codes with words up to the given length."""
    if maxlen <= 0:
        return [frozenset(("",))]
    sub = prefix_codes(alphabet, maxlen - 1)
    out = [frozenset(("",))]
    for combo in iproduct(sub, repeat=len(alphabet)):
        out.append(
            frozenset(letter + w for letter, code in zip(alphabet, combo) for w in code)
        )
    return out


def xu_by_words(P, depth: int, max_parts: int | None = None) -> frozenset:
    """``lcmhull.gen_xu`` root word by root word: the prefix codes of each
    word's remaining length, recomputed as strings, then made into hull
    idempotents."""
    out = set()
    for s in P.u_monoid.elements_up_to(depth):
        for code in prefix_codes(P.data.u_alphabet, depth - len(s)):
            if max_parts is None or len(code) <= max_parts:
                parts = frozenset(lcmhull.HullElement((s + u, ""), (s + u, "")) for u in code)
                out.add(lcmhull.HullRelation(lcmhull.HullElement((s, ""), (s, "")), parts))
    return frozenset(out)


def xu_oracle(depth: int) -> list[dict]:
    """Covering families of word idempotents, enumerated over all subsets."""
    alphabet = "01"
    universe = [""]
    for length in range(1, depth + 1):
        universe.extend("".join(w) for w in iproduct(alphabet, repeat=length))
    out = []
    for s in universe:
        for code in minimal_word_covers(alphabet, depth - len(s)):
            parts = sorted(_fmt_idem(s + u) for u in code)
            out.append({"e": _fmt_idem(s), "parts": parts})
    return sorted(out, key=lambda d: (d["e"], len(d["parts"]), d["parts"]))


# ---------------------------------------------------------------------------
# bisection algebras: the theorem checks triple by triple and round by round

def difference(B, i: int, j: int) -> int:
    """(r(i) - r(j)) i (d(i) - d(j)), evaluated with the algebra operations."""
    left = B.diff(B.r(i), B.r(j))
    right = B.diff(B.d(i), B.d(j))
    return B.mul(B.mul(left, i), right)


def skew_join(B, i: int, j: int) -> int:
    """difference(i, j) joined with j; total on all pairs."""
    return B.join(difference(B, i, j), j)


def _identity_checks(B, x: int, y: int, z: int):
    d, r, mul, dif, skw, leq = B.d, B.r, B.mul, B.diff, B.skew, B.leq
    e, f, g = d(x), d(y), d(z)
    ef_diff = dif(e, f)
    ef_skew = skw(e, f)
    yield "1a", mul(ef_diff, ef_diff) == ef_diff
    yield "1b", mul(ef_skew, ef_skew) == ef_skew
    yield "2-meet-comm", mul(e, f) == mul(f, e)
    yield "2-join-comm", skw(e, f) == skw(f, e)
    yield "2-join-assoc", skw(skw(e, f), g) == skw(e, skw(f, g))
    yield "2-idem", mul(e, e) == e and skw(e, e) == e
    yield "2-absorb", mul(e, skw(e, f)) == e and skw(e, mul(e, f)) == e
    yield "2-distr-meet", mul(e, skw(f, g)) == skw(mul(e, f), mul(e, g))
    yield "2-distr-join", skw(e, mul(f, g)) == mul(skw(e, f), skw(e, g))
    yield "2-bottom", mul(e, B.zero) == B.zero and skw(e, B.zero) == e
    yield "2-complement", mul(ef_diff, f) == B.zero and skw(ef_diff, mul(e, f)) == e
    xy_diff = dif(x, y)
    xy_skew = skw(x, y)
    yield "3", leq(xy_diff, xy_skew) and leq(y, xy_skew)
    yield "4", d(xy_skew) == skw(d(xy_diff), d(y))
    yield "5", xy_diff == mul(mul(dif(r(x), r(y)), x), dif(d(x), d(y)))
    yield "6", mul(z, skw(ef_diff, f)) == skw(mul(z, ef_diff), mul(z, f))


def variety_brute(B, budget: int = 250_000) -> VarietyReport:
    """Every identity on every triple (or on a deterministic stride sample
    of the triples), with the first counterexample per identity."""
    els = B.elements
    n = len(els)
    total = n * n * n
    exhaustive = total <= budget
    if exhaustive:
        triples = ((x, y, z) for x in els for y in els for z in els)
    else:
        stride = total // budget + 1
        triples = (
            (els[t // (n * n)], els[t // n % n], els[t % n]) for t in range(0, total, stride)
        )
    failures: dict[str, str] = {}
    checked = 0
    for x, y, z in triples:
        checked += 1
        try:
            for name, ok in _identity_checks(B, x, y, z):
                if not ok and name not in failures:
                    failures[name] = f"({B.label(x)},{B.label(y)},{B.label(z)})"
        except LawViolation as exc:
            failures.setdefault("integrity", f"({B.label(x)},{B.label(y)},{B.label(z)}): {exc}")
    items = tuple(sorted(failures.items()))
    return VarietyReport(not items, exhaustive, checked, items)


def expanded(m) -> dict[int, int]:
    """The image of every element of a morphism's source, by definition the
    union of the images of its atoms."""
    out = {}
    for x in m.source.elements:
        out[x] = 0
        for a in elements_of(x):
            out[x] |= m.images[a]
    return out


def is_weakly_meet_preserving_brute(B, T, t) -> bool:
    """Common lower bounds of images lift to common lower bounds: every d
    below t(a) and t(b) is below t(c) for some c below a and b, for a table
    t from the elements of B to those of T."""
    els = B.elements
    for d in T.elements:
        for a in els:
            if not T.leq(d, t[a]):
                continue
            for b in els:
                if not T.leq(d, t[b]):
                    continue
                if not any(
                    B.leq(c, a) and B.leq(c, b) and T.leq(d, t[c]) for c in els
                ):
                    return False
    return True


def check_additive_brute(B, T, t) -> None:
    """Raise ``LawViolation`` unless the table t from the elements of B
    lands in T and preserves zero, every product, compatibility and join of
    every compatible pair, and the difference of every pair of
    idempotents."""
    els, targets = B.elements, set(T.elements)
    if any(t[i] not in targets for i in els):
        raise LawViolation("image outside the target")
    if t[B.zero] != T.zero:
        raise LawViolation("zero not preserved")
    for i in els:
        for j in els:
            if t[B.mul(i, j)] != T.mul(t[i], t[j]):
                raise LawViolation(f"product not preserved at ({B.label(i)},{B.label(j)})")
            if B.compatible(i, j):
                if not T.compatible(t[i], t[j]):
                    raise LawViolation(
                        f"compatibility not preserved at ({B.label(i)},{B.label(j)})"
                    )
                if t[B.join(i, j)] != T.join(t[i], t[j]):
                    raise LawViolation(
                        f"compatible join not preserved at ({B.label(i)},{B.label(j)})"
                    )
    for i in els:
        if B.is_idempotent(i):
            for j in els:
                if B.is_idempotent(j) and t[B.diff(i, j)] != T.diff(t[i], t[j]):
                    raise LawViolation("idempotent difference not preserved")


def congruence_brute(full, chi):
    """(classes, class_of) of the literal congruence of a character set, a
    mask of generators, on the universal algebra, by its definition, over
    the positions of ``B.elements``: x and y are identified when some
    idempotent e below both domains has xe = ye and leaves domains d(x) - e
    and d(y) - e missing the set.  Greedy over all pairs, each element
    joining the class of the first earlier class representative identified
    with it; then checked against the restriction kernel and for
    compatibility with every product and inverse.  Raises ``LawViolation``."""
    B = full.algebra
    G = B.groupoid
    chi_mask = mask_of(full.germs.unit_index[c] for c in elements_of(chi))
    els = B.elements
    n = len(els)
    where = {x: i for i, x in enumerate(els)}
    d_mask = [B.srcm[x] for x in els]

    def literal_equiv(i: int, j: int) -> bool:
        common = d_mask[i] & d_mask[j]
        e = common
        while True:
            if not (d_mask[i] & ~e) & chi_mask and not (d_mask[j] & ~e) & chi_mask:
                idem = B.idem_element(e)
                if B.mul(els[i], idem) == B.mul(els[j], idem):
                    return True
            if e == 0:
                return False
            e = (e - 1) & common

    class_of = list(range(n))
    for i in range(n):
        if class_of[i] != i:
            continue
        for j in range(i + 1, n):
            if class_of[j] == j and literal_equiv(i, j):
                class_of[j] = i
    reps = sorted(set(class_of))
    renum = {rep: k for k, rep in enumerate(reps)}
    class_of = [renum[c] for c in class_of]
    classes = tuple(tuple(i for i in range(n) if class_of[i] == k) for k in range(len(reps)))

    keep = sum(1 << a for a in range(G.n_arrows) if chi_mask >> G.src[a] & 1)
    kernel: dict[int, list[int]] = {}
    for i, arrows in enumerate(els):
        kernel.setdefault(arrows & keep, []).append(i)
    if sorted(tuple(v) for v in kernel.values()) != sorted(classes):
        raise LawViolation("literal congruence disagrees with the restriction kernel")

    seen_mul: dict[tuple[int, int], int] = {}
    for i in range(n):
        for j in range(n):
            val = class_of[where[B.mul(els[i], els[j])]]
            if seen_mul.setdefault((class_of[i], class_of[j]), val) != val:
                raise LawViolation("partition not compatible with the product")
    seen_inv: dict[int, int] = {}
    for i in range(n):
        val = class_of[where[B.inv(els[i])]]
        if seen_inv.setdefault(class_of[i], val) != val:
            raise LawViolation("partition not compatible with inversion")
    return classes, tuple(class_of)


def restricted_groupoid_brute(full, chi):
    """The universal germ groupoid cut down to the units in a character set,
    a mask of generators, built afresh as a groupoid, with the map from kept
    arrows to their new indices.  A dense composition table over the kept arrows, whose
    composability is checked against the ambient groupoid's.  Reads only
    ``full.germs``.  Raises ``LawViolation``."""
    G = full.germs.groupoid
    dense = dense_comp(G)
    unit_old = sorted(full.germs.unit_index[c] for c in elements_of(chi))
    unit_new = {old: new for new, old in enumerate(unit_old)}
    keep = [a for a in range(G.n_arrows) if G.src[a] in unit_new]
    if any(G.rng[a] not in unit_new for a in keep):
        raise LawViolation("character set is not invariant under the action")
    proj = {old: new for new, old in enumerate(keep)}
    comp = [[proj.get(dense[a][b], -1) for b in keep] for a in keep]
    for ai, a in enumerate(keep):
        for bi, b in enumerate(keep):
            if (dense[a][b] >= 0) != (comp[ai][bi] >= 0):
                raise LawViolation("restriction lost a composite")
    restr = from_parts(
        unit_labels=[G.unit_labels[u] for u in unit_old],
        arrow_labels=[G.arrow_labels[a] for a in keep],
        src=[unit_new[G.src[a]] for a in keep],
        rng=[unit_new[G.rng[a]] for a in keep],
        unit_arrow=[proj[G.unit_arrow[u]] for u in unit_old],
        inv=[proj[G.inv[a]] for a in keep],
        comp=comp,
    )
    return restr, proj


def restriction_brute(full, chi) -> AdditiveMorphism:
    """The cut of the universal algebra to the arrows based in a character
    set, a mask of generators, into the algebra of the groupoid of
    :func:`restricted_groupoid_brute`: the atom image of a kept arrow is
    its new index, and that of every other arrow 0.  Unchecked; pass it to
    ``AdditiveMorphism.build`` or expand it for the pair loops."""
    restr, proj = restricted_groupoid_brute(full, chi)
    kept = tuple(1 << proj[a] if a in proj else 0 for a in range(full.germs.groupoid.n_arrows))
    return AdditiveMorphism(full.algebra, BisAlgebra(restr), kept)


class QuotientReport(NamedTuple):
    """What :func:`theorem_quotients_check_brute` finds.  The theorem says
    every check passes, with as many classes as ``theorem_quotients_check``
    returns: the report is :meth:`passing` of that count."""

    ok: bool
    class_count: int
    quotient_size: int
    spectrum_ok: bool
    germs_ok: bool
    bijective: bool
    weakly_meet_preserving: bool

    @classmethod
    def passing(cls, classes: int) -> "QuotientReport":
        return cls(True, classes, classes, True, True, True, True)


def theorem_quotients_check_brute(S, chi, carved=None, kept=None) -> QuotientReport:
    """The quotient report through the universal algebra, by the
    enumerating oracles.  The classes are those of the literal congruence;
    the carved groupoid is that of X_π of the quotient composite, listed and
    closed, unless ``carved`` is given; its germs must make up the
    restriction of the universal groupoid to the character set; and the
    restriction, with atom images ``kept`` when given, is expanded to a
    table on every element and checked by the pair loops.  Refuses, with
    the library's messages, a set that a range escapes, then one naming an
    index that is no unit of the universal groupoid."""
    full = iota(S, frozenset())
    B = full.algebra
    stray = chi & ~mask_of(full.germs.units)
    m = restriction_brute(full, chi & ~stray)
    if stray:
        raise LawViolation(f"character at generator index {elements_of(stray)[0]} is not a unit of the groupoid")
    classes = len(congruence_brute(full, chi)[0])
    if carved is None:
        carved = germ_groupoid(S, x_pi(character_rep(S.semilattice, elements_of(chi))))
    T = BisAlgebra(carved.groupoid)
    size = len(T.elements)
    spectrum_ok = mask_of(carved.units) == chi
    if carved.groupoid != m.target.groupoid:
        return QuotientReport(False, classes, size, spectrum_ok, False, False, False)
    table = expanded(m._replace(target=T, images=m.images if kept is None else tuple(kept)))
    check_additive_brute(B, T, table)
    bijective = len(set(table.values())) == classes == size
    wmp = is_weakly_meet_preserving_brute(B, T, table)
    return QuotientReport(spectrum_ok and bijective and wmp, classes, size, spectrum_ok, True, bijective, wmp)


class PresentationReport(NamedTuple):
    """What :func:`check_presentation_brute` finds; the canonical generators
    present the algebra when it is :meth:`passing` of the total
    ``check_presentation`` returns."""

    ok: bool
    relations_ok: bool
    generated: int
    total: int

    @classmethod
    def passing(cls, total: int) -> "PresentationReport":
        return cls(True, True, total, total)


def check_presentation_brute(S, relations) -> PresentationReport:
    """The presentation report on the listed algebra of the relations: the
    canonical images of the idempotents join by union over each relation,
    and the closure of all canonical images, by rounds, reaches every
    element."""
    rep = iota(S, relations)
    total = len(rep.algebra.elements)
    relations_ok = all(
        reduce(or_, (rep.images[S.idems[p]] for p in elements_of(rel.parts)), 0) == rep.images[S.idems[rel.e]]
        for rel in relations
    )
    generated = len(generated_subsemigroup_brute(rep.algebra, rep.images))
    return PresentationReport(relations_ok and generated == total, relations_ok, generated, total)


def generated_subsemigroup_brute(B, seeds) -> frozenset[int]:
    """Closure under product, inverse, difference and skew join, by rounds
    over all pairs until a round adds nothing."""
    els = set(seeds)
    els.add(B.zero)
    changed = True
    while changed:
        changed = False
        current = list(els)
        for i in current:
            j = B.inv(i)
            if j not in els:
                els.add(j)
                changed = True
            for j in current:
                for k in (B.mul(i, j), B.diff(i, j), B.skew(i, j)):
                    if k not in els:
                        els.add(k)
                        changed = True
    return frozenset(els)


def generated_subalgebra_brute(seeds) -> int:
    """Closure of the seed masks of a Boolean algebra under join, meet and
    difference, by rounds over all pairs until a round adds nothing; as a
    mask over its elements."""
    els = set(seeds)
    els.add(0)
    changed = True
    while changed:
        changed = False
        current = list(els)
        for a in current:
            for b in current:
                for c in (a | b, a & b, a & ~b):
                    if c not in els:
                        els.add(c)
                        changed = True
    return mask_of(els)


def x_pi_brute(rep) -> frozenset[XRelation]:
    """Every (e, parts) whose part images join to the image of e, walking
    all subsets of the domain by size."""
    E = rep.domain
    out = []
    for e in range(E.n):
        target = rep.images[e]
        for size in range(0, E.n + 1):
            for combo in combinations(range(E.n), size):
                acc = 0
                for p in combo:
                    acc |= rep.images[p]
                if acc == target:
                    out.append(XRelation(e, mask_of(combo)))
    return frozenset(out)


# ---------------------------------------------------------------------------
# uniqueness of the universal morphisms, by exhaustive search

def count_extensions_brute(rep, relations) -> int:
    """The number of Boolean-algebra morphisms out of the powerset of the
    spectrum (by :func:`spectrum_brute`) that factor rep through the map
    sending a to the characters whose generator lies below a.

    Atom images are pairwise disjoint, so a morphism is an owner for each
    target atom, a source atom or none: all (k+1)^m of them are tried.
    """
    E, m = rep.domain, rep.codomain.m
    gens = elements_of(spectrum_brute(E, relations))
    iota = [mask_of(i for i, g in enumerate(gens) if E.meet(g, a) == g) for a in range(E.n)]
    count = 0
    for owners in iproduct(range(-1, len(gens)), repeat=m):
        images = [mask_of(t for t, o in enumerate(owners) if o == i) for i in range(len(gens))]
        count += all(
            mask_of(t for i in elements_of(iota[a]) for t in elements_of(images[i])) == rep.images[a]
            for a in range(E.n)
        )
    return count


def count_additive_morphisms_brute(B, T, pins: dict[int, int], limit: int = 2) -> int:
    """The number of additive morphisms from B to T that send each pinned
    element of B to its pin, counted up to ``limit``.

    Backtracking over atom images, arrow by arrow.  t(x) is the union of
    its atoms' images, so the image of {a} lies inside the pin of every
    pinned x that contains a.  Each placed atom is checked against the
    products of the placed atoms, and each leaf against the pins and by the
    library's morphism check.
    """
    G = B.groupoid
    n, comp = G.n_arrows, dense_comp(G)
    cands = [[v for v in T.elements if all(not v & ~w for x, w in pins.items() if x >> a & 1)] for a in range(n)]
    img = [-1] * n
    count = 0

    def consistent(a: int) -> bool:
        for b in range(a + 1):
            for x, y in ((a, b), (b, a)):
                want = T.zero if comp[x][y] < 0 else img[comp[x][y]]
                if want >= 0 and T.mul(img[x], img[y]) != want:
                    return False
        return True

    def rec(a: int):
        nonlocal count
        if count >= limit:
            return
        if a == n:
            m = AdditiveMorphism(B, T, tuple(img))
            try:
                _check_additive(m)
            except LawViolation:
                return
            count += all(m.apply(x) == v for x, v in pins.items())
            return
        for v in cands[a]:
            img[a] = v
            if consistent(a):
                rec(a + 1)
        img[a] = -1

    rec(0)
    return count
