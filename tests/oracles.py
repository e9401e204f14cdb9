"""Independent brute-force oracles the tests check the library against.

Everything here works from first definitions (exhaustive enumeration over
subsets and words), deliberately avoiding the library's own shortcuts.  The
semilattice oracles below read the order off the meet table, never the
order masks; the character and all-covers oracles live in ``xjoin.suites``,
because the ``suite`` command runs them too.
"""

from __future__ import annotations

from itertools import combinations, product as iproduct

from xjoin import lcmhull
from xjoin.bisection import VarietyReport
from xjoin.invsgp import conjugate
from xjoin.semilattice import Character, LawViolation, XRelation


# ---------------------------------------------------------------------------
# semilattice order, covers and spectra, on the meet table

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


def minimal_sets_brute(E, x: int, accept) -> list[frozenset[int]]:
    """Inclusion-minimal subsets of the nonzero downset of x that `accept`
    holds on, walking every subset by size."""
    pool = [y for y in down_brute(E, x) if y]
    found: list[frozenset[int]] = []
    for size in range(1, len(pool) + 1):
        for combo in combinations(pool, size):
            cand = frozenset(combo)
            if any(prev <= cand for prev in found):
                continue
            if accept(cand):
                found.append(cand)
    return found


def minimal_covers_brute(E, x: int) -> list[frozenset[int]]:
    return minimal_sets_brute(E, x, lambda c: covers_brute(E, x, c))


def meet_associativity_brute(rows, labels) -> str | None:
    """The error ``FinMeetSemilattice.from_meet`` gives for the first triple
    with (x^y)^z != x^(y^z), by the triple loop, or None when there is none."""
    n = len(rows)
    for x in range(n):
        for y in range(n):
            xy = rows[x][y]
            for z in range(n):
                if rows[xy][z] != rows[x][rows[y][z]]:
                    return (
                        f"meet not associative at ({labels[x]},{labels[y]},{labels[z]}): "
                        f"{labels[rows[xy][z]]} != {labels[rows[x][rows[y][z]]]}"
                    )
    return None


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
        XRelation(e, frozenset((f,)))
        for e in range(1, E.n)
        for f in down_brute(E, e)
        if f and covers_brute(E, e, (f,))
    )


def spectrum_brute(E, relations) -> frozenset[Character]:
    """Characters at g with g <= e exactly when g <= some part, for every relation."""
    def below(g, y):
        return E.meet(g, y) == g

    return frozenset(
        Character(g)
        for g in range(1, E.n)
        if all(below(g, r.e) == any(below(g, p) for p in r.parts) for r in relations)
    )


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
            parts2 = frozenset(pos[conjugate(S, s, elems[p])] for p in rel.parts)
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


def character_set_invariant_brute(S, chars) -> bool:
    """Every element s moves each character c below d(s) = s*s to the
    character at s c s*, inside the set."""
    chars = frozenset(chars)
    for c in chars:
        g = S.idems[c.gen]
        for s in range(S.n):
            if S.mul(g, S.mul(S.inv[s], s)) == g:
                moved = S.mul(S.mul(s, g), S.inv[s])
                if Character(S.idem_pos[moved]) not in chars:
                    return False
    return True


def is_multiplicative_brute(S, T, phi) -> bool:
    """phi(st) = phi(s)phi(t) in T for every pair of elements of S."""
    return all(
        T.mul(phi[s], phi[t]) == phi[S.mul(s, t)] for s in range(S.n) for t in range(S.n)
    )


def germs_equal_existential(S, s: int, t: int, f: int) -> bool:
    """The germ equivalence by its defining existential: some idempotent e
    with f below e and se = te."""
    for e in range(S.n):
        if S.is_idempotent(e) and S.mul(e, f) == f and S.mul(s, e) == S.mul(t, e):
            return True
    return False


# ---------------------------------------------------------------------------
# left inverse hull fragments, triple by triple, and Zappa-Szep division

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
    frag_x = [P.multiply(x, z) for z in P.elements_up_to(depth)]
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
    n = len(B)
    total = n * n * n
    exhaustive = total <= budget
    if exhaustive:
        triples = (
            (x, y, z) for x in range(n) for y in range(n) for z in range(n)
        )
    else:
        stride = total // budget + 1
        triples = (
            (t // (n * n), t // n % n, t % n) for t in range(0, total, stride)
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


def is_weakly_meet_preserving_brute(m) -> bool:
    """Common lower bounds of images lift to common lower bounds: every d
    below t(a) and t(b) is below t(c) for some c below a and b."""
    B, T, t = m.source, m.target, m.table
    n = len(B)
    for d in range(len(T)):
        for a in range(n):
            if not T.leq(d, t[a]):
                continue
            for b in range(n):
                if not T.leq(d, t[b]):
                    continue
                if not any(
                    B.leq(c, a) and B.leq(c, b) and T.leq(d, t[c]) for c in range(n)
                ):
                    return False
    return True


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


def x_pi_brute(rep, max_size: int | None = None) -> frozenset[XRelation]:
    """Every (e, parts) whose part images join to the image of e, walking
    all subsets of the domain by size."""
    E = rep.domain
    if max_size is None:
        max_size = E.n
    out = []
    for e in range(E.n):
        target = rep.images[e]
        for size in range(0, max_size + 1):
            for combo in combinations(range(E.n), size):
                acc = 0
                for p in combo:
                    acc |= rep.images[p]
                if acc == target:
                    out.append(XRelation(e, frozenset(combo)))
    return frozenset(out)
