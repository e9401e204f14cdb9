"""Boolean inverse semigroups of local bisections of a finite groupoid.

Elements are arrow sets on which source and range are injective, held as
int masks over arrow indices (as ``boolalg`` holds its elements) and
enumerated by backtracking over per-unit occupancy.  The module carries the
canonical representation of an inverse semigroup into the bisection algebra
of its germ groupoid, the presentation and quotient checks, and the
universal-morphism machinery.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb, factorial

from .boolalg import FinBooleanAlgebra, SemilatticeRep, character_rep, is_x_to_join, universal_extension, x_pi
from .groupoid import FinGroupoid, Germ, GermGroupoid, germ_groupoid, theta
from .invsgp import (
    FinInverseSemigroup,
    character_set_invariant,
    invariant_closure,
)
from .semilattice import BudgetExceeded, Character, LawViolation, _bits

# local bisections BisAlgebra may enumerate; the universal algebra of I3 has 33,082
BISECTION_BUDGET = 100_000
# element pairs the presentation and quotient checks may work over; P3 universal has 56,644
PAIR_BUDGET = 1_000_000


class BisAlgebra:
    """All local bisections of a finite groupoid, with the algebra operations.

    ``elements[i]`` is the arrow mask of element i, ordered by size and then
    by ascending arrow list; index 0 is the empty bisection.  ``srcm[i]`` and
    ``rngm[i]`` are the unit masks of its sources and ranges.  Idempotents
    are the unit subsets, and tables indexed by unit mask give the idempotent
    on each and the arrows with a source or a range in it, so domain, range,
    order, meet, difference and skew join are bit operations.  Products stay
    memoized in ``_mul``, because composing arrows is not a bit operation
    (and tests poison the memo to show the identity checks consult it), as
    do inverses in ``_inv``.  Memo writes are idempotent, so concurrent
    readers stay consistent.  Raises ``BudgetExceeded`` before enumerating
    when ``bisection_count`` is over ``BISECTION_BUDGET``.
    """

    def __init__(self, groupoid: FinGroupoid):
        count = bisection_count(groupoid)
        if count > BISECTION_BUDGET:
            raise BudgetExceeded(
                f"enumerating the local bisections of {groupoid.n_arrows} arrows would "
                f"give {count:,} elements, over the budget of {BISECTION_BUDGET:,}"
            )
        G = self.groupoid = groupoid
        by_src, by_rng = [0] * G.n_units, [0] * G.n_units
        for a in range(G.n_arrows):
            by_src[G.src[a]] |= 1 << a
            by_rng[G.rng[a]] |= 1 << a
        self.elements, self.srcm, self.rngm = _all_bisections(G, by_src, by_rng)
        self.index = {e: i for i, e in enumerate(self.elements)}
        self.zero = 0
        self._src_arrows, self._rng_arrows = _unions(by_src), _unions(by_rng)
        self._idem = [self.index[e] for e in _unions([1 << a for a in G.unit_arrow])]
        self._mul: dict[tuple[int, int], int] = {}
        self._inv: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.elements)

    def label(self, i: int) -> str:
        arrows = _bits(self.elements[i])
        if not arrows:
            return "0"
        G = self.groupoid
        return "{" + ",".join(G.arrow_labels[a] for a in arrows) + "}"

    def mul(self, i: int, j: int) -> int:
        key = (i, j)
        got = self._mul.get(key)
        if got is not None:
            return got
        comp = self.groupoid.comp
        right = _bits(self.elements[j])
        out = 0
        for a in _bits(self.elements[i]):
            row = comp[a]
            for b in right:
                c = row[b]
                if c >= 0:
                    out |= 1 << c
        k = self.index.get(out)
        if k is None:
            raise LawViolation(
                f"product of {self.label(i)} and {self.label(j)} is not a bisection"
            )
        self._mul[key] = k
        return k

    def inv(self, i: int) -> int:
        got = self._inv.get(i)
        if got is None:
            inv = self.groupoid.inv
            got = self.index[sum(1 << inv[a] for a in _bits(self.elements[i]))]
            self._inv[i] = got
        return got

    def leq(self, i: int, j: int) -> bool:
        return not self.elements[i] & ~self.elements[j]

    def meet(self, i: int, j: int) -> int:
        return self.index[self.elements[i] & self.elements[j]]

    def is_idempotent(self, i: int) -> bool:
        return self._idem[self.srcm[i]] == i

    def d(self, i: int) -> int:
        return self._idem[self.srcm[i]]

    def r(self, i: int) -> int:
        return self._idem[self.rngm[i]]

    def compatible(self, i: int, j: int) -> bool:
        return self.is_idempotent(self.mul(self.inv(i), j)) and self.is_idempotent(
            self.mul(i, self.inv(j))
        )

    def join(self, i: int, j: int) -> int:
        """The union of compatible bisections; compatible exactly when it is one."""
        k = self.index.get(self.elements[i] | self.elements[j])
        if k is None:
            raise LawViolation(f"{self.label(i)} and {self.label(j)} are not compatible")
        return k

    def diff(self, i: int, j: int) -> int:
        """Arrows of i whose source and range avoid the sources and ranges of j."""
        blocked = self._src_arrows[self.srcm[j]] | self._rng_arrows[self.rngm[j]]
        return self.index[self.elements[i] & ~blocked]

    def skew(self, i: int, j: int) -> int:
        """diff(i, j) joined with j; always a bisection, so no compatibility check."""
        blocked = self._src_arrows[self.srcm[j]] | self._rng_arrows[self.rngm[j]]
        return self.index[self.elements[i] & ~blocked | self.elements[j]]

    # --- idempotents as unit masks -----------------------------------------

    def idem_mask(self, i: int) -> int:
        if not self.is_idempotent(i):
            raise LawViolation(f"{self.label(i)} is not an idempotent")
        return self.srcm[i]

    def idem_element(self, mask: int) -> int:
        return self._idem[mask]

    def unit_algebra(self) -> FinBooleanAlgebra:
        return FinBooleanAlgebra(self.groupoid.unit_labels)


def _unions(parts: list[int]) -> list[int]:
    """Entry m is the union of parts[u] over the set bits u of m."""
    out = [0]
    for p in parts:
        out += [x | p for x in out]
    return out


def bisection_count(G: FinGroupoid) -> int:
    """How many local bisections G has, counted without enumerating them.

    A local bisection is, in each orbit, a partial bijection between its
    units with one of the h arrows from source to range for each matched
    pair, where h is the isotropy order of the orbit.  So an orbit of n
    units contributes sum_k C(n,k)^2 k! h^k (for h = 1 the partial
    injections, A002720), and the count is the product over the orbits.
    """
    orbit = [0] * G.n_units
    loops = [0] * G.n_units
    for s, r in zip(G.src, G.rng):
        orbit[s] |= 1 << r
        loops[s] += s == r
    total = 1
    for units in set(orbit):
        n, h = units.bit_count(), loops[_bits(units)[0]]
        total *= sum(comb(n, k) ** 2 * factorial(k) * h ** k for k in range(n + 1))
    return total


def _all_bisections(
    G: FinGroupoid, by_src: list[int], by_rng: list[int],
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Arrow, source and range masks of every local bisection, by size and
    then by ascending arrow list, given the arrow masks leaving and entering
    each unit.

    Depth first on an explicit stack (so the depth is not the arrow count):
    each bisection is extended by every arrow above its last one that shares
    no source or range with it, smallest first, which reaches sets of equal
    size in ascending order, so bucketing by size sorts."""
    sbit = [1 << u for u in G.src]
    rbit = [1 << u for u in G.rng]
    clash = [by_src[s] | by_rng[r] for s, r in zip(G.src, G.rng)]
    by_size: list[list[tuple[int, int, int]]] = [[] for _ in range(G.n_units + 1)]
    stack = [(0, (1 << G.n_arrows) - 1, 0, 0)]
    while stack:
        mask, free, src_mask, rng_mask = stack.pop()
        by_size[src_mask.bit_count()].append((mask, src_mask, rng_mask))
        rest = free
        while rest:  # highest arrow first, so the lowest is popped first
            a = rest.bit_length() - 1
            rest ^= 1 << a
            stack.append((
                mask | 1 << a, free & ~clash[a] & -(2 << a),
                src_mask | sbit[a], rng_mask | rbit[a],
            ))
    return tuple(zip(*(t for bucket in by_size for t in bucket)))


# ---------------------------------------------------------------------------
# difference and skew join by the defining formula

def difference(B: BisAlgebra, i: int, j: int) -> int:
    """(r(i) - r(j)) i (d(i) - d(j)), evaluated with the algebra operations."""
    left = B.diff(B.r(i), B.r(j))
    right = B.diff(B.d(i), B.d(j))
    return B.mul(B.mul(left, i), right)


def skew_join(B: BisAlgebra, i: int, j: int) -> int:
    """difference(i, j) joined with j; total on all pairs."""
    return B.join(difference(B, i, j), j)


# ---------------------------------------------------------------------------
# variety identities

@dataclass(frozen=True)
class VarietyReport:
    ok: bool
    exhaustive: bool
    checked: int
    failures: tuple[tuple[str, str], ...]

    def first_failure(self) -> str:
        return "" if self.ok else f"{self.failures[0][0]} at {self.failures[0][1]}"


# Each identity is evaluated on the arguments it reads: idempotents d(x),
# d(y), d(z) or elements x, y, z.

def _idem_pair_laws(B: BisAlgebra, e: int, f: int) -> dict[str, bool]:
    mul, skw, zero = B.mul, B.skew, B.zero
    ef_diff = B.diff(e, f)
    ef_skew = skw(e, f)
    return {
        "1a": mul(ef_diff, ef_diff) == ef_diff,
        "1b": mul(ef_skew, ef_skew) == ef_skew,
        "2-meet-comm": mul(e, f) == mul(f, e),
        "2-join-comm": ef_skew == skw(f, e),
        "2-idem": mul(e, e) == e and skw(e, e) == e,
        "2-absorb": mul(e, ef_skew) == e and skw(e, mul(e, f)) == e,
        "2-bottom": mul(e, zero) == zero and skw(e, zero) == e,
        "2-complement": mul(ef_diff, f) == zero and skw(ef_diff, mul(e, f)) == e,
    }


def _idem_triple_laws(B: BisAlgebra, e: int, f: int, g: int) -> dict[str, bool]:
    mul, skw = B.mul, B.skew
    return {
        "2-join-assoc": skw(skw(e, f), g) == skw(e, skw(f, g)),
        "2-distr-meet": mul(e, skw(f, g)) == skw(mul(e, f), mul(e, g)),
        "2-distr-join": skw(e, mul(f, g)) == mul(skw(e, f), skw(e, g)),
    }


def _pair_laws(B: BisAlgebra, x: int, y: int) -> dict[str, bool]:
    d, r, mul, dif, skw = B.d, B.r, B.mul, B.diff, B.skew
    xy_diff = dif(x, y)
    xy_skew = skw(x, y)
    return {
        "3": B.leq(xy_diff, xy_skew) and B.leq(y, xy_skew),
        "4": d(xy_skew) == skw(d(xy_diff), d(y)),
        "5": xy_diff == mul(mul(dif(r(x), r(y)), x), dif(d(x), d(y))),
    }


def _z_laws(B: BisAlgebra, z: int, e: int, f: int) -> dict[str, bool]:
    mul, skw = B.mul, B.skew
    ef_diff = B.diff(e, f)
    return {"6": mul(z, skw(ef_diff, f)) == skw(mul(z, ef_diff), mul(z, f))}


def check_variety_identities(B: BisAlgebra, budget: int = 250_000) -> VarietyReport:
    """Evaluate the defining identities of the extended signature on triples.

    Exhaustive when the n^3 triples (x, y, z) fit the budget; otherwise a
    deterministic stride sample of them.  ``checked`` counts triples, and
    each failure names the first triple, in lexicographic order, at which
    the identity fails.

    No identity reads all three variables freely, so the exhaustive check
    evaluates each one once per distinct argument tuple: (d x, d y) for 1a,
    1b and the idempotent laws of 2 that name two variables or fewer;
    (d x, d y, d z) for 2-join-assoc and the distributive laws; (x, y) for
    3, 4 and 5; (z, d x, d y) for 6.  An argument tuple is reached first by
    the triple taking, for each d-variable, the least element with that
    domain, and 0 for each unread variable; visiting tuples in the order of
    those triples reports the same witnesses as the triple loop.  The
    sample evaluates every identity on every sampled triple, since sampled
    tuples hardly repeat.  Every operation of a bisection algebra is total,
    so no evaluation raises; products are read through the memo in ``_mul``.
    """
    n = len(B)
    total = n * n * n
    d = B.d
    failures: dict[str, str] = {}

    def note(oks, x, y, z):
        for name, ok in oks.items():
            if not ok and name not in failures:
                failures[name] = f"({B.label(x)},{B.label(y)},{B.label(z)})"

    if total <= budget:
        first: dict[int, int] = {}
        for x in range(n):
            first.setdefault(d(x), x)
        reps = sorted(first.values())
        for x in reps:
            e = d(x)
            for y in reps:
                f = d(y)
                note(_idem_pair_laws(B, e, f), x, y, 0)
                for z in reps:
                    note(_idem_triple_laws(B, e, f, d(z)), x, y, z)
                for z in range(n):
                    note(_z_laws(B, z, e, f), x, y, z)
        for x in range(n):
            for y in range(n):
                note(_pair_laws(B, x, y), x, y, 0)
        checked = total
    else:
        sample = range(0, total, total // budget + 1)
        for t in sample:
            x, y, z = t // (n * n), t // n % n, t % n
            e, f = d(x), d(y)
            note(_idem_pair_laws(B, e, f), x, y, z)
            note(_idem_triple_laws(B, e, f, d(z)), x, y, z)
            note(_pair_laws(B, x, y), x, y, z)
            note(_z_laws(B, z, e, f), x, y, z)
        checked = len(sample)
    items = tuple(sorted(failures.items()))
    return VarietyReport(not items, total <= budget, checked, items)


# ---------------------------------------------------------------------------
# the canonical representation

@dataclass
class IotaRep:
    """The map s -> all germs of s, into the bisection algebra of the germ groupoid."""

    semigroup: FinInverseSemigroup
    relations: frozenset
    germs: GermGroupoid
    algebra: BisAlgebra
    images: tuple[int, ...]

    def idem_rep(self) -> SemilatticeRep:
        """Restriction to the idempotents, as a semilattice representation."""
        S = self.semigroup
        BA = self.algebra.unit_algebra()
        images = [self.algebra.idem_mask(self.images[e]) for e in S.idems]
        return SemilatticeRep.build(S.semilattice, BA, images)


def _check_multiplicative(S: FinInverseSemigroup, T: BisAlgebra, phi, what: str) -> None:
    """phi(xy) = phi(x)phi(y) for all x, y, checked for y in ``S.gens``.

    Every y is a left-normed product y'g of generators and T is associative,
    so phi(xy'g) = phi(xy')phi(g) = phi(x)phi(y')phi(g) = phi(x)phi(y).
    """
    for x, row in enumerate(S.mult):
        for g in S.gens:
            if T.mul(phi[x], phi[g]) != phi[row[g]]:
                raise LawViolation(f"{what} not multiplicative at ({S.label(x)},{S.label(g)})")


def _check_pair_budget(B: BisAlgebra, what: str) -> None:
    """Refuse, before its pair passes start, a check over more than ``PAIR_BUDGET`` pairs."""
    if len(B) ** 2 > PAIR_BUDGET:
        raise BudgetExceeded(
            f"{what} would work over the {len(B) ** 2:,} pairs of {len(B):,} "
            f"bisections, over the budget of {PAIR_BUDGET:,}"
        )


def iota(S: FinInverseSemigroup, relations) -> IotaRep:
    """Build the germ groupoid and the canonical representation into its bisections.

    Verifies that the map kills zero, is multiplicative (checked on
    ``S.gens``) and satisfies the join constraints on idempotents.
    """
    gg = germ_groupoid(S, relations)
    B = BisAlgebra(gg.groupoid)
    images = tuple(B.index[sum(1 << a for a in theta(gg, s))] for s in range(S.n))
    if images[0] != B.zero:
        raise LawViolation("zero has germs")
    _check_multiplicative(S, B, images, "canonical map")
    rep = IotaRep(S, frozenset(relations), gg, B, images)
    if not is_x_to_join(rep.idem_rep(), relations):
        raise LawViolation("canonical map fails its join constraints on idempotents")
    return rep


# ---------------------------------------------------------------------------
# presentation check

@dataclass(frozen=True)
class PresentationReport:
    ok: bool
    relations_ok: bool
    generated: int
    total: int


def generated_subsemigroup(B: BisAlgebra, seeds) -> frozenset[int]:
    """Closure of the seeds under product, inverse, difference and skew join.

    Semi-naive: each element, in the order found, is combined in both orders
    with itself and every element found before it, and inverted, so every
    pair is combined once.  Stops as soon as all of B is reached.
    """
    found = list(dict.fromkeys((B.zero, *seeds)))
    seen = set(found)
    n = len(B)
    mul, diff, skew = B.mul, B.diff, B.skew
    for i, x in enumerate(found):
        if len(found) == n:
            break
        reached = [B.inv(x)]
        for y in found[: i + 1]:
            reached += (mul(x, y), mul(y, x), diff(x, y), diff(y, x), skew(x, y), skew(y, x))
        for k in reached:
            if k not in seen:
                seen.add(k)
                found.append(k)
    return frozenset(seen)


def check_presentation(S: FinInverseSemigroup, relations) -> PresentationReport:
    """The generators-and-relations description of the algebra of germs.

    :func:`iota` has already checked that the canonical generators kill zero
    and are multiplicative; this checks that they satisfy the join
    constraints as iterated skew joins and generate the whole algebra under
    the extended signature.
    """
    rep = iota(S, relations)
    B = rep.algebra
    _check_pair_budget(B, "the presentation check")
    rel_ok = True
    for rel in relations:
        acc = B.zero
        for p in sorted(rel.parts):
            acc = B.skew(acc, rep.images[S.idems[p]])
        if acc != rep.images[S.idems[rel.e]]:
            rel_ok = False
    reached = generated_subsemigroup(B, rep.images)
    return PresentationReport(
        rel_ok and len(reached) == len(B), rel_ok, len(reached), len(B)
    )


# ---------------------------------------------------------------------------
# congruence from an invariant character set

@dataclass
class Congruence:
    algebra: BisAlgebra
    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]


def _chi_unit_mask(full: IotaRep, chi) -> int:
    mask = 0
    for c in chi:
        u = full.germs.unit_index.get(c)
        if u is None:
            raise LawViolation(
                f"character at generator index {c.gen} is not a unit of the groupoid"
            )
        mask |= 1 << u
    return mask


def congruence(full: IotaRep, chi) -> Congruence:
    """The congruence of an invariant character set on the universal algebra.

    Two elements are identified when their domains agree outside the ideal
    of idempotents missing the character set and the elements agree on the
    common part.  The partition is cross-checked against the kernel of the
    restriction map onto arrows based in the character set.
    """
    chi = frozenset(chi)
    S = full.semigroup
    if full.relations:
        raise LawViolation("congruence needs the universal algebra (empty relation set)")
    if not character_set_invariant(S, chi):
        raise LawViolation("character set is not invariant under the action")
    B = full.algebra
    G = B.groupoid
    chi_mask = _chi_unit_mask(full, chi)
    n = len(B)
    d_mask = B.srcm

    def literal_equiv(i: int, j: int) -> bool:
        # e ranges over idempotents below both domains; f, g exist in the
        # ideal iff the leftover domains avoid the character set, so only
        # the minimal choices f = d(i)-e and g = d(j)-e need be examined.
        common = d_mask[i] & d_mask[j]
        e = common
        while True:
            if not (d_mask[i] & ~e) & chi_mask and not (d_mask[j] & ~e) & chi_mask:
                idem = B.idem_element(e)
                if B.mul(i, idem) == B.mul(j, idem):
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
    classes = tuple(
        tuple(i for i in range(n) if class_of[i] == k) for k in range(len(reps))
    )

    # kernel of the restriction map
    keep = sum(1 << a for a in range(G.n_arrows) if chi_mask >> G.src[a] & 1)
    kernel: dict[int, list[int]] = {}
    for i, arrows in enumerate(B.elements):
        kernel.setdefault(arrows & keep, []).append(i)
    kernel_classes = sorted(tuple(v) for v in kernel.values())
    if kernel_classes != sorted(classes):
        raise LawViolation("literal congruence disagrees with the restriction kernel")

    cong = Congruence(B, classes, tuple(class_of))
    _check_congruence(cong)
    return cong


def _check_congruence(cong: Congruence) -> None:
    B, cls = cong.algebra, cong.class_of
    n = len(B)
    seen_mul: dict[tuple[int, int], int] = {}
    for i in range(n):
        for j in range(n):
            key = (cls[i], cls[j])
            val = cls[B.mul(i, j)]
            if seen_mul.setdefault(key, val) != val:
                raise LawViolation("partition not compatible with the product")
    seen_inv: dict[int, int] = {}
    for i in range(n):
        if seen_inv.setdefault(cls[i], cls[B.inv(i)]) != cls[B.inv(i)]:
            raise LawViolation("partition not compatible with inversion")


# ---------------------------------------------------------------------------
# additive morphisms

@dataclass
class AdditiveMorphism:
    source: BisAlgebra
    target: BisAlgebra
    table: tuple[int, ...]

    @classmethod
    def build(cls, source, target, table) -> "AdditiveMorphism":
        m = cls(source, target, tuple(table))
        _check_additive(m)
        return m

    def apply(self, i: int) -> int:
        return self.table[i]


def _check_additive(m: AdditiveMorphism) -> None:
    B, T, t = m.source, m.target, m.table
    n = len(B)
    if len(t) != n:
        raise LawViolation(f"{n} elements but {len(t)} images")
    if t[B.zero] != T.zero:
        raise LawViolation("zero not preserved")
    for i in range(n):
        for j in range(n):
            if t[B.mul(i, j)] != T.mul(t[i], t[j]):
                raise LawViolation(
                    f"product not preserved at ({B.label(i)},{B.label(j)})"
                )
            if B.compatible(i, j):
                if not T.compatible(t[i], t[j]):
                    raise LawViolation(
                        f"compatibility not preserved at ({B.label(i)},{B.label(j)})"
                    )
                if t[B.join(i, j)] != T.join(t[i], t[j]):
                    raise LawViolation(
                        f"compatible join not preserved at ({B.label(i)},{B.label(j)})"
                    )
    # difference on idempotents, a consequence recorded as a direct check
    for i in range(n):
        if B.is_idempotent(i):
            for j in range(n):
                if B.is_idempotent(j) and t[B.diff(i, j)] != T.diff(t[i], t[j]):
                    raise LawViolation("idempotent difference not preserved")


def is_weakly_meet_preserving(m: AdditiveMorphism) -> bool:
    """Common lower bounds of images lift to common lower bounds: every d
    below t(a) and t(b) is below t(c) for some c below a and b.

    Needs t multiplicative, as :meth:`AdditiveMorphism.build` checks.  Then:
    t is order-preserving, since a <= b means a = b·a⁻¹a, and then
    t(a) = t(b)·t(a⁻¹a) <= t(b); meets of local bisections are
    intersections, so c ranges below a∧b and the best c is a∧b itself; so a
    c exists for d iff d <= t(a∧b), and it suffices to test the largest d:
    t(a)∧t(b) <= t(a∧b), over pairs with a∧b = ``B.meet(a, b)``.
    """
    B, t = m.source, m.table
    img = [m.target.elements[k] for k in t]
    meet = B.meet
    n = len(B)
    return not any(
        img[a] & img[b] & ~img[meet(a, b)] for a in range(n) for b in range(a + 1, n)
    )


# ---------------------------------------------------------------------------
# restriction morphism and the quotient theorem

def _restricted_groupoid(full: IotaRep, chi) -> tuple[FinGroupoid, tuple[Character, ...], tuple[Germ, ...], dict[int, int]]:
    gg = full.germs
    G = gg.groupoid
    chi_mask = _chi_unit_mask(full, chi)
    unit_old = [u for u in range(G.n_units) if chi_mask >> u & 1]
    units = tuple(gg.units[u] for u in unit_old)
    unit_new = {old: new for new, old in enumerate(unit_old)}
    keep = [a for a in range(G.n_arrows) if G.src[a] in unit_new]
    for a in keep:
        if G.rng[a] not in unit_new:
            raise LawViolation("character set is not invariant: a range escapes it")
    proj = {old: new for new, old in enumerate(keep)}
    # composability inside the restriction matches the ambient groupoid
    comp = [
        [proj[G.comp[a][b]] if G.comp[a][b] in proj else -1 for b in keep]
        for a in keep
    ]
    for ai, a in enumerate(keep):
        for bi, b in enumerate(keep):
            if (G.comp[a][b] >= 0) != (comp[ai][bi] >= 0):
                raise LawViolation("restriction lost a composite")
    restr = FinGroupoid.from_parts(
        unit_labels=tuple(G.unit_labels[u] for u in unit_old),
        arrow_labels=tuple(G.arrow_labels[a] for a in keep),
        src=[unit_new[G.src[a]] for a in keep],
        rng=[unit_new[G.rng[a]] for a in keep],
        unit_arrow=[proj[G.unit_arrow[u]] for u in unit_old],
        inv=[proj[G.inv[a]] for a in keep],
        comp=comp,
    )
    germs = tuple(gg.germs[a] for a in keep)
    return restr, units, germs, proj


def restriction_morphism(full: IotaRep, chi) -> AdditiveMorphism:
    """Cut every bisection down to the arrows based in the character set."""
    restr, _, _, proj = _restricted_groupoid(full, chi)
    target = BisAlgebra(restr)
    table = []
    for arrows in full.algebra.elements:
        cut = sum(1 << proj[a] for a in _bits(arrows) if a in proj)
        table.append(target.index[cut])
    return AdditiveMorphism.build(full.algebra, target, table)


@dataclass(frozen=True)
class QuotientReport:
    ok: bool
    class_count: int
    quotient_size: int
    spectrum_ok: bool
    germs_ok: bool
    bijective: bool
    weakly_meet_preserving: bool
    witness: tuple[tuple[int, int], ...]  # (class representative, quotient element)


def theorem_quotients_check(S: FinInverseSemigroup, chi) -> QuotientReport:
    """The quotient by an invariant character set is the algebra of the
    relation set carved out by the quotient composite.

    Builds the congruence and restriction morphism on one side and the germ
    groupoid of the carved-out relation set on the other, then matches them.
    """
    chi = frozenset(chi)
    full = iota(S, frozenset())
    _check_pair_budget(full.algebra, "the quotient check")
    cong = congruence(full, chi)
    morph = restriction_morphism(full, chi)
    _, _, restr_germs, _ = _restricted_groupoid(full, chi)

    # the composite of the canonical map and the quotient, restricted to
    # idempotents: images are character sets inside chi
    rels = x_pi(character_rep(S.semilattice, sorted(chi)))

    gq = germ_groupoid(S, rels)
    spectrum_ok = set(gq.units) == chi
    germs_ok = gq.germs == restr_germs
    B2 = BisAlgebra(gq.groupoid)

    image_set = set(morph.table)
    bijective = (
        len(image_set) == len(cong.classes)
        and len(image_set) == len(morph.target)
        and germs_ok
        and sorted(morph.target.elements) == sorted(B2.elements)
    )
    wmp = is_weakly_meet_preserving(morph)
    ok = spectrum_ok and germs_ok and bijective and wmp
    witness = tuple((cls[0], morph.table[cls[0]]) for cls in cong.classes)
    return QuotientReport(
        ok, len(cong.classes), len(B2), spectrum_ok, germs_ok, bijective, wmp, witness
    )


# ---------------------------------------------------------------------------
# the universal morphism

@dataclass
class UniversalResult:
    morphism: AdditiveMorphism
    unique: bool
    method: str


UNIQUENESS_SEARCH_LIMIT = 30


def _validate_representation(S: FinInverseSemigroup, target: BisAlgebra, phi, relations) -> SemilatticeRep:
    phi = tuple(phi)
    if len(phi) != S.n:
        raise LawViolation(f"{S.n} elements but {len(phi)} images")
    if phi[0] != target.zero:
        raise LawViolation("zero not preserved")
    _check_multiplicative(S, target, phi, "map")
    BA = target.unit_algebra()
    images = [target.idem_mask(phi[e]) for e in S.idems]
    rep = SemilatticeRep.build(S.semilattice, BA, images)
    if not is_x_to_join(rep, relations):
        raise LawViolation("map does not satisfy the join constraints")
    return rep


def find_universal_morphism(S: FinInverseSemigroup, relations, target: BisAlgebra, phi) -> UniversalResult:
    """Factor a join-respecting representation through the algebra of germs.

    The morphism is assembled on single-arrow pieces and extended by
    compatible joins; uniqueness is settled by exhaustive constrained search
    for targets of at most UNIQUENESS_SEARCH_LIMIT elements, and by
    generator determinacy above that.
    """
    phi = tuple(phi)
    relations = frozenset(relations)
    rep = _validate_representation(S, target, phi, relations)
    closed = invariant_closure(S, relations)
    if not is_x_to_join(rep, closed):
        raise LawViolation("map fails the conjugated join constraints")
    uni = iota(S, relations)
    B = uni.algebra
    psi_e = universal_extension(rep, closed, verify_unique=False)

    atom_pos = {label: i for i, label in enumerate(psi_e.source.atom_labels)}
    unit_singletons = [
        target.idem_element(psi_e.atom_images[atom_pos[rep.domain.label(c.gen)]])
        for c in uni.germs.units
    ]

    table = []
    for arrows in B.elements:
        acc = target.zero
        for a in _bits(arrows):
            g = uni.germs.germs[a]
            piece = target.mul(phi[g.rep], unit_singletons[B.groupoid.src[a]])
            acc = target.join(acc, piece)
        table.append(acc)
    morph = AdditiveMorphism.build(B, target, table)
    for s in range(S.n):
        if morph.table[uni.images[s]] != phi[s]:
            raise LawViolation(f"morphism does not factor the map at {S.label(s)}")

    if len(target) <= UNIQUENESS_SEARCH_LIMIT:
        count = _count_additive_morphisms(B, target, dict(zip(uni.images, phi)), limit=2)
        if count != 1:
            raise LawViolation(f"expected a unique morphism, search found {count}")
        return UniversalResult(morph, True, "exhaustive")
    return UniversalResult(morph, True, "generators")


def _count_additive_morphisms(B: BisAlgebra, T: BisAlgebra, pins: dict[int, int], limit: int = 2) -> int:
    """Exhaustive count of additive morphisms extending the pinned images.

    Backtracking over element images, pruning with the product, inverse,
    zero and compatible-join constraints against everything already placed.
    """
    n = len(B)
    assign = [-1] * n
    assign[B.zero] = T.zero
    for k, v in pins.items():
        if assign[k] not in (-1, v):
            return 0
        assign[k] = v
    order = [i for i in range(n) if assign[i] < 0]
    count = 0

    def consistent(i: int) -> bool:
        for j in range(n):
            if assign[j] < 0:
                continue
            for a, b in ((i, j), (j, i)):
                k = B.mul(a, b)
                if assign[k] >= 0 and assign[k] != T.mul(assign[a], assign[b]):
                    return False
            if B.compatible(i, j):
                if not T.compatible(assign[i], assign[j]):
                    return False
                k = B.join(i, j)
                if assign[k] >= 0 and assign[k] != T.join(assign[i], assign[j]):
                    return False
        k = B.inv(i)
        if assign[k] >= 0 and assign[k] != T.inv(assign[i]):
            return False
        return True

    def valid_leaf() -> bool:
        # the incremental checks skip constraints whose result element was
        # assigned after both operands, so leaves get a full validation
        try:
            AdditiveMorphism.build(B, T, tuple(assign))
        except LawViolation:
            return False
        return True

    def rec(pos: int):
        nonlocal count
        if count >= limit:
            return
        if pos == len(order):
            if valid_leaf():
                count += 1
            return
        i = order[pos]
        for t in range(len(T)):
            assign[i] = t
            if consistent(i):
                rec(pos + 1)
            assign[i] = -1

    # the pins themselves must be mutually consistent
    for i in range(n):
        if assign[i] >= 0 and not consistent(i):
            return 0
    rec(0)
    return count


# ---------------------------------------------------------------------------
# JSON emission

def bis_to_json(B: BisAlgebra) -> str:
    from .groupoid import groupoid_to_json

    doc = {
        "groupoid": json.loads(groupoid_to_json(B.groupoid)),
        "elements": [_bits(e) for e in B.elements],
    }
    return json.dumps(doc, indent=2, sort_keys=True)
