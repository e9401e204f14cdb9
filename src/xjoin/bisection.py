"""Boolean inverse semigroups of local bisections of a finite groupoid.

An element is its arrow set, held as an int mask over arrow indices (as
``boolalg`` holds its elements), and a morphism out of an algebra is the
tuple of images of its single-arrow elements.  The module carries the
canonical representation of an inverse semigroup into the bisection algebra
of its germ groupoid, the presentation and quotient checks, and the
universal-morphism machinery.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import reduce
from itertools import accumulate
from math import comb, factorial
from operator import or_
from typing import NamedTuple

from .boolalg import FinBooleanAlgebra, SemilatticeRep, is_x_to_join, universal_extension
from .groupoid import FinGroupoid, GermGroupoid, _groupoid_doc, germ_groupoid, theta
from .invsgp import FinInverseSemigroup, character_set_invariant, invariant_closure
from .semilattice import (
    BudgetExceeded, LawViolation, _at_least, _bits, _json_chunks, _Memo, _union_at, characters,
)

# elements B.elements may list; I3 universal has 33,082
BISECTION_BUDGET = 100_000


class BisAlgebra:
    """The local bisections of a finite groupoid, with the algebra operations.

    An element is its arrow mask; 0 is the empty bisection.  ``srcm[x]`` and
    ``rngm[x]`` are the unit masks of its sources and ranges, kept per mask.
    Idempotents are the masks of identity arrows only, one per unit subset,
    and memos keyed by unit mask give the idempotent on each and the arrows
    with a source or a range in it, filled per mask on first read, so
    domain, range, order, difference, skew join and products with an
    idempotent factor are bit operations; other products walk one factor's
    arrows (:meth:`mul`) and an inverse inverts each arrow, both computed
    on every call.  Memo writes are idempotent, so concurrent readers stay
    consistent.  Building tabulates nothing per element or idempotent; only
    :attr:`elements` lists, under ``BISECTION_BUDGET``.
    """

    def __init__(self, groupoid: FinGroupoid):
        G = self.groupoid = groupoid
        by_src, by_rng = [0] * G.n_units, [0] * G.n_units
        for a in range(G.n_arrows):
            by_src[G.src[a]] |= 1 << a
            by_rng[G.rng[a]] |= 1 << a
        self.zero = 0
        src_bits, rng_bits = [1 << u for u in G.src], [1 << u for u in G.rng]
        srcm = self.srcm = _Memo(lambda x: _union_at(src_bits, x))
        rngm = self.rngm = _Memo(lambda x: _union_at(rng_bits, x))
        self._by_src, self._by_rng = by_src, by_rng
        src_arrows = self._src_arrows = _Memo(lambda m: _union_at(by_src, m))
        rng_arrows = self._rng_arrows = _Memo(lambda m: _union_at(by_rng, m))
        # per y, the arrows sharing a source or a range with y
        self._blocked = _Memo(lambda y: src_arrows[srcm[y]] | rng_arrows[rngm[y]])
        unit_bits = [1 << a for a in G.unit_arrow]
        self._idem = _Memo(lambda m: _union_at(unit_bits, m))
        # the arrows that are not identities
        self._moving = self._idem[(1 << G.n_units) - 1] ^ (1 << G.n_arrows) - 1
        self._elements: tuple[int, ...] | None = None

    def __len__(self) -> int:
        return bisection_count(self.groupoid)

    # not cached_property: its write to the instance dict slows every later attribute load
    @property
    def elements(self) -> tuple[int, ...]:
        """Every element, by size and then by ascending arrow list, listed on
        first read; ``BudgetExceeded`` when there are over ``BISECTION_BUDGET``."""
        if self._elements is None:
            _check_budget(self.groupoid)
            masks: list[int] = []
            for level, _, srcs, rngs in _levels(self.groupoid, self._by_src, self._by_rng):
                masks += level
                self.srcm.update(zip(level, srcs))
                self.rngm.update(zip(level, rngs))
            self._elements = tuple(masks)
        return self._elements

    def label(self, x: int) -> str:
        names = self.groupoid.arrow_labels
        return "{" + ",".join(names[a] for a in _bits(x)) + "}" if x else "0"

    def _is_bisection(self, mask: int) -> bool:
        n = mask.bit_count()
        return self.srcm[mask].bit_count() == n == self.rngm[mask].bit_count()

    def mul(self, x: int, y: int) -> int:
        """UV = {ab : a in U, b in V, s(a) = r(b)}.  U is injective on
        sources, so each b of V with r(b) a source of U meets one a, U's
        arrow leaving r(b), and the other b of V meet none.  So UV is a
        bisection, not re-checked here: ab starts where b does, and distinct
        b meet distinct a, as their ranges differ, so the ab end where
        distinct a do.  An idempotent e is the identities 1_u for u in a
        unit set D, so eV and Ve are the b of V with r(b), or s(b), in D by
        the unit laws 1_{r(b)}b = b = b1_{s(b)}.  These follow from the
        groupoid laws, which ``germ_groupoid`` proves for germs: by
        cancellation, (ab)b⁻¹ = a, right multiplication is injective;
        1_u1_u1_u⁻¹ = 1_u = 1_u1_u⁻¹ gives 1_u1_u = 1_u, then b1_u1_u = b1_u
        gives b1_u = b, and 1_{r(b)}b = bb⁻¹b = b1_{s(b)}.
        """
        if not x & self._moving:
            return y & self._rng_arrows[self.srcm[x]]
        if not y & self._moving:
            return x & self._src_arrows[self.srcm[y]]
        comp, rng, by_src = self.groupoid.comp, self.groupoid.rng, self._by_src
        out, rest = 0, y & self._rng_arrows[self.srcm[x]]
        while rest:
            low = rest & -rest
            b = low.bit_length() - 1
            out |= 1 << comp[(x & by_src[rng[b]]).bit_length() - 1][b]
            rest ^= low
        return out

    def inv(self, x: int) -> int:
        inv = self.groupoid.inv
        return sum(1 << inv[a] for a in _bits(x))

    def leq(self, x: int, y: int) -> bool:
        return not x & ~y

    def is_idempotent(self, x: int) -> bool:
        return not x & self._moving

    def d(self, x: int) -> int:
        return self._idem[self.srcm[x]]

    def r(self, x: int) -> int:
        return self._idem[self.rngm[x]]

    def compatible(self, x: int, y: int) -> bool:
        return self.is_idempotent(self.mul(self.inv(x), y)) and self.is_idempotent(
            self.mul(x, self.inv(y))
        )

    def join(self, x: int, y: int) -> int:
        """The union of compatible bisections; compatible exactly when it is one."""
        if not self._is_bisection(x | y):
            raise LawViolation(f"{self.label(x)} and {self.label(y)} are not compatible")
        return x | y

    def diff(self, x: int, y: int) -> int:
        """Arrows of x whose source and range avoid the sources and ranges of y."""
        return x & ~self._blocked[y]

    def skew(self, x: int, y: int) -> int:
        """diff(x, y) joined with y; always a bisection, so no compatibility check."""
        return x & ~self._blocked[y] | y

    # --- idempotents as unit masks -----------------------------------------

    def idem_mask(self, x: int) -> int:
        if not self.is_idempotent(x):
            raise LawViolation(f"{self.label(x)} is not an idempotent")
        return self.srcm[x]

    def idem_element(self, mask: int) -> int:
        return self._idem[mask]

    def unit_algebra(self) -> FinBooleanAlgebra:
        return FinBooleanAlgebra(self.groupoid.unit_labels)


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


def _check_budget(G: FinGroupoid) -> None:
    if (count := bisection_count(G)) > BISECTION_BUDGET:
        raise BudgetExceeded(
            f"enumerating the local bisections of {G.n_arrows} arrows would "
            f"give {count:,} elements, over the budget of {BISECTION_BUDGET:,}"
        )


def _children(G: FinGroupoid, by_src: list[int], by_rng: list[int]) -> _Memo:
    """Per free mask, the children of the local bisections with that free
    mask: each free arrow a, ascending, with the child's free mask, given
    the arrow masks leaving and entering each unit.

    The free arrows of a bisection x are the arrows above its last one
    (every arrow, for the empty one) whose source is no source of x and
    whose range is no range of x.  The child x ∪ {a} has last arrow a, and
    an arrow above a lies above the last arrow of x, so the child's free
    arrows are those of x that lie above a, do not leave s(a) and do not
    enter r(a): free & keep[a], where
    keep[a] = ~(by_src[s(a)] | by_rng[r(a)]) & -(2 << a), since
    -(2 << a) = ~((2 << a) - 1) is the mask of the bits above a.  That is
    the set left by clearing a and every free arrow below it, one at a
    time, and then the arrows that share a unit with a.  The children
    depend on the free mask alone, so the memo computes them once per free
    mask: 22 times for the 33,082 elements of I3's universal algebra."""
    keep = [~(by_src[s] | by_rng[r]) & -(2 << a) for a, (s, r) in enumerate(zip(G.src, G.rng))]
    return _Memo(lambda free: [(a, free & keep[a]) for a in _bits(free)])


def _levels(G: FinGroupoid, by_src: list[int], by_rng: list[int]) -> Iterator[tuple[list[int], ...]]:
    """Per size k from 0, the arrow, free-arrow, source and range masks of
    the local bisections of k arrows, by ascending arrow list, given the
    arrow masks leaving and entering each unit.  Level k + 1 extends each
    bisection of level k, in order, by each arrow free for it, ascending
    (:func:`_children`).  A set arises once, from itself less its largest
    arrow, and (that parent, the added arrow) orders as the arrow list does."""
    children = _children(G, by_src, by_rng)
    sbit = [1 << u for u in G.src]
    rbit = [1 << u for u in G.rng]
    level = [0], [(1 << G.n_arrows) - 1], [0], [0]
    while level[0]:
        yield level
        masks, frees, srcs, rngs = next_level = [], [], [], []
        for mask, free, s, r in zip(*level):
            for a, child in children[free]:
                masks.append(mask | 1 << a)
                frees.append(child)
                srcs.append(s | sbit[a])
                rngs.append(r | rbit[a])
        level = next_level


# ---------------------------------------------------------------------------
# variety identities

class VarietyReport(NamedTuple):
    ok: bool
    exhaustive: bool
    checked: int
    failures: tuple[tuple[str, str], ...]

    def first_failure(self) -> str:
        return "" if self.ok else f"{self.failures[0][0]} at {self.failures[0][1]}"


def check_variety_identities(B: BisAlgebra, budget: int = 250_000) -> VarietyReport:
    """Evaluate the defining identities of the extended signature on triples.

    Exhaustive when the n^3 triples (x, y, z) fit the budget, which must be
    at least 1; otherwise a deterministic stride sample of them.
    ``checked`` counts triples, and each failure names the first triple, in
    lexicographic order over :attr:`BisAlgebra.elements`, at which the
    identity fails.

    No identity reads all three variables freely, so the exhaustive check
    evaluates each one once per distinct argument tuple: (d x, d y) for 1a,
    1b and the idempotent laws of 2 that name two variables or fewer;
    (d x, d y, d z) for 2-join-assoc and the distributive laws; (x, y) for
    3, 4 and 5; (z, d x, d y) for 6.  An argument tuple is reached first by
    the triple taking, for each d-variable, the least element with that
    domain, and 0 for each unread variable; visiting tuples in the order of
    those triples reports the same witnesses as the triple loop.  The
    sample evaluates the (d x, d y) laws once per distinct pair, at its
    first sampled triple, and every other identity on every sampled
    triple: evaluation reads nothing but B, so a repeated tuple repeats its
    verdict, and only a first failure is reported.  Every operation of a
    bisection algebra is total, so no evaluation raises.

    Subterms are computed once: d x, d y and d z per triple, and per
    distinct pair (e, f) = (d x, d y) the terms e - f, e ∇ f, ef and
    (e - f) ∇ f that several laws read, with the (d x, d y) laws and so
    before the z loop of the exhaustive check.  Each operation of B is a
    function of its arguments, and evaluation reads nothing but B, so a
    reused subterm is the value a fresh evaluation would give: no verdict
    at any triple changes, and so neither does any witness.  Each law group
    computes its verdicts in a fixed order and labels the triple only when
    one of them is false.
    """
    _at_least("budget", budget, 1)
    els = B.elements
    n = len(els)
    total = n * n * n
    d, r, mul, dif, skw, leq, zero = B.d, B.r, B.mul, B.diff, B.skew, B.leq, B.zero
    failures: dict[str, str] = {}

    def note(names, oks, x, y, z):
        for name, ok in zip(names, oks):
            if not ok and name not in failures:
                failures[name] = f"({B.label(x)},{B.label(y)},{B.label(z)})"

    def idem_pair_laws(x, y, z, e, f):
        """The (d x, d y) laws; returns the subterms that later laws read."""
        ef_diff, ef_skew, ef_mul = dif(e, f), skw(e, f), mul(e, f)
        oks = (
            mul(ef_diff, ef_diff) == ef_diff,
            mul(ef_skew, ef_skew) == ef_skew,
            ef_mul == mul(f, e),
            ef_skew == skw(f, e),
            mul(e, e) == e and skw(e, e) == e,
            mul(e, ef_skew) == e and skw(e, ef_mul) == e,
            mul(e, zero) == zero and skw(e, zero) == e,
            mul(ef_diff, f) == zero and skw(ef_diff, ef_mul) == e,
        )
        if not all(oks):
            names = "1a", "1b", "2-meet-comm", "2-join-comm", "2-idem", "2-absorb", "2-bottom", "2-complement"
            note(names, oks, x, y, z)
        return ef_diff, ef_skew, ef_mul, skw(ef_diff, f)

    def idem_triple_laws(x, y, z, e, f, g, sub):
        _, ef_skew, ef_mul, _ = sub
        fg_skew = skw(f, g)
        oks = (
            skw(ef_skew, g) == skw(e, fg_skew),
            mul(e, fg_skew) == skw(ef_mul, mul(e, g)),
            skw(e, mul(f, g)) == mul(ef_skew, skw(e, g)),
        )
        if not all(oks):
            note(("2-join-assoc", "2-distr-meet", "2-distr-join"), oks, x, y, z)

    def xy_pair_laws(x, y, z, f, ef_diff):
        xy_diff, xy_skew = dif(x, y), skw(x, y)
        oks = (
            leq(xy_diff, xy_skew) and leq(y, xy_skew),
            d(xy_skew) == skw(d(xy_diff), f),
            xy_diff == mul(mul(dif(r(x), r(y)), x), ef_diff),
        )
        if not all(oks):
            note(("3", "4", "5"), oks, x, y, z)

    def z_law(x, y, z, f, sub):
        ef_diff, _, _, diff_skew = sub
        if mul(z, diff_skew) != skw(mul(z, ef_diff), mul(z, f)):
            note(("6",), (False,), x, y, z)

    subs: dict[tuple[int, int], tuple[int, ...]] = {}
    if total <= budget:
        first: dict[int, int] = {}
        for x in els:
            first.setdefault(d(x), x)
        reps = list(first.values())
        for x in reps:
            e = d(x)
            for y in reps:
                f = d(y)
                sub = subs[e, f] = idem_pair_laws(x, y, 0, e, f)
                for z in reps:
                    idem_triple_laws(x, y, z, e, f, d(z), sub)
                for z in els:
                    z_law(x, y, z, f, sub)
        for x in els:
            e = d(x)
            for y in els:
                f = d(y)
                xy_pair_laws(x, y, 0, f, subs[e, f][0])
        checked = total
    else:
        sample = range(0, total, total // budget + 1)
        for t in sample:
            x, y, z = els[t // (n * n)], els[t // n % n], els[t % n]
            e, f = d(x), d(y)
            sub = subs.get((e, f))
            if sub is None:
                sub = subs[e, f] = idem_pair_laws(x, y, z, e, f)
            idem_triple_laws(x, y, z, e, f, d(z), sub)
            xy_pair_laws(x, y, z, f, sub[0])
            z_law(x, y, z, f, sub)
        checked = len(sample)
    items = tuple(sorted(failures.items()))
    return VarietyReport(not items, total <= budget, checked, items)


# ---------------------------------------------------------------------------
# the canonical representation

class IotaRep(NamedTuple):
    """The map s -> all germs of s, into the bisection algebra of the germ
    groupoid; the semigroup is ``germs.semigroup``."""

    germs: GermGroupoid
    algebra: BisAlgebra
    images: tuple[int, ...]


def _check_multiplicative(S: FinInverseSemigroup, T: BisAlgebra, phi, what: str) -> None:
    """phi(xy) = phi(x)phi(y) for all x, y, checked for y in ``S.gens``.

    Every y is a left-normed product y'g of generators and T is associative,
    so phi(xy'g) = phi(xy')phi(g) = phi(x)phi(y')phi(g) = phi(x)phi(y).
    """
    for x, row in enumerate(S.mult):
        for g in S.gens:
            if T.mul(phi[x], phi[g]) != phi[row[g]]:
                raise LawViolation(f"{what} not multiplicative at ({S.label(x)},{S.label(g)})")


def iota(S: FinInverseSemigroup, relations) -> IotaRep:
    """Build the germ groupoid and the canonical representation θ into its
    bisections, θ(s) the germs [s, c] with f_c below d(s) (:func:`theta`).
    Nothing here lists the algebra: its size is :func:`bisection_count`.

    θ is built, not checked (Exel 2008, §4); ``_check_multiplicative`` and
    ``is_x_to_join`` check the maps a caller supplies.
    - Zero: no unit's generator lies below d(0) = 0, so θ(0) = 0.
    - Products: the composites in θ(s)θ(t) are [s, c'][t, c] = [st, c], with
      c' the range t f_c t⁻¹ of [t, c].  f_c ≤ d(t) and t f_c t⁻¹ ≤ d(s)
      give f_c = t⁻¹(t f_c t⁻¹)t ≤ t⁻¹d(s)t = d(st); conversely
      f_c ≤ d(st) ≤ d(t) gives t f_c t⁻¹ ≤ t t⁻¹d(s)t t⁻¹ ≤ d(s).  So the
      composable pairs are one per germ of st, and θ(st) = θ(s)θ(t).
    - Join constraints: the unit mask of θ(f), for f idempotent, is the
      units below f, the image of f in the Booleanization over the closed
      spectrum, which satisfies the closed set and so the relations (see
      :func:`~xjoin.boolalg.booleanization`).
    """
    gg = germ_groupoid(S, relations)
    images = tuple(theta(gg, s) for s in range(S.n))
    return IotaRep(gg, BisAlgebra(gg.groupoid), images)


# ---------------------------------------------------------------------------
# presentation check

def generated_subsemigroup(B: BisAlgebra, seeds) -> int:
    """The number of elements of the closure of the seeds under product,
    inverse, difference and skew join, when that is all of B; otherwise
    ``LawViolation`` naming the first arrow the seeds miss.

    On atoms.  The domains d(x) = x⁻¹x of the seeds are in the closure, so
    for each unit c so is the product of the domains that contain c with
    every other domain differenced away; that is {c} when some domain
    contains c and no other unit lies in the same domains.  Then x·{c} is
    the atom of x at source c, for every seed x with c in its domain.  If
    every single-arrow element is reached this way the closure is all of B,
    since every bisection is the iterated skew join of its pairwise
    orthogonal atoms.

    The canonical images θ(s), the seeds of :func:`check_presentation`,
    always reach every atom.  θ(f) for an idempotent f is the identities at
    the units whose generator lies below f, and it is its own domain.  For
    units c ≠ c' with generators g, g', say g ≰ g', the domain of θ(g)
    holds c and not c': the domains split every pair of units, and each
    unit c lies in that of θ(g).  A germ [s, c] has c in the domain of θ(s)
    and is the atom of θ(s) at source c.
    """
    seeds, G = tuple(seeds), B.groupoid
    doms = {B.srcm[x] for x in seeds}
    # per unit, the domains containing it, as a mask over doms
    sig = [sum((m >> c & 1) << k for k, m in enumerate(doms)) for c in range(G.n_units)]
    units = sum(1 << c for c, s in enumerate(sig) if s and sig.count(s) == 1)
    atoms = reduce(or_, (x & B._src_arrows[B.srcm[x] & units] for x in seeds), 0)
    missed = ~atoms & (1 << G.n_arrows) - 1
    if missed:
        first = (missed & -missed).bit_length() - 1
        raise LawViolation(f"the generators miss the arrow {G.arrow_labels[first]}")
    return bisection_count(G)


def check_presentation(S: FinInverseSemigroup, relations) -> int:
    """The generators-and-relations description of the algebra of germs;
    returns its size, all of which the canonical generators generate.

    The canonical generators θ(s) kill zero, are multiplicative and satisfy
    the join constraints, as :func:`iota` proves.  They satisfy them as
    iterated skew joins too: on idempotents, which are identity sets, the
    skew join x - (arrows sharing a unit with y) ∪ y is the union x ∪ y, so
    the iterated skew join of the part images is their union, which is the
    image of e.  That they generate the whole algebra under the extended
    signature is what :func:`generated_subsemigroup` proves, and a missed
    arrow raises ``LawViolation``.
    """
    rep = iota(S, relations)
    return generated_subsemigroup(rep.algebra, rep.images)


# ---------------------------------------------------------------------------
# additive morphisms

class AdditiveMorphism(NamedTuple):
    """A morphism of bisection algebras by its atom images: ``images[a]`` is
    the image of {a}, and x goes to the union of the images of its arrows."""

    source: BisAlgebra
    target: BisAlgebra
    images: tuple[int, ...]

    @classmethod
    def build(cls, source, target, images) -> "AdditiveMorphism":
        m = cls(source, target, tuple(images))
        _check_additive(m)
        return m

    def apply(self, x: int) -> int:
        return _union_at(self.images, x)


def _check_additive(m: AdditiveMorphism) -> None:
    """The atom images t({a}) extend to a morphism t that preserves zero,
    products, compatibility, compatible joins and idempotent differences:
    checked as t({a})t({b}) = t({a}{b}) for all arrows a and b, where
    {a}{b} is {ab} when a and b compose and 0 otherwise.

    It suffices.  t(0) = 0, the empty union.  t({a⁻¹}) = t({a})⁻¹ by
    uniqueness of inverses, since t({a})t({a⁻¹})t({a}) = t({a}{a⁻¹}{a})
    = t({a}), and likewise for t({a⁻¹}).  So for distinct arrows a and b
    of one bisection, whose sources differ, the domains of t({a}) and
    t({b}) multiply to t({a⁻¹}{a}{b⁻¹}{b}) = t(0) = 0, and so do the
    ranges: the atom images of a bisection have disjoint sources and
    ranges, so their union t(x) is an element of T.  The product of T
    distributes over unions, and the composable pairs of arrows of x and y
    biject onto the arrows of xy, so t(x)t(y) is the union of t({ab}) over
    them, which is t(xy).  Compatible x and y join to the bisection x ∪ y,
    whose image t(x) ∪ t(y) is an element of T: t(x) and t(y) are
    compatible with that join.  Unit atoms are idempotents and distinct
    ones multiply to 0, so their images are disjoint idempotents, and
    t(e - f) = t(e) - t(f) for idempotents e and f.  Conversely a morphism
    passes, {a}{b} being the product in B.

    Row a of ``comp`` holds the arrows b ending at u = src(a) and takes a
    product for each; the rest of the row is one mask test: t({a})t({b}) is
    0 exactly when t({b}) has no arrow whose range is a source of t({a}),
    so the union of the images of the arrows ending at the other units must
    have none.  A failing row is walked arrow by arrow, naming the first
    witness.  The cost is a product in T per composable pair of arrows.
    """
    B, T, t = m.source, m.target, m.images
    G = B.groupoid
    if len(t) != G.n_arrows:
        raise LawViolation(f"{G.n_arrows} arrows but {len(t)} atom images")
    into = [0] * G.n_units  # per unit, the union of the images of the arrows ending there
    for b, r in enumerate(G.rng):
        into[r] |= t[b]
    before = list(accumulate(into, or_, initial=0))
    after = list(accumulate(reversed(into), or_, initial=0))[::-1]
    for a, row in enumerate(G.comp):
        u, x = G.src[a], t[a]
        if (
            all(T.mul(x, t[b]) == t[ab] for b, ab in row.items())
            and not (before[u] | after[u + 1]) & T._rng_arrows[T.srcm[x]]
        ):
            continue
        for b in range(G.n_arrows):
            if T.mul(x, t[b]) != (t[row[b]] if b in row else T.zero):
                raise LawViolation(f"product not preserved at ({B.label(1 << a)},{B.label(1 << b)})")


def is_weakly_meet_preserving(m: AdditiveMorphism) -> bool:
    """Common lower bounds of images lift to common lower bounds: every d
    below t(a) and t(b) is below t(c) for some c below a and b.

    Needs t additive, as :meth:`AdditiveMorphism.build` checks.  Then t is
    order-preserving, since a <= b means a = b·a⁻¹a, so
    t(a) = t(b)·t(a⁻¹a) <= t(b); meets of local bisections are
    intersections, so c ranges below a∧b and the best c is a∧b itself; so
    the property is t(a)∧t(b) <= t(a∧b) for all a and b.  That holds
    exactly when distinct atoms have disjoint images.  If they do,
    t(a) ∩ t(b), the union of t({c}) ∩ t({d}) over arrows c of a and d of
    b, is the union over the arrows of a∧b, which is t(a∧b).  If t({c})
    meets t({d}) for c ≠ d, then {c}∧{d} = 0 and t(0) = 0.  The images are
    disjoint exactly when their sizes add up to the size of their union.
    """
    return sum(x.bit_count() for x in m.images) == reduce(or_, m.images, 0).bit_count()


# ---------------------------------------------------------------------------
# the quotient theorem

def theorem_quotients_check(S: FinInverseSemigroup, chi) -> int:
    """The quotient of the universal algebra by an invariant character set
    χ, a mask of character generators, is the algebra of the relation set
    carved out by the quotient composite.

    The universal algebra is that of the germ groupoid G over every
    character.  Its quotient by χ identifies two elements exactly when they
    agree on the arrows based in χ, and is the algebra of the reduction G|χ
    to those arrows, whose ranges are in χ too (Exel 2008, §4–5; Paterson
    1999, ch. 2).  For an invariant χ, ``germ_groupoid(S, units=χ)`` is that
    reduction: its germs at c are those of G, the same representatives
    sf_c, and each composite is the representative of the product in S, as
    in G.  So the class count, which this returns, is its
    :func:`bisection_count`.

    The quotient composite sends each idempotent to the characters of χ
    below it, and carves out the X_π of that representation, whose
    spectrum :func:`~xjoin.boolalg.x_pi_spectrum` gives in closed form as
    the nonzero g whose image is not the union of the images strictly
    below g.  That spectrum is χ, for any mask χ of nonzero elements: g in
    χ is the one character of its image missing from the images strictly
    below it, and for g outside χ each character c ≤ g of its image has
    c < g and lies in the image of c.  So the carved groupoid is G|χ
    itself, and the restriction ``kept``, sending each arrow based in χ to
    itself and every other arrow to 0, is the inclusion of G|χ.  So it is
    additive, since G|χ is closed under composition and inverses; weakly
    meet-preserving, since distinct atoms have disjoint images (see
    :func:`is_weakly_meet_preserving`); and a bijection from the arrows
    based in χ onto the carved arrows, so the classes are as many as the
    quotient's elements, and every χ this accepts passes.

    Refuses a χ that is not invariant under the action, and one that names
    an index with no character: the zero, or one past ``S.idems``.
    """
    stray = chi & ~characters(S.semilattice)
    if not character_set_invariant(S, chi & ~stray):
        raise LawViolation("character set is not invariant under the action")
    if stray:
        raise LawViolation(f"character at generator index {_bits(stray)[0]} is not a unit of the groupoid")
    return bisection_count(germ_groupoid(S, units=chi).groupoid)


# ---------------------------------------------------------------------------
# the universal morphism

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


def find_universal_morphism(S: FinInverseSemigroup, relations, target: BisAlgebra, phi) -> AdditiveMorphism:
    """Factor a join-respecting representation through the algebra of germs.

    The atom of a germ [s, c] goes to phi(s) times the idempotent that the
    extension of the idempotent representation gives the unit c.

    It is the only additive t with t∘θ = phi, at every size.  Such a t
    preserves products, inverses and idempotent differences (see
    :func:`_check_additive`), so it sends {1_c}, which
    :func:`generated_subsemigroup` builds from the domains of the θ(f) by
    products and differences, to the same expression in the domains of the
    phi(f): t({1_c}) is fixed by phi.  The germ [s, c] is the atom
    θ(s){1_c}, so t({[s, c]}) = phi(s)·t({1_c}).  The morphism built here
    factors phi, as checked below, so it is that t.
    """
    phi = tuple(phi)
    relations = frozenset(relations)
    rep = _validate_representation(S, target, phi, relations)
    psi_e = universal_extension(rep, invariant_closure(S, relations))
    uni = iota(S, relations)
    B = uni.algebra

    atom_pos = {label: i for i, label in enumerate(psi_e.source.atom_labels)}
    unit_singletons = [
        target.idem_element(psi_e.atom_images[atom_pos[rep.domain.label(c)]])
        for c in uni.germs.units
    ]
    images = [target.mul(phi[t], unit_singletons[u]) for t, u in zip(uni.germs.germs, B.groupoid.src)]
    morph = AdditiveMorphism.build(B, target, images)
    for s in range(S.n):
        if morph.apply(uni.images[s]) != phi[s]:
            raise LawViolation(f"morphism does not factor the map at {S.label(s)}")
    return morph


# ---------------------------------------------------------------------------
# JSON emission

def bis_to_json(B: BisAlgebra) -> Iterator[str]:
    """``_json_text({"elements": ..., "groupoid": ...})`` for the arrow lists
    of the elements, a chunk per size level; over ``BISECTION_BUDGET``,
    ``BudgetExceeded`` before any chunk.

    The writer walks the levels of :func:`_levels` carrying only each
    element's text and free mask.  The order is the same: level k + 1 lists,
    for each element of level k in order, its children by its free arrows
    ascending, which is what :func:`_children` gives for its free mask, and
    a child's free mask is the one ``_levels`` gives it (the ``_children``
    proof).  Nothing else in ``_levels`` reaches the text: its arrow mask is
    the text's arrow list, and its source and range masks fill ``srcm`` and
    ``rngm``, which the writer never reads."""
    _check_budget(B.groupoid)
    return _bis_chunks(B)


def _bis_chunks(B: BisAlgebra) -> Iterator[str]:
    """The children of a bisection are its free arrows, ascending, so an
    element's text less its closing bracket is its parent's plus one arrow."""
    G = B.groupoid
    children = _children(G, B._by_src, B._by_rng)
    items = [",\n      " + str(a) for a in range(G.n_arrows)]
    yield '{\n  "elements": [\n    []'
    level = [("[\n      " + str(a), child) for a, child in children[(1 << G.n_arrows) - 1]]
    while level:
        yield ",\n    " + "\n    ],\n    ".join([text for text, _ in level]) + "\n    ]"
        level = [(text + items[a], child) for text, free in level for a, child in children[free]]
    yield '\n  ],\n  "groupoid": '
    yield from _json_chunks(_groupoid_doc(G), "\n  ")
    yield "\n}"
