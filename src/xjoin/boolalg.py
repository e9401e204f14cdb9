"""Finite Boolean algebras, semilattice representations and Booleanizations.

A finite Boolean algebra is the powerset of a canonical atom list, with
elements stored as bitmasks over the atoms.  The Booleanization of a
semilattice under a relation set X has the X-to-join spectrum as its atom
list.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import NamedTuple

from .semilattice import (
    BudgetExceeded,
    FinMeetSemilattice,
    LawViolation,
    XRelation,
    _bits,
    _json_text,
    _union_at,
    _unions,
    builtin_relations,
    spectrum,
    x_core,
    x_prime,
)

# subsets of candidate parts x_pi may walk; the tight P(4) Booleanization walks 66,674
X_PI_BUDGET = 250_000


class FinBooleanAlgebra(NamedTuple):
    """Powerset algebra over a list of named atoms; elements are bitmasks."""

    atom_labels: tuple[str, ...]

    @property
    def m(self) -> int:
        return len(self.atom_labels)

    @property
    def size(self) -> int:
        return 1 << self.m

    @property
    def top(self) -> int:
        return (1 << self.m) - 1

    def atoms(self) -> tuple[int, ...]:
        return tuple(1 << i for i in range(self.m))

    def label(self, mask: int) -> str:
        if mask == 0:
            return "0"
        return "{" + ",".join(map(self.atom_labels.__getitem__, _bits(mask))) + "}"


class SemilatticeRep(NamedTuple):
    """A representation of a semilattice in a Boolean algebra, as an image table."""

    domain: FinMeetSemilattice
    codomain: FinBooleanAlgebra
    images: tuple[int, ...]

    @classmethod
    def build(cls, domain, codomain, images) -> "SemilatticeRep":
        images = tuple(int(v) for v in images)
        if len(images) != domain.n:
            raise LawViolation(f"{domain.n} elements but {len(images)} images")
        for v in images:
            if not 0 <= v < codomain.size:
                raise LawViolation(f"image {v} outside the codomain")
        if images[0] != 0:
            raise LawViolation(f"bottom maps to {codomain.label(images[0])}, not 0")
        for x in range(domain.n):
            for y in range(domain.n):
                got = images[domain.meet(x, y)]
                want = images[x] & images[y]
                if got != want:
                    raise LawViolation(
                        f"meet not preserved at ({domain.label(x)},{domain.label(y)}): "
                        f"{codomain.label(got)} != {codomain.label(want)}"
                    )
        return cls(domain, codomain, images)


def is_proper(rep: SemilatticeRep) -> bool:
    """The images join to the top of the codomain."""
    return reduce(or_, rep.images, 0) == rep.codomain.top


def is_x_to_join(rep: SemilatticeRep, relations) -> bool:
    """Proper, and every join constraint holds in the codomain."""
    if not is_proper(rep):
        return False
    images = rep.images
    return all(images[rel.e] == _union_at(images, rel.parts) for rel in relations)


def is_tight(rep: SemilatticeRep) -> bool:
    """Satisfies X_tight, tested on ``builtin_relations(E, "tight")``."""
    return is_x_to_join(rep, builtin_relations(rep.domain, "tight"))


def is_prime(rep: SemilatticeRep) -> bool:
    return is_x_to_join(rep, x_prime(rep.domain))


def is_core(rep: SemilatticeRep) -> bool:
    return is_x_to_join(rep, x_core(rep.domain))


# ---------------------------------------------------------------------------
# structure tests on the domain, for the morphism characterizations

def has_all_joins(E: FinMeetSemilattice) -> bool:
    return all(E.join(x, y) is not None for x in range(E.n) for y in range(E.n))


def boolean_structure(E: FinMeetSemilattice) -> tuple[int, ...] | None:
    """Atom masks realizing E as a Boolean algebra, or None.

    Maps each element to the set of atoms below it, as a mask over element
    indices, and checks that this is an isomorphism onto the full powerset.
    """
    masks = tuple(b & E.atom_bits for b in E.below)
    if E.n != 1 << E.atom_bits.bit_count() or len(set(masks)) != E.n:
        return None
    for x in range(E.n):
        for y in range(E.n):
            if masks[E.meet(x, y)] != masks[x] & masks[y]:
                return None
    return masks


def is_lattice_morphism(rep: SemilatticeRep) -> bool:
    """Proper and join-preserving; the domain must be a lattice."""
    E = rep.domain
    if not has_all_joins(E):
        raise LawViolation("domain does not admit binary joins")
    if not is_proper(rep):
        return False
    for x in range(E.n):
        for y in range(E.n):
            j = E.join(x, y)
            if rep.images[j] != rep.images[x] | rep.images[y]:
                return False
    return True


def is_ba_morphism(rep: SemilatticeRep) -> bool:
    """Proper and preserving 0, meet, join and difference; domain must be Boolean."""
    E = rep.domain
    masks = boolean_structure(E)
    if masks is None:
        raise LawViolation("domain is not a Boolean algebra")
    if not is_proper(rep):
        return False
    by_mask = {m: x for x, m in enumerate(masks)}
    for x in range(E.n):
        for y in range(E.n):
            jn = by_mask[masks[x] | masks[y]]
            df = by_mask[masks[x] & ~masks[y]]
            if rep.images[jn] != rep.images[x] | rep.images[y]:
                return False
            if rep.images[df] != rep.images[x] & ~rep.images[y]:
                return False
    return True


# ---------------------------------------------------------------------------
# Booleanization

def spectrum_atoms(E: FinMeetSemilattice, relations) -> tuple[int, ...]:
    """The spectrum's generators, ascending: the atom list of the Booleanization."""
    return tuple(_bits(spectrum(E, relations)))


def character_rep(E: FinMeetSemilattice, gens) -> SemilatticeRep:
    """E represented in the powerset of a list of distinct nonzero character
    generators: a goes to the set of characters whose generator lies below a.

    Built, not checked: the characters below x ∧ y are those below x and
    below y, so meets go to intersections, and no nonzero generator lies
    below the bottom, so it goes to 0.
    """
    gens = tuple(gens)
    B = FinBooleanAlgebra(tuple(E.label(g) for g in gens))
    images = tuple(sum(1 << i for i, g in enumerate(gens) if b >> g & 1) for b in E.below)
    return SemilatticeRep(E, B, images)


def booleanization(E: FinMeetSemilattice, relations) -> tuple[FinBooleanAlgebra, SemilatticeRep]:
    """Powerset algebra over the spectrum, with the canonical representation.

    The representation sends a to the set of spectrum characters whose
    generator lies below a.  It is X-to-join for the relations, which is not
    re-checked.  It is proper, as each spectrum generator g lies in the
    image of g.  A character g of the spectrum satisfies each relation
    (e, parts): g lies below e exactly when it lies below some part (see
    :func:`~xjoin.semilattice.spectrum`).  So the image of e, the spectrum
    generators below e, is the union of the part images.
    """
    rep = character_rep(E, spectrum_atoms(E, relations))
    return rep.codomain, rep


def basic_set(E: FinMeetSemilattice, relations, a: int, excl=()) -> int:
    """Atom set of spectrum characters below a and below no excluded element."""
    excl = tuple(excl)
    for b in excl:
        if not E.leq(b, a):
            raise LawViolation(f"excluded element {E.label(b)} is not below {E.label(a)}")
    images = character_rep(E, spectrum_atoms(E, relations)).images
    mask = images[a]
    for b in excl:
        mask &= ~images[b]
    return mask


# ---------------------------------------------------------------------------
# morphisms of Boolean algebras and the universal extension

class BAMorphism(NamedTuple):
    """A Boolean-algebra morphism given by its atom images (pairwise disjoint)."""

    source: FinBooleanAlgebra
    target: FinBooleanAlgebra
    atom_images: tuple[int, ...]

    @classmethod
    def build(cls, source, target, atom_images) -> "BAMorphism":
        atom_images = tuple(int(v) for v in atom_images)
        if len(atom_images) != source.m:
            raise LawViolation(f"{source.m} atoms but {len(atom_images)} images")
        for i in range(len(atom_images)):
            for j in range(i + 1, len(atom_images)):
                if atom_images[i] & atom_images[j]:
                    raise LawViolation(
                        f"atom images of {source.atom_labels[i]} and "
                        f"{source.atom_labels[j]} are not disjoint"
                    )
        return cls(source, target, atom_images)

    def apply(self, mask: int) -> int:
        return _union_at(self.atom_images, mask)

    def is_bijective(self) -> bool:
        return sorted(self.atom_images) == sorted(self.target.atoms())


def universal_extension(rep: SemilatticeRep, relations) -> BAMorphism:
    """The morphism out of the Booleanization through which the representation factors.

    The image of the spectrum atom at generator g is
    rep(g) minus the join of rep over the maximal nonzero elements strictly
    below g.  It is the only morphism that factors rep, at every size; see
    :func:`_extension`.
    """
    if not is_x_to_join(rep, relations):
        raise LawViolation("representation does not satisfy the join constraints")
    return _extension(rep, spectrum_atoms(rep.domain, relations))


def _extension(rep: SemilatticeRep, atoms) -> BAMorphism:
    """:func:`universal_extension` from the generators, ascending, of the
    spectrum of relations rep satisfies.

    Uniqueness.  With ι the canonical representation, the atom {g} of the
    Booleanization, the character at generator g, is ι(g) minus the union
    of ι(h) over h < g: the characters whose generator lies below g but
    below no h < g are those at g itself.  A morphism given by pairwise
    disjoint atom images preserves unions and differences, so any ψ′ with
    ψ′∘ι = rep sends {g} to rep(g) minus the union of rep(h) over h < g.
    rep preserves order, so that union is the one over the maximal nonzero
    h, which is the formula below: ψ′ is the morphism built here.

    It is a morphism and factors rep, so it is built unchecked.  Write
    ψ(g) for the image of the atom at g.
    - Disjoint: for generators g != g′ with m = g ∧ g′, rep(g) ∩ rep(g′) =
      rep(m).  That is rep(0) = 0 when m = 0; otherwise m lies strictly
      below one of them, say g′, and ψ(g′) leaves out rep(m).
    - Factors rep: ψ(ι(a)) is the union of ψ(g) over the generators g <= a,
      inside rep(a) as ψ(g) ⊆ rep(g).  Conversely, a point p of rep(a)
      gives the character x ↦ [p ∈ rep(x)], nonzero, and meet-preserving
      as rep is.  It satisfies the relations, as rep does, so its
      generator g_p, the least x with p in rep(x), lies in the spectrum,
      below a.  No nonzero h < g_p has p in rep(h), so p lies in ψ(g_p).
    """
    E = rep.domain
    images = []
    for g in atoms:
        strict = E.below[g] & ~(1 << g | 1)
        img = rep.images[g]
        for h in _bits(strict):
            if E.above[h] & strict == 1 << h:  # h is maximal below g
                img &= ~rep.images[h]
        images.append(img)
    return BAMorphism(FinBooleanAlgebra(tuple(map(E.label, atoms))), rep.codomain, tuple(images))


# ---------------------------------------------------------------------------
# relations carved out by a representation

def x_pi(rep: SemilatticeRep) -> frozenset[XRelation]:
    """All join constraints the representation itself satisfies.

    Emits every (e, parts) with the image of e equal to the join of the part
    images.  A part whose image leaves the image of e puts the join outside
    it, so only subsets of the candidates below e's image are walked: their
    joins and part masks are built by doubling, one list entry per subset.
    Their number is forecast first, and ``BudgetExceeded`` raised when it is
    over ``X_PI_BUDGET``.
    """
    E, images = rep.domain, rep.images
    cand_lists = [[p for p in range(E.n) if not images[p] & ~t] for t in images]
    walk = sum(1 << len(c) for c in cand_lists)
    if walk > X_PI_BUDGET:
        raise BudgetExceeded(
            f"x_pi would walk {walk:,} subsets of candidate parts, "
            f"over the budget of {X_PI_BUDGET:,}"
        )
    out = []
    for e, cands in enumerate(cand_lists):
        joins = _unions([images[p] for p in cands])
        masks = _unions([1 << p for p in cands])
        target = images[e]
        out.extend(XRelation(e, m) for j, m in zip(joins, masks) if j == target)
    return frozenset(out)


def x_pi_spectrum(rep: SemilatticeRep) -> int:
    """``spectrum(E, x_pi(rep))`` in closed form: the nonzero g whose image
    is not the union of the images strictly below it.

    The character at g fails (e, S) in X_pi when g <= e and no part of S is
    above g, or when g is not below e but below a part p.  In the second
    case q = e meet p has rep(q) = rep(e) & rep(p) = rep(p), so (p, {q})
    is in X_pi and fails at g the first way.  In the first way, meeting
    each part with g gives parts strictly below g whose images join to
    rep(g) & rep(e) = rep(g): (g, those parts) is in X_pi and fails at g.
    Conversely, if the images strictly below g join to rep(g), those
    elements form such a relation.  So n unions replace the listing.
    """
    E, images = rep.domain, rep.images
    return sum(
        1 << g for g in range(1, E.n) if _union_at(images, E.below[g] & ~(1 << g)) != images[g]
    )


def generates(B: FinBooleanAlgebra, seeds) -> bool:
    """Whether the seed masks generate B under join, meet and difference.

    Call the set of seeds containing an atom its pattern.  The generated
    algebra is the unions of classes, each the atoms of one nonempty
    pattern: a class is the meet of its seeds minus the other seeds, and
    the unions are closed under the three operations.  So it is B exactly
    when the seeds' union is the top and some seed splits every pair of
    atoms: the m patterns, of n bits each, are nonempty and distinct.
    """
    seeds = tuple(seeds)
    patterns = {sum((x >> a & 1) << k for k, x in enumerate(seeds)) for a in range(B.m)}
    return len(patterns) == B.m and 0 not in patterns


def theorem_isom_check(rep: SemilatticeRep) -> bool:
    """A generating representation identifies its codomain with its own Booleanization."""
    if not generates(rep.codomain, rep.images):
        raise LawViolation("image of the representation does not generate the codomain")
    # generating implies proper, and rep satisfies X_pi by definition
    return _extension(rep, _bits(x_pi_spectrum(rep))).is_bijective()


# ---------------------------------------------------------------------------
# JSON interface

def rep_to_json(rep: SemilatticeRep) -> str:
    doc = {
        "atoms": list(rep.codomain.atom_labels),
        "map": {
            rep.domain.label(x): sorted(
                rep.codomain.atom_labels[i]
                for i in range(rep.codomain.m)
                if rep.images[x] >> i & 1
            )
            for x in range(rep.domain.n)
        },
    }
    return _json_text(doc)

