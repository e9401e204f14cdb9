"""Finite inverse semigroups with zero: validation, idempotents, natural order,
conjugation, invariant relation closure and the action on characters."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from operator import itemgetter

from .semilattice import (
    Character,
    FinMeetSemilattice,
    LawViolation,
    XRelation,
    builtin_relations,
    spectrum,
)


@dataclass(frozen=True)
class FinInverseSemigroup:
    """Multiplication table over indices 0..n-1; index 0 is the zero element.

    Element i of ``semilattice`` is the idempotent ``idems[i]`` of the
    semigroup, with the zero at position 0; ``idem_pos`` is the inverse map.
    Every element is a left-normed product of ``gens``.  All four are built
    once by :func:`validate` and take no part in equality.
    """

    mult: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    labels: tuple[str, ...]
    semilattice: FinMeetSemilattice = field(compare=False, repr=False)
    idems: tuple[int, ...] = field(compare=False, repr=False)
    idem_pos: dict[int, int] = field(compare=False, repr=False)
    gens: tuple[int, ...] = field(compare=False, repr=False)

    @property
    def n(self) -> int:
        return len(self.mult)

    def mul(self, a: int, b: int) -> int:
        return self.mult[a][b]

    def d(self, a: int) -> int:
        return self.mult[self.inv[a]][a]

    def r(self, a: int) -> int:
        return self.mult[a][self.inv[a]]

    def is_idempotent(self, a: int) -> bool:
        return self.mult[a][a] == a

    def label(self, a: int) -> str:
        return self.labels[a]

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise LawViolation(f"unknown element label {label!r}") from None


def validate(table, labels=None) -> FinInverseSemigroup:
    """Check the inverse-semigroup laws and build the structure.

    Reports the first violated law with witnesses: associativity, existence
    and uniqueness of generalized inverses, commuting idempotents, and the
    absorbing zero at index 0.
    """
    try:
        rows = tuple(tuple(map(int, row)) for row in table)
    except (TypeError, ValueError):
        raise LawViolation("'mult' must be a square table of element indices") from None
    n = len(rows)
    if n == 0:
        raise LawViolation("semigroup needs at least the zero element")
    if labels is None:
        labels = tuple("0" if i == 0 else f"s{i}" for i in range(n))
    labels = tuple(str(x) for x in labels)
    if len(labels) != n or len(set(labels)) != n:
        raise LawViolation("need one distinct label per element")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise LawViolation(f"row {labels[i]} has length {len(row)}, want {n}")
        for v in row:
            if not 0 <= v < n:
                raise LawViolation(f"entry {v} out of range in row {labels[i]}")
    gens = tuple(_generators(rows))
    _check_associative(rows, labels, gens)
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
            raise LawViolation(f"element 0 is not absorbing against {labels[a]}")
    idem_pos = {a: i for i, a in enumerate(idems)}
    E = FinMeetSemilattice.from_meet(
        [[idem_pos[rows[a][b]] for b in idems] for a in idems],
        [labels[a] for a in idems],
    )
    return FinInverseSemigroup(rows, tuple(inv), labels, E, idems, idem_pos, gens)


def _generators(rows) -> list[int]:
    """Elements whose left-normed products reach every element.

    Elements with the most distinct products are tried first; one not yet
    reached becomes a generator.  The reached set grows by right
    multiplication, so each (element, generator) product is formed once.
    """
    gens: list[int] = []
    reached: set[int] = set()
    for g in sorted(range(len(rows)), key=lambda a: -len(set(rows[a]))):
        if g in reached:
            continue
        gens.append(g)
        frontier = [rows[x][g] for x in reached] + [g]
        while frontier:
            x = frontier.pop()
            if x not in reached:
                reached.add(x)
                frontier.extend(rows[x][h] for h in gens)
    return gens


def _check_associative(rows, labels, gens) -> None:
    """Light's associativity test (Clifford and Preston, *The Algebraic
    Theory of Semigroups* I, 1.2).

    The elements a with (xa)y = x(ay) for all x, y are closed under the
    product, so the table is associative as soon as this holds for every a
    in a set ``gens`` whose left-normed products reach every element.  Row x
    of the check compares the row of xg with row x read through the row of g.
    """
    if len(rows) < 2:
        return
    for g in gens:
        through_g = itemgetter(*rows[g])
        for x, row in enumerate(rows):
            if rows[row[g]] != through_g(row):
                y = next(y for y in range(len(rows)) if rows[row[g]][y] != row[rows[g][y]])
                raise LawViolation(f"not associative at ({labels[x]},{labels[g]},{labels[y]})")


# ---------------------------------------------------------------------------
# partial-bijection generation

def _pmap_label(m: dict) -> str:
    if not m:
        return "0"
    return ",".join(f"{k}>{v}" for k, v in sorted(m.items()))


def from_partial_maps(points: int, maps) -> tuple[FinInverseSemigroup, tuple[dict, ...]]:
    """Close partial injections on {1..points} under composition and inversion.

    The empty map is adjoined as the zero.  Returns the semigroup and the
    partial map realizing each element, aligned with element indices.
    Elements are ordered by domain size, then by their sorted (point, image)
    pairs.
    """
    gens = []
    for m in maps:
        pm = {int(k): int(v) for k, v in m.items()}
        if len(set(pm.values())) != len(pm):
            raise LawViolation(f"generator {pm} is not injective")
        for k, v in pm.items():
            if not (1 <= k <= points and 1 <= v <= points):
                raise LawViolation(f"generator {pm} leaves 1..{points}")
        gens.append(pm)
    # A map is its image tuple over 0..points, with 0 for "undefined"; the
    # product f*g (f after g) is f read through g, itemgetter(*g)(f).  At
    # least two positions keep itemgetter's result a tuple.
    width = max(points, 1) + 1
    images = []
    for pm in gens:
        for h in (pm, {v: k for k, v in pm.items()}):
            images.append(tuple(h.get(x, 0) for x in range(width)))
    through = [itemgetter(*g) for g in images]
    seen = {(0,) * width, *images}
    frontier = list(seen)
    while frontier:
        f = frontier.pop()
        for get in through:
            h = get(f)
            if h not in seen:
                seen.add(h)
                frontier.append(h)
    pmaps = sorted(
        ({x: y for x, y in enumerate(f) if y} for f in seen),
        key=lambda m: (len(m), sorted(m.items())),
    )
    elems = [tuple(m.get(x, 0) for x in range(width)) for m in pmaps]
    idx = {f: i for i, f in enumerate(elems)}
    through = [itemgetter(*g) for g in elems]
    table = [[idx[get(f)] for get in through] for f in elems]
    labels = [_pmap_label(m) for m in pmaps]
    return validate(table, labels), tuple(pmaps)


# ---------------------------------------------------------------------------
# catalog

def i2() -> FinInverseSemigroup:
    """Symmetric inverse monoid on 2 points: 7 elements."""
    S, _ = from_partial_maps(2, [{1: 2, 2: 1}, {1: 1}])
    assert S.n == 7
    return S


def b2() -> FinInverseSemigroup:
    """Brandt semigroup with 5 elements, as partial bijections of 2 points."""
    S, _ = from_partial_maps(2, [{1: 2}])
    assert S.n == 5
    return S


def group_with_zero(table, labels=None) -> FinInverseSemigroup:
    """Adjoin a zero to a group multiplication table."""
    k = len(table)
    rows = [[0] * (k + 1)]
    for i in range(k):
        rows.append([0] + [table[i][j] + 1 for j in range(k)])
    if labels is not None:
        labels = ["0"] + list(labels)
    return validate(rows, labels)


def z2_with_zero() -> FinInverseSemigroup:
    return group_with_zero([[0, 1], [1, 0]], ["1", "g"])


def chain_semigroup(n: int) -> FinInverseSemigroup:
    """The chain 0 < e1 < ... < en as a commutative idempotent semigroup."""
    table = [[min(i, j) for j in range(n + 1)] for i in range(n + 1)]
    labels = ["0"] + [f"e{i}" for i in range(1, n + 1)]
    return validate(table, labels)


# ---------------------------------------------------------------------------
# order, compatibility, conjugation

def natural_leq(S: FinInverseSemigroup, a: int, b: int) -> bool:
    """a <= b: a equals b cut down to the domain of a."""
    return S.mul(b, S.d(a)) == a


def compatible(S: FinInverseSemigroup, a: int, b: int) -> bool:
    return S.is_idempotent(S.mul(S.inv[a], b)) and S.is_idempotent(S.mul(a, S.inv[b]))


def conjugate(S: FinInverseSemigroup, s: int, e: int) -> int:
    if not S.is_idempotent(e):
        raise LawViolation(f"element {S.label(e)} is not idempotent")
    return S.mul(S.mul(S.inv[s], e), s)


def semigroup_relations(S: FinInverseSemigroup, name: str) -> frozenset[XRelation]:
    """Builtin relation set over the idempotent semilattice of S."""
    return builtin_relations(S.semilattice, name)


# ---------------------------------------------------------------------------
# invariance and the action on characters

def invariant_closure(S: FinInverseSemigroup, relations) -> frozenset[XRelation]:
    """Smallest relation set containing the input and stable under conjugation.

    Conjugation composes, conj_st = conj_t o conj_s on idempotents, so closing
    under the conjugations by ``S.gens``, tabulated over idempotent
    positions, closes under every element's.
    """
    mult, inv, pos = S.mult, S.inv, S.idem_pos
    conj = [tuple(pos[mult[mult[inv[g]][e]][g]] for e in S.idems) for g in S.gens]
    seen = {(rel.e, rel.parts) for rel in relations}
    frontier = list(seen)
    while frontier:
        e, parts = frontier.pop()
        for c in conj:
            key = (c[e], frozenset(map(c.__getitem__, parts)))
            if key not in seen:
                seen.add(key)
                frontier.append(key)
    return frozenset(XRelation(*key) for key in seen)


def act(S: FinInverseSemigroup, s: int, c: Character) -> Character:
    """Translate a character along s; defined when the character hits d(s)."""
    g = S.idems[c.gen]
    if not natural_leq(S, g, S.d(s)):
        raise LawViolation(
            f"character at {S.label(g)} is outside the domain of {S.label(s)}"
        )
    moved = S.mul(S.mul(s, g), S.inv[s])
    return Character(S.idem_pos[moved])


def spectrum_invariant(S: FinInverseSemigroup, relations) -> bool:
    """The spectrum of the closed relation set is stable under the action."""
    return character_set_invariant(
        S, spectrum(S.semilattice, invariant_closure(S, relations))
    )


def character_set_invariant(S: FinInverseSemigroup, chars) -> bool:
    """Is an arbitrary character set stable under the action.

    The action composes, act(st, c) = act(s, act(t, c)) whenever c lies
    below d(st), so it is enough to act by each of ``S.gens``.
    """
    chars = frozenset(chars)
    for c in chars:
        g = S.idems[c.gen]
        for s in S.gens:
            if natural_leq(S, g, S.d(s)) and act(S, s, c) not in chars:
                return False
    return True


# ---------------------------------------------------------------------------
# JSON interface

def invsgp_to_json(S: FinInverseSemigroup) -> str:
    doc = {
        "elements": list(S.labels),
        "mult": [list(r) for r in S.mult],
        "zero": S.labels[0],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def invsgp_from_json(text: str) -> FinInverseSemigroup:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise LawViolation("semigroup JSON must be an object")
    if "partial_maps" in doc:
        points, maps = doc.get("points"), doc["partial_maps"]
        if type(points) is not int:
            raise LawViolation("generator JSON needs an integer 'points'")
        if not isinstance(maps, list) or not all(isinstance(m, dict) for m in maps):
            raise LawViolation("generator JSON needs 'partial_maps' as a list of objects")
        S, _ = from_partial_maps(points, maps)
        return S
    try:
        labels = list(doc["elements"])
        table = doc["mult"]
        zero = doc["zero"]
    except (KeyError, TypeError):
        raise LawViolation("semigroup JSON needs 'elements', 'mult' and 'zero'") from None
    if zero not in labels:
        raise LawViolation(f"declared zero {zero!r} is not an element")
    z = labels.index(zero)
    if z != 0:
        # move the declared zero to index 0
        order = [z] + [i for i in range(len(labels)) if i != z]
        back = {old: new for new, old in enumerate(order)}
        try:
            table = [[back[table[a][b]] for b in order] for a in order]
        except (IndexError, KeyError, TypeError):
            raise LawViolation("semigroup JSON 'mult' must be a square table of element indices") from None
        labels = [labels[i] for i in order]
    return validate(table, labels)
