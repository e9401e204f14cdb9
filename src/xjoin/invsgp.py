"""Finite inverse semigroups with zero: validation, idempotents, natural order,
conjugation, invariant relation closure and the action on characters."""

from __future__ import annotations

import json
from collections.abc import Iterator
from operator import itemgetter
from typing import NamedTuple

from .semilattice import (
    BudgetExceeded,
    FinMeetSemilattice,
    LawViolation,
    XRelation,
    _associativity_witness,
    _at_least,
    _bits,
    _compare_first,
    _generators,
    _index_table,
    _json_chunks,
    builtin_relations,
    spectrum,
)

# multiplication-table entries from_partial_maps may build; I5 has 2,390,116, I6 177,608,929
TABLE_BUDGET = 10_000_000


class FinInverseSemigroup(NamedTuple):
    """Multiplication table over indices 0..n-1; index 0 is the zero element.

    Element i of ``semilattice`` is the idempotent ``idems[i]`` of the
    semigroup, with the zero at position 0; ``idem_pos`` is the inverse map.
    Every element is a left-normed product of ``gens``.  All four are built
    once, by :func:`validate` or :func:`from_partial_maps`, and take no part
    in equality.
    """

    mult: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    labels: tuple[str, ...]
    semilattice: FinMeetSemilattice
    idems: tuple[int, ...]
    idem_pos: dict[int, int]
    gens: tuple[int, ...]

    __eq__, __ne__, __hash__ = _compare_first(3)

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
    absorbing zero at index 0.  Each check reads whole rows or runs over a
    generating set; only a failed check walks entries, to name its witness.
    """
    return _laws(*_index_table(table, labels, "mult", "s"))


def _laws(rows, labels, distinct) -> FinInverseSemigroup:
    """:func:`validate` on a table read by ``_index_table``."""
    n = len(rows)
    if n == 0:
        raise LawViolation("semigroup needs at least the zero element")
    gens, tree = _generators(rows, distinct)
    if bad := _associativity_witness(rows, gens):
        raise LawViolation("not associative at ({},{},{})".format(*(labels[a] for a in bad)))
    inv = _tree_inverses(rows, tree)
    idems = tuple(a for a in range(n) if rows[a][a] == a)
    if inv is None or not _idempotents_commute(rows, idems):
        _inverse_witness(rows, labels, idems)
    if rows[0].count(0) != n or any(row[0] for row in rows):
        a = next(a for a in range(n) if rows[0][a] != 0 or rows[a][0] != 0)
        raise LawViolation(f"element {labels[0]} is not absorbing against {labels[a]}")
    return _build(rows, inv, labels, idems, tuple(gens))


def _build(rows, inv, labels, idems, gens) -> FinInverseSemigroup:
    """The structure over a table whose laws hold, with its idempotent
    semilattice read off the rows of the idempotents, unchecked: the
    idempotents of an inverse semigroup commute (Howie, *Fundamentals of
    Semigroup Theory*, 5.1.1; Lawson, *Inverse Semigroups*, 1998, ch. 1), so
    efef = eeff = ef and the product is an associative, commutative and
    idempotent operation on them, a meet.  The zero comes first in ``idems``
    and absorbs, so it is the bottom at position 0."""
    idem_pos = {a: i for i, a in enumerate(idems)}
    E = FinMeetSemilattice.unchecked(
        tuple(tuple(idem_pos[rows[a][b]] for b in idems) for a in idems),
        tuple(labels[a] for a in idems),
    )
    return FinInverseSemigroup(rows, inv, labels, E, idems, idem_pos, gens)


def _tree_inverses(rows, tree) -> tuple[int, ...] | None:
    """Inverses along the generating tree, or None when a generator has not
    exactly one generalized inverse.

    A generator's inverse is found by scan; then (pg)⁻¹ = g⁻¹p⁻¹ down the
    tree.  In an associative table whose idempotents commute this is an
    inverse of pg: with e = gg⁻¹ and f = p⁻¹p idempotent,
    pg·g⁻¹p⁻¹·pg = p(ef)g = p(fe)g = pg, and symmetrically.  So the table
    is regular with commuting idempotents, an inverse semigroup (Howie,
    *Fundamentals of Semigroup Theory*, 5.1.1), and these are its unique
    inverses; :func:`validate` checks that the idempotents commute.
    """
    n = len(rows)
    inv = [-1] * n
    for x, p, g in tree:
        if p >= 0:
            inv[x] = rows[inv[g]][inv[p]]
            continue
        row_g = rows[g]
        cands = [y for y in range(n) if rows[row_g[y]][g] == g and rows[rows[y][g]][y] == y]
        if len(cands) != 1:
            return None
        inv[x] = cands[0]
    return tuple(inv)


def _idempotents_commute(rows, idems) -> bool:
    """The table restricted to the idempotents is symmetric."""
    if len(idems) < 2:
        return True
    pick = itemgetter(*idems)
    block = [pick(rows[e]) for e in idems]
    return block == list(zip(*block))


def _inverse_witness(rows, labels, idems) -> None:
    """Name the first element without exactly one generalized inverse, by
    scanning every candidate, or else the first idempotents that do not
    commute.  Runs only once the row checks have failed; in an associative
    table one of the two then fails."""
    n = len(rows)
    for a in range(n):
        cands = [x for x in range(n) if rows[rows[a][x]][a] == a and rows[rows[x][a]][x] == x]
        if len(cands) != 1:
            raise LawViolation(
                f"element {labels[a]} has {len(cands)} generalized inverses, want exactly 1"
            )
    for e in idems:
        for f in idems:
            if rows[e][f] != rows[f][e]:
                raise LawViolation(f"idempotents {labels[e]} and {labels[f]} do not commute")


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
    pairs.  Raises ``BudgetExceeded`` once the closure is found, before any
    table is built, when the table would have more than ``TABLE_BUDGET``
    entries.

    The laws of a closure of partial injections hold by construction
    (Wagner–Preston; Lawson, *Inverse Semigroups*, 1998, ch. 1), so the
    structure is built here, not passed to :func:`validate`.
    - Associativity: the product is composition of maps.
    - Inverses: the images hold each generator's inverse, so the inverse map
      (g1...gk)⁻¹ = gk⁻¹...g1⁻¹ of an element is an element.  It is the only
      generalized inverse g: fgf = f makes g send f(x) to x, and gfg = g
      makes fg(y) = y for each y in the domain of g, as g is injective.
    - Idempotents: ff = f with f injective gives f(x) = x, so they are the
      partial identities, and 1_A1_B = 1_{A∩B} = 1_B1_A.
    - Zero: the empty map absorbs every map and sorts first, to index 0.
    - ``gens``: the closure multiplies by the images on the right, so every
      element but the zero root is a left-normed product of them.  The
      first such product to reach the zero is an image, or a nonzero
      product times one, which the scan of the images' columns finds;
      otherwise the zero is added.
    """
    _at_least("points", points, 0)
    pms = []
    for m in maps:
        pm = {}
        for k, v in m.items():
            try:
                point, image = _point(k), _point(v)
            except ValueError:
                raise LawViolation("'partial_maps' must map points to points") from None
            if point in pm:
                raise LawViolation(f"a generator names the point {point} twice")
            pm[point] = image
        if len(set(pm.values())) != len(pm):
            raise LawViolation(f"generator {pm} is not injective")
        for k, v in pm.items():
            if not (1 <= k <= points and 1 <= v <= points):
                raise LawViolation(f"generator {pm} leaves 1..{points}")
        pms.append(pm)
    # A map is its image tuple over 0..m, m the largest point a generator
    # names (every element is undefined above it), with 0 for "undefined";
    # the product f*g (f after g) is f read through g, itemgetter(*g)(f).
    # At least two positions keep itemgetter's result a tuple.
    width = max([1, *(p for pm in pms for p in (*pm, *pm.values()))]) + 1
    images = []
    for pm in pms:
        for h in (pm, _inverse(pm)):
            images.append(tuple(h.get(x, 0) for x in range(width)))
    through = [itemgetter(*g) for g in images]
    # parent[h] is (f, k) with h = f*images[k]; the zero and the generators are roots
    parent: dict[tuple, tuple | None] = dict.fromkeys(((0,) * width, *images))
    frontier = list(parent)
    while frontier:
        f = frontier.pop()
        for k, get in enumerate(through):
            h = get(f)
            if h not in parent:
                parent[h] = (f, k)
                frontier.append(h)
    n = len(parent)
    if n * n > TABLE_BUDGET:
        raise BudgetExceeded(
            f"the partial maps on {points} points generate {n:,} elements, whose table "
            f"of {n * n:,} entries is over the budget of {TABLE_BUDGET:,}"
        )
    pmaps = sorted(
        ({x: y for x, y in enumerate(f) if y} for f in parent),
        key=lambda m: (len(m), sorted(m.items())),
    )
    elems = [tuple(m.get(x, 0) for x in range(width)) for m in pmaps]
    idx = {f: i for i, f in enumerate(elems)}
    # Rows along the closure tree (Froidure and Pin, "Algorithms for
    # computing finite semigroups", 1997): the roots' rows by lookup, and
    # row(f*g) = row(f) read through row(g), since (f*g)*y = f*(g*y).
    table: list = [None] * n
    reads = {}
    right = [itemgetter(*e) for e in elems]
    for f, link in parent.items():
        if link is None:
            table[idx[f]] = tuple([idx[get(f)] for get in right])
            continue
        p, k = link
        read = reads.get(k)
        if read is None:
            read = reads[k] = itemgetter(*table[idx[images[k]]])
        table[idx[f]] = read(table[idx[p]])
    inv = tuple(idx[tuple(m.get(x, 0) for x in range(width))] for m in map(_inverse, pmaps))
    idems = tuple(i for i, m in enumerate(pmaps) if all(k == v for k, v in m.items()))
    gens = tuple(dict.fromkeys(idx[g] for g in images))
    if 0 not in gens and not any(table[x][g] == 0 for x in range(1, n) for g in gens):
        gens += (0,)
    labels = tuple(_pmap_label(m) for m in pmaps)
    return _build(tuple(table), inv, labels, idems, gens), tuple(pmaps)


def _point(x) -> int:
    """A point given as an int that is not a bool, or as a string of decimal
    digits; anything else raises ``ValueError``."""
    if type(x) is int or type(x) is str and x.isascii() and x.isdecimal():
        return int(x)
    raise ValueError(f"not a point: {x!r}")


def _inverse(m: dict) -> dict:
    return {v: k for k, v in m.items()}


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
        ps = _bits(parts)
        for c in conj:
            # a set of bits: conjugation may send two parts to one
            key = (c[e], sum({1 << c[p] for p in ps}))
            if key not in seen:
                seen.add(key)
                frontier.append(key)
    return frozenset(XRelation(*key) for key in seen)


def act(S: FinInverseSemigroup, s: int, c: int) -> int:
    """Translate the character at generator c along s; defined when the
    character hits d(s).  Returns the generator of the moved character."""
    g = S.idems[c]
    if not natural_leq(S, g, S.d(s)):
        raise LawViolation(
            f"character at {S.label(g)} is outside the domain of {S.label(s)}"
        )
    return S.idem_pos[S.mul(S.mul(s, g), S.inv[s])]


def spectrum_invariant(S: FinInverseSemigroup, relations) -> bool:
    """The spectrum of the closed relation set is stable under the action."""
    return character_set_invariant(
        S, spectrum(S.semilattice, invariant_closure(S, relations))
    )


def character_set_invariant(S: FinInverseSemigroup, chars: int) -> bool:
    """Is an arbitrary character set, a mask of generators, stable under the
    action.

    The action composes, act(st, c) = act(s, act(t, c)) whenever c lies
    below d(st), so it is enough to act by each of ``S.gens``.
    """
    for c in _bits(chars):
        g = S.idems[c]
        for s in S.gens:
            if natural_leq(S, g, S.d(s)) and not chars >> act(S, s, c) & 1:
                return False
    return True


# ---------------------------------------------------------------------------
# JSON interface

def invsgp_to_json(S: FinInverseSemigroup) -> Iterator[str]:
    """The JSON text of S in chunks, a row of the multiplication table each."""
    return _json_chunks({"elements": list(S.labels), "mult": iter(S.mult), "zero": S.labels[0]}, "\n")


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
        labels, table, zero = doc["elements"], doc["mult"], doc["zero"]
    except KeyError:
        raise LawViolation("semigroup JSON needs 'elements', 'mult' and 'zero'") from None
    if not isinstance(labels, list):
        raise LawViolation("'elements' must be a list of labels")
    if zero not in labels:
        raise LawViolation(f"declared zero {zero!r} is not an element")
    z = labels.index(zero)
    rows, labels, distinct = _index_table(table, labels, "mult", "s")
    if z:
        # move the zero to index 0: new row a is old row order[a] read in
        # that order, its entries renamed by back, the inverse of order
        n = len(rows)
        move = itemgetter(z, *range(z), *range(z + 1, n))  # n >= 2: it returns tuples
        back = [*range(1, z + 1), 0, *range(z + 1, n)]
        rows = tuple(itemgetter(*move(row))(back) for row in move(rows))
        labels, distinct = move(labels), move(distinct)
    return _laws(rows, labels, distinct)
