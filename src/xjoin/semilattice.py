"""Finite meet-semilattices with bottom: order, covers, characters and spectra.

A semilattice is stored as an explicit n-by-n meet table over element
indices, with index 0 reserved for the bottom element.  Every set of
elements is an int mask over element indices, bit i standing for element i:
the order masks ``below[x]`` (the y <= x), ``above[x]`` (the y >= x) and
``atom_bits`` that ``unchecked`` builds once, covers, and the parts of a
relation.  Downsets, atoms, joins, covers and spectra are bit operations on
them.  Covers use the atom criterion (Exel, "Inverse semigroups and
combinatorial C*-algebras", 2008): y ^ z != 0 exactly when some atom lies
below both.  In the finite case a character is fixed by its principal-filter
generator, so a character is that element index and a spectrum is a mask of
nonzero element indices.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from functools import reduce
from json.encoder import encode_basestring_ascii as _json_str
from operator import and_, itemgetter
from typing import NamedTuple


class LawViolation(ValueError):
    """A finite structure failed one of its defining laws."""


class BudgetExceeded(LawViolation):
    """An exponential stage forecast, or counted as it went, more work than
    its budget allows, and refused."""


def _bits(mask: int) -> list[int]:
    """Set bit positions of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _mask_key(mask: int) -> tuple[int, list[int]]:
    """Orders masks by size, then by ascending element list."""
    return mask.bit_count(), _bits(mask)


def _unions(parts: list[int]) -> list[int]:
    """Entry m is the union of parts[u] over the set bits u of m."""
    out = [0]
    for p in parts:
        out += [x | p for x in out]
    return out


def _union_at(parts, mask: int) -> int:
    """The union of parts[u] over the set bits u of mask: one entry of
    ``_unions(parts)``, without building the others."""
    out = 0
    while mask:
        low = mask & -mask
        out |= parts[low.bit_length() - 1]
        mask ^= low
    return out


class _Memo(dict):
    """A value per key, computed by ``fill`` on a miss."""

    def __init__(self, fill):
        self.fill = fill

    def __missing__(self, key):
        self[key] = out = self.fill(key)
        return out


def _json_text(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``, byte for byte."""
    return "".join(_json_chunks(doc, "\n"))


def _json_chunks(o, nl: str) -> Iterator[str]:
    """``_json_value(o, nl)`` in chunks, one per dict value and per item of
    an iterator other than a list or tuple, so a document is written as made."""
    inner = nl + "  "
    if isinstance(o, dict) and o:
        sep = "{" + inner
        for k, v in sorted(o.items()):
            yield sep + _json_key(k) + ": "
            yield from _json_chunks(v, inner)
            sep = "," + inner
        yield nl + "}"
    elif isinstance(o, Iterator):
        sep = "[" + inner
        for v in o:
            yield sep
            yield from _json_chunks(v, inner)
            sep = "," + inner
        yield "[]" if sep[0] == "[" else nl + "]"
    else:
        yield _json_value(o, nl)


def _json_value(o, nl: str) -> str:
    """The text of o in one piece.

    With an indent the standard library encodes in pure Python, one call per
    value.  Here a plain int is its repr and a list of them one ``str.join``
    of their reprs; strings get the same C quoting, a list of plain strings
    in one ``map``, and other scalars go to ``json.dumps``.
    """
    if type(o) is int:
        return int.__repr__(o)
    if isinstance(o, str):
        return _json_str(o)
    inner = nl + "  "
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        kinds = set(map(type, o))
        if kinds == {int}:
            items = map(int.__repr__, o)
        elif kinds == {str}:
            items = map(_json_str, o)
        else:
            items = [_json_value(v, inner) for v in o]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = [_json_key(k) + ": " + _json_value(v, inner) for k, v in sorted(o.items())]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if isinstance(o, Iterator):
        return "".join(_json_chunks(o, nl))
    return json.dumps(o)


def _json_key(k) -> str:
    if isinstance(k, str):
        return _json_str(k)
    if k is None or isinstance(k, (int, float)):
        return _json_str(json.dumps(k))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _compare_first(k: int):
    """``__eq__``, ``__ne__`` and ``__hash__`` that read only the first k fields
    of a record, the later ones being derived: tuple's own, ``__ne__`` too, read all."""
    def eq(self, other):
        return self[:k] == other[:k] if type(other) is type(self) else NotImplemented
    def ne(self, other):
        return self[:k] != other[:k] if type(other) is type(self) else NotImplemented
    return eq, ne, lambda self: hash(self[:k])


def _at_least(name: str, value: int, least: int) -> None:
    if value < least:
        raise LawViolation(f"{name} must be at least {least}, got {value}")


def _index_table(table, labels, key: str, stem: str):
    """The rows of a square table of element indices read from ``key``, as
    int tuples, with the labels as strings ("0", stem + "1", ... when none
    are given) and the number of distinct entries in each row.

    Raises ``LawViolation`` naming ``key``, and the row where there is one,
    at the first of: an entry that is not an int (a bool is not), a row
    count other than the label count, a repeated label, a row of another
    length, an entry out of range.
    """
    try:
        rows = tuple(map(tuple, table))
    except TypeError:
        rows = None
    if rows is None or not all(set(map(type, row)) <= {int} for row in rows):
        raise LawViolation(f"'{key}' must be a square table of element indices")
    n = len(rows)
    labels = _labels(labels, n, f"'{key}' rows", stem)
    distinct = []
    for label, row in zip(labels, rows):
        if len(row) != n:
            raise LawViolation(f"'{key}' row {label} has length {len(row)}, want {n}")
        values = set(row)
        if min(values) < 0 or max(values) >= n:
            v = next(v for v in row if not 0 <= v < n)
            raise LawViolation(f"'{key}' entry {v} out of range in row {label}")
        distinct.append(len(values))
    return rows, labels, distinct


def _generators(rows, distinct) -> tuple[list[int], list[tuple[int, int, int]]]:
    """Elements whose left-normed products reach every element, and the
    tree of those products.

    Elements with the most distinct products (``distinct[a]`` for a) are
    tried first, ties in index order; one not yet reached becomes a
    generator.  The reached set grows by right multiplication, so each
    (element, generator) product is formed once.  The tree lists every
    element once, as (x, p, g) with x = pg and p listed before x, or as
    (g, -1, g) for a generator g.
    """
    gens: list[int] = []
    tree: list[tuple[int, int, int]] = []
    reached: set[int] = set()
    for g in sorted(range(len(rows)), key=distinct.__getitem__, reverse=True):
        if g in reached:
            continue
        gens.append(g)
        frontier = [(rows[x][g], x, g) for x in reached] + [(g, -1, g)]
        while frontier:
            link = frontier.pop()
            x = link[0]
            if x not in reached:
                reached.add(x)
                tree.append(link)
                frontier.extend((rows[x][h], x, h) for h in gens)
    return gens, tree


def _associativity_witness(rows, gens) -> tuple[int, int, int] | None:
    """Light's associativity test (Clifford and Preston, *The Algebraic
    Theory of Semigroups* I, 1.2): a triple (x, g, y) with (xg)y != x(gy),
    or None when the table is associative.

    The elements a with (xa)y = x(ay) for all x, y are closed under the
    product, so the table is associative as soon as this holds for every a
    in a set ``gens`` whose left-normed products reach every element.  Row x
    of the check compares the row of xg with row x read through the row of g.
    A two-sided identity g passes unchecked: (xg)y = xy = x(gy).  So does
    the one-element table, whose row read through one index is no row.
    """
    identity = tuple(range(len(rows)))
    for g in gens:
        if rows[g] == identity and all(row[g] == x for x, row in enumerate(rows)):
            continue
        through_g = itemgetter(*rows[g])
        for x, row in enumerate(rows):
            if rows[row[g]] != through_g(row):
                return x, g, next(y for y in range(len(rows)) if rows[row[g]][y] != row[rows[g][y]])
    return None


class FinMeetSemilattice(NamedTuple):
    """Meet table over indices 0..n-1; index 0 is the bottom element.
    The order masks are built by :meth:`unchecked` and not compared."""

    meet_table: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]
    below: tuple[int, ...]
    above: tuple[int, ...]
    atom_bits: int

    __eq__, __ne__, __hash__ = _compare_first(2)

    @classmethod
    def from_meet(cls, table, labels=None) -> "FinMeetSemilattice":
        """Validate a meet table and build the semilattice.

        Raises :class:`LawViolation` naming the first violated law together
        with a witness; associativity is Light's test over a generating set.
        """
        rows, labels, distinct = _index_table(table, labels, "meet", "x")
        n = len(rows)
        if n == 0:
            raise LawViolation("semilattice needs at least the bottom element")
        for x in range(n):
            if rows[x][x] != x:
                raise LawViolation(f"meet not idempotent: {labels[x]}^{labels[x]} = {labels[rows[x][x]]}")
        if rows != tuple(zip(*rows)):
            x, y = next((x, y) for x in range(n) for y in range(x + 1, n) if rows[x][y] != rows[y][x])
            raise LawViolation(
                f"meet not commutative at ({labels[x]},{labels[y]}): "
                f"{labels[rows[x][y]]} != {labels[rows[y][x]]}"
            )
        if bad := _associativity_witness(rows, _generators(rows, distinct)[0]):
            x, y, z = bad
            raise LawViolation(
                f"meet not associative at ({labels[x]},{labels[y]},{labels[z]}): "
                f"{labels[rows[rows[x][y]][z]]} != {labels[rows[x][rows[y][z]]]}"
            )
        for x in range(n):
            if rows[0][x] != 0:
                bot = labels[0]
                raise LawViolation(f"element {bot} is not the bottom: {bot}^{labels[x]} = {labels[rows[0][x]]}")
        return cls.unchecked(rows, labels)

    @classmethod
    def unchecked(cls, rows, labels) -> "FinMeetSemilattice":
        """The semilattice over a meet table of int tuples whose laws hold,
        bottom at 0, and a tuple of distinct labels: nothing is checked."""
        below = tuple(sum(1 << y for y, m in enumerate(row) if m == y) for row in rows)
        above = tuple(sum(1 << y for y, m in enumerate(row) if m == x) for x, row in enumerate(rows))
        atom_bits = sum(1 << x for x in range(1, len(rows)) if below[x] == 1 | 1 << x)
        return cls(rows, labels, below, above, atom_bits)

    @property
    def n(self) -> int:
        return len(self.meet_table)

    def meet(self, x: int, y: int) -> int:
        return self.meet_table[x][y]

    def leq(self, x: int, y: int) -> bool:
        """x <= y in the natural order, i.e. x ^ y = x."""
        return self.meet_table[x][y] == x

    def down(self, x: int) -> tuple[int, ...]:
        return tuple(_bits(self.below[x]))

    def atoms(self) -> tuple[int, ...]:
        """Minimal nonzero elements."""
        return tuple(_bits(self.atom_bits))

    def join(self, x: int, y: int) -> int | None:
        """Least upper bound of x and y, or None if it does not exist."""
        return self.join_of((x, y))

    def join_of(self, xs) -> int | None:
        """Least upper bound of xs: the meet of its upper bounds, if it has any."""
        ubs = reduce(and_, (self.above[x] for x in xs), self.above[0])
        return next(u for u in _bits(ubs) if self.above[u] == ubs) if ubs else None

    def label(self, x: int) -> str:
        return self.labels[x]

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise LawViolation(f"unknown element label {label!r}") from None


# ---------------------------------------------------------------------------
# constructors

def _labels(labels, n: int, what: str, stem: str = "x") -> tuple[str, ...]:
    """The labels of n elements, counted as ``what`` in a refusal, as
    strings, "0", stem + "1", ... when none are given; ``LawViolation``
    unless there are n distinct ones."""
    if labels is None:
        labels = ("0" if i == 0 else f"{stem}{i}" for i in range(n))
    labels = tuple(map(str, labels))
    if len(labels) != n:
        raise LawViolation(f"{n} {what} but {len(labels)} labels")
    if len(set(labels)) != n:
        dup = next(x for i, x in enumerate(labels) if x in labels[:i])
        raise LawViolation(f"label {dup!r} names two {what}")
    return labels


def from_subsets(family, labels=None) -> FinMeetSemilattice:
    """Semilattice of an intersection-closed family of sets, meet = intersection.

    The family must be closed under pairwise intersection; its elements are
    ordered by size, then by ascending members, and the first, its minimum,
    is the bottom element.
    """
    sets = {frozenset(s) for s in family}
    bit = {v: 1 << i for i, v in enumerate(sorted(set().union(*sets)))}
    return _from_masks({sum(map(bit.__getitem__, s)) for s in sets}, sorted(bit), labels)


def _from_masks(masks, ground, labels=None) -> FinMeetSemilattice:
    """:func:`from_subsets` of a family of int masks, bit i standing for
    ``ground[i]``.  Nothing but closure and the labels is checked: meet is
    intersection, so its laws hold, and in a closed family the intersection
    of all members is a member inside every other, so the one of least
    size, which comes first and is the bottom."""
    masks = sorted(masks, key=_mask_key)
    if not masks:
        raise LawViolation("empty set family")
    index = {m: i for i, m in enumerate(masks)}
    rows = []
    for a in masks:
        row = tuple(map(index.get, [a & b for b in masks]))
        if None in row:
            b = masks[row.index(None)]
            a_set, b_set = ({ground[i] for i in _bits(m)} for m in (a, b))
            raise LawViolation(f"family not intersection-closed at {a_set} & {b_set}")
        rows.append(row)
    return FinMeetSemilattice.unchecked(tuple(rows), _labels(labels, len(rows), "elements"))


def chain(n: int) -> FinMeetSemilattice:
    """The chain 0 < e1 < ... < en  (n+1 elements)."""
    table = [[min(i, j) for j in range(n + 1)] for i in range(n + 1)]
    labels = ["0"] + [f"e{i}" for i in range(1, n + 1)]
    return FinMeetSemilattice.from_meet(table, labels)


def diamond() -> FinMeetSemilattice:
    """{0, a, b, 1} with a, b incomparable atoms below 1."""
    return from_subsets([frozenset(), {1}, {2}, {1, 2}], ["0", "a", "b", "1"])


def antichain(k: int) -> FinMeetSemilattice:
    """Bottom plus k pairwise-incomparable atoms."""
    fam = [frozenset()] + [frozenset({i}) for i in range(1, k + 1)]
    labels = ["0"] + [f"a{i}" for i in range(1, k + 1)]
    return from_subsets(fam, labels)


def powerset_semilattice(k: int) -> FinMeetSemilattice:
    """The Boolean lattice of all subsets of {1, ..., k}."""
    masks = sorted(range(1 << k), key=_mask_key)
    labels = ["{" + ",".join(str(i + 1) for i in _bits(m)) + "}" if m else "0" for m in masks]
    return _from_masks(masks, range(1, k + 1), labels)


def random_semilattice(rng, max_size: int = 10, ground: int = 5) -> FinMeetSemilattice:
    """Random intersection-closed family over a small ground set."""
    _at_least("max_size", max_size, 2)
    while True:
        k = rng.randint(2, max_size)
        masks = {0}
        for _ in range(k):
            masks.add(sum(1 << i for i in range(ground) if rng.random() < 0.5))
        # the intersections of the nonempty subfamilies, one member at a time
        closed: set[int] = set()
        for m in masks:
            closed |= {m & c for c in closed}
            closed.add(m)
        if 2 <= len(closed) <= max_size:
            return _from_masks(closed, range(ground))


# ---------------------------------------------------------------------------
# covers and denseness

def is_cover(E: FinMeetSemilattice, x: int, parts: int) -> bool:
    """Does the element mask ``parts`` cover x: every nonzero y <= x meets
    some part.

    Equivalently, every atom below x lies below some part.  The bottom may be
    a part; a part not below x is rejected.
    """
    stray = parts & ~E.below[x]
    if stray:
        raise LawViolation(f"cover element {E.label(_bits(stray)[0])} is not below {E.label(x)}")
    return not E.below[x] & E.atom_bits & ~_union_at(E.below, parts)


def dense_in(E: FinMeetSemilattice, f: int, e: int) -> bool:
    """f is dense in e: f <= e and {f} covers e."""
    if not E.leq(f, e):
        raise LawViolation(f"{E.label(f)} is not below {E.label(e)}")
    return is_cover(E, e, 1 << f)


# minimal sets the cover search of one x_tight or x_prime call, or of one
# minimal_covers call, may emit; P(7)'s tight set has 186,139
RELATION_BUDGET = 200_000


def _minimal_sets(E: FinMeetSemilattice, x: int, need_join: bool, done: int = 0) -> list[int]:
    """Inclusion-minimal sets of nonzero elements below x that cover x and,
    with ``need_join``, have join x; unordered.

    Method: minimal transversals.  A set S of nonzero elements below x
    covers x exactly when every atom a <= x lies below a member, that is
    when S meets each edge H_a = above[a] & pool, pool being the nonzero
    elements below x.  Such an S has join x exactly when no w outside
    above[x] is an upper bound of S, that is when S meets pool & ~below[w]
    for each such w.  Since below[w] & pool = below[w ∧ x] & pool, that
    edge is H_v = pool & ~below[v] for v = w ∧ x < x, and every v < x
    arises (w = v).  H_v shrinks as v grows and contains H_a whenever
    a is not below v, since then no element above a lies below v; so with
    ``need_join`` only the H_v for v maximal below x with every atom of x
    below v are kept.  Dropping edges that contain another edge keeps
    the hitting sets.  Both families of sets are upward closed in the
    pool, so the wanted sets are the minimal hitting sets, the minimal
    transversals, of these edges.

    Search: MMCS (Murakami and Uno, "Efficient algorithms for dualizing
    large-scale hypergraphs", Discrete Appl. Math. 2014).  Edges are bits
    of one int: atom a at bit a, H_v at bit n + v, and y hits
    ``want & (below[y] | ~above[y] << n)``.  A node holds the chosen set
    S, its uncovered edges, a candidate mask and, per member, its private
    edges (those it alone hits).  It branches on the uncovered edge F
    with the fewest candidates.  The candidates in F are taken out of the
    candidate mask and tried in ascending order, each put back after its
    branch, so the branch of the i-th candidate may use the earlier ones
    but not the later ones: a minimal transversal T containing S, and
    otherwise made of candidates, is reached only in the branch of the
    last candidate of F that T holds.  A set is minimal exactly when
    every member has a private edge, and adding members only removes
    private edges, so a branch stops as soon as a member has none: it
    cannot lead to T, whose subsets keep their members' private edges.
    When no edge is uncovered S is emitted, so each minimal transversal
    is emitted once.  The bottom has no atom and so no edge; it gets no
    sets, not the empty one.

    ``done`` counts the sets already emitted by the caller's walk, and
    ``BudgetExceeded`` is raised as soon as the count passes
    ``RELATION_BUDGET``: it refuses mid-walk, on the count so far.
    """
    below, above, n = E.below, E.above, E.n
    atoms = below[x] & E.atom_bits
    if not atoms:
        return []
    want = atoms
    if need_join:
        strict = below[x] & ~(1 << x)
        for v in _bits(strict):
            if above[v] & strict == 1 << v and not atoms & ~below[v]:
                want |= 1 << n + v
    room = RELATION_BUDGET - done
    found: list[int] = []

    def search(chosen, privates, cand, uncov):
        best, size = 0, n + 1
        u = uncov
        while u:
            low = u & -u
            u ^= low
            e = low.bit_length() - 1
            hit = cand & (above[e] if e < n else ~below[e - n])
            k = hit.bit_count()
            if k < size:
                best, size = hit, k
                if k < 2:
                    break
        cand &= ~best
        while best:
            low = best & -best
            best ^= low
            y = low.bit_length() - 1
            h = want & (below[y] | ~above[y] << n)
            kept = [p & ~h for p in privates]
            if all(kept):
                if uncov & ~h:
                    kept.append(uncov & h)
                    search(chosen | low, kept, cand, uncov & ~h)
                else:
                    found.append(chosen | low)
                    if len(found) > room:
                        raise BudgetExceeded(
                            f"the minimal-cover walk passed {done + len(found):,} relations "
                            f"at {E.label(x)}, over the budget of {RELATION_BUDGET:,}"
                        )
            cand |= low

    search(0, [], below[x] & ~1, want)
    return found


def minimal_covers(E: FinMeetSemilattice, x: int) -> list[int]:
    """All inclusion-minimal covers of a nonzero x drawn from its nonzero
    downset, by size, then by ascending element list."""
    return sorted(_minimal_sets(E, x, False), key=_mask_key)


# ---------------------------------------------------------------------------
# characters and X-to-join spectra

class XRelation(NamedTuple):
    """One join constraint: the element e against a finite set of parts,
    given as an element mask."""

    e: int
    parts: int


def characters(E: FinMeetSemilattice) -> int:
    """All characters, as a mask of generators: one per nonzero element in
    the finite case."""
    return E.above[0] & ~1


def spectrum(E: FinMeetSemilattice, relations) -> int:
    """The characters satisfying every relation, as a mask of generators.  A
    relation fails at the generators below e or below some part, but not
    both."""
    below, bad = E.below, 0
    for rel in relations:
        bad |= _union_at(below, rel.parts) ^ below[rel.e]
    return characters(E) & ~bad


def _cover_relations(E: FinMeetSemilattice, need_join: bool) -> frozenset[XRelation]:
    """(x, S) for every nonzero x and every set ``_minimal_sets`` gives it,
    under one running ``RELATION_BUDGET`` for the whole walk."""
    rels: list[XRelation] = []
    for x in range(1, E.n):
        rels += [XRelation(x, m) for m in _minimal_sets(E, x, need_join, len(rels))]
    return frozenset(rels)


def x_tight(E: FinMeetSemilattice) -> frozenset[XRelation]:
    """Join constraints for all inclusion-minimal covers of nonzero elements."""
    return _cover_relations(E, False)


def x_prime(E: FinMeetSemilattice) -> frozenset[XRelation]:
    """Constraints for minimal covers whose join exists and equals the element."""
    return _cover_relations(E, True)


def x_atoms(E: FinMeetSemilattice) -> frozenset[XRelation]:
    """(x, the atoms below x) for each nonzero x: one relation per element,
    satisfied by exactly the maps that satisfy ``x_tight``.

    Let r be an order-preserving map of E into a Boolean algebra, such as
    a representation or a character (into {0, 1}) read through a
    conjugation.  Each (x, atoms below x) is a minimal cover of x, since
    an atom lies below no other atom, so it is in X_tight.
    Conversely, let r satisfy X_atoms and S cover x.  Each atom a <= x
    lies below a member of S, so r(a) <= r(p) <= r(x) for that p; then
    r(x), the union of those r(a), lies inside the union of r over S,
    which lies inside r(x): r satisfies (x, S).  So the two sets have the
    same spectrum, the atoms of E (Exel 2008: in the finite case the tight
    characters are those at atoms), the same tight representations and,
    since conjugating a relation conjugates the map that must satisfy it,
    invariant closures with the same spectrum.
    """
    atoms = E.atom_bits
    return frozenset(XRelation(x, b & atoms) for x, b in enumerate(E.below) if x)


def x_core(E: FinMeetSemilattice) -> frozenset[XRelation]:
    """Constraints identifying every element with each element dense in it."""
    return frozenset(
        XRelation(e, 1 << f) for e in range(1, E.n) for f in E.down(e) if f and dense_in(E, f, e)
    )


BUILTIN_RELATION_SETS = ("none", "tight", "prime", "core")


def builtin_relations(E: FinMeetSemilattice, name: str) -> frozenset[XRelation]:
    """The relation set of that name; "tight" gives ``x_atoms``, which the
    same maps satisfy as ``x_tight``, without the cover walk."""
    if name == "none":
        return frozenset()
    if name == "tight":
        return x_atoms(E)
    if name == "prime":
        return x_prime(E)
    if name == "core":
        return x_core(E)
    raise LawViolation(f"unknown relation set {name!r}, want one of {BUILTIN_RELATION_SETS}")


# ---------------------------------------------------------------------------
# JSON interface

def semilattice_to_json(E: FinMeetSemilattice) -> str:
    doc = {"elements": list(E.labels), "meet": [list(r) for r in E.meet_table]}
    return _json_text(doc)


def semilattice_from_json(text: str) -> FinMeetSemilattice:
    doc = json.loads(text)
    try:
        labels, table = doc["elements"], doc["meet"]
    except (KeyError, TypeError):
        raise LawViolation("semilattice JSON needs 'elements' and 'meet'") from None
    if not isinstance(labels, list):
        raise LawViolation("'elements' must be a list of labels")
    return FinMeetSemilattice.from_meet(table, labels)


def relations_from_json(E: FinMeetSemilattice, text: str) -> frozenset[XRelation]:
    doc = json.loads(text)
    if not isinstance(doc, list):
        raise LawViolation("relation JSON must be a list of relations")
    out = []
    for item in doc:
        try:
            e, parts = item["e"], item["parts"]
        except (KeyError, TypeError):
            raise LawViolation("each relation in JSON needs 'e' and 'parts'") from None
        if not isinstance(parts, list):
            raise LawViolation("relation 'parts' must be a list of element labels")
        out.append(XRelation(E.index(e), sum({1 << E.index(p) for p in parts})))
    return frozenset(out)
