"""Finite groupoids of germs of the character action of an inverse semigroup.

Arrows are germs [s, c] with source character c; the canonical
representative of a germ is s multiplied by the generator of c, which makes
germ equality a plain pair comparison.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass, field
from operator import getitem, itemgetter

from .invsgp import FinInverseSemigroup, invariant_closure, natural_leq
from .semilattice import Character, LawViolation, _bits, _json_text, spectrum


@dataclass(frozen=True)
class FinGroupoid:
    """Arrow tables of a finite groupoid; comp[a][b] is -1 when undefined."""

    unit_labels: tuple[str, ...]
    arrow_labels: tuple[str, ...]
    src: tuple[int, ...]
    rng: tuple[int, ...]
    unit_arrow: tuple[int, ...]
    inv: tuple[int, ...]
    comp: tuple[tuple[int, ...], ...]

    @property
    def n_units(self) -> int:
        return len(self.unit_labels)

    @property
    def n_arrows(self) -> int:
        return len(self.arrow_labels)

    @classmethod
    def from_parts(cls, unit_labels, arrow_labels, src, rng, unit_arrow, inv, comp) -> "FinGroupoid":
        G = cls(
            tuple(unit_labels),
            tuple(arrow_labels),
            tuple(src),
            tuple(rng),
            tuple(unit_arrow),
            tuple(inv),
            tuple(tuple(row) for row in comp),
        )
        _check_groupoid(G)
        return G


def _check_groupoid(G: FinGroupoid) -> None:
    """The groupoid laws, a row of ``comp`` at a time.

    Row a must be defined exactly at the arrows ending at src(a), one list
    comparison, with the composites' sources and ranges read through the
    row.  Associativity then compares, for each composable (a, b), the row
    of ab with row a read through row b, both restricted to the arrows
    ending at src(b); cancellation reads (ab)b⁻¹ along row a.  A failed
    row is walked entry by entry to name its witness, in the order of the
    definitional loops (``tests/oracles.py``).
    """
    n, m = G.n_arrows, G.n_units
    src, rng, inv, comp, names = G.src, G.rng, G.inv, G.comp, G.arrow_labels
    if not (len(src) == len(rng) == len(inv) == len(comp) == n) or any(len(r) != n for r in comp):
        raise LawViolation("arrow table sizes disagree")
    if len(G.unit_arrow) != m:
        raise LawViolation("need one identity arrow per unit")
    for u in range(m):
        ua = G.unit_arrow[u]
        if src[ua] != u or rng[ua] != u:
            raise LawViolation(f"identity arrow of unit {G.unit_labels[u]} is not a loop at it")
    ending_at: dict[int, list[int]] = {u: [] for u in {*src, *rng}}
    for c in range(n):
        ending_at[rng[c]].append(c)
    into = {u: _pick(arrows) for u, arrows in ending_at.items()}
    for a, row in enumerate(comp):
        u = src[a]
        ok = [b for b, c in enumerate(row) if c >= 0] == ending_at[u]
        if ok and ending_at[u]:
            located = _pick(into[u](row))
            ok = located(src) == into[u](src) and located(rng).count(rng[a]) == len(ending_at[u])
        if not ok:
            for b, c in enumerate(row):
                if (c >= 0) != (u == rng[b]):
                    raise LawViolation(
                        f"composability of ({names[a]},{names[b]}) disagrees with source/range"
                    )
                if c >= 0 and (src[c] != src[b] or rng[c] != rng[a]):
                    raise LawViolation(f"composite of ({names[a]},{names[b]}) mislocated")
    # By the checks above, (ab)c and a(bc) are both defined exactly when ab
    # is and c ends where b starts, so only those triples are compared.
    through = [_pick(into[src[b]](row)) for b, row in enumerate(comp)]
    for a, row in enumerate(comp):
        for b in ending_at[src[a]]:
            restrict = into[src[b]]
            if restrict(comp[row[b]]) != through[b](row):
                ab = row[b]
                c = next(c for c in ending_at[src[b]] if comp[ab][c] != row[comp[b][c]])
                raise LawViolation(
                    f"composition not associative at ({names[a]},{names[b]},{names[c]})"
                )
    for a, row in enumerate(comp):
        ia = inv[a]
        if src[ia] != rng[a] or rng[ia] != src[a]:
            raise LawViolation(f"inverse of {names[a]} mislocated")
        if row[ia] != G.unit_arrow[rng[a]] or comp[ia][a] != G.unit_arrow[src[a]]:
            raise LawViolation(f"inverse law fails at {names[a]}")
        # (ab)b⁻¹ for each b ending at src(a), gathered along the row
        ends = into[src[a]]
        back = list(map(getitem, map(comp.__getitem__, ends(row)), ends(inv)))
        if back.count(a) != len(back):
            raise LawViolation("cancellation fails")


def _pick(idxs) -> Callable:
    """The map from a sequence to the tuple of its entries at ``idxs``."""
    if len(idxs) == 1:
        i = idxs[0]
        return lambda seq: (seq[i],)
    return itemgetter(*idxs) if idxs else lambda seq: ()


def is_local_bisection(G: FinGroupoid, arrows: int) -> bool:
    """Source and range are injective on the arrow mask."""
    bits = _bits(arrows)
    return len({G.src[a] for a in bits}) == len(bits) == len({G.rng[a] for a in bits})


# ---------------------------------------------------------------------------
# germs

@dataclass(frozen=True, order=True)
class Germ:
    """A germ by canonical representative and source character."""

    base: Character
    rep: int


def germ_of(S: FinInverseSemigroup, s: int, c: Character) -> Germ:
    """The germ of s at the character c; needs the generator of c below d(s)."""
    f = S.idems[c.gen]
    if not natural_leq(S, f, S.d(s)):
        raise LawViolation(
            f"character at {S.label(f)} is outside the domain of {S.label(s)}"
        )
    return Germ(c, S.mul(s, f))


@dataclass(frozen=True)
class GermGroupoid:
    """Groupoid of germs over the spectrum of a closed relation set; a unit's
    or germ's position in ``units`` or ``germs``, which ``unit_index`` and
    ``arrow_index`` map it to, is its index in ``groupoid``."""

    semigroup: FinInverseSemigroup
    units: tuple[Character, ...]
    germs: tuple[Germ, ...]
    groupoid: FinGroupoid
    unit_index: dict[Character, int] = field(compare=False, repr=False)
    arrow_index: dict[Germ, int] = field(compare=False, repr=False)


def germ_groupoid(S: FinInverseSemigroup, relations=None, *, units=None) -> GermGroupoid:
    """Restrict the character action to the spectrum of the closed relation
    set, or to ``units`` when the caller already has that spectrum, and form
    its groupoid of germs: all below reads only S and the units, so equal S
    and units give equal groupoids.

    The germs at a unit c with generator f are the products sf for the s
    with f below d(s).  A germ is fixed by that representative t = sf, since
    d(t) = f names its unit, so there are at most S.n - 1 germs and the
    composition table is smaller than the multiplication table of S.  The
    composite of germs [s, c] and [t, c'] with c the range of the second is
    the germ of st at c', whose representative is the product of the
    representatives, since t ends in the idempotent of c'.
    """
    if (relations is None) == (units is None):
        raise TypeError("germ_groupoid takes one of relations and units")
    if units is None:
        units = spectrum(S.semilattice, invariant_closure(S, relations))
    mult, inv, idems = S.mult, S.inv, S.idems
    units = tuple(sorted(units))
    unit_pos = {c: i for i, c in enumerate(units)}
    dom_rows = [mult[mult[inv[s]][s]] for s in range(S.n)]
    germs: set[Germ] = set()
    for c in units:
        f = idems[c.gen]
        germs.update(Germ(c, row[f]) for row, d in zip(mult, dom_rows) if d[f] == f)
    germ_list = tuple(sorted(germs))
    src, rng = [], []
    for g in germ_list:
        src.append(unit_pos[g.base])
        target = Character(S.idem_pos[mult[mult[g.rep][idems[g.base.gen]]][inv[g.rep]]])
        if target not in unit_pos:
            raise LawViolation(
                f"range of germ [{S.label(g.rep)},{S.label(idems[g.base.gen])}] left the spectrum; "
                "the relation set was not invariant"
            )
        rng.append(unit_pos[target])
    pos = {(s, g.rep): i for i, (s, g) in enumerate(zip(src, germ_list))}
    reps = [g.rep for g in germ_list]
    ending_at: list[list[int]] = [[] for _ in units]
    for b, r in enumerate(rng):
        ending_at[r].append(b)
    n = len(germ_list)
    comp = []
    for a, rep in zip(src, reps):
        row = [-1] * n
        prod = mult[rep]
        for b in ending_at[a]:
            row[b] = pos[src[b], prod[reps[b]]]
        comp.append(row)
    G = FinGroupoid.from_parts(
        unit_labels=tuple(S.semilattice.label(c.gen) for c in units),
        arrow_labels=tuple(f"[{S.label(g.rep)};{S.semilattice.label(g.base.gen)}]" for g in germ_list),
        src=src,
        rng=rng,
        unit_arrow=[pos[u, idems[c.gen]] for u, c in enumerate(units)],
        inv=[pos[r, mult[inv[rep]][idems[units[r].gen]]] for r, rep in zip(rng, reps)],
        comp=comp,
    )
    return GermGroupoid(S, units, germ_list, G, unit_pos, {g: i for i, g in enumerate(germ_list)})


def theta(gg: GermGroupoid, s: int, excl=()) -> int:
    """Arrow mask of all germs of s whose source kills every excluded element.

    Excluded elements must lie below s in the natural order.
    """
    S = gg.semigroup
    for t in excl:
        if not natural_leq(S, t, s):
            raise LawViolation(f"excluded element {S.label(t)} is not below {S.label(s)}")
    out = 0
    for c in gg.units:
        f = S.idems[c.gen]
        if not natural_leq(S, f, S.d(s)):
            continue
        if any(natural_leq(S, f, S.d(t)) for t in excl):
            continue
        out |= 1 << gg.arrow_index[Germ(c, S.mul(s, f))]
    return out


# ---------------------------------------------------------------------------
# emission

def groupoid_to_dot(G: FinGroupoid) -> str:
    lines = ["digraph germs {"]
    for u in range(G.n_units):
        lines.append(f'  u{u} [shape=circle, label="{G.unit_labels[u]}"];')
    for a in range(G.n_arrows):
        if a == G.unit_arrow[G.src[a]] and G.src[a] == G.rng[a]:
            continue
        lines.append(
            f'  u{G.src[a]} -> u{G.rng[a]} [label="{G.arrow_labels[a]}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def groupoid_to_json(G: FinGroupoid) -> str:
    return _json_text(_groupoid_doc(G))


def _groupoid_doc(G: FinGroupoid) -> dict:
    """The JSON document of :func:`groupoid_to_json`, before encoding."""
    return {
        "units": list(G.unit_labels),
        "arrows": [
            {"label": G.arrow_labels[a], "src": G.src[a], "rng": G.rng[a], "inv": G.inv[a]}
            for a in range(G.n_arrows)
        ],
        "unit_arrow": list(G.unit_arrow),
        "comp": [list(row) for row in G.comp],
    }


def groupoid_from_json(text: str) -> FinGroupoid:
    doc = json.loads(text)
    return FinGroupoid.from_parts(
        unit_labels=doc["units"],
        arrow_labels=[a["label"] for a in doc["arrows"]],
        src=[a["src"] for a in doc["arrows"]],
        rng=[a["rng"] for a in doc["arrows"]],
        unit_arrow=doc["unit_arrow"],
        inv=[a["inv"] for a in doc["arrows"]],
        comp=doc["comp"],
    )
