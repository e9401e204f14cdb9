"""Finite groupoids of germs of the character action of an inverse semigroup.

Arrows are germs [s, c] with source character c; the canonical
representative of a germ is s multiplied by the generator of c, which makes
germ equality a plain pair comparison.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .invsgp import FinInverseSemigroup, invariant_closure, natural_leq
from .semilattice import Character, LawViolation, spectrum


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
    n, m = G.n_arrows, G.n_units
    if not (len(G.src) == len(G.rng) == len(G.inv) == len(G.comp) == n):
        raise LawViolation("arrow table sizes disagree")
    if len(G.unit_arrow) != m:
        raise LawViolation("need one identity arrow per unit")
    for u in range(m):
        ua = G.unit_arrow[u]
        if G.src[ua] != u or G.rng[ua] != u:
            raise LawViolation(f"identity arrow of unit {G.unit_labels[u]} is not a loop at it")
    for a in range(n):
        for b in range(n):
            c = G.comp[a][b]
            if (c >= 0) != (G.src[a] == G.rng[b]):
                raise LawViolation(
                    f"composability of ({G.arrow_labels[a]},{G.arrow_labels[b]}) "
                    "disagrees with source/range"
                )
            if c >= 0 and (G.src[c] != G.src[b] or G.rng[c] != G.rng[a]):
                raise LawViolation(f"composite of ({G.arrow_labels[a]},{G.arrow_labels[b]}) mislocated")
    # By the checks above, (ab)c and a(bc) are both defined exactly when ab
    # is and c ends where b starts, so only those triples are compared.
    ending_at: dict[int, list[int]] = {}
    for c in range(n):
        ending_at.setdefault(G.rng[c], []).append(c)
    for a in range(n):
        for b in range(n):
            ab = G.comp[a][b]
            if ab < 0:
                continue
            for c in ending_at.get(G.src[b], ()):
                if G.comp[ab][c] != G.comp[a][G.comp[b][c]]:
                    raise LawViolation(
                        f"composition not associative at "
                        f"({G.arrow_labels[a]},{G.arrow_labels[b]},{G.arrow_labels[c]})"
                    )
    for a in range(n):
        ia = G.inv[a]
        if G.src[ia] != G.rng[a] or G.rng[ia] != G.src[a]:
            raise LawViolation(f"inverse of {G.arrow_labels[a]} mislocated")
        if G.comp[a][ia] != G.unit_arrow[G.rng[a]] or G.comp[ia][a] != G.unit_arrow[G.src[a]]:
            raise LawViolation(f"inverse law fails at {G.arrow_labels[a]}")
        for b in range(n):
            if G.src[a] == G.rng[b] and G.comp[G.comp[a][b]][G.inv[b]] != a:
                raise LawViolation("cancellation fails")


def is_local_bisection(G: FinGroupoid, arrows) -> bool:
    """Source and range are injective on the arrow set."""
    arrows = tuple(arrows)
    srcs = [G.src[a] for a in arrows]
    rngs = [G.rng[a] for a in arrows]
    return len(set(srcs)) == len(arrows) and len(set(rngs)) == len(arrows)


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
    """Groupoid of germs over the spectrum of a closed relation set.

    ``unit_index`` and ``arrow_index`` map a unit or germ to its position in
    ``units`` or ``germs``, which is its index in ``groupoid``.
    """

    semigroup: FinInverseSemigroup
    relations: frozenset          # the closed relation set actually used
    units: tuple[Character, ...]
    germs: tuple[Germ, ...]
    groupoid: FinGroupoid
    unit_index: dict[Character, int] = field(compare=False, repr=False)
    arrow_index: dict[Germ, int] = field(compare=False, repr=False)


def germ_groupoid(S: FinInverseSemigroup, relations) -> GermGroupoid:
    """Restrict the character action to the spectrum of the closed relation set
    and form its groupoid of germs."""
    E, elems = S.semilattice, S.idems
    closed = invariant_closure(S, relations)
    units = tuple(sorted(spectrum(E, closed)))
    unit_pos = {c: i for i, c in enumerate(units)}

    germs: set[Germ] = set()
    for c in units:
        f = elems[c.gen]
        for s in range(S.n):
            if natural_leq(S, f, S.d(s)):
                germs.add(Germ(c, S.mul(s, f)))
    germ_list = tuple(sorted(germs))
    germ_pos = {g: i for i, g in enumerate(germ_list)}

    src, rng = [], []
    for g in germ_list:
        src.append(unit_pos[g.base])
        f = elems[g.base.gen]
        moved = S.mul(S.mul(g.rep, f), S.inv[g.rep])
        target = Character(S.idem_pos[moved])
        if target not in unit_pos:
            raise LawViolation(
                f"range of germ [{S.label(g.rep)},{S.label(f)}] left the spectrum; "
                "the relation set was not invariant"
            )
        rng.append(unit_pos[target])

    unit_arrow = []
    for c in units:
        unit_arrow.append(germ_pos[Germ(c, elems[c.gen])])

    n = len(germ_list)
    comp = [[-1] * n for _ in range(n)]
    for ai, a in enumerate(germ_list):
        for bi, b in enumerate(germ_list):
            if src[ai] != rng[bi]:
                continue
            prod = Germ(b.base, S.mul(S.mul(a.rep, b.rep), elems[b.base.gen]))
            comp[ai][bi] = germ_pos[prod]
    inv = []
    for ai, a in enumerate(germ_list):
        target = units[rng[ai]]
        inv.append(germ_pos[Germ(target, S.mul(S.inv[a.rep], elems[target.gen]))])

    G = FinGroupoid.from_parts(
        unit_labels=tuple(E.label(c.gen) for c in units),
        arrow_labels=tuple(f"[{S.label(g.rep)};{E.label(g.base.gen)}]" for g in germ_list),
        src=src,
        rng=rng,
        unit_arrow=unit_arrow,
        inv=inv,
        comp=comp,
    )
    return GermGroupoid(S, closed, units, germ_list, G, unit_pos, germ_pos)


def theta(gg: GermGroupoid, s: int, excl=()) -> frozenset[int]:
    """Arrow set of all germs of s whose source kills every excluded element.

    Excluded elements must lie below s in the natural order.
    """
    S = gg.semigroup
    for t in excl:
        if not natural_leq(S, t, s):
            raise LawViolation(f"excluded element {S.label(t)} is not below {S.label(s)}")
    out = []
    for c in gg.units:
        f = S.idems[c.gen]
        if not natural_leq(S, f, S.d(s)):
            continue
        if any(natural_leq(S, f, S.d(t)) for t in excl):
            continue
        out.append(gg.arrow_index[Germ(c, S.mul(s, f))])
    return frozenset(out)


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
    doc = {
        "units": list(G.unit_labels),
        "arrows": [
            {"label": G.arrow_labels[a], "src": G.src[a], "rng": G.rng[a], "inv": G.inv[a]}
            for a in range(G.n_arrows)
        ],
        "unit_arrow": list(G.unit_arrow),
        "comp": [list(row) for row in G.comp],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


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
