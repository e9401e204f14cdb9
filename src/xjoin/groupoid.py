"""Finite groupoids of germs of the character action of an inverse semigroup.

Arrows are germs [s, c] with source character c.  A germ is stored as its
canonical representative, s multiplied by the generator of c, which also
fixes c, so germ equality is a plain int comparison.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import NamedTuple

from .invsgp import FinInverseSemigroup, invariant_closure, natural_leq
from .semilattice import LawViolation, _bits, _compare_first, _json_chunks, spectrum


class FinGroupoid(NamedTuple):
    """Arrow tables of a finite groupoid.  ``comp[a]`` maps each arrow b
    ending at the source of a, and no other, to the index of ab."""

    unit_labels: tuple[str, ...]
    arrow_labels: tuple[str, ...]
    src: tuple[int, ...]
    rng: tuple[int, ...]
    unit_arrow: tuple[int, ...]
    inv: tuple[int, ...]
    comp: tuple[dict[int, int], ...]

    @property
    def n_units(self) -> int:
        return len(self.unit_labels)

    @property
    def n_arrows(self) -> int:
        return len(self.arrow_labels)


def is_local_bisection(G: FinGroupoid, arrows: int) -> bool:
    """Source and range are injective on the arrow mask."""
    bits = _bits(arrows)
    return len({G.src[a] for a in bits}) == len(bits) == len({G.rng[a] for a in bits})


# ---------------------------------------------------------------------------
# germs

class GermGroupoid(NamedTuple):
    """Groupoid of germs over the spectrum of a closed relation set.  Units
    are character generators, ascending, and germs canonical
    representatives, by unit and then representative; a unit's or germ's
    position in ``units`` or ``germs``, which ``unit_index`` and
    ``arrow_index`` map it to, is its index in ``groupoid``."""

    semigroup: FinInverseSemigroup
    units: tuple[int, ...]
    germs: tuple[int, ...]
    groupoid: FinGroupoid
    unit_index: dict[int, int]
    arrow_index: dict[int, int]

    __eq__, __ne__, __hash__ = _compare_first(4)


def germ_groupoid(S: FinInverseSemigroup, relations=None, *, units=None) -> GermGroupoid:
    """Restrict the character action to the spectrum of the closed relation
    set, or to ``units``, a mask of generators, when the caller already has
    that spectrum, and form its groupoid of germs: all below reads only S
    and the units, so equal S and units give equal groupoids.

    The germs at a unit c with generator f_c are the products t = sf_c for
    the s with f_c below d(s), which are the t with d(t) = f_c: d(sf_c) =
    f_c d(s) = f_c, and t = tf_c.  A germ is fixed by t, since d(t) names
    its unit, so there are at most S.n - 1 germs; its range is the
    character at t f_c t⁻¹ = r(t).  The tables are built, not checked: the
    groupoid laws follow from those of S (Exel, "Inverse semigroups and
    combinatorial C*-algebras", 2008, §4).
    - Composites: for t at c and u ending at c, r(u) = f_c, so
      d(tu) = u⁻¹f_c u = d(u) and r(tu) = t f_c t⁻¹ = r(t): the germ of tu
      starts where u does and ends where t does.  So a row holds exactly
      the arrows ending at its source.
    - Units: f_c is a loop at c, with t f_c = t and f_c u = u; d(f_c) = f_c
      makes f_c its own representative.
    - Inverses: t⁻¹ = t⁻¹r(t) is a germ at the range of t, with tt⁻¹ = r(t)
      and t⁻¹t = f_c; d(t⁻¹) = r(t) makes t⁻¹ its own representative.
    - Ranges: the unit at r(t) = tt⁻¹ is the range of t.
    - Associativity is that of S; cancellation follows, (ab)b⁻¹ = a(bb⁻¹) = a.
    """
    if (relations is None) == (units is None):
        raise TypeError("germ_groupoid takes one of relations and units")
    if units is None:
        units = spectrum(S.semilattice, invariant_closure(S, relations))
    mult, inv, idems, idem_pos = S.mult, S.inv, S.idems, S.idem_pos
    units = tuple(_bits(units))
    unit_pos = {c: i for i, c in enumerate(units)}
    at = [[] for _ in idems]  # per generator, the elements t with d(t) at it, ascending
    for t in range(S.n):
        at[idem_pos[mult[inv[t]][t]]].append(t)
    germs = tuple(t for c in units for t in at[c])
    pos = {t: i for i, t in enumerate(germs)}
    src = [unit_pos[c] for c in units for _ in at[c]]
    rng, ending_at = [], [[] for _ in units]
    for b, t in enumerate(germs):
        target = idem_pos[mult[t][inv[t]]]
        if target not in unit_pos:
            raise LawViolation(
                f"range of germ [{S.label(t)},{S.label(idems[units[src[b]]])}] left the spectrum; "
                "the relation set was not invariant"
            )
        rng.append(unit_pos[target])
        ending_at[rng[b]].append(b)
    labels = S.semilattice.labels
    G = FinGroupoid(
        unit_labels=tuple(labels[c] for c in units),
        arrow_labels=tuple(f"[{S.label(t)};{labels[units[u]]}]" for t, u in zip(germs, src)),
        src=tuple(src),
        rng=tuple(rng),
        unit_arrow=tuple(pos[idems[c]] for c in units),
        inv=tuple(pos[inv[t]] for t in germs),
        comp=tuple({b: pos[mult[t][germs[b]]] for b in ending_at[u]} for t, u in zip(germs, src)),
    )
    return GermGroupoid(S, units, germs, G, unit_pos, pos)


def theta(gg: GermGroupoid, s: int, excl=()) -> int:
    """Arrow mask of all germs of s whose source kills every excluded element.

    Excluded elements must lie below s in the natural order.  The germs of s
    are the [s, c] with f_c below d(s), so their units are read off the
    order mask of d(s), less those of the excluded domains; each germ's
    arrow is that of its canonical representative s·f_c.
    """
    S = gg.semigroup
    below, pos = S.semilattice.below, S.idem_pos
    cs = below[pos[S.d(s)]]
    for t in excl:
        if not natural_leq(S, t, s):
            raise LawViolation(f"excluded element {S.label(t)} is not below {S.label(s)}")
        cs &= ~below[pos[S.d(t)]]
    row, idems, units, arrow = S.mult[s], S.idems, gg.unit_index, gg.arrow_index
    return sum(1 << arrow[row[idems[c]]] for c in _bits(cs) if c in units)


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


def groupoid_to_json(G: FinGroupoid) -> Iterator[str]:
    """The JSON text of G in chunks, a row of the composition table each."""
    return _json_chunks(_groupoid_doc(G), "\n")


def _groupoid_doc(G: FinGroupoid) -> dict:
    """The JSON document of :func:`groupoid_to_json`, before encoding; its
    dense composition table, -1 where ab is undefined, builds rows as read."""
    return {
        "units": list(G.unit_labels),
        "arrows": [
            {"label": G.arrow_labels[a], "src": G.src[a], "rng": G.rng[a], "inv": G.inv[a]}
            for a in range(G.n_arrows)
        ],
        "unit_arrow": list(G.unit_arrow),
        "comp": (_dense_row(row, G.n_arrows) for row in G.comp),
    }


def _dense_row(row: dict[int, int], n: int) -> list[int]:
    dense = [-1] * n
    for b, ab in row.items():
        dense[b] = ab
    return dense
