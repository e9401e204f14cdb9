import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xjoin import boolalg as ba
from xjoin import semilattice as sl
from xjoin.semilattice import LawViolation, XRelation

from xjoin.suites import brute_force_characters, tight_spectrum_brute

from oracles import (
    atoms_brute,
    covers_brute,
    down_brute,
    elements_of,
    is_associative_brute,
    join_brute,
    mask_of,
    minimal_covers_brute,
    relations_to_json,
    spectrum_brute,
    x_core_brute,
    x_prime_brute,
)


E3 = sl.chain(3)
D = sl.diamond()
V = sl.antichain(2)


def rel(e, parts):
    return XRelation(e, mask_of(parts))


class TestConstruction:
    def test_chain_labels(self):
        assert E3.labels == ("0", "e1", "e2", "e3")
        assert E3.atoms() == (1,)

    def test_rejects_non_idempotent(self):
        with pytest.raises(LawViolation, match="idempotent"):
            sl.FinMeetSemilattice.from_meet([[0, 0], [0, 0]])

    def test_rejects_non_commutative(self):
        table = [[0, 0, 0], [0, 1, 1], [0, 2, 2]]
        with pytest.raises(LawViolation, match="commutative"):
            sl.FinMeetSemilattice.from_meet(table)

    def test_rejects_bad_bottom(self):
        # meet of a chain but with the bottom moved to index 1
        table = [[0, 1], [1, 1]]
        with pytest.raises(LawViolation, match="bottom"):
            sl.FinMeetSemilattice.from_meet(table)

    def test_from_subsets_requires_closure(self):
        with pytest.raises(LawViolation, match="intersection-closed"):
            sl.from_subsets([{1}, {2}])

    @settings(max_examples=300, deadline=None)
    @given(fam=st.lists(st.frozensets(st.integers(1, 5)), max_size=8), data=st.data())
    def test_from_subsets_matches_from_meet(self, fam, data):
        # every field, order masks included, or the refusal message, against
        # from_meet on the intersection table of the family sorted by size
        # and then by ascending members
        sets = sorted(set(fam), key=lambda s: (len(s), sorted(s)))
        labels = data.draw(
            st.none()
            | st.lists(st.text("ab", max_size=3), min_size=len(sets), max_size=len(sets), unique=True)
            | st.lists(st.text("ab", max_size=1), max_size=4)
        )
        index = {s: i for i, s in enumerate(sets)}
        gaps = [(a, b) for a in sets for b in sets if a & b not in index]
        if not sets:
            want = "empty set family"
        elif gaps:
            want = f"family not intersection-closed at {set(gaps[0][0])} & {set(gaps[0][1])}"
        else:
            # a table's label refusals count its rows, a family's its elements
            table = [[index[a & b] for b in sets] for a in sets]
            want = fields_or_message(sl.FinMeetSemilattice.from_meet, table, labels)
            if isinstance(want, str):
                want = want.replace("'meet' rows", "elements")
        assert fields_or_message(sl.from_subsets, fam, labels) == want


def fields_or_message(build, *args):
    """Every field of the semilattice built, or the message of the ``LawViolation`` raised."""
    try:
        return tuple(build(*args))
    except LawViolation as exc:
        return str(exc)


class TestOrder:
    def test_chain_order(self):
        assert E3.leq(1, 3)
        assert not E3.leq(3, 1)

    def test_bottom_below_everything(self):
        for E in (E3, D, V):
            assert all(E.leq(0, x) for x in range(E.n))

    def test_diamond_atoms_incomparable(self):
        a, b = D.index("a"), D.index("b")
        assert not D.leq(a, b) and not D.leq(b, a)

    def test_joins(self):
        a, b, top = D.index("a"), D.index("b"), D.index("1")
        assert D.join(a, b) == top
        assert V.join(1, 2) is None


class TestCovers:
    def test_chain_singleton_cover(self):
        assert sl.is_cover(E3, 2, mask_of({1}))

    def test_diamond_single_atom_not_cover(self):
        assert not sl.is_cover(D, D.index("1"), mask_of({D.index("a")}))

    def test_empty_set_never_covers_nonzero(self):
        for E in (E3, D, V):
            for x in range(1, E.n):
                assert not sl.is_cover(E, x, 0)

    def test_zero_covered_by_anything(self):
        assert sl.is_cover(E3, 0, 0)

    def test_rejects_part_not_below(self):
        with pytest.raises(LawViolation, match="not below"):
            sl.is_cover(E3, 1, mask_of({2}))

    def test_zero_parts_dropped(self):
        assert sl.is_cover(E3, 2, mask_of({0, 1}))


class TestDense:
    def test_chain_all_dense(self):
        assert sl.dense_in(E3, 1, 3)

    def test_diamond_atom_not_dense_in_top(self):
        assert not sl.dense_in(D, D.index("a"), D.index("1"))

    def test_self_dense(self):
        for E in (E3, D, V):
            for x in range(1, E.n):
                assert sl.dense_in(E, x, x)

    def test_requires_below(self):
        with pytest.raises(LawViolation):
            sl.dense_in(E3, 3, 1)

    def test_matches_singleton_cover_everywhere(self):
        for E in (E3, D, V, sl.powerset_semilattice(3)):
            for e in range(1, E.n):
                for f in E.down(e):
                    if f:
                        assert sl.dense_in(E, f, e) == sl.is_cover(E, e, mask_of({f}))


class TestCharacters:
    def test_counts(self):
        assert sl.characters(E3).bit_count() == 3
        assert sl.characters(D).bit_count() == 3

    def test_trivial_semilattice_has_none(self):
        E = sl.FinMeetSemilattice.from_meet([[0]])
        assert sl.characters(E) == 0

    def test_against_brute_force(self):
        rng = random.Random(3)
        pool = [E3, D, V, sl.powerset_semilattice(3)]
        pool += [sl.random_semilattice(rng, 8) for _ in range(10)]
        for E in pool:
            filters = {
                frozenset(x for x in range(1, E.n) if E.leq(c, x))
                for c in elements_of(sl.characters(E))
            }
            assert filters == brute_force_characters(E)
            assert sl.characters(E) == mask_of(range(1, E.n))

    def test_satisfies(self):
        # e1 and e3 satisfy e2 = e1 (both sides hold at e1, neither at e3); e2 fails it
        assert sl.spectrum(E3, [rel(2, {1})]) == mask_of({1, 3})
        assert sl.spectrum(E3, [rel(0, ())]) == sl.characters(E3)


class TestSpectra:
    def test_no_constraints(self):
        assert sl.spectrum(E3, ()) == mask_of({1, 2, 3})

    def test_tight_is_single_atom(self):
        assert sl.spectrum(E3, sl.x_tight(E3)) == mask_of({1})

    def test_prime_keeps_everything_on_chain(self):
        assert sl.spectrum(E3, sl.x_prime(E3)) == mask_of({1, 2, 3})

    def test_x_tight_contents(self):
        rels = sl.x_tight(E3)
        assert rel(2, {1}) in rels and rel(3, {1}) in rels

    def test_x_tight_diamond(self):
        a, b, top = D.index("a"), D.index("b"), D.index("1")
        assert rel(top, {a, b}) in sl.x_tight(D)

    def test_antichain_only_trivial_covers(self):
        assert sl.x_tight(V) == frozenset(rel(x, {x}) for x in (1, 2))

    def test_x_core_chain(self):
        assert rel(3, {1}) in sl.x_core(E3)

    def test_x_core_diamond_excludes_non_dense(self):
        assert rel(D.index("1"), {D.index("a")}) not in sl.x_core(D)

    def test_minimal_covers_do_not_change_spectrum(self):
        rng = random.Random(11)
        pool = [E3, D, V, sl.powerset_semilattice(3)]
        pool += [sl.random_semilattice(rng, 8) for _ in range(15)]
        for E in pool:
            assert sl.spectrum(E, sl.x_tight(E)) == tight_spectrum_brute(E)

    def test_implied_relations_do_not_change_spectrum(self):
        # adding any pointwise-implied relation leaves the spectrum alone
        base = sl.x_tight(E3)
        extra = frozenset({rel(3, {1, 2})})
        assert sl.spectrum(E3, base) == sl.spectrum(E3, base | extra)

    def test_kite_with_dense_atom(self):
        # 0 < d < a,b < t: the singleton {a} covers t but its join is a, so
        # the join-constrained relation set keeps {a,b} as a minimal family
        km = sl.from_subsets(
            [frozenset(), {1}, {1, 2}, {1, 3}, {1, 2, 3}], ["0", "d", "a", "b", "t"]
        )
        d, a, b, t = (km.index(x) for x in "dabt")
        assert sl.is_cover(km, t, mask_of({a})) and km.join_of((a,)) == a
        assert rel(t, {a, b}) in sl.x_prime(km)
        assert rel(t, {d}) not in sl.x_prime(km)
        assert rel(t, {d}) in sl.x_core(km)  # d is dense in t
        labels = lambda spec: sorted(km.label(c) for c in elements_of(spec))
        assert labels(sl.spectrum(km, sl.x_tight(km))) == ["d"]
        assert labels(sl.spectrum(km, sl.x_prime(km))) == ["a", "b", "d"]
        assert labels(sl.spectrum(km, sl.x_core(km))) == ["d"]


class TestPowersetCounts:
    def test_minimal_covers_of_the_top(self):
        # OEIS A046165: minimal covers of a k-set
        for k, want in enumerate((1, 2, 8, 49, 462), start=1):
            E = sl.powerset_semilattice(k)
            assert len(sl.minimal_covers(E, E.n - 1)) == want

    def test_p5_relation_sets(self):
        E = sl.powerset_semilattice(5)
        tight = sl.x_tight(E)
        assert len(tight) == 812
        assert sl.x_prime(E) == tight


@st.composite
def families(draw, ground=5, most=10):
    """Intersection-closed families over a ground set, at most ``most``
    sets, as a semilattice with the nonzero elements in a drawn order."""
    sets = {0}
    for s in draw(st.lists(st.integers(0, (1 << ground) - 1), max_size=most - 2)):
        grown = sets | {s} | {s & t for t in sets}
        if len(grown) <= most:
            sets = grown
    E = sl.from_subsets([frozenset(i for i in range(ground) if m >> i & 1) for m in sets])
    order = [0] + draw(st.permutations(range(1, E.n)))
    table = [[order.index(E.meet(a, b)) for b in order] for a in order]
    return sl.FinMeetSemilattice.from_meet(table, [E.label(a) for a in order])


class TestMasksAgainstOracles:
    """The order masks, the pruned minimal-set walk and the mask spectrum
    against the meet-table definitions in ``tests/oracles.py``."""

    @settings(max_examples=150, deadline=None)
    @given(E=families(), data=st.data())
    def test_random_families(self, E, data):
        elems = range(E.n)
        assert E.atoms() == atoms_brute(E)
        for x in elems:
            assert E.down(x) == down_brute(E, x)
            for y in elems:
                assert E.join(x, y) == join_brute(E, (x, y))
        assert E.join_of(()) == join_brute(E, ())
        xs = data.draw(st.lists(st.sampled_from(elems), max_size=4))
        assert E.join_of(xs) == join_brute(E, xs)

        for x in elems:
            assert sl.minimal_covers(E, x) == minimal_covers_brute(E, x)
            parts = data.draw(st.sets(st.sampled_from(elems), max_size=4))
            if all(p in down_brute(E, x) for p in parts):
                assert sl.is_cover(E, x, mask_of(parts)) == covers_brute(E, x, parts)
            else:
                with pytest.raises(LawViolation, match="not below"):
                    sl.is_cover(E, x, mask_of(parts))
        assert sl.x_prime(E) == x_prime_brute(E)
        assert sl.x_core(E) == x_core_brute(E)

        for rels in [sl.builtin_relations(E, name) for name in sl.BUILTIN_RELATION_SETS] + [sl.x_tight(E)]:
            assert sl.spectrum(E, rels) == spectrum_brute(E, rels)
        rels = data.draw(st.lists(
            st.builds(rel, st.sampled_from(elems), st.sets(st.sampled_from(elems), max_size=3)),
            max_size=5,
        ))
        assert sl.spectrum(E, rels) == spectrum_brute(E, rels)


class TestCoverSearch:
    """The minimal-transversal search of ``_minimal_sets`` against the
    subset walk of ``tests/oracles.py``, and its running budget."""

    @pytest.mark.parametrize("E", [E3, D, V, sl.FinMeetSemilattice.from_meet([[0]])],
                             ids=["chain3", "diamond", "antichain2", "bottom-only"])
    def test_bottom_has_no_sets(self, E):
        # the bottom has no atom to cover, so no edge; the empty set is not emitted
        assert sl.minimal_covers(E, 0) == minimal_covers_brute(E, 0) == []
        assert sl._minimal_sets(E, 0, True) == []
        assert all(rel.e for rel in sl.x_tight(E) | sl.x_prime(E))

    @settings(max_examples=40, deadline=None)
    @given(E=families(ground=6, most=13))
    def test_larger_families(self, E):
        for x in range(E.n):
            assert sl.minimal_covers(E, x) == minimal_covers_brute(E, x)
        assert sl.x_prime(E) == x_prime_brute(E)

    def test_each_set_emitted_once(self):
        for E in (sl.powerset_semilattice(4), sl.random_semilattice(random.Random(5), 14, 6)):
            for x in range(E.n):
                for need_join in (False, True):
                    found = sl._minimal_sets(E, x, need_join)
                    assert len(found) == len(set(found))

    def test_budget_refuses_mid_walk(self, monkeypatch):
        # P(5) has 812 tight relations; the walk stops at the 101st
        monkeypatch.setattr(sl, "RELATION_BUDGET", 100)
        E = sl.powerset_semilattice(5)
        for walk in (sl.x_tight, sl.x_prime):
            with pytest.raises(sl.BudgetExceeded, match=r"passed 101 relations at \{.*\}, over the budget of 100$"):
                walk(E)
        # a walk that emits exactly the budget answers: P(4) has 97 relations
        monkeypatch.setattr(sl, "RELATION_BUDGET", 97)
        assert len(sl.x_tight(sl.powerset_semilattice(4))) == 97

    def test_p7_fits_the_budget(self):
        assert 186_139 <= sl.RELATION_BUDGET < 250_000


class TestAtoms:
    """X_atoms against X_tight: one relation per element, the same spectrum
    and the same representations."""

    def test_contents(self):
        a, b, top = D.index("a"), D.index("b"), D.index("1")
        assert sl.x_atoms(D) == frozenset({rel(a, {a}), rel(b, {b}), rel(top, {a, b})})
        assert sl.x_atoms(E3) == frozenset(rel(x, {1}) for x in (1, 2, 3))
        assert sl.builtin_relations(D, "tight") == sl.x_atoms(D)

    @settings(max_examples=100, deadline=None)
    @given(E=families())
    def test_inside_x_tight_with_its_spectrum(self, E):
        atoms, tight = sl.x_atoms(E), sl.x_tight(E)
        assert atoms <= tight and len(atoms) == E.n - 1
        assert sl.spectrum(E, atoms) == sl.spectrum(E, tight) == E.atom_bits

    @settings(max_examples=100, deadline=None)
    @given(E=families().filter(lambda E: E.n > 1), data=st.data())
    def test_same_representations(self, E, data):
        # a representation into P(m) is m filters: point i lies in the image
        # of x when its generator g_i is below x
        gens = data.draw(st.lists(st.integers(1, E.n - 1), min_size=1, max_size=4))
        B = ba.FinBooleanAlgebra(tuple(f"p{i}" for i in range(len(gens))))
        images = [sum(1 << i for i, g in enumerate(gens) if b >> g & 1) for b in E.below]
        rep = ba.SemilatticeRep.build(E, B, images)
        tight = ba.is_x_to_join(rep, sl.x_tight(E))
        assert ba.is_x_to_join(rep, sl.x_atoms(E)) == tight == ba.is_tight(rep)
        assert tight == all(E.atom_bits >> g & 1 for g in gens)


@st.composite
def corrupted_meets(draw):
    """The meet table of a random family with one symmetric pair of entries
    x^y = y^x (x, y distinct and nonzero) overwritten: still commutative,
    idempotent and with a bottom, and associative only sometimes."""
    E = draw(families().filter(lambda E: E.n >= 3))
    rows = [list(row) for row in E.meet_table]
    x, y = draw(st.lists(st.integers(1, E.n - 1), min_size=2, max_size=2, unique=True))
    rows[x][y] = rows[y][x] = draw(st.integers(0, E.n - 1))
    return rows, E.labels


class TestMeetAssociativity:
    """The associativity check of ``from_meet``, Light's test over a
    generating set, against the triple loop in ``tests/oracles.py``: the same
    verdict, and the triple it names violates the law."""

    @settings(max_examples=200, deadline=None)
    @given(case=corrupted_meets())
    def test_matches_triple_loop(self, case):
        rows, labels = case
        if is_associative_brute(rows):
            assert sl.FinMeetSemilattice.from_meet(rows, labels).meet_table == tuple(map(tuple, rows))
            return
        with pytest.raises(LawViolation) as err:
            sl.FinMeetSemilattice.from_meet(rows, labels)
        m = re.fullmatch(r"meet not associative at \((\w+),(\w+),(\w+)\): (\w+) != (\w+)", str(err.value))
        x, y, z, left, right = map(labels.index, m.groups())
        assert (left, right) == (rows[rows[x][y]][z], rows[x][rows[y][z]])
        assert left != right

    def test_named_triple_on_a_corrupted_chain(self):
        # the chain 0 < a < b < c with a^c overwritten by 0; the generators
        # are b, c, a, and b fails first, at row a: (a^b)^c = 0 but a^(b^c) = a
        rows = [[0, 0, 0, 0], [0, 1, 1, 0], [0, 1, 2, 2], [0, 0, 2, 3]]
        with pytest.raises(LawViolation) as err:
            sl.FinMeetSemilattice.from_meet(rows, ("0", "a", "b", "c"))
        assert str(err.value) == "meet not associative at (a,b,c): 0 != a"

    def test_single_element(self):
        assert sl.FinMeetSemilattice.from_meet([[0]]).n == 1


class TestJson:
    def test_round_trip(self):
        for E in (E3, D, V):
            back = sl.semilattice_from_json(sl.semilattice_to_json(E))
            assert back == E

    def test_relations_round_trip(self):
        rels = sl.x_tight(D)
        back = sl.relations_from_json(D, relations_to_json(D, rels))
        assert back == rels

    @settings(max_examples=100, deadline=None)
    @given(E=families(), data=st.data())
    def test_relations_round_trip_on_random_semilattices(self, E, data):
        # parts may hold the bottom and repeat a label; a repeat is one part
        elems = st.sampled_from(range(E.n))
        drawn = data.draw(st.lists(st.tuples(elems, st.lists(elems, max_size=4)), max_size=6))
        rels = frozenset(rel(e, parts) for e, parts in drawn)
        assert sl.relations_from_json(E, relations_to_json(E, rels)) == rels
        doc = [{"e": E.label(e), "parts": [E.label(p) for p in parts]} for e, parts in drawn]
        assert sl.relations_from_json(E, json.dumps(doc)) == rels

    def test_bad_document(self):
        with pytest.raises(LawViolation):
            sl.semilattice_from_json("{}")

    def test_unknown_label(self):
        with pytest.raises(LawViolation, match="unknown element"):
            sl.relations_from_json(E3, '[{"e": "nope", "parts": []}]')


JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
)
JSON_DOCS = st.recursive(
    JSON_SCALARS | st.lists(st.integers()),
    lambda inner: st.lists(inner) | st.tuples(inner, inner) | st.dictionaries(st.text(), inner),
    max_leaves=40,
)


class TestJsonText:
    """The one JSON emitter against ``json.dumps(doc, indent=2, sort_keys=True)``."""

    @settings(max_examples=100, deadline=None)
    @given(doc=JSON_DOCS)
    def test_matches_json_dumps(self, doc):
        assert sl._json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)

    @settings(max_examples=100, deadline=None)
    @given(doc=st.dictionaries(st.integers() | st.booleans(), JSON_SCALARS)
           | st.dictionaries(st.floats(allow_nan=False), JSON_SCALARS))
    def test_non_string_keys(self, doc):
        assert sl._json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)

    @settings(max_examples=100, deadline=None)
    @given(doc=JSON_DOCS | st.dictionaries(st.text(), JSON_DOCS), data=st.data())
    def test_chunks_of_iterators(self, doc, data):
        # each list or tuple may come as an iterator, empty ones too, at any depth
        def streamed(o):
            if isinstance(o, dict):
                return {k: streamed(v) for k, v in o.items()}
            if isinstance(o, (list, tuple)):
                items = [streamed(v) for v in o]
                return iter(items) if data.draw(st.booleans()) else items
            return o

        want = json.dumps(doc, indent=2, sort_keys=True)
        assert "".join(sl._json_chunks(streamed(doc), "\n")) == want

    def test_iterator_items_encoded_as_read(self):
        read = []

        def rows():
            for k in range(3):
                read.append(k)
                yield [k, 10 + k]

        doc = {"rows": rows(), "z": {"empty": iter([]), "y": 1}}
        seen = [(chunk, len(read)) for chunk in sl._json_chunks(doc, "\n")]
        assert [n for k in range(3) for chunk, n in seen if str(10 + k) in chunk] == [1, 2, 3]
        assert "".join(chunk for chunk, _ in seen) == json.dumps(
            {"rows": [[k, 10 + k] for k in range(3)], "z": {"empty": [], "y": 1}}, indent=2, sort_keys=True)

    def test_rejects_what_json_rejects(self):
        for doc in ({(1, 2): 0}, {"a": {1, 2}}, {1: 0, "a": 0}):
            with pytest.raises(TypeError) as want:
                json.dumps(doc, indent=2, sort_keys=True)
            with pytest.raises(TypeError) as got:
                sl._json_text(doc)
            assert str(got.value) == str(want.value)
