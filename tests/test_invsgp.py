import json
import random
import re
import time
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xjoin import invsgp
from xjoin import semilattice as sl
from xjoin.groupoid import germ_groupoid, groupoid_to_json
from xjoin.semilattice import BudgetExceeded, LawViolation, XRelation

from oracles import (
    check_groupoid_brute,
    dense_comp,
    elements_of,
    germ_of,
    invariant_closure_brute,
    is_associative_brute,
    left_normed_closure,
    mask_of,
    partial_map_closure_brute,
    partial_map_table_lookup,
    spectrum_brute,
    validate_brute,
)


GENERATORS = {
    "i2": (2, [{1: 2, 2: 1}, {1: 1}]),
    "b2": (2, [{1: 2}]),
    "p3": (3, [{1: 2, 2: 3}]),
    "i3": (3, [{1: 2, 2: 3, 3: 1}, {1: 2, 2: 1, 3: 3}, {1: 1, 2: 2}]),
    "i4": (4, [{1: 2, 2: 3, 3: 4, 4: 1}, {1: 2, 2: 1, 3: 3, 4: 4}, {1: 1, 2: 2, 3: 3}]),
}
I2 = invsgp.i2()
B2 = invsgp.b2()
I3 = invsgp.from_partial_maps(*GENERATORS["i3"])[0]


def s_idx(label):
    return I2.index(label)


def e_of(S):
    return S.semilattice, S.idems


def rel(e, parts):
    return XRelation(e, mask_of(parts))


class TestValidate:
    def test_i2_accepted(self):
        assert I2.n == 7

    def test_group_with_zero_accepted(self):
        S = invsgp.z2_with_zero()
        assert S.n == 3 and S.inv[2] == 2

    def test_left_zero_band_rejected(self):
        # xy = x: associative, all idempotent, but inverses are not unique
        table = [[0, 0], [1, 1]]
        with pytest.raises(LawViolation, match="generalized inverses"):
            invsgp.validate(table)

    def test_non_associative_rejected(self):
        table = [[0, 1], [1, 0]]  # no zero row; also fails absorbing law
        with pytest.raises(LawViolation):
            invsgp.validate(table)

    def test_zero_must_absorb(self):
        # a two-element semilattice with the wrong element first
        table = [[0, 0], [0, 1]]
        S = invsgp.validate(table)
        assert S.mul(0, 1) == 0
        bad = [[1, 1], [1, 1]]
        with pytest.raises(LawViolation):
            invsgp.validate(bad)


def named_triple(table):
    """The triple validate names as not associative, or None when its
    associativity check passes (other laws may still fail)."""
    try:
        invsgp.validate(table)
    except LawViolation as exc:
        m = re.fullmatch(r"not associative at \((\w+),(\w+),(\w+)\)", str(exc))
        if m:
            return tuple(0 if label == "0" else int(label[1:]) for label in m.groups())
    return None


def tables(max_n):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, n - 1), min_size=n, max_size=n), min_size=n, max_size=n
        )
    )


class TestLightAssociativity:
    """validate's associativity test over a generating set against the
    triple loop over all elements."""

    def check(self, table):
        triple = named_triple(table)
        assert (triple is None) == is_associative_brute(table)
        if triple is not None:
            a, b, c = triple
            assert table[table[a][b]][c] != table[a][table[b][c]]

    @settings(max_examples=300, deadline=None)
    @given(table=tables(6))
    def test_random_tables(self, table):
        self.check(table)

    @settings(max_examples=150, deadline=None)
    @given(
        S=st.sampled_from([I2, B2, I3, invsgp.chain_semigroup(5)]),
        data=st.data(),
    )
    def test_single_entry_corruptions(self, S, data):
        # relabelled, so the generating set is searched in another order, and
        # left intact half of the time
        order = data.draw(st.permutations(range(S.n)))
        where = {old: new for new, old in enumerate(order)}
        table = [[where[S.mult[a][b]] for b in order] for a in order]
        if data.draw(st.booleans()):
            a, b, v = (data.draw(st.integers(0, S.n - 1)) for _ in range(3))
            table[a][b] = v
        self.check(table)

    def test_one_sided_identities_are_checked(self):
        # 2 is a left identity and not a right one, then a right identity and
        # not a left one; in each table Light's test fails only at 2
        for table in ([[0, 0, 0], [0, 1, 0], [0, 1, 2]], [[0, 0, 0], [0, 0, 1], [2, 2, 2]]):
            assert named_triple(table) is not None
            self.check(table)

    def test_chain_is_generated_only_by_itself(self):
        # every element of a chain is idempotent and above all its products,
        # so the generating set is the whole semigroup and every row is used
        S = invsgp.chain_semigroup(6)
        assert sorted(S.gens) == list(range(S.n))
        for a, b in ((6, 6), (3, 5), (0, 1)):
            table = [list(row) for row in S.mult]
            table[a][b] = (table[a][b] + 1) % S.n
            self.check(table)


class TestPartialMaps:
    @pytest.mark.parametrize("name", GENERATORS)
    def test_matches_all_pairs_closure(self, name):
        points, maps = GENERATORS[name]
        S, pmaps = invsgp.from_partial_maps(points, maps)
        assert (pmaps, S.labels, S.mult) == partial_map_closure_brute(points, maps)

    def test_i2_generation(self):
        S, pmaps = invsgp.from_partial_maps(2, [{1: 2, 2: 1}, {1: 1}])
        assert S.n == 7
        assert pmaps[0] == {}

    def test_b2_generation(self):
        S, _ = invsgp.from_partial_maps(2, [{1: 2}])
        assert S.n == 5

    def test_rejects_non_injective(self):
        with pytest.raises(LawViolation, match="injective"):
            invsgp.from_partial_maps(2, [{1: 1, 2: 1}])

    def test_idempotent_semilattices(self):
        E, elems = e_of(I2)
        assert E.n == 4
        assert set(E.labels) == {"0", "1>1", "2>2", "1>1,2>2"}
        E2, _ = e_of(B2)
        assert E2.n == 3
        assert E2.atoms() == (1, 2)
        Eg, _ = e_of(invsgp.z2_with_zero())
        assert Eg.n == 2
        # the stored coordinates agree with a recomputation from the table,
        # also for a shuffled I3 table whose zero is loaded away from index 0
        i3, _ = invsgp.from_partial_maps(3, [{1: 2, 2: 3, 3: 1}, {1: 2, 2: 1, 3: 3}, {1: 1, 2: 2}])
        order = list(range(i3.n))
        random.Random(3).shuffle(order)
        order.remove(0)
        order.insert(5, 0)
        where = {old: new for new, old in enumerate(order)}
        doc = {
            "elements": [i3.labels[a] for a in order],
            "mult": [[where[i3.mult[a][b]] for b in order] for a in order],
            "zero": "0",
        }
        shuffled = invsgp.invsgp_from_json(json.dumps(doc))
        assert shuffled.n == 34 and shuffled.labels[0] == "0" and shuffled.labels != i3.labels
        for S in (I2, B2, invsgp.z2_with_zero(), shuffled):
            idems = tuple(a for a in range(S.n) if S.mult[a][a] == a)
            assert S.idems == idems and idems[0] == 0
            assert S.idem_pos == {a: i for i, a in enumerate(idems)}
            assert S.semilattice.labels == tuple(S.labels[a] for a in idems)
            for i, a in enumerate(idems):
                for j, b in enumerate(idems):
                    assert idems[S.semilattice.meet(i, j)] == S.mult[a][b]


def transformation_table(points: int):
    """All maps of {0..points-1} to itself under composition (f after g):
    associative, and not inverse for two points or more."""
    maps = sorted(product(range(points), repeat=points))
    idx = {f: i for i, f in enumerate(maps)}
    return [[idx[tuple(f[x] for x in g)] for g in maps] for f in maps]


# associative tables that are not inverse semigroups: a null semigroup, a
# left-zero band with a zero adjoined, a monogenic semigroup x, x^2 = x^3
# with a zero, the full transformation monoids on two and three points, and
# the partial transformations of three points generated by 1,2,3 -> 3,3,1
# and by 1 -> undefined, 2,3 -> 3: regular, and each generator has one
# inverse, but two idempotents do not commute
NOT_INVERSE = [
    [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
    [[0, 0, 0], [0, 1, 1], [0, 2, 2]],
    [[0, 0, 0], [0, 2, 2], [0, 2, 2]],
    transformation_table(2),
    transformation_table(3),
    [
        [0, 1, 2, 3, 4, 5, 6, 7, 8], [1, 1, 6, 8, 4, 8, 6, 8, 8], [2, 3, 0, 1, 5, 4, 7, 6, 8],
        [3, 3, 7, 8, 5, 8, 7, 8, 8], [6, 8, 1, 1, 8, 4, 8, 6, 8], [7, 8, 3, 3, 8, 5, 8, 7, 8],
        [6, 8, 1, 1, 8, 4, 8, 6, 8], [7, 8, 3, 3, 8, 5, 8, 7, 8], [8, 8, 8, 8, 8, 8, 8, 8, 8],
    ],
]


class TestValidateOracle:
    """validate's row checks against the entry-by-entry checks of
    ``oracles.validate_brute``: the same tables accepted, with the same
    inverses and idempotents, and the same message for the rest."""

    def check(self, table):
        try:
            want = validate_brute(table)
        except LawViolation as exc:
            with pytest.raises(LawViolation) as got:
                invsgp.validate(table)
            assert str(got.value) == str(exc)
            return
        S = invsgp.validate(table)
        assert (S.mult, S.inv, S.idems) == want

    @settings(max_examples=300, deadline=None)
    @given(
        table=st.sampled_from(
            [S.mult for S in (I2, B2, I3, invsgp.z2_with_zero(), invsgp.chain_semigroup(4))]
            + [invsgp.from_partial_maps(*GENERATORS["p3"])[0].mult] + NOT_INVERSE
        ),
        data=st.data(),
    )
    def test_relabelled_and_corrupted(self, table, data):
        # relabelled, which moves the zero off index 0 unless it stays put,
        # and left intact a third of the time; a corrupted entry may leave
        # the range by one at either end
        n = len(table)
        order = data.draw(st.permutations(range(n)))
        where = {old: new for new, old in enumerate(order)}
        table = [[where[table[a][b]] for b in order] for a in order]
        if data.draw(st.integers(0, 2)):
            a, b = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
            table[a][b] = data.draw(st.integers(-1, n))
        self.check(table)

    @settings(max_examples=300, deadline=None)
    @given(table=tables(5))
    def test_random_tables(self, table):
        self.check(table)

    def test_not_inverse_tables_name_their_element(self):
        for table in NOT_INVERSE:
            with pytest.raises(LawViolation, match="generalized inverses"):
                invsgp.validate(table)
        with pytest.raises(LawViolation, match="entry 3 out of range in row s1"):
            invsgp.validate([[0, 0, 0], [0, 1, 3], [0, -1, 2]])


@st.composite
def partial_injections(draw, points: int):
    image = draw(st.permutations(range(1, points + 1)))
    domain = draw(st.sets(st.integers(1, points))) if points else set()
    return {k: image[k - 1] for k in domain}


class TestRowsAlongTheTree:
    """from_partial_maps fills rows from their parents in the closure tree;
    the table of one lookup per entry must agree."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_lookup_table(self, data):
        points = data.draw(st.integers(0, 4))
        maps = data.draw(st.lists(partial_injections(points), max_size=3))
        S, pmaps = invsgp.from_partial_maps(points, maps)
        assert S.mult == partial_map_table_lookup(pmaps, points)


@st.composite
def partial_map_inputs(draw):
    points = draw(st.integers(0, 4))
    return points, draw(st.lists(partial_injections(points), max_size=3))


def over_partial_map_inputs(test):
    """Run ``test(self, case)`` on drawn partial maps, always including Z2
    with a zero that no product reaches, the empty map alone, B2 and I4."""
    cases = [
        ((2, [{1: 2, 2: 1}]), "Z2 with a zero"),
        ((0, [{}]), "the empty map"),
        ((2, [{1: 2}]), "B2"),
        (GENERATORS["i4"], "I4"),
    ]
    for case, why in cases:
        test = example(case=case).via(why)(test)
    return settings(max_examples=60, deadline=None)(given(case=partial_map_inputs())(test))


class TestBuiltWithoutValidation:
    """from_partial_maps builds its structure without calling validate, and
    germ_groupoid its tables without a check; both are compared with the
    checked constructions."""

    @staticmethod
    def twins(case):
        S, _ = invsgp.from_partial_maps(*case)
        return S, invsgp.validate(S.mult, S.labels)

    @over_partial_map_inputs
    def test_matches_validate(self, case):
        S, twin = self.twins(case)
        assert (S.inv, S.idems, S.idem_pos) == (twin.inv, twin.idems, twin.idem_pos)
        E, F = S.semilattice, twin.semilattice
        assert (E.meet_table, E.labels, E.below, E.above, E.atom_bits) == (
            F.meet_table, F.labels, F.below, F.above, F.atom_bits
        )

    @over_partial_map_inputs
    def test_gens_generate(self, case):
        S, _ = self.twins(case)
        assert left_normed_closure(S, S.gens) == frozenset(range(S.n))
        # the zero is a generator exactly when no product of the images reaches it
        images = [g for g in S.gens if g]
        assert (0 in S.gens) == (
            any(not m for m in case[1]) or 0 not in left_normed_closure(S, images)
        )

    @over_partial_map_inputs
    def test_invariant_closure_matches_twin(self, case):
        S, twin = self.twins(case)
        for name in sl.BUILTIN_RELATION_SETS:
            X = invsgp.semigroup_relations(S, name)
            assert invsgp.invariant_closure(S, X) == invsgp.invariant_closure(twin, X)

    @over_partial_map_inputs
    def test_germ_groupoids_are_groupoids(self, case):
        S, _ = self.twins(case)
        for name in sl.BUILTIN_RELATION_SETS:
            check_groupoid_brute(germ_groupoid(S, invsgp.semigroup_relations(S, name)).groupoid)

    @over_partial_map_inputs
    def test_composition_rows_hold_the_composable_arrows(self, case):
        # row a maps exactly the arrows ending at src(a), each to the germ of
        # the product of the representatives; the JSON rows are dense
        S, _ = invsgp.from_partial_maps(*case)
        for name in sl.BUILTIN_RELATION_SETS:
            gg = germ_groupoid(S, invsgp.semigroup_relations(S, name))
            G, germs = gg.groupoid, gg.germs
            for a, row in enumerate(G.comp):
                assert set(row) == {b for b in range(G.n_arrows) if G.rng[b] == G.src[a]}
                for b, ab in row.items():
                    assert germs[ab] == germ_of(S, S.mul(germs[a], germs[b]), gg.units[G.src[b]])
            assert json.loads("".join(groupoid_to_json(G)))["comp"] == dense_comp(G)

    @over_partial_map_inputs
    def test_germs_are_canonical_representatives(self, case):
        # a germ is its representative t, whose domain d(t) is the
        # generator of its source unit; germs run by unit, then by t, and
        # the units are the spectrum of the closed relation set
        S, _ = invsgp.from_partial_maps(*case)
        for name in sl.BUILTIN_RELATION_SETS:
            rels = invsgp.semigroup_relations(S, name)
            closed = invsgp.invariant_closure(S, rels)
            gg = germ_groupoid(S, rels)
            for a, t in enumerate(gg.germs):
                assert S.d(t) == S.idems[gg.units[gg.groupoid.src[a]]]
                assert gg.arrow_index[t] == a
            keys = [(gg.units[u], t) for t, u in zip(gg.germs, gg.groupoid.src)]
            assert keys == sorted(keys)
            assert sl.spectrum(S.semilattice, closed) == mask_of(gg.units) == spectrum_brute(S.semilattice, closed)


class TestIdempotentSemilatticeUnchecked:
    """``_build`` reads the idempotent semilattice off the rows without a
    check; ``from_meet`` on the same idempotent table must give every field,
    the order masks too, which ``==`` does not compare."""

    @staticmethod
    def check(S):
        F = sl.FinMeetSemilattice.from_meet(
            [[S.idem_pos[S.mult[a][b]] for b in S.idems] for a in S.idems],
            [S.labels[a] for a in S.idems],
        )
        E = S.semilattice
        assert (E.meet_table, E.labels, E.below, E.above, E.atom_bits) == (
            F.meet_table, F.labels, F.below, F.above, F.atom_bits
        )

    @over_partial_map_inputs
    def test_partial_maps(self, case):
        self.check(invsgp.from_partial_maps(*case)[0])

    @settings(max_examples=60, deadline=None)
    @given(case=partial_map_inputs(), data=st.data())
    def test_shuffled_tables(self, case, data):
        S = invsgp.from_partial_maps(*case)[0]
        order = [0] + data.draw(st.permutations(range(1, S.n)))
        where = {old: new for new, old in enumerate(order)}
        table = [[where[S.mult[a][b]] for b in order] for a in order]
        self.check(invsgp.validate(table, [S.labels[a] for a in order]))


class TestAtomsInvariantClosure:
    """"tight" over a semigroup is X_atoms, whose invariant closure has the
    spectrum of X_tight's: conjugating a relation conjugates the map that
    must satisfy it, and a map satisfies X_atoms exactly when it satisfies
    X_tight."""

    @over_partial_map_inputs
    def test_same_closed_spectrum(self, case):
        S, _ = invsgp.from_partial_maps(*case)
        E = S.semilattice
        atoms, tight = sl.x_atoms(E), sl.x_tight(E)
        assert invsgp.semigroup_relations(S, "tight") == atoms
        assert sl.spectrum(E, invsgp.invariant_closure(S, atoms)) == sl.spectrum(
            E, invsgp.invariant_closure(S, tight)
        )


I5_MAPS = [{1: 2, 2: 3, 3: 4, 4: 5, 5: 1}, {1: 2, 2: 1, 3: 3, 4: 4, 5: 5}, {1: 1, 2: 2, 3: 3, 4: 4}]
I6_MAPS = [
    {1: 2, 2: 3, 3: 4, 4: 5, 5: 6, 6: 1},
    {1: 2, 2: 1, 3: 3, 4: 4, 5: 5, 6: 6},
    {1: 1, 2: 2, 3: 3, 4: 4, 5: 5},
]


class TestTableBudget:
    def test_i6_refused_before_any_table(self):
        # 13,327 elements close in a fraction of a second; their table would
        # take minutes and gigabytes
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded) as exc:
            invsgp.from_partial_maps(6, I6_MAPS)
        assert time.perf_counter() - start < 1.0
        msg = str(exc.value)
        assert "6 points" in msg and "13,327 elements" in msg
        assert "177,608,929 entries" in msg and f"{invsgp.TABLE_BUDGET:,}" in msg

    def test_i5_answers(self):
        S, _ = invsgp.from_partial_maps(5, I5_MAPS)
        assert S.n == 1546 and S.n ** 2 == 2_390_116 <= invsgp.TABLE_BUDGET
        assert S.semilattice.n == 32

    def test_budget_bounds_entries_inclusively(self, monkeypatch):
        monkeypatch.setattr(invsgp, "TABLE_BUDGET", 34 * 34)
        assert invsgp.from_partial_maps(*GENERATORS["i3"])[0].n == 34
        monkeypatch.setattr(invsgp, "TABLE_BUDGET", 34 * 34 - 1)
        with pytest.raises(BudgetExceeded, match="34 elements, whose table of 1,156 entries"):
            invsgp.from_partial_maps(*GENERATORS["i3"])


class TestOrderAndCompatibility:
    def test_restriction_below_identity(self):
        assert invsgp.natural_leq(I2, s_idx("1>1"), s_idx("1>1,2>2"))

    def test_swap_not_below_identity(self):
        assert not invsgp.natural_leq(I2, s_idx("1>2,2>1"), s_idx("1>1,2>2"))

    def test_zero_below_everything(self):
        assert all(invsgp.natural_leq(I2, 0, a) for a in range(I2.n))

    def test_idempotents_compatible(self):
        assert invsgp.compatible(I2, s_idx("1>1"), s_idx("2>2"))

    def test_identity_swap_incompatible(self):
        assert not invsgp.compatible(I2, s_idx("1>1,2>2"), s_idx("1>2,2>1"))

    def test_self_compatible(self):
        assert all(invsgp.compatible(I2, a, a) for a in range(I2.n))


class TestConjugation:
    def test_partial_map_conjugation(self):
        s = s_idx("1>2")
        assert invsgp.conjugate(I2, s, s_idx("2>2")) == s_idx("1>1")

    def test_identity_fixes(self):
        one = s_idx("1>1,2>2")
        for e in (0, s_idx("1>1"), s_idx("2>2"), one):
            assert invsgp.conjugate(I2, one, e) == e

    def test_zero_kills(self):
        assert invsgp.conjugate(I2, 0, s_idx("1>1")) == 0

    def test_rejects_non_idempotent(self):
        with pytest.raises(LawViolation, match="idempotent"):
            invsgp.conjugate(I2, 0, s_idx("1>2"))


class TestConjugationCarriesCovers:
    @pytest.mark.parametrize(
        "S",
        [I2, B2, invsgp.from_partial_maps(3, [{1: 2, 2: 3}])[0]],
        ids=["i2", "b2", "shift3"],
    )
    def test_minimal_covers_conjugate_to_covers(self, S):
        E, elems = S.semilattice, S.idems
        pos = {a: i for i, a in enumerate(elems)}
        for s in range(S.n):
            for e_idx in range(1, E.n):
                for cov in sl.minimal_covers(E, e_idx):
                    e2 = pos[invsgp.conjugate(S, s, elems[e_idx])]
                    if e2 == 0:
                        continue
                    parts2 = mask_of(
                        pos[invsgp.conjugate(S, s, elems[p])] for p in elements_of(cov)
                    )
                    assert sl.is_cover(E, e2, parts2)


class TestInvariantClosure:
    def test_cover_of_identity_closes(self):
        E, elems = e_of(I2)
        e1, e2, top = E.index("1>1"), E.index("2>2"), E.index("1>1,2>2")
        closed = invsgp.invariant_closure(I2, {rel(top, {e1, e2})})
        assert rel(e1, {e1, 0}) in closed
        assert rel(e2, {0, e2}) in closed

    def test_all_covers_set_is_invariant(self):
        # the set of every cover pair (zeros allowed) is literally stable
        # under conjugation; the minimal-cover subset is stable only at the
        # spectrum level
        E, _ = e_of(I2)
        from itertools import combinations

        all_covers = set()
        for e in range(E.n):
            pool = E.down(e)
            for size in range(len(pool) + 1):
                for combo in combinations(pool, size):
                    if sl.is_cover(E, e, mask_of(combo)) or e == 0:
                        all_covers.add(rel(e, combo))
        all_covers = frozenset(all_covers)
        assert invsgp.invariant_closure(I2, all_covers) == all_covers

    def test_tight_closure_preserves_spectrum(self):
        E, _ = e_of(I2)
        rels = invsgp.semigroup_relations(I2, "tight")
        closed = invsgp.invariant_closure(I2, rels)
        assert rels <= closed
        assert sl.spectrum(E, closed) == sl.spectrum(E, rels)

    def test_empty(self):
        assert invsgp.invariant_closure(I2, frozenset()) == frozenset()

    def test_idempotent_and_monotone(self):
        E, _ = e_of(I2)
        base = {rel(E.index("1>1,2>2"), {E.index("1>1")})}
        once = invsgp.invariant_closure(I2, base)
        assert invsgp.invariant_closure(I2, once) == once
        assert frozenset(base) <= once


class TestInvariantClosureOracle:
    @pytest.mark.parametrize("name", sl.BUILTIN_RELATION_SETS)
    @pytest.mark.parametrize("S", [I2, I3], ids=["i2", "i3"])
    def test_matches_conjugate_closure(self, S, name):
        rels = invsgp.semigroup_relations(S, name)
        assert invsgp.invariant_closure(S, rels) == invariant_closure_brute(S, rels)


class TestAction:
    def test_moves_generator(self):
        E, _ = e_of(I2)
        moved = invsgp.act(I2, s_idx("1>2"), E.index("1>1"))
        assert moved == E.index("2>2")

    def test_idempotent_above_fixes(self):
        E, _ = e_of(I2)
        c = E.index("1>1")
        assert invsgp.act(I2, s_idx("1>1,2>2"), c) == c

    def test_outside_domain_rejected(self):
        E, _ = e_of(I2)
        with pytest.raises(LawViolation, match="domain"):
            invsgp.act(I2, s_idx("1>2"), E.index("1>1,2>2"))


class TestSpectrumInvariance:
    @pytest.mark.parametrize("name", sl.BUILTIN_RELATION_SETS)
    def test_builtin_sets_on_i2(self, name):
        assert invsgp.spectrum_invariant(I2, invsgp.semigroup_relations(I2, name))

    def test_b2_tight(self):
        assert invsgp.spectrum_invariant(B2, invsgp.semigroup_relations(B2, "tight"))

    def test_closure_restores_invariance(self):
        E, _ = e_of(I2)
        top, e1 = E.index("1>1,2>2"), E.index("1>1")
        raw = {rel(top, {e1})}
        raw_spec = sl.spectrum(E, raw)
        # before closure: a character in the spectrum moves out of it
        moved = invsgp.act(I2, s_idx("1>2"), e1)
        assert raw_spec >> e1 & 1 and not raw_spec >> moved & 1
        assert invsgp.spectrum_invariant(I2, raw)  # closure happens inside


class TestJson:
    def test_round_trip(self):
        back = invsgp.invsgp_from_json("".join(invsgp.invsgp_to_json(I2)))
        assert back == I2

    def test_generator_document(self):
        S = invsgp.invsgp_from_json('{"points": 2, "partial_maps": [{"1": "2"}]}')
        assert S.n == 5

    def test_zero_reordered(self):
        doc = """{"elements": ["x", "z"], "zero": "z",
                  "mult": [[0, 1], [1, 1]]}"""
        S = invsgp.invsgp_from_json(doc)
        assert S.labels[0] == "z"
        assert S.mul(0, 1) == 0

    def test_undeclared_zero_rejected(self):
        with pytest.raises(LawViolation, match="zero"):
            invsgp.invsgp_from_json('{"elements": ["a"], "mult": [[0]], "zero": "b"}')


def zero_moved(doc, z):
    """The zero-first document with its zero moved to index z, the other
    elements kept in order.  In-range int entries are renamed and rows of
    the right length permuted with the elements; whatever else the table
    holds is kept as it is, so a malformed table stays malformed alike."""
    labels, table = doc["elements"], doc["mult"]
    n = len(labels)
    order = [*range(1, z + 1), 0, *range(z + 1, n)]
    where = {old: new for new, old in enumerate(order)}
    rename = [[where.get(v, v) if type(v) is int else v for v in row] for row in table]
    rows = [rename[a] for a in order] if len(table) == n else rename
    rows = [[row[b] for b in order] if len(row) == n else row for row in rows]
    return {"elements": [labels[a] for a in order], "mult": rows, "zero": doc["zero"]}


def result_or_message(text):
    """The fields of the semigroup read from text, or the refusal message."""
    try:
        S = invsgp.invsgp_from_json(text)
    except LawViolation as exc:
        return str(exc)
    return S.mult, S.inv, S.labels, S.idems, S.gens


class TestTableReader:
    """One reader, ``semilattice._index_table``, checks the shape, ranges and
    labels of meet and multiplication tables alike, once per table."""

    @settings(max_examples=300, deadline=None)
    @given(
        base=st.sampled_from(
            [(S.mult, S.labels) for S in (I2, B2, invsgp.z2_with_zero(), invsgp.chain_semigroup(4),
                                          invsgp.from_partial_maps(*GENERATORS["p3"])[0])]
            + [(table, None) for table in NOT_INVERSE[:4]]
        ),
        fault=st.sampled_from(["none", "range", "type", "length", "rows", "label", "law"]),
        data=st.data(),
    )
    def test_zero_moved_reads_as_zero_first(self, base, fault, data):
        # a valid or once-corrupted zero-first table, and its twin with the
        # zero moved to a drawn index: the twin is accepted as the same
        # semigroup, or refused with the same message
        table, labels = base
        n, semigroup = len(table), labels is not None
        table = [list(row) for row in table]
        labels = list(labels or ["0", *(f"s{i}" for i in range(1, n))])
        a, b = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        if fault == "range":
            table[a][b] = data.draw(st.sampled_from([-1, n, n + 3]))
        elif fault == "type":
            table[a][b] = data.draw(st.sampled_from([float(table[a][b]), True, str(table[a][b]), None]))
        elif fault == "length":
            table[a] = table[a][:-1] if data.draw(st.booleans()) else table[a] + [0]
        elif fault == "rows":
            table = table[:-1] if data.draw(st.booleans()) else table + [table[a]]
        elif fault == "label" and a != b:
            labels[a] = labels[b]
        elif fault == "law":
            table[a][b] = data.draw(st.integers(0, n - 1))
        doc = {"elements": labels, "mult": table, "zero": labels[0]}
        z = data.draw(st.integers(0, n - 1))
        want = result_or_message(json.dumps(doc))
        assert result_or_message(json.dumps(zero_moved(doc, z))) == want
        if fault == "none":
            assert isinstance(want, str) != semigroup

    @pytest.mark.parametrize("table, labels, want", [
        ([[0, 0], [0, 5]], ["0", "a"], "'{}' entry 5 out of range in row a"),
        ([[0, 0], [-1, 1]], ["0", "a"], "'{}' entry -1 out of range in row a"),
        ([[0, 0], [0]], ["0", "a"], "'{}' row a has length 1, want 2"),
        ([[0, 0], [0, 1], [0, 0]], ["0", "a"], "3 '{}' rows but 2 labels"),
        ([[0]], ["0", "a"], "1 '{}' rows but 2 labels"),
        ([[0, 0], [0, 1]], ["a", "a"], "label 'a' names two '{}' rows"),
        ([[0, 0], [0, 1.0]], ["0", "a"], "'{}' must be a square table of element indices"),
        (5, ["0"], "'{}' must be a square table of element indices"),
    ], ids=["above-range", "below-range", "short-row", "many-rows", "few-rows",
            "repeated-label", "float-entry", "not-a-table"])
    def test_meet_and_mult_tables_share_wording(self, table, labels, want):
        for key, read in (("meet", sl.FinMeetSemilattice.from_meet), ("mult", invsgp.validate)):
            with pytest.raises(LawViolation) as got:
                read(table, labels)
            assert str(got.value) == want.format(key)

    def test_each_table_read_once(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[2])
            return read(*args)

        read, text = sl._index_table, sl.semilattice_to_json(sl.chain(3))
        monkeypatch.setattr(sl, "_index_table", counted)
        monkeypatch.setattr(invsgp, "_index_table", counted)
        sl.semilattice_from_json(text)
        assert calls == ["meet"]
        doc = json.loads("".join(invsgp.invsgp_to_json(I2)))
        for z in (0, 3):
            calls.clear()
            assert invsgp.invsgp_from_json(json.dumps(zero_moved(doc, z))) == I2
            assert calls == ["mult"]
        calls.clear()
        invsgp.invsgp_from_json('{"points": 2, "partial_maps": [{"1": "2"}]}')
        assert calls == []
