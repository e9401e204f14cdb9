import copy
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xjoin import invsgp
from xjoin import semilattice as sl
from xjoin.bisection import (
    BISECTION_BUDGET,
    PAIR_BUDGET,
    AdditiveMorphism,
    BisAlgebra,
    _validate_representation,
    bis_to_json,
    bisection_count,
    check_presentation,
    check_variety_identities,
    congruence,
    difference,
    find_universal_morphism,
    generated_subsemigroup,
    iota,
    is_weakly_meet_preserving,
    restriction_morphism,
    skew_join,
    theorem_quotients_check,
)
from xjoin.groupoid import FinGroupoid, germ_groupoid
from xjoin.semilattice import BudgetExceeded, Character, LawViolation

from oracles import (
    character_set_invariant_brute,
    count_bisections_brute,
    generated_subsemigroup_brute,
    invariant_closure_brute,
    is_multiplicative_brute,
    is_weakly_meet_preserving_brute,
    left_normed_closure,
    variety_brute,
)


I2 = invsgp.i2()
E_I2 = I2.semilattice


def rels(S, name):
    return invsgp.semigroup_relations(S, name)


def one_unit_groupoid():
    return FinGroupoid.from_parts(("u",), ("id",), (0,), (0,), (0,), (0,), ((0,),))


SEMIGROUPS = {
    "i2": invsgp.i2,
    "b2": invsgp.b2,
    "chain3": lambda: invsgp.chain_semigroup(3),
    "p3": lambda: invsgp.from_partial_maps(3, [{1: 2, 2: 3}])[0],
}
SMALL_CASES = [(s, name) for s in ("i2", "b2", "chain3") for name in sl.BUILTIN_RELATION_SETS]
_ALGEBRAS: dict = {}


def algebra(s: str, name: str) -> BisAlgebra:
    """The bisection algebra of a named semigroup under a built-in relation
    set, built once; callers that poison the memos take a :func:`poisoned` copy."""
    if (s, name) not in _ALGEBRAS:
        S = SEMIGROUPS[s]()
        _ALGEBRAS[s, name] = iota(S, rels(S, name)).algebra
    return _ALGEBRAS[s, name]


def poisoned(B: BisAlgebra, poison) -> BisAlgebra:
    """A copy of B with its own memos, the given product entries overwritten."""
    out = copy.copy(B)
    out._mul = dict(B._mul)
    out._mul.update(poison)
    out._inv = dict(B._inv)
    return out


class TestEnumeration:
    def test_tight_algebra_of_i2(self):
        B = iota(I2, rels(I2, "tight")).algebra
        assert len(B) == 7

    def test_universal_algebra_of_i2(self):
        B = iota(I2, frozenset()).algebra
        assert len(B) == 21

    def test_single_unit(self):
        assert len(BisAlgebra(one_unit_groupoid())) == 2

    def test_counts_against_subset_filter(self):
        for name in ("none", "tight"):
            gg = germ_groupoid(I2, rels(I2, name))
            assert len(BisAlgebra(gg.groupoid)) == count_bisections_brute(gg.groupoid)

    def test_pair_groupoid_on_three_points(self):
        # the tight groupoid of the 3-point shift semigroup carries the
        # partial injections on 3 points: 1 + 9 + 18 + 6 of them
        S, _ = invsgp.from_partial_maps(3, [{1: 2, 2: 3}])
        gg = germ_groupoid(S, rels(S, "tight"))
        B = BisAlgebra(gg.groupoid)
        assert len(B) == 34
        assert len(B) == count_bisections_brute(gg.groupoid)

    def test_products_are_bisections_and_reverse(self):
        B = iota(I2, frozenset()).algebra
        for i in range(len(B)):
            for j in range(len(B)):
                k = B.mul(i, j)
                assert B.inv(k) == B.mul(B.inv(j), B.inv(i))

    def test_idempotents_are_unit_subsets(self):
        B = iota(I2, frozenset()).algebra
        for i in range(len(B)):
            assert B.is_idempotent(i) == (B.mul(i, i) == i)
        n_units = B.groupoid.n_units
        assert sum(B.is_idempotent(i) for i in range(len(B))) == 2 ** n_units


@st.composite
def partial_map_semigroups(draw):
    """Inverse semigroups generated by up to three partial injections on at
    most three points, each a permutation with a few points left undefined.

    The nonzero elements are put in a drawn order, so that the generating set
    is searched in another order too.
    """
    n = draw(st.integers(1, 3))
    maps = draw(st.lists(
        st.tuples(st.permutations(range(1, n + 1)), st.sets(st.integers(1, n))).map(
            lambda t: {x: y for x, y in enumerate(t[0], 1) if x not in t[1]}
        ),
        min_size=1, max_size=3,
    ))
    S = invsgp.from_partial_maps(n, maps)[0]
    order = [0] + draw(st.permutations(range(1, S.n)))
    where = {old: new for new, old in enumerate(order)}
    table = [[where[S.mult[a][b]] for b in order] for a in order]
    return invsgp.validate(table, [S.labels[a] for a in order])


class TestMaskOperationsAgainstDefinitions:
    @settings(max_examples=60, deadline=None)
    @given(S=partial_map_semigroups(), name=st.sampled_from(sl.BUILTIN_RELATION_SETS),
           data=st.data())
    def test_random_semigroups(self, S, name, data):
        G = germ_groupoid(S, rels(S, name)).groupoid
        B = BisAlgebra(G)
        if G.n_arrows <= 14:
            assert len(B) == count_bisections_brute(G)
        arrows = [[a for a in range(G.n_arrows) if e >> a & 1] for e in B.elements]
        assert arrows == sorted(arrows, key=lambda s: (len(s), s))
        n = len(B)
        sample = range(n) if n <= 40 else sorted(
            data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=40))
        )
        for i in sample:
            assert B.d(i) == B.mul(B.inv(i), i)
            assert B.r(i) == B.mul(i, B.inv(i))
            for j in sample:
                assert B.diff(i, j) == difference(B, i, j)
                assert B.skew(i, j) == skew_join(B, i, j)
                assert B.compatible(i, j) == (B.elements[i] | B.elements[j] in B.index)


I3_MAPS = (3, [{1: 2, 2: 3, 3: 1}, {1: 2, 2: 1, 3: 3}, {1: 1, 2: 2}])
I4_MAPS = (4, [{1: 2, 2: 3, 3: 4, 4: 1}, {1: 2, 2: 1, 3: 3, 4: 4}, {1: 1, 2: 2, 3: 3}])


def cyclic_groupoid(h: int) -> FinGroupoid:
    """One unit with isotropy the cyclic group of order h (tables built
    directly: the validation of a large group is cubic)."""
    arrows = range(h)
    return FinGroupoid(
        ("u",), tuple(f"g{a}" for a in arrows), (0,) * h, (0,) * h, (0,),
        tuple(-a % h for a in arrows), tuple(tuple((a + b) % h for b in arrows) for a in arrows),
    )


class TestBisectionBudget:
    """``bisection_count`` forecasts the size of ``BisAlgebra`` from orbits
    and isotropy, and the algebra refuses to enumerate over the budget."""

    @settings(max_examples=60, deadline=None)
    @given(S=partial_map_semigroups(), name=st.sampled_from(sl.BUILTIN_RELATION_SETS))
    def test_forecast_is_the_size(self, S, name):
        G = germ_groupoid(S, rels(S, name)).groupoid
        assert bisection_count(G) == len(BisAlgebra(G))

    def test_rook_numbers_and_isotropy(self):
        for (points, maps), want in ((I3_MAPS, 34), (I4_MAPS, 209)):
            S = invsgp.from_partial_maps(points, maps)[0]
            assert bisection_count(germ_groupoid(S, rels(S, "tight")).groupoid) == want
        S = invsgp.from_partial_maps(*I3_MAPS)[0]
        G = germ_groupoid(S, rels(S, "none")).groupoid
        assert bisection_count(G) == len(BisAlgebra(G)) == 33_082 <= BISECTION_BUDGET
        z2 = germ_groupoid(invsgp.z2_with_zero(), frozenset()).groupoid
        assert bisection_count(z2) == len(BisAlgebra(z2)) == 3

    def test_over_budget_is_refused(self):
        S = invsgp.from_partial_maps(*I4_MAPS)[0]
        G = germ_groupoid(S, rels(S, "none")).groupoid
        with pytest.raises(BudgetExceeded, match="83,135,918,096,825 elements, over the budget of 100,000"):
            BisAlgebra(G)

    def test_pair_passes_over_budget_are_refused(self):
        # the universal algebra of I3 is inside BISECTION_BUDGET, its pairs are not
        S = invsgp.from_partial_maps(*I3_MAPS)[0]
        chi = sl.spectrum(S.semilattice, rels(S, "tight"))
        over = "1,094,418,724 pairs of 33,082 bisections, over the budget of 1,000,000"
        with pytest.raises(BudgetExceeded, match=f"quotient check would work over the {over}"):
            theorem_quotients_check(S, chi)
        with pytest.raises(BudgetExceeded, match=f"presentation check would work over the {over}"):
            check_presentation(S, rels(S, "core"))

    def test_pair_passes_under_budget_run(self):
        # the quotient check on this algebra runs in TestQuotientTheorem
        S = invsgp.from_partial_maps(3, [{1: 2, 2: 3}])[0]
        assert len(iota(S, frozenset()).algebra) ** 2 == 56_644 <= PAIR_BUDGET
        assert check_presentation(S, frozenset()).ok

    def test_many_arrows_under_budget(self):
        # more arrows than the default recursion limit: the enumeration
        # keeps its own stack
        B = BisAlgebra(cyclic_groupoid(1500))
        assert len(B) == bisection_count(B.groupoid) == 1501
        assert B.elements[:3] == (0, 1, 2) and B.elements[-1] == 1 << 1499


class TestGeneratingSetAgainstBrute:
    """Closure, invariance and multiplicativity run over ``S.gens`` only;
    each is compared with its loop over every element."""

    @settings(max_examples=60, deadline=None)
    @given(S=partial_map_semigroups())
    def test_gens_generate(self, S):
        assert left_normed_closure(S, S.gens) == frozenset(range(S.n))

    @settings(max_examples=60, deadline=None)
    @given(S=partial_map_semigroups(), data=st.data())
    def test_invariant_closure(self, S, data):
        n = S.semilattice.n
        drawn = data.draw(st.sets(
            st.builds(sl.XRelation, st.integers(0, n - 1),
                      st.frozensets(st.integers(0, n - 1), max_size=3)),
            max_size=3,
        ))
        # one relation at each e, so that every conjugation is exercised
        parts = data.draw(st.frozensets(st.integers(0, n - 1), max_size=3))
        singles = [{sl.XRelation(e, parts)} for e in range(n)]
        for X in [rels(S, name) for name in sl.BUILTIN_RELATION_SETS] + [drawn] + singles:
            assert invsgp.invariant_closure(S, X) == invariant_closure_brute(S, X)

    @settings(max_examples=60, deadline=None)
    @given(S=partial_map_semigroups(), data=st.data())
    def test_character_set_invariant(self, S, data):
        chars = sorted(sl.characters(S.semilattice))
        keep = data.draw(st.lists(st.booleans(), min_size=len(chars), max_size=len(chars)))
        drawn = {c for c, k in zip(chars, keep) if k}
        # spectra of closed relation sets are invariant; dropping one
        # character from such a spectrum usually breaks invariance
        name = data.draw(st.sampled_from(sl.BUILTIN_RELATION_SETS))
        spec = sorted(sl.spectrum(S.semilattice, invariant_closure_brute(S, rels(S, name))))
        drop = data.draw(st.integers(0, max(len(spec) - 1, 0)))
        cut = spec[:drop] + spec[drop + 1:]
        for chi in (drawn, spec, cut):
            assert invsgp.character_set_invariant(S, chi) == character_set_invariant_brute(S, chi)

    @settings(max_examples=60, deadline=None)
    @given(S=partial_map_semigroups(), name=st.sampled_from(sl.BUILTIN_RELATION_SETS),
           data=st.data())
    def test_corrupted_image_is_caught(self, S, name, data):
        X = rels(S, name)
        rep = iota(S, X)
        B = rep.algebra
        assert is_multiplicative_brute(S, B, rep.images)
        # the zero keeps its image, so "zero not preserved" cannot come first
        v = data.draw(st.integers(0, len(B) - 1))
        for i in range(1, S.n):
            phi = list(rep.images)
            phi[i] = v
            try:
                _validate_representation(S, B, phi, X)
                failure = ""
            except LawViolation as exc:
                failure = str(exc)
            assert ("not multiplicative" in failure) == (not is_multiplicative_brute(S, B, phi))


class TestDifferenceAndSkew:
    def test_self_difference_vanishes(self):
        B = iota(I2, rels(I2, "tight")).algebra
        for i in range(len(B)):
            assert difference(B, i, i) == B.zero
            assert skew_join(B, i, i) == i

    def test_idempotent_case_is_set_difference(self):
        B = iota(I2, frozenset()).algebra
        idems = [i for i in range(len(B)) if B.is_idempotent(i)]
        for i in idems:
            for j in idems:
                want = B.index[B.elements[i] & ~B.elements[j]]
                assert difference(B, i, j) == want
                assert skew_join(B, i, j) == B.index[B.elements[i] | B.elements[j]]

    def test_tight_identity_minus_restriction(self):
        rep = iota(I2, rels(I2, "tight"))
        B = rep.algebra
        got = difference(B, rep.images[I2.index("1>1,2>2")], rep.images[I2.index("1>1")])
        # what remains is the unit at the other character
        assert B.elements[got] == B.elements[rep.images[I2.index("2>2")]]

    def test_formula_equals_arrow_filter(self):
        B = iota(I2, frozenset()).algebra
        for i in range(len(B)):
            for j in range(len(B)):
                assert difference(B, i, j) == B.diff(i, j)

    def test_compatible_join_is_union(self):
        B = iota(I2, frozenset()).algebra
        for i in range(len(B)):
            for j in range(len(B)):
                if B.compatible(i, j):
                    assert B.elements[B.skew(i, j)] == B.elements[i] | B.elements[j]
                    assert B.leq(i, B.skew(i, j)) and B.leq(j, B.skew(i, j))


class TestVarietyIdentities:
    @pytest.mark.parametrize("name", sl.BUILTIN_RELATION_SETS)
    def test_i2_algebras(self, name):
        report = check_variety_identities(iota(I2, rels(I2, name)).algebra)
        assert report.ok and report.exhaustive

    def test_sampled_mode_under_budget(self):
        B = iota(I2, frozenset()).algebra
        report = check_variety_identities(B, budget=500)
        assert report.ok and not report.exhaustive
        assert report.checked <= 500

    def test_corrupted_product_is_caught(self):
        B = iota(I2, rels(I2, "tight")).algebra
        z = next(
            i for i in range(len(B)) if not B.is_idempotent(i) and i != B.zero
        )
        # poison the product against the full unit set: the left side of
        # identity (6) consults it, the right side does not
        full = B.idem_element((1 << B.groupoid.n_units) - 1)
        B._mul[(z, full)] = B.zero
        report = check_variety_identities(B)
        assert not report.ok
        assert any(name == "6" for name, _ in report.failures)
        assert report.first_failure()

    @settings(max_examples=80, deadline=None)
    @given(
        case=st.sampled_from(SMALL_CASES),
        budget=st.sampled_from((250_000, 500, 50)),
        data=st.data(),
    )
    def test_matches_triple_loop_on_corrupted_products(self, case, budget, data):
        B = algebra(*case)
        cell = st.integers(0, len(B) - 1)
        poison = data.draw(st.dictionaries(st.tuples(cell, cell), cell, max_size=4))
        report = check_variety_identities(poisoned(B, poison), budget)
        assert report == variety_brute(poisoned(B, poison), budget)
        assert report.exhaustive == (len(B) ** 3 <= budget)

    @pytest.mark.parametrize("case", [("b2", "none"), ("b2", "tight"), ("chain3", "none")])
    def test_matches_triple_loop_with_each_product_poisoned(self, case):
        B = algebra(*case)
        n = len(B)
        for i in range(n):
            for j in range(n):
                poison = {(i, j): (B.mul(i, j) + 1) % n}
                assert check_variety_identities(poisoned(B, poison)) == variety_brute(poisoned(B, poison))


class TestIota:
    def test_tight_is_injective_onto_seven(self):
        rep = iota(I2, rels(I2, "tight"))
        assert len(set(rep.images)) == I2.n
        assert len(rep.algebra) == 7

    def test_zero_image(self):
        rep = iota(I2, frozenset())
        assert rep.images[0] == rep.algebra.zero

    def test_idempotent_semigroup_matches_semilattice_picture(self):
        S = invsgp.chain_semigroup(3)
        rep = iota(S, rels(S, "prime"))
        from xjoin import boolalg
        E, elems = S.semilattice, S.idems
        _, can = boolalg.booleanization(E, rels(S, "prime"))
        # unit sets of the semigroup map match the semilattice images
        for e_idx in range(E.n):
            assert rep.algebra.idem_mask(rep.images[elems[e_idx]]) == can.images[e_idx]


class TestPresentation:
    @pytest.mark.parametrize("name", ("none", "tight"))
    def test_i2(self, name):
        report = check_presentation(I2, rels(I2, name))
        assert report.ok
        assert report.generated == report.total

    def test_b2_tight(self):
        assert check_presentation(invsgp.b2(), rels(invsgp.b2(), "tight")).ok


class TestGeneratedSubsemigroup:
    @pytest.mark.parametrize("s", SEMIGROUPS)
    @pytest.mark.parametrize("name", sl.BUILTIN_RELATION_SETS)
    def test_matches_rounds(self, s, name):
        S = SEMIGROUPS[s]()
        rep = iota(S, rels(S, name))
        B = rep.algebra
        idems = [rep.images[e] for e in S.idems]
        for seeds in (rep.images, idems, rep.images[-1:]):
            assert generated_subsemigroup(B, seeds) == generated_subsemigroup_brute(B, seeds)
        # idempotents only generate idempotents: a proper subalgebra, so
        # the closure runs to its end without the early exit
        if not all(B.is_idempotent(i) for i in range(len(B))):
            assert len(generated_subsemigroup(B, idems)) < len(B)

    @settings(max_examples=100, deadline=None)
    @given(
        case=st.sampled_from(SMALL_CASES + [("p3", "tight")]),
        data=st.data(),
    )
    def test_matches_rounds_on_random_seeds(self, case, data):
        B = algebra(*case)
        seeds = data.draw(st.lists(st.integers(0, len(B) - 1), max_size=3))
        assert generated_subsemigroup(B, seeds) == generated_subsemigroup_brute(B, seeds)


class TestCongruence:
    def test_tight_collapse_counts(self):
        full = iota(I2, frozenset())
        chi = sl.spectrum(E_I2, rels(I2, "tight"))
        cong = congruence(full, chi)
        assert len(cong.classes) == 7

    def test_full_spectrum_identity(self):
        full = iota(I2, frozenset())
        chi = sl.spectrum(E_I2, frozenset())
        assert len(congruence(full, chi).classes) == 21

    def test_empty_spectrum_total_collapse(self):
        full = iota(I2, frozenset())
        assert len(congruence(full, frozenset()).classes) == 1

    def test_rejects_non_invariant_set(self):
        full = iota(I2, frozenset())
        lone = frozenset({Character(E_I2.index("1>1"))})
        with pytest.raises(LawViolation, match="invariant"):
            congruence(full, lone)

    def test_rejects_non_universal_algebra(self):
        tight_rep = iota(I2, rels(I2, "tight"))
        with pytest.raises(LawViolation, match="universal"):
            congruence(tight_rep, frozenset())


def invariant_spectra(S):
    E = S.semilattice
    chars = sorted(sl.characters(E))
    out = []
    for bits in range(1 << len(chars)):
        chi = frozenset(c for i, c in enumerate(chars) if bits >> i & 1)
        if invsgp.character_set_invariant(S, chi):
            out.append(chi)
    return out


class TestQuotientTheorem:
    def test_i2_every_invariant_spectrum(self):
        spectra = invariant_spectra(I2)
        assert len(spectra) == 4
        for chi in spectra:
            report = theorem_quotients_check(I2, chi)
            assert report.ok, (sorted(c.gen for c in chi), report)
            assert report.class_count == report.quotient_size
            assert report.weakly_meet_preserving

    def test_b2_every_invariant_spectrum(self):
        B2 = invsgp.b2()
        spectra = invariant_spectra(B2)
        assert len(spectra) == 2  # empty and full (= tight)
        for chi in spectra:
            assert theorem_quotients_check(B2, chi).ok

    def test_tight_sizes(self):
        chi = sl.spectrum(E_I2, rels(I2, "tight"))
        report = theorem_quotients_check(I2, chi)
        assert (report.class_count, report.quotient_size) == (7, 7)

    def test_shift_semigroup_collapse(self):
        # 238 bisections of the universal groupoid collapse onto the 34
        # partial injections of the tight one
        S, _ = invsgp.from_partial_maps(3, [{1: 2, 2: 3}])
        E = S.semilattice
        chi = sl.spectrum(E, rels(S, "tight"))
        report = theorem_quotients_check(S, chi)
        assert report.ok
        assert (report.class_count, report.quotient_size) == (34, 34)
        assert len(iota(S, frozenset()).algebra) == 238


class TestWeaklyMeetPreserving:
    def test_quotient_map(self):
        full = iota(I2, frozenset())
        chi = sl.spectrum(E_I2, rels(I2, "tight"))
        assert is_weakly_meet_preserving(restriction_morphism(full, chi))

    def test_identity(self):
        B = iota(I2, rels(I2, "tight")).algebra
        ident = AdditiveMorphism.build(B, B, tuple(range(len(B))))
        assert is_weakly_meet_preserving(ident)

    def test_group_collapse_is_not(self):
        # collapsing a two-element group onto the trivial one merges two
        # elements whose only common lower bound is zero
        source = iota(invsgp.z2_with_zero(), frozenset()).algebra
        target = iota(invsgp.group_with_zero([[0]]), frozenset()).algebra
        assert (len(source), len(target)) == (3, 2)
        table = tuple(0 if not source.elements[i] else 1 for i in range(3))
        collapse = AdditiveMorphism.build(source, target, table)
        assert not is_weakly_meet_preserving(collapse)

    def test_collapse_found_by_search(self):
        # the counterexample above is reachable by scanning all candidates
        source = iota(invsgp.z2_with_zero(), frozenset()).algebra
        target = iota(invsgp.group_with_zero([[0]]), frozenset()).algebra
        found = []
        for t1 in range(2):
            for t2 in range(2):
                try:
                    m = AdditiveMorphism.build(source, target, (0, t1, t2))
                except LawViolation:
                    continue
                found.append(m)
        assert any(not is_weakly_meet_preserving(m) for m in found)


def accepted_morphisms(source: BisAlgebra, target: BisAlgebra):
    """Every table from source to target that ``AdditiveMorphism.build`` accepts."""
    for tail in itertools.product(range(len(target)), repeat=len(source) - 1):
        try:
            yield AdditiveMorphism.build(source, target, (target.zero, *tail))
        except LawViolation:
            continue


class TestWeakMeetTestAgainstDefinition:
    def test_every_accepted_table_between_small_algebras(self):
        small = [
            BisAlgebra(one_unit_groupoid()),
            iota(invsgp.z2_with_zero(), frozenset()).algebra,
            iota(invsgp.group_with_zero([[0]]), frozenset()).algebra,
            iota(invsgp.chain_semigroup(2), frozenset()).algebra,
            iota(invsgp.group_with_zero([[0, 1, 2], [1, 2, 0], [2, 0, 1]]), frozenset()).algebra,
            algebra("b2", "tight"),
        ]
        verdicts = []
        for source in small:
            for target in small:
                if len(target) ** (len(source) - 1) > 5_000:
                    continue  # b2 onto itself: 7^6 tables
                for m in accepted_morphisms(source, target):
                    verdict = is_weakly_meet_preserving(m)
                    assert verdict == is_weakly_meet_preserving_brute(m), (m.table,)
                    verdicts.append(verdict)
        assert True in verdicts and False in verdicts

    def test_group_collapse_stays_false(self):
        source = iota(invsgp.z2_with_zero(), frozenset()).algebra
        target = iota(invsgp.group_with_zero([[0]]), frozenset()).algebra
        collapse = AdditiveMorphism.build(source, target, (0, 1, 1))
        assert not is_weakly_meet_preserving(collapse)
        assert not is_weakly_meet_preserving_brute(collapse)

    def test_identity_on_i2_tight(self):
        B = algebra("i2", "tight")
        ident = AdditiveMorphism.build(B, B, tuple(range(len(B))))
        assert is_weakly_meet_preserving(ident) and is_weakly_meet_preserving_brute(ident)

    @pytest.mark.parametrize("s", ("i2", "b2", "p3"))
    def test_restriction_to_every_builtin_spectrum(self, s):
        S = SEMIGROUPS[s]()
        full = iota(S, frozenset())
        spectra = {sl.spectrum(S.semilattice, rels(S, name)) for name in sl.BUILTIN_RELATION_SETS}
        for chi in spectra:
            m = restriction_morphism(full, chi)
            assert is_weakly_meet_preserving(m) == is_weakly_meet_preserving_brute(m)


class TestUniversalMorphism:
    def test_factor_through_self_is_identity(self):
        rep = iota(I2, rels(I2, "tight"))
        res = find_universal_morphism(I2, rels(I2, "tight"), rep.algebra, rep.images)
        assert res.unique and res.method == "exhaustive"
        assert res.morphism.table == tuple(range(len(rep.algebra)))

    def test_canonical_surjection_onto_tight(self):
        tight_rep = iota(I2, rels(I2, "tight"))
        res = find_universal_morphism(I2, frozenset(), tight_rep.algebra, tight_rep.images)
        assert res.unique
        assert len(set(res.morphism.table)) == len(tight_rep.algebra)

    def test_agrees_with_restriction_quotient(self):
        full = iota(I2, frozenset())
        chi = sl.spectrum(E_I2, rels(I2, "tight"))
        morph = restriction_morphism(full, chi)
        from xjoin import boolalg
        E, elems = I2.semilattice, I2.idems
        chi_sorted = tuple(sorted(chi))
        BA = boolalg.FinBooleanAlgebra(tuple(E.label(c.gen) for c in chi_sorted))
        images = [
            sum(1 << i for i, c in enumerate(chi_sorted) if E.leq(c.gen, e))
            for e in range(E.n)
        ]
        carved = boolalg.x_pi(boolalg.SemilatticeRep.build(E, BA, images))
        phi = tuple(morph.table[full.images[s]] for s in range(I2.n))
        res = find_universal_morphism(I2, carved, morph.target, phi)
        assert res.unique
        assert len(set(res.morphism.table)) == len(morph.target)  # bijective

    def test_rejects_non_conforming_map(self):
        rep = iota(I2, frozenset())
        with pytest.raises(LawViolation, match="join constraints"):
            find_universal_morphism(I2, rels(I2, "tight"), rep.algebra, rep.images)

    def test_generator_determinacy_above_search_cutoff(self):
        # the doubled target has 49 elements, past the exhaustive-search
        # limit; the diagonal representation still factors uniquely
        rep = iota(I2, rels(I2, "tight"))
        G = rep.germs.groupoid
        doubled = _disjoint_double(G)
        target = BisAlgebra(doubled)
        assert len(target) == 49
        offset = G.n_arrows
        phi = tuple(
            target.index[
                rep.algebra.elements[rep.images[s]]
                | rep.algebra.elements[rep.images[s]] << offset
            ]
            for s in range(I2.n)
        )
        res = find_universal_morphism(I2, rels(I2, "tight"), target, phi)
        assert res.unique and res.method == "generators"
        uni = iota(I2, rels(I2, "tight"))
        for s in range(I2.n):
            assert res.morphism.table[uni.images[s]] == phi[s]


def _disjoint_double(G: FinGroupoid) -> FinGroupoid:
    n, m = G.n_arrows, G.n_units
    comp = [[-1] * (2 * n) for _ in range(2 * n)]
    for a in range(n):
        for b in range(n):
            if G.comp[a][b] >= 0:
                comp[a][b] = G.comp[a][b]
                comp[a + n][b + n] = G.comp[a][b] + n
    return FinGroupoid.from_parts(
        unit_labels=[f"{u}/L" for u in G.unit_labels] + [f"{u}/R" for u in G.unit_labels],
        arrow_labels=[f"{a}/L" for a in G.arrow_labels] + [f"{a}/R" for a in G.arrow_labels],
        src=list(G.src) + [s + m for s in G.src],
        rng=list(G.rng) + [r + m for r in G.rng],
        unit_arrow=list(G.unit_arrow) + [u + n for u in G.unit_arrow],
        inv=list(G.inv) + [i + n for i in G.inv],
        comp=comp,
    )


class TestMorphismCounter:
    def test_matches_raw_enumeration(self):
        from itertools import product
        from xjoin.bisection import _count_additive_morphisms

        source = iota(invsgp.z2_with_zero(), frozenset()).algebra
        target = iota(I2, rels(I2, "tight")).algebra
        raw = 0
        for table in product(range(len(target)), repeat=len(source)):
            try:
                AdditiveMorphism.build(source, target, table)
            except LawViolation:
                continue
            raw += 1
        counted = _count_additive_morphisms(source, target, {}, limit=raw + 5)
        assert counted == raw
        assert raw >= 2  # at least the zero map and an embedding exist


class TestClosureEquivalence:
    def test_semigroup_maps_satisfy_x_iff_closure(self):
        # a multiplicative map conjugates its join constraints, so the
        # original and the closed relation set constrain it identically
        from xjoin.boolalg import is_x_to_join

        E = I2.semilattice
        top, e1, e2 = E.index("1>1,2>2"), E.index("1>1"), E.index("2>2")
        custom = frozenset({sl.XRelation(top, frozenset({e1, e2}))})
        relation_sets = [rels(I2, n) for n in sl.BUILTIN_RELATION_SETS] + [custom]
        reps = [iota(I2, rels(I2, n)).idem_rep() for n in sl.BUILTIN_RELATION_SETS]
        for X in relation_sets:
            closed = invsgp.invariant_closure(I2, X)
            for rep in reps:
                assert is_x_to_join(rep, X) == is_x_to_join(rep, closed)


class TestJsonEmission:
    def test_elements_reload_against_groupoid(self):
        import json
        from xjoin.groupoid import groupoid_from_json

        B = iota(I2, rels(I2, "tight")).algebra
        doc = json.loads(bis_to_json(B))
        G = groupoid_from_json(json.dumps(doc["groupoid"]))
        rebuilt = BisAlgebra(G)
        assert [
            [a for a in range(G.n_arrows) if e >> a & 1] for e in rebuilt.elements
        ] == doc["elements"]
