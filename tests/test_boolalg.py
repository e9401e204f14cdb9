import itertools
import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xjoin import boolalg as ba
from xjoin import semilattice as sl
from xjoin.semilattice import BudgetExceeded, LawViolation, XRelation

from oracles import count_extensions_brute, elements_of, generated_subalgebra_brute, mask_of, spectrum_brute, x_pi_brute


E3 = sl.chain(3)
D = sl.diamond()


def all_proper_reps(E, max_atoms=2):
    """Every proper representation of E into powerset algebras with at most
    max_atoms atoms, by exhaustive filtering."""
    for m in range(max_atoms + 1):
        B = ba.FinBooleanAlgebra(tuple(f"p{i}" for i in range(m)))
        for images in itertools.product(range(B.size), repeat=E.n - 1):
            try:
                rep = ba.SemilatticeRep.build(E, B, (0,) + images)
            except LawViolation:
                continue
            if ba.is_proper(rep):
                yield rep


class TestRepValidation:
    def test_meet_law_enforced(self):
        B = ba.FinBooleanAlgebra(("p", "q"))
        with pytest.raises(LawViolation, match="meet not preserved"):
            ba.SemilatticeRep.build(E3, B, (0, 1, 2, 3))

    def test_bottom_law(self):
        B = ba.FinBooleanAlgebra(("p",))
        with pytest.raises(LawViolation, match="bottom"):
            ba.SemilatticeRep.build(E3, B, (1, 1, 1, 1))


class TestProper:
    def test_canonical_map_is_proper(self):
        _, rep = ba.booleanization(E3, ())
        assert ba.is_proper(rep)

    def test_zero_map_into_nontrivial_is_not(self):
        B = ba.FinBooleanAlgebra(("p",))
        rep = ba.SemilatticeRep.build(E3, B, (0, 0, 0, 0))
        assert not ba.is_proper(rep)

    def test_onto_atoms_is_proper(self):
        B = ba.FinBooleanAlgebra(("p",))
        rep = ba.SemilatticeRep.build(E3, B, (0, 1, 1, 1))
        assert ba.is_proper(rep)


class TestXToJoin:
    @pytest.mark.parametrize("E", [E3, D], ids=["chain", "diamond"])
    @pytest.mark.parametrize("name", sl.BUILTIN_RELATION_SETS)
    def test_canonical_map_respects_its_own_relations(self, E, name):
        rels = sl.builtin_relations(E, name)
        _, rep = ba.booleanization(E, rels)
        assert ba.is_x_to_join(rep, rels)

    def test_constant_top_collapse(self):
        B = ba.FinBooleanAlgebra(("p",))
        rep = ba.SemilatticeRep.build(E3, B, (0, 1, 1, 1))
        assert ba.is_x_to_join(rep, sl.x_tight(E3))

    def test_diamond_identity_style(self):
        B = ba.FinBooleanAlgebra(("a", "b"))
        images = (0, 1, 2, 3)  # a, b to the atoms, top to the join
        rep = ba.SemilatticeRep.build(D, B, images)
        assert ba.is_x_to_join(rep, sl.x_tight(D))

    def test_tight_implies_prime_and_core(self):
        for rep in all_proper_reps(E3):
            if ba.is_tight(rep):
                assert ba.is_prime(rep) and ba.is_core(rep)
        for rep in all_proper_reps(D):
            if ba.is_tight(rep):
                assert ba.is_prime(rep) and ba.is_core(rep)


class TestMorphismCharacterizations:
    def test_prime_iff_lattice_morphism_on_chain(self):
        for rep in all_proper_reps(E3):
            assert ba.is_prime(rep) == ba.is_lattice_morphism(rep)

    def test_tight_iff_ba_morphism_on_square(self):
        E = sl.powerset_semilattice(2)
        for rep in all_proper_reps(E):
            assert ba.is_tight(rep) == ba.is_ba_morphism(rep)

    def test_zero_rep_is_neither(self):
        B = ba.FinBooleanAlgebra(("p",))
        rep = ba.SemilatticeRep.build(E3, B, (0, 0, 0, 0))
        assert not ba.is_tight(rep)
        assert not ba.is_lattice_morphism(rep)

    def test_lattice_morphism_needs_joins(self):
        V = sl.antichain(2)
        B = ba.FinBooleanAlgebra(("p", "q"))
        rep = ba.SemilatticeRep.build(V, B, (0, 1, 2))
        with pytest.raises(LawViolation, match="joins"):
            ba.is_lattice_morphism(rep)

    def test_ba_morphism_needs_boolean_domain(self):
        B = ba.FinBooleanAlgebra(("p",))
        rep = ba.SemilatticeRep.build(E3, B, (0, 1, 1, 1))
        with pytest.raises(LawViolation, match="Boolean"):
            ba.is_ba_morphism(rep)


class TestBooleanization:
    def test_chain_tight_two_elements(self):
        B, rep = ba.booleanization(E3, sl.x_tight(E3))
        assert B.size == 2
        assert ba.is_tight(rep)
        # the whole chain collapses onto the single atom
        assert rep.images[1] == rep.images[2] == rep.images[3]

    def test_chain_prime_eight_elements(self):
        B, rep = ba.booleanization(E3, sl.x_prime(E3))
        assert B.size == 8
        assert len(set(rep.images)) == E3.n  # injective
        assert ba.is_prime(rep) and not ba.is_tight(rep)

    def test_chain_unconstrained_eight_elements(self):
        B, _ = ba.booleanization(E3, ())
        assert B.size == 8

    def test_image_generates(self):
        for E in (E3, D, sl.powerset_semilattice(3)):
            for name in sl.BUILTIN_RELATION_SETS:
                B, rep = ba.booleanization(E, sl.builtin_relations(E, name))
                assert ba.generates(B, rep.images)
                assert generated_subalgebra_brute(rep.images).bit_count() == B.size

    @settings(max_examples=300, deadline=None)
    @given(m=st.integers(0, 6), data=st.data())
    def test_generates_matches_closure(self, m, data):
        B = ba.FinBooleanAlgebra(tuple(f"p{i}" for i in range(m)))
        seeds = data.draw(st.lists(st.integers(0, B.top), max_size=m + 2))
        assert ba.generates(B, seeds) == (generated_subalgebra_brute(seeds).bit_count() == B.size)


class TestBasicSets:
    def test_carving_a_character(self):
        assert ba.basic_set(E3, (), 2, {1}) == _atom_mask(E3, (), 2)

    def test_no_exclusions_is_the_canonical_image(self):
        _, rep = ba.booleanization(E3, ())
        for a in range(E3.n):
            assert ba.basic_set(E3, (), a) == rep.images[a]

    def test_bottom_is_empty(self):
        assert ba.basic_set(E3, (), 0) == 0

    def test_exclusion_must_sit_below(self):
        with pytest.raises(LawViolation, match="not below"):
            ba.basic_set(E3, (), 1, {2})


def _atom_mask(E, rels, gen):
    atoms = ba.spectrum_atoms(E, rels)
    return 1 << atoms.index(gen)


class TestUniversalExtension:
    def test_extension_of_canonical_map_is_identity(self):
        for name in sl.BUILTIN_RELATION_SETS:
            rels = sl.builtin_relations(E3, name)
            _, rep = ba.booleanization(E3, rels)
            psi = ba.universal_extension(rep, rels)
            assert psi.is_bijective()
            for mask in range(psi.source.size):
                assert psi.apply(mask) == mask

    def test_collapse_onto_two_elements(self):
        B = ba.FinBooleanAlgebra(("p",))
        rep = ba.SemilatticeRep.build(E3, B, (0, 1, 1, 1))
        psi = ba.universal_extension(rep, sl.x_tight(E3))
        assert psi.is_bijective()  # both algebras have two elements

    def test_staircase_is_bijective(self):
        B = ba.FinBooleanAlgebra(("p", "q", "r"))
        rep = ba.SemilatticeRep.build(E3, B, (0, 1, 3, 7))
        psi = ba.universal_extension(rep, ())
        assert psi.is_bijective()
        assert sorted(psi.atom_images) == [1, 2, 4]

    def test_factorization(self):
        rels = sl.x_tight(D)
        B = ba.FinBooleanAlgebra(("a", "b"))
        rep = ba.SemilatticeRep.build(D, B, (0, 1, 2, 3))
        psi = ba.universal_extension(rep, rels)
        _, iota = ba.booleanization(D, rels)
        for a in range(D.n):
            assert psi.apply(iota.images[a]) == rep.images[a]

    def test_uniqueness_by_search(self):
        rels = sl.x_tight(E3)
        B = ba.FinBooleanAlgebra(("p",))
        rep = ba.SemilatticeRep.build(E3, B, (0, 1, 1, 1))
        assert count_extensions_brute(rep, rels) == 1

    def test_rejects_non_conforming_map(self):
        B = ba.FinBooleanAlgebra(("p", "q"))
        rep = ba.SemilatticeRep.build(E3, B, (0, 1, 1, 3))
        with pytest.raises(LawViolation, match="join constraints"):
            ba.universal_extension(rep, sl.x_tight(E3))

    def test_extension_count_matches_raw_enumeration(self):
        # every candidate morphism, by brute force over atom-image tuples
        rels = sl.x_prime(D)
        Bsrc, iota = ba.booleanization(D, rels)
        target = ba.FinBooleanAlgebra(("p", "q"))
        rep = ba.SemilatticeRep.build(D, target, (0, 1, 2, 3))
        raw = []
        for images in itertools.product(range(target.size), repeat=Bsrc.m):
            try:
                psi = ba.BAMorphism.build(Bsrc, target, images)
            except LawViolation:
                continue
            if all(psi.apply(iota.images[a]) == rep.images[a] for a in range(D.n)):
                raw.append(psi)
        assert raw == [ba.universal_extension(rep, rels)]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), m=st.integers(0, 4), data=st.data())
    def test_unique_on_random_reps(self, seed, m, data):
        # the canonical map, when its codomain has at most 4 atoms, and a
        # composite of it onto m atoms each factor through one morphism only;
        # the extension, built unchecked, has disjoint atom images and factors
        name = data.draw(st.sampled_from(sl.BUILTIN_RELATION_SETS))
        rep = _composite_rep(seed, m, data, name)
        rels = sl.builtin_relations(rep.domain, name)
        _, can = ba.booleanization(rep.domain, rels)
        for r in (can, rep):
            psi = ba.universal_extension(r, rels)
            assert ba.BAMorphism.build(can.codomain, r.codomain, psi.atom_images) == psi
            assert [psi.apply(v) for v in can.images] == list(r.images)
            if can.codomain.m <= 4:
                assert count_extensions_brute(r, rels) == 1

    def test_round_trip_through_random_composites(self):
        # composing the canonical map with any morphism gives a conforming
        # representation whose extension must be that morphism
        import random

        rng = random.Random(5)
        for _ in range(25):
            E = sl.random_semilattice(rng, max_size=7)
            name = rng.choice(sl.BUILTIN_RELATION_SETS)
            rels = sl.builtin_relations(E, name)
            Bsrc, iota = ba.booleanization(E, rels)
            m = rng.randint(0, 3)
            target = ba.FinBooleanAlgebra(tuple(f"p{i}" for i in range(m)))
            images = [0] * Bsrc.m
            for t_atom in range(m):
                owner = rng.randrange(Bsrc.m) if Bsrc.m else None
                if owner is not None:
                    images[owner] |= 1 << t_atom
            if Bsrc.m == 0:
                continue
            psi = ba.BAMorphism.build(Bsrc, target, images)
            composite = ba.SemilatticeRep.build(
                E, target, [psi.apply(iota.images[a]) for a in range(E.n)]
            )
            assert ba.is_x_to_join(composite, rels)  # covers all target atoms
            back = ba.universal_extension(composite, rels)
            assert back.atom_images == psi.atom_images


class TestXPi:
    def test_tight_canonical_map_carves_tight_relations(self):
        rels = sl.x_tight(E3)
        _, rep = ba.booleanization(E3, rels)
        carved = ba.x_pi(rep)
        assert XRelation(2, mask_of({1})) in carved
        assert XRelation(0, 0) in carved

    def test_injective_rep_only_join_pairs(self):
        B = ba.FinBooleanAlgebra(("a", "b"))
        rep = ba.SemilatticeRep.build(D, B, (0, 1, 2, 3))
        carved = ba.x_pi(rep)
        top, a, b = D.index("1"), D.index("a"), D.index("b")
        assert XRelation(top, mask_of({a, b})) in carved
        assert XRelation(a, mask_of({b})) not in carved

    def test_parts_bound(self):
        # the relations with at most one part: each element against itself,
        # and the bottom against nothing
        B = ba.FinBooleanAlgebra(("a", "b"))
        rep = ba.SemilatticeRep.build(D, B, (0, 1, 2, 3))
        small = {r for r in ba.x_pi(rep) if r.parts.bit_count() <= 1}
        assert small == {XRelation(0, 0)} | {XRelation(x, mask_of({x})) for x in range(D.n)}

    def test_bounded_parts_suffice_for_the_spectrum(self):
        # parts larger than atom-count-plus-one never cut further
        for E in (E3, D, sl.powerset_semilattice(2)):
            for name in sl.BUILTIN_RELATION_SETS:
                _, rep = ba.booleanization(E, sl.builtin_relations(E, name))
                carved = ba.x_pi(rep)
                full = sl.spectrum(E, carved)
                bounded = sl.spectrum(E, [r for r in carved if r.parts.bit_count() <= rep.codomain.m + 1])
                assert full == bounded

    @pytest.mark.parametrize("E", (sl.powerset_semilattice(3), sl.chain(6), D), ids=("P3", "chain6", "diamond"))
    @pytest.mark.parametrize("name", sl.BUILTIN_RELATION_SETS)
    def test_matches_all_subsets_walk(self, E, name):
        _, rep = ba.booleanization(E, sl.builtin_relations(E, name))
        assert ba.x_pi(rep) == x_pi_brute(rep)

    def test_matches_all_subsets_walk_on_p4(self):
        E = sl.powerset_semilattice(4)
        _, rep = ba.booleanization(E, sl.x_tight(E))
        assert ba.x_pi(rep) == x_pi_brute(rep)

    def test_forecast_refuses_p5(self):
        # P(4) walks 66,674 subsets; the top of P(5) alone has 2^32
        E = sl.powerset_semilattice(5)
        _, rep = ba.booleanization(E, sl.x_tight(E))
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded, match=r"walk 4,\d{3},\d{3},\d{3} subsets .* budget of 250,000"):
            ba.x_pi(rep)
        assert time.perf_counter() - start < 0.5

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), m=st.integers(0, 4), data=st.data())
    def test_matches_all_subsets_walk_on_random_reps(self, seed, m, data):
        rep = _composite_rep(seed, m, data)
        assert ba.x_pi(rep) == x_pi_brute(rep)


def _composite_rep(seed, m, data, name=None):
    """A canonical map, under the named or a drawn relation set, followed
    by the Boolean morphism of a map from m new atoms to the old ones: meets
    and bottom are kept, joins need not be."""
    E = sl.random_semilattice(random.Random(seed), max_size=8)
    name = name or data.draw(st.sampled_from(sl.BUILTIN_RELATION_SETS))
    _, can = ba.booleanization(E, sl.builtin_relations(E, name))
    k = can.codomain.m
    if k == 0:
        m = 0
    back = data.draw(st.lists(st.integers(0, k - 1), min_size=m, max_size=m)) if k else []
    images = [sum(1 << j for j, a in enumerate(back) if x >> a & 1) for x in can.images]
    return ba.SemilatticeRep.build(E, ba.FinBooleanAlgebra(tuple(f"q{j}" for j in range(m))), images)


def _generates(rep):
    return generated_subalgebra_brute(rep.images).bit_count() == rep.codomain.size


def _assert_paths_agree(rep):
    # the closed form against the spectrum and extension read off the listed X_pi
    rels = ba.x_pi(rep)
    assert ba.spectrum_atoms(rep.domain, rels) == tuple(elements_of(ba.x_pi_spectrum(rep)))
    assert ba.theorem_isom_check(rep) == ba.universal_extension(rep, rels).is_bijective()


class TestXPiSpectrum:
    @pytest.mark.parametrize("E", (sl.powerset_semilattice(3), sl.chain(6), D), ids=("P3", "chain6", "diamond"))
    @pytest.mark.parametrize("name", sl.BUILTIN_RELATION_SETS)
    def test_matches_spectrum_of_all_subsets_walk(self, E, name):
        _, rep = ba.booleanization(E, sl.builtin_relations(E, name))
        assert ba.x_pi_spectrum(rep) == spectrum_brute(E, x_pi_brute(rep))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), m=st.integers(0, 4), data=st.data())
    def test_matches_spectrum_of_all_subsets_walk_on_random_reps(self, seed, m, data):
        rep = _composite_rep(seed, m, data)
        assert ba.x_pi_spectrum(rep) == spectrum_brute(rep.domain, x_pi_brute(rep))
        if _generates(rep):
            _assert_paths_agree(rep)

    @pytest.mark.parametrize("E", (E3, D), ids=("E3", "diamond"))
    def test_agrees_with_listed_x_pi_on_generating_reps(self, E):
        reps = [rep for rep in all_proper_reps(E) if _generates(rep)]
        assert reps
        for rep in reps:
            _assert_paths_agree(rep)

    @pytest.mark.parametrize("k", (3, 4))
    def test_agrees_with_listed_x_pi_on_powersets(self, k):
        E = sl.powerset_semilattice(k)
        _, rep = ba.booleanization(E, sl.x_tight(E))
        _assert_paths_agree(rep)

    @pytest.mark.parametrize("k", (5, 6))
    def test_isom_check_past_the_x_pi_budget(self, k):
        # x_pi refuses P(5) and P(6); the closed form needs no listing
        E = sl.powerset_semilattice(k)
        B, rep = ba.booleanization(E, sl.x_tight(E))
        assert B.m == k
        start = time.perf_counter()
        assert ba.theorem_isom_check(rep)
        assert time.perf_counter() - start < 1.0


class TestIsomCheck:
    def test_canonical_maps(self):
        for name in sl.BUILTIN_RELATION_SETS:
            _, rep = ba.booleanization(E3, sl.builtin_relations(E3, name))
            assert ba.theorem_isom_check(rep)

    def test_constant_top(self):
        B = ba.FinBooleanAlgebra(("p",))
        rep = ba.SemilatticeRep.build(E3, B, (0, 1, 1, 1))
        assert ba.theorem_isom_check(rep)

    def test_non_generating_rejected(self):
        B = ba.FinBooleanAlgebra(("p", "q"))
        rep = ba.SemilatticeRep.build(E3, B, (0, 3, 3, 3))
        with pytest.raises(LawViolation, match="generate"):
            ba.theorem_isom_check(rep)


class TestUltraFactorization:
    def test_spectrum_characters_factor_through_atoms(self):
        # every character of the carved-out relation set evaluates element
        # images against a single atom of the codomain
        for E in (E3, D):
            for name in sl.BUILTIN_RELATION_SETS:
                _, rep = ba.booleanization(E, sl.builtin_relations(E, name))
                for c in elements_of(sl.spectrum(E, ba.x_pi(rep))):
                    assert any(
                        all(
                            E.leq(c, x) == bool(rep.images[x] >> i & 1)
                            for x in range(E.n)
                        )
                        for i in range(rep.codomain.m)
                    )


class TestRepJson:
    def test_round_trip(self):
        """The writer's text against the document built from the record."""
        _, rep = ba.booleanization(E3, sl.x_prime(E3))
        atoms = rep.codomain.atom_labels
        want = {
            "atoms": list(atoms),
            "map": {E3.label(x): sorted(atoms[i] for i in elements_of(m)) for x, m in enumerate(rep.images)},
        }
        assert ba.rep_to_json(rep) == json.dumps(want, indent=2, sort_keys=True)
