import copy
import itertools
import json
import re
import time
from functools import reduce

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from xjoin import bisection, invsgp
from xjoin import semilattice as sl
from xjoin.bisection import (
    BISECTION_BUDGET,
    AdditiveMorphism,
    BisAlgebra,
    _check_additive,
    _validate_representation,
    bis_to_json,
    bisection_count,
    check_presentation,
    check_variety_identities,
    find_universal_morphism,
    generated_subsemigroup,
    iota,
    is_weakly_meet_preserving,
    theorem_quotients_check,
)
from xjoin.boolalg import SemilatticeRep, character_rep, is_x_to_join, x_pi, x_pi_spectrum
from xjoin.groupoid import FinGroupoid, germ_groupoid, theta
from xjoin.semilattice import BudgetExceeded, LawViolation

from oracles import (
    PresentationReport,
    QuotientReport,
    all_bisections_brute,
    character_set_invariant_brute,
    check_additive_brute,
    check_groupoid_brute,
    check_presentation_brute,
    congruence_brute,
    count_additive_morphisms_brute,
    count_bisections_brute,
    dense_comp,
    difference,
    elements_of,
    expanded,
    from_parts,
    generated_subsemigroup_brute,
    invariant_closure_brute,
    is_multiplicative_brute,
    is_weakly_meet_preserving_brute,
    left_normed_closure,
    mask_of,
    product_brute,
    restricted_groupoid_brute,
    restriction_brute,
    skew_join,
    sparse_comp,
    theorem_quotients_check_brute,
    theta_brute,
    variety_brute,
)


I2 = invsgp.i2()
E_I2 = I2.semilattice


def rels(S, name):
    return invsgp.semigroup_relations(S, name)


def carved(S, chi):
    """The germ groupoid of the relation set that the character set χ carves out."""
    return germ_groupoid(S, x_pi(character_rep(S.semilattice, elements_of(chi))))


def idem_rep(rep) -> SemilatticeRep:
    """A canonical map restricted to the idempotents, as a semilattice
    representation in the unit algebra, checked by ``SemilatticeRep.build``."""
    S, B = rep.germs.semigroup, rep.algebra
    return SemilatticeRep.build(S.semilattice, B.unit_algebra(), [B.idem_mask(rep.images[e]) for e in S.idems])


def one_unit_groupoid():
    return from_parts(("u",), ("id",), (0,), (0,), (0,), (0,), ((0,),))


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
    set, built once; callers that poison products take a :func:`poisoned` copy."""
    if (s, name) not in _ALGEBRAS:
        S = SEMIGROUPS[s]()
        _ALGEBRAS[s, name] = iota(S, rels(S, name)).algebra
    return _ALGEBRAS[s, name]


def poisoned(B: BisAlgebra, poison, **ops) -> BisAlgebra:
    """A copy of B whose ``mul`` answers each pair in ``poison`` with its
    entry, idempotent factors included, and every other pair as B does; a
    table passed as ``skew=`` or ``diff=`` poisons that operation alike."""
    out = copy.copy(B)
    for name, table in {"mul": poison, **ops}.items():
        op = getattr(B, name)
        setattr(out, name, lambda x, y, op=op, table=table: table[x, y] if (x, y) in table else op(x, y))
    return out


class TestEnumeration:
    def test_tight_algebra_of_i2(self):
        B = iota(I2, rels(I2, "tight")).algebra
        assert len(B) == len(B.elements) == 7

    def test_universal_algebra_of_i2(self):
        B = iota(I2, frozenset()).algebra
        assert len(B) == len(B.elements) == 21

    def test_single_unit(self):
        assert BisAlgebra(one_unit_groupoid()).elements == (0, 1)

    def test_counts_against_subset_filter(self):
        for name in ("none", "tight"):
            gg = germ_groupoid(I2, rels(I2, name))
            assert len(BisAlgebra(gg.groupoid).elements) == count_bisections_brute(gg.groupoid)

    def test_pair_groupoid_on_three_points(self):
        # the tight groupoid of the 3-point shift semigroup carries the
        # partial injections on 3 points: 1 + 9 + 18 + 6 of them
        S, _ = invsgp.from_partial_maps(3, [{1: 2, 2: 3}])
        gg = germ_groupoid(S, rels(S, "tight"))
        B = BisAlgebra(gg.groupoid)
        assert len(B.elements) == 34
        assert len(B.elements) == count_bisections_brute(gg.groupoid)

    def test_products_are_bisections_and_reverse(self):
        B = iota(I2, frozenset()).algebra
        for x in B.elements:
            for y in B.elements:
                k = B.mul(x, y)
                assert k in B.elements
                assert B.inv(k) == B.mul(B.inv(y), B.inv(x))

    def test_product_that_is_no_bisection_is_refused(self):
        # move one composite of a two-arrow product onto another arrow with
        # the same source as the other composite: the product is built, not
        # re-checked, and the groupoid checker refuses the table
        B = iota(I2, frozenset()).algebra
        G = B.groupoid
        comp = dense_comp(G)
        for x, y in itertools.product(B.elements, repeat=2):
            if B.is_idempotent(x) or B.is_idempotent(y) or B.mul(x, y).bit_count() < 2:
                continue
            (a1, b1), (a2, b2) = [(a, b) for a in elements_of(x) for b in elements_of(y) if comp[a][b] >= 0][:2]
            c2 = comp[a2][b2]
            c3 = next(c for c in range(G.n_arrows) if G.src[c] == G.src[c2] and c != c2)
            comp[a1][b1] = c3
            bad = G._replace(comp=sparse_comp(comp))
            built = BisAlgebra(bad)
            assert not built._is_bisection(built.mul(x, y))
            with pytest.raises(LawViolation, match=r"^composite of \(.*\) mislocated$"):
                check_groupoid_brute(bad)
            return
        raise AssertionError("no two-arrow product of non-idempotents")

    def test_idempotents_are_unit_subsets(self):
        B = iota(I2, frozenset()).algebra
        for x in B.elements:
            assert B.is_idempotent(x) == (B.mul(x, x) == x)
        n_units = B.groupoid.n_units
        assert sum(map(B.is_idempotent, B.elements)) == 2 ** n_units


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
        els = B.elements
        if G.n_arrows <= 14:
            assert len(els) == count_bisections_brute(G)
        arrows = [[a for a in range(G.n_arrows) if e >> a & 1] for e in els]
        assert arrows == sorted(arrows, key=lambda s: (len(s), s))
        n, members = len(els), set(els)
        sample = els if n <= 40 else [
            els[k] for k in sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=40)))
        ]
        for i in sample:
            assert B.d(i) == B.mul(B.inv(i), i)
            assert B.r(i) == B.mul(i, B.inv(i))
            for j in sample:
                assert B.diff(i, j) == difference(B, i, j)
                assert B.skew(i, j) == skew_join(B, i, j)
                assert B.compatible(i, j) == (i | j in members)


class TestKernelsAgainstOracles:
    """The mask kernels of ``BisAlgebra`` against the double-loop product
    and the stack-and-bucket enumeration, on a fresh algebra."""

    @settings(max_examples=60, deadline=None)
    @given(S=partial_map_semigroups(), name=st.sampled_from(sl.BUILTIN_RELATION_SETS),
           data=st.data())
    def test_random_semigroups(self, S, name, data):
        G = germ_groupoid(S, rels(S, name)).groupoid
        B = BisAlgebra(G)
        masks, srcs, rngs = all_bisections_brute(G)
        assert B.elements == masks
        assert (tuple(map(B.srcm.get, masks)), tuple(map(B.rngm.get, masks))) == (srcs, rngs)
        n, els = len(masks), B.elements
        sample = els if n <= 40 else [
            els[k] for k in sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=40)))
        ]
        for x in sample:
            for y in sample:
                assert B.mul(x, y) == product_brute(G, x, y)
        for e in map(B.idem_element, range(1 << G.n_units)):
            for v in sample:
                assert B.mul(e, v) == product_brute(G, e, v)
                assert B.mul(v, e) == product_brute(G, v, e)

    @settings(max_examples=60, deadline=None)
    @given(S=partial_map_semigroups(), name=st.sampled_from(sl.BUILTIN_RELATION_SETS))
    def test_json_by_levels(self, S, name):
        G = germ_groupoid(S, rels(S, name)).groupoid
        arrows = [
            {"label": G.arrow_labels[a], "src": G.src[a], "rng": G.rng[a], "inv": G.inv[a]}
            for a in range(G.n_arrows)
        ]
        groupoid = {"units": list(G.unit_labels), "arrows": arrows,
                    "unit_arrow": list(G.unit_arrow), "comp": dense_comp(G)}
        elements = [elements_of(x) for x in all_bisections_brute(G)[0]]
        want = json.dumps({"elements": elements, "groupoid": groupoid}, indent=2, sort_keys=True)
        assert "".join(bis_to_json(BisAlgebra(G))) == want


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
    and isotropy; any algebra is built, and only listing its elements is
    refused when they are over the budget."""

    @settings(max_examples=60, deadline=None)
    @given(S=partial_map_semigroups(), name=st.sampled_from(sl.BUILTIN_RELATION_SETS))
    def test_forecast_is_the_size(self, S, name):
        G = germ_groupoid(S, rels(S, name)).groupoid
        assert bisection_count(G) == len(BisAlgebra(G).elements)

    def test_rook_numbers_and_isotropy(self):
        for (points, maps), want in ((I3_MAPS, 34), (I4_MAPS, 209)):
            S = invsgp.from_partial_maps(points, maps)[0]
            assert bisection_count(germ_groupoid(S, rels(S, "tight")).groupoid) == want
        S = invsgp.from_partial_maps(*I3_MAPS)[0]
        G = germ_groupoid(S, rels(S, "none")).groupoid
        assert bisection_count(G) == len(BisAlgebra(G).elements) == 33_082 <= BISECTION_BUDGET
        z2 = germ_groupoid(invsgp.z2_with_zero(), frozenset()).groupoid
        assert bisection_count(z2) == len(BisAlgebra(z2).elements) == 3

    def test_over_budget_is_refused(self):
        # I4's universal algebra is built (2^15 idempotents) and sized, but
        # listing its elements is refused
        S = invsgp.from_partial_maps(*I4_MAPS)[0]
        G = germ_groupoid(S, rels(S, "none")).groupoid
        B = BisAlgebra(G)
        assert len(B) == 83_135_918_096_825
        with pytest.raises(BudgetExceeded, match="83,135,918,096,825 elements, over the budget of 100,000"):
            B.elements
        # 17 units have 2^17 idempotents: the algebra builds and works on
        # masks, and only listing its 131,072 elements is refused; 16 fit
        for n in (16, 17):
            G = germ_groupoid(invsgp.chain_semigroup(n), frozenset()).groupoid
            B = BisAlgebra(G)
            assert bisection_count(G) == len(B) == 2 ** n
            top = B.idem_element((1 << n) - 1)
            assert B.mul(top, top) == top == B.d(top) and B.diff(top, top) == 0
            if n == 16:
                assert len(B.elements) == 65_536
                continue
            with pytest.raises(BudgetExceeded, match="131,072 elements, over the budget of 100,000"):
                B.elements

    def test_iota_forecasts_before_composing(self):
        # iota sizes its algebra by the forecast and lists nothing, however
        # many units its groupoid has
        for S, want in (
            (invsgp.chain_semigroup(17), 2 ** 17),
            (invsgp.from_partial_maps(*I4_MAPS)[0], 83_135_918_096_825),
        ):
            B = bisection.iota(S, frozenset()).algebra
            assert bisection_count(B.groupoid) == len(B) == want
            assert B._elements is None

    def test_i3_universal_checks_answer(self):
        # the universal algebra of I3 has 33,082 elements and 1.1e9 pairs;
        # the checks work on its 33 arrows and answer in well under a second
        S = invsgp.from_partial_maps(*I3_MAPS)[0]
        chi = sl.spectrum(S.semilattice, invsgp.invariant_closure(S, rels(S, "tight")))
        start = time.perf_counter()
        classes = theorem_quotients_check(S, chi)
        assert time.perf_counter() - start < 5.0
        # the tight algebra of I3 is I3 itself
        assert classes == S.n == 34
        start = time.perf_counter()
        total = check_presentation(S, rels(S, "core"))
        assert time.perf_counter() - start < 5.0
        assert total == 33_082

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
                      st.frozensets(st.integers(0, n - 1), max_size=3).map(mask_of)),
            max_size=3,
        ))
        # one relation at each e, so that every conjugation is exercised
        parts = mask_of(data.draw(st.frozensets(st.integers(0, n - 1), max_size=3)))
        singles = [{sl.XRelation(e, parts)} for e in range(n)]
        for X in [rels(S, name) for name in sl.BUILTIN_RELATION_SETS] + [drawn] + singles:
            assert invsgp.invariant_closure(S, X) == invariant_closure_brute(S, X)

    @settings(max_examples=60, deadline=None)
    @given(S=partial_map_semigroups(), data=st.data())
    def test_character_set_invariant(self, S, data):
        chars = elements_of(sl.characters(S.semilattice))
        keep = data.draw(st.lists(st.booleans(), min_size=len(chars), max_size=len(chars)))
        drawn = mask_of(c for c, k in zip(chars, keep) if k)
        # spectra of closed relation sets are invariant; dropping one
        # character from such a spectrum usually breaks invariance
        name = data.draw(st.sampled_from(sl.BUILTIN_RELATION_SETS))
        spec = elements_of(sl.spectrum(S.semilattice, invariant_closure_brute(S, rels(S, name))))
        drop = data.draw(st.integers(0, max(len(spec) - 1, 0)))
        cut = spec[:drop] + spec[drop + 1:]
        for chi in (drawn, mask_of(spec), mask_of(cut)):
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
        v = data.draw(st.sampled_from(B.elements))
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
        for x in B.elements:
            assert difference(B, x, x) == B.zero
            assert skew_join(B, x, x) == x

    def test_idempotent_case_is_set_difference(self):
        B = iota(I2, frozenset()).algebra
        idems = [x for x in B.elements if B.is_idempotent(x)]
        for x in idems:
            for y in idems:
                assert difference(B, x, y) == x & ~y
                assert skew_join(B, x, y) == x | y

    def test_tight_identity_minus_restriction(self):
        rep = iota(I2, rels(I2, "tight"))
        B = rep.algebra
        got = difference(B, rep.images[I2.index("1>1,2>2")], rep.images[I2.index("1>1")])
        # what remains is the unit at the other character
        assert got == rep.images[I2.index("2>2")]

    def test_formula_equals_arrow_filter(self):
        B = iota(I2, frozenset()).algebra
        for x in B.elements:
            for y in B.elements:
                assert difference(B, x, y) == B.diff(x, y)

    def test_compatible_join_is_union(self):
        B = iota(I2, frozenset()).algebra
        for x in B.elements:
            for y in B.elements:
                if B.compatible(x, y):
                    assert B.skew(x, y) == B.join(x, y) == x | y
                    assert B.leq(x, B.skew(x, y)) and B.leq(y, B.skew(x, y))
                else:
                    with pytest.raises(LawViolation, match="are not compatible"):
                        B.join(x, y)


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
        z = next(x for x in B.elements if not B.is_idempotent(x) and x != B.zero)
        # poison the product against the full unit set: the left side of
        # identity (6) consults it, the right side does not
        full = B.idem_element((1 << B.groupoid.n_units) - 1)
        report = check_variety_identities(poisoned(B, {(z, full): B.zero}))
        assert not report.ok
        assert any(name == "6" for name, _ in report.failures)
        assert report.first_failure()

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_is_refused(self, budget):
        with pytest.raises(LawViolation, match=f"budget must be at least 1, got {budget}"):
            check_variety_identities(algebra("i2", "tight"), budget)

    @settings(max_examples=80, deadline=None)
    @given(
        case=st.sampled_from(SMALL_CASES),
        budget=st.sampled_from((250_000, 500, 50)),
        data=st.data(),
    )
    def test_matches_triple_loop_on_corrupted_products(self, case, budget, data):
        # the identities read products, skew joins and differences, mostly
        # of idempotents, so pairs of idempotents are drawn as often as any
        B = algebra(*case)
        cell = st.sampled_from(B.elements)
        arg = st.one_of(st.sampled_from([x for x in B.elements if B.is_idempotent(x)]), cell)
        table = st.dictionaries(st.tuples(arg, arg), cell, max_size=4)
        tables = {name: data.draw(table) for name in ("mul", "skew", "diff")}
        P = poisoned(B, tables["mul"], skew=tables["skew"], diff=tables["diff"])
        for name, poison in tables.items():
            assert all(getattr(P, name)(x, y) == v for (x, y), v in poison.items())
        report = check_variety_identities(P, budget)
        assert report == variety_brute(P, budget)
        assert report.exhaustive == (len(B) ** 3 <= budget)

    def test_sampled_mode_reports_witness_of_a_repeated_idempotent_pair(self):
        # the sample evaluates the (d x, d y) laws once per distinct pair:
        # poison the meet of a pair the sample meets more than once
        B, budget = algebra("i2", "none"), 500
        els = B.elements
        n = len(els)
        firsts: dict[tuple[int, int], int] = {}
        counts: dict[tuple[int, int], int] = {}
        for t in range(0, n ** 3, n ** 3 // budget + 1):
            pair = (B.d(els[t // (n * n)]), B.d(els[t // n % n]))
            firsts.setdefault(pair, t)
            counts[pair] = counts.get(pair, 0) + 1
        e, f = next(p for p, c in counts.items() if c > 1 and p[0] != p[1])
        poison = {(e, f): els[(els.index(B.mul(e, f)) + 1) % n]}
        report = check_variety_identities(poisoned(B, poison), budget)
        assert not report.exhaustive
        assert report == variety_brute(poisoned(B, poison), budget)
        # meet-commutativity fails first where (e, f) or (f, e) is first sampled
        t = min(firsts[p] for p in ((e, f), (f, e)) if p in firsts)
        witness = f"({B.label(els[t // (n * n)])},{B.label(els[t // n % n])},{B.label(els[t % n])})"
        assert ("2-meet-comm", witness) in report.failures

    def test_benchmark_sampled_check_of_the_i3_universal_algebra(self):
        # 6,000 of the 3.6e13 triples of the 33,082-element algebra, clean
        # and with one product poisoned at a sampled triple
        S = invsgp.from_partial_maps(*I3_MAPS)[0]
        B, budget = iota(S, rels(S, "none")).algebra, 6000
        els = B.elements
        n = len(els)
        report = check_variety_identities(B, budget)
        assert report == variety_brute(B, budget)
        assert report.ok and not report.exhaustive and report.checked == 6000 and n == 33_082
        # the first sampled triple whose x and y have distinct domains
        sample = ((els[t // (n * n)], els[t // n % n], els[t % n]) for t in range(0, n ** 3, n ** 3 // budget + 1))
        x, y, z = next(t for t in sample if B.d(t[0]) != B.d(t[1]))
        e, f = B.d(x), B.d(y)
        P = poisoned(B, {(e, f): els[(els.index(B.mul(e, f)) + 1) % n]})
        report = check_variety_identities(P, budget)
        assert not report.ok and report == variety_brute(P, budget)
        assert ("2-meet-comm", f"({B.label(x)},{B.label(y)},{B.label(z)})") in report.failures

    @pytest.mark.parametrize("case", [("b2", "none"), ("b2", "tight"), ("chain3", "none")])
    def test_matches_triple_loop_with_each_product_poisoned(self, case):
        B = algebra(*case)
        els = B.elements
        for x in els:
            for y in els:
                poison = {(x, y): els[(els.index(B.mul(x, y)) + 1) % len(els)]}
                assert poisoned(B, poison).mul(x, y) == poison[x, y] != B.mul(x, y)
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


class TestBuiltMapsAgainstOracles:
    """θ, ι and the character representation are built, not checked: θ
    against its definition, one ``natural_leq`` per unit, and the laws that
    ``iota``, ``check_presentation``, ``character_rep`` and
    ``theorem_quotients_check`` prove in their docstrings."""

    @settings(max_examples=60, deadline=None)
    @given(S=partial_map_semigroups(), name=st.sampled_from(sl.BUILTIN_RELATION_SETS),
           data=st.data())
    def test_theta_against_brute(self, S, name, data):
        gg = germ_groupoid(S, rels(S, name))
        for s in range(S.n):
            below = [t for t in range(S.n) if invsgp.natural_leq(S, t, s)]
            excl = data.draw(st.lists(st.sampled_from(below), max_size=3))
            assert theta(gg, s) == theta_brute(gg, s)
            assert theta(gg, s, excl) == theta_brute(gg, s, excl)

    @settings(max_examples=60, deadline=None)
    @given(S=partial_map_semigroups(), name=st.sampled_from(sl.BUILTIN_RELATION_SETS),
           data=st.data())
    def test_unchecked_laws_hold(self, S, name, data):
        X = rels(S, name)
        rep = iota(S, X)
        B, E = rep.algebra, S.semilattice
        assert rep.images[0] == B.zero
        assert is_multiplicative_brute(S, B, rep.images)
        assert is_x_to_join(idem_rep(rep), X)
        for rel in X:
            parts = (rep.images[S.idems[p]] for p in elements_of(rel.parts))
            assert reduce(B.skew, parts, B.zero) == rep.images[S.idems[rel.e]]
        gens = data.draw(st.permutations(range(1, E.n)))[:data.draw(st.integers(0, E.n - 1))]
        can = character_rep(E, gens)
        assert SemilatticeRep.build(E, can.codomain, can.images) == can
        # every mask of nonzero elements is the spectrum of what it carves out
        for chi in range(0, 1 << E.n, 2):
            assert x_pi_spectrum(character_rep(E, elements_of(chi))) == chi


class TestPresentation:
    @pytest.mark.parametrize("name", ("none", "tight"))
    def test_i2(self, name):
        total = check_presentation(I2, rels(I2, name))
        assert check_presentation_brute(I2, rels(I2, name)) == PresentationReport.passing(total)

    def test_b2_tight(self):
        X = rels(invsgp.b2(), "tight")
        total = check_presentation(invsgp.b2(), X)
        assert check_presentation_brute(invsgp.b2(), X) == PresentationReport.passing(total)


class TestGeneratedSubsemigroup:
    @pytest.mark.parametrize("s", SEMIGROUPS)
    @pytest.mark.parametrize("name", sl.BUILTIN_RELATION_SETS)
    def test_matches_rounds(self, s, name):
        S = SEMIGROUPS[s]()
        rep = iota(S, rels(S, name))
        B = rep.algebra
        # the closure only finds elements of the generated set, so equal
        # counts mean equal sets
        count = len(generated_subsemigroup_brute(B, rep.images))
        assert check_presentation(S, rels(S, name)) == generated_subsemigroup(B, rep.images) == count


class TestCanonicalGenerators:
    """The facts that leave only listing under a budget: a germ is fixed by
    its representative s·f, whose domain f names its unit, so a germ
    groupoid has at most S.n - 1 arrows; and the canonical images reach
    every atom, so the presentation check needs no closure."""

    @settings(max_examples=60, deadline=None)
    @given(S=partial_map_semigroups(), name=st.sampled_from(sl.BUILTIN_RELATION_SETS))
    def test_random_semigroups(self, S, name):
        X = rels(S, name)
        rep = iota(S, X)
        G = rep.algebra.groupoid
        assert G.n_arrows <= S.n - 1
        assert generated_subsemigroup(rep.algebra, rep.images) == bisection_count(G)
        # an arrow that lies in the image of one non-idempotent alone, taken
        # out of it, is the arrow the check names
        holders = [[s for s, x in enumerate(rep.images) if x >> a & 1] for a in range(G.n_arrows)]
        lone = [(a, h[0]) for a, h in enumerate(holders) if len(h) == 1 and not S.is_idempotent(h[0])]
        if not lone:
            return
        a, s = lone[0]
        images = list(rep.images)
        images[s] ^= 1 << a
        cut = rep._replace(images=tuple(images))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bisection, "iota", lambda S, relations: cut)
            with pytest.raises(LawViolation, match=re.escape(f"miss the arrow {G.arrow_labels[a]}")):
                check_presentation(S, X)


class TestCongruence:
    """The congruence of a character set on the universal algebra, by the
    oracles, against the class count of the quotient check."""

    def test_tight_collapse_counts(self):
        full = iota(I2, frozenset())
        chi = sl.spectrum(E_I2, rels(I2, "tight"))
        assert len(congruence_brute(full, chi)[0]) == theorem_quotients_check(I2, chi) == 7

    def test_full_spectrum_identity(self):
        full = iota(I2, frozenset())
        chi = sl.spectrum(E_I2, frozenset())
        classes, _ = congruence_brute(full, chi)
        assert len(classes) == theorem_quotients_check(I2, chi) == 21
        assert restriction_brute(full, chi).images == tuple(1 << a for a in range(full.algebra.groupoid.n_arrows))

    def test_empty_spectrum_total_collapse(self):
        full = iota(I2, frozenset())
        assert len(congruence_brute(full, 0)[0]) == theorem_quotients_check(I2, 0) == 1
        assert not any(restriction_brute(full, 0).images)

    def test_rejects_non_invariant_set(self):
        full = iota(I2, frozenset())
        lone = mask_of({E_I2.index("1>1")})
        for check in (lambda: theorem_quotients_check(I2, lone), lambda: restriction_brute(full, lone)):
            with pytest.raises(LawViolation, match="^character set is not invariant under the action$"):
                check()

    def test_rejects_a_character_that_is_no_unit(self):
        # bit 0 names the zero, which generates no character; the set is
        # invariant, as the action fixes the zero.  Past the idempotents
        # no index names a character either
        every = sl.characters(E_I2)
        for chi, index in ((every | 1, 0), (every | 1 << E_I2.n, E_I2.n), (1 << E_I2.n + 2, E_I2.n + 2)):
            for check in (theorem_quotients_check, theorem_quotients_check_brute):
                with pytest.raises(LawViolation, match=f"^character at generator index {index} is not a unit of the groupoid$"):
                    check(I2, chi)

    def test_arrow_check_rejects_non_invariant_set(self):
        # the arrows crossing the set show that its restriction kernel is
        # no congruence
        full = iota(I2, frozenset())
        lone = mask_of({E_I2.index("1>1")})
        with pytest.raises(LawViolation, match="partition not compatible"):
            congruence_brute(full, lone)


def kernel_partition(B: BisAlgebra, keep: int):
    """(classes, class_of) of the partition of B's elements by x ∩ keep, over
    positions in ``B.elements``, numbered by first member."""
    first: dict[int, int] = {}
    class_of = tuple(first.setdefault(x & keep, len(first)) for x in B.elements)
    return tuple(tuple(i for i, k in enumerate(class_of) if k == c) for c in range(len(first))), class_of


def invariant_spectra(S):
    # every mask of nonzero generators, ascending
    return [chi for chi in range(0, 1 << S.semilattice.n, 2) if invsgp.character_set_invariant(S, chi)]


class TestQuotientTheorem:
    def test_i2_every_invariant_spectrum(self):
        spectra = invariant_spectra(I2)
        assert len(spectra) == 4
        for chi in spectra:
            classes = theorem_quotients_check(I2, chi)
            assert theorem_quotients_check_brute(I2, chi) == QuotientReport.passing(classes), elements_of(chi)

    def test_b2_every_invariant_spectrum(self):
        B2 = invsgp.b2()
        spectra = invariant_spectra(B2)
        assert len(spectra) == 2  # empty and full (= tight)
        for chi in spectra:
            assert theorem_quotients_check_brute(B2, chi) == QuotientReport.passing(theorem_quotients_check(B2, chi))

    def test_tight_sizes(self):
        chi = sl.spectrum(E_I2, rels(I2, "tight"))
        assert theorem_quotients_check(I2, chi) == 7
        assert theorem_quotients_check_brute(I2, chi) == QuotientReport.passing(7)

    def test_shift_semigroup_collapse(self):
        # 238 bisections of the universal groupoid collapse onto the 34
        # partial injections of the tight one
        S, _ = invsgp.from_partial_maps(3, [{1: 2, 2: 3}])
        E = S.semilattice
        chi = sl.spectrum(E, rels(S, "tight"))
        assert theorem_quotients_check(S, chi) == 34
        assert theorem_quotients_check_brute(S, chi) == QuotientReport.passing(34)
        assert len(iota(S, frozenset()).algebra) == 238


    def test_builds_one_groupoid_and_no_algebra(self, monkeypatch):
        # the check reads the reduction to chi: no algebra, no canonical map
        # and no morphism check, and one germ groupoid when the spectrum is chi
        built = []

        def counted(S, relations=None, *, units=None):
            built.append((relations, units))
            return germ_groupoid(S, relations, units=units)

        for name in ("BisAlgebra", "iota", "_check_additive", "AdditiveMorphism"):
            monkeypatch.setattr(bisection, name, None)
        monkeypatch.setattr(bisection, "germ_groupoid", counted)
        chi = sl.spectrum(E_I2, rels(I2, "tight"))
        assert theorem_quotients_check(I2, chi) == 7
        assert built == [(None, chi)]

    def test_carved_groupoid_of_smaller_chi_is_rejected(self):
        full = iota(I2, frozenset())
        every = mask_of(full.germs.units)
        tight = sl.spectrum(E_I2, rels(I2, "tight"))
        assert tight & every == tight != every
        small, big = carved(I2, tight), carved(I2, every)
        # the arrows of the smaller set under the units of the larger: the
        # spectrum passes, and the germs fail
        bad = small._replace(units=big.units, unit_index=big.unit_index)
        report = theorem_quotients_check_brute(I2, every, carved=bad)
        assert report == QuotientReport(False, 21, 7, True, False, False, False)
        assert theorem_quotients_check_brute(I2, every) == QuotientReport.passing(theorem_quotients_check(I2, every))

    def test_restriction_that_is_no_bijection_is_reported(self):
        # a restriction sending every atom to 0 identifies too much
        chi = sl.spectrum(E_I2, rels(I2, "tight"))
        collapse = (0,) * iota(I2, frozenset()).algebra.groupoid.n_arrows
        report = theorem_quotients_check_brute(I2, chi, kept=collapse)
        assert report == QuotientReport(False, 7, 7, True, True, False, True)
        assert theorem_quotients_check_brute(I2, chi) == QuotientReport.passing(theorem_quotients_check(I2, chi))


class TestCarvedGroupoidAgainstRestriction:
    """The germ groupoid of the carved-out relation set, and the one over χ,
    are the universal groupoid restricted to χ, and the oracle's arrow map
    is a morphism into its algebra that cuts each element down to χ."""

    @settings(max_examples=60, deadline=None)
    @given(S=partial_map_semigroups())
    def test_random_semigroups(self, S):
        assume(bisection_count(germ_groupoid(S, frozenset()).groupoid) <= 5_000)
        full = iota(S, frozenset())
        B = full.algebra
        for name in sl.BUILTIN_RELATION_SETS:
            chi = sl.spectrum(S.semilattice, invsgp.invariant_closure(S, rels(S, name)))
            cg = carved(S, chi)
            restr, proj = restricted_groupoid_brute(full, chi)
            assert cg.groupoid == restr == germ_groupoid(S, units=chi).groupoid
            assert {a: cg.arrow_index[full.germs.germs[a]] for a in proj} == proj
            m = AdditiveMorphism.build(*restriction_brute(full, chi))
            cuts = [sum(1 << k for a, k in proj.items() if e >> a & 1) for e in B.elements]
            assert [m.apply(e) for e in B.elements] == cuts
            assert set(cuts) == set(m.target.elements)


class TestWeaklyMeetPreserving:
    def test_quotient_map(self):
        full = iota(I2, frozenset())
        chi = sl.spectrum(E_I2, rels(I2, "tight"))
        assert is_weakly_meet_preserving(AdditiveMorphism.build(*restriction_brute(full, chi)))

    def test_identity(self):
        B = iota(I2, rels(I2, "tight")).algebra
        ident = AdditiveMorphism.build(B, B, [1 << a for a in range(B.groupoid.n_arrows)])
        assert is_weakly_meet_preserving(ident)

    def test_group_collapse_is_not(self):
        # collapsing a two-element group onto the trivial one merges two
        # elements whose only common lower bound is zero
        source = iota(invsgp.z2_with_zero(), frozenset()).algebra
        target = iota(invsgp.group_with_zero([[0]]), frozenset()).algebra
        assert (len(source), len(target)) == (3, 2)
        collapse = AdditiveMorphism.build(source, target, (1, 1))
        assert not is_weakly_meet_preserving(collapse)

    def test_collapse_found_by_search(self):
        # the counterexample above is reachable by scanning all candidates
        source = iota(invsgp.z2_with_zero(), frozenset()).algebra
        target = iota(invsgp.group_with_zero([[0]]), frozenset()).algebra
        found = []
        for t1 in target.elements:
            for t2 in target.elements:
                try:
                    m = AdditiveMorphism.build(source, target, (t1, t2))
                except LawViolation:
                    continue
                found.append(m)
        assert any(not is_weakly_meet_preserving(m) for m in found)


def accepted_morphisms(source: BisAlgebra, target: BisAlgebra):
    """Every tuple of atom images from source to target that
    ``AdditiveMorphism.build`` accepts."""
    for images in itertools.product(target.elements, repeat=source.groupoid.n_arrows):
        try:
            yield AdditiveMorphism.build(source, target, images)
        except LawViolation:
            continue


def is_wmp_brute(m: AdditiveMorphism) -> bool:
    return is_weakly_meet_preserving_brute(m.source, m.target, expanded(m))


def small_algebras() -> list[BisAlgebra]:
    return [
        BisAlgebra(one_unit_groupoid()),
        iota(invsgp.z2_with_zero(), frozenset()).algebra,
        iota(invsgp.group_with_zero([[0]]), frozenset()).algebra,
        iota(invsgp.chain_semigroup(2), frozenset()).algebra,
        iota(invsgp.group_with_zero([[0, 1, 2], [1, 2, 0], [2, 0, 1]]), frozenset()).algebra,
        algebra("b2", "tight"),
    ]


def raises_law(check, *args) -> bool:
    try:
        check(*args)
    except LawViolation:
        return True
    return False


def outcome(check, *args):
    """What a check returns, or the message of the ``LawViolation`` it raises."""
    try:
        return check(*args)
    except LawViolation as exc:
        return str(exc)


class TestWeakMeetTestAgainstDefinition:
    def test_every_accepted_table_between_small_algebras(self):
        small = small_algebras()
        verdicts = []
        for source in small:
            for target in small:  # at most 7^4 tuples each
                for m in accepted_morphisms(source, target):
                    verdict = is_weakly_meet_preserving(m)
                    assert verdict == is_wmp_brute(m), (m.images,)
                    verdicts.append(verdict)
        assert True in verdicts and False in verdicts

    def test_additive_check_against_pair_loop(self):
        # every tuple of atom images between the small algebras, against
        # the pair loop on the table it expands to
        small = small_algebras()
        accepted = rejected = 0
        for source in small:
            for target in small:
                for images in itertools.product(target.elements, repeat=source.groupoid.n_arrows):
                    m = AdditiveMorphism(source, target, images)
                    refused = raises_law(_check_additive, m)
                    assert refused == raises_law(check_additive_brute, source, target, expanded(m)), (images,)
                    accepted += not refused
                    rejected += refused
        assert accepted > 50 and rejected > 1000

    def test_group_collapse_stays_false(self):
        source = iota(invsgp.z2_with_zero(), frozenset()).algebra
        target = iota(invsgp.group_with_zero([[0]]), frozenset()).algebra
        collapse = AdditiveMorphism.build(source, target, (1, 1))
        assert not is_weakly_meet_preserving(collapse)
        assert not is_wmp_brute(collapse)

    def test_identity_on_i2_tight(self):
        B = algebra("i2", "tight")
        ident = AdditiveMorphism.build(B, B, [1 << a for a in range(B.groupoid.n_arrows)])
        assert is_weakly_meet_preserving(ident) and is_wmp_brute(ident)

    @pytest.mark.parametrize("s", ("i2", "b2", "p3"))
    def test_restriction_to_every_builtin_spectrum(self, s):
        S = SEMIGROUPS[s]()
        full = iota(S, frozenset())
        spectra = {sl.spectrum(S.semilattice, rels(S, name)) for name in sl.BUILTIN_RELATION_SETS}
        for chi in spectra:
            m = AdditiveMorphism.build(*restriction_brute(full, chi))
            assert is_weakly_meet_preserving(m) == is_wmp_brute(m)


class TestAtomChecksAgainstOracles:
    """The class count, the morphism check on the restriction and the
    generated set, worked on arrows and atoms, against the loops over
    element pairs."""

    @settings(max_examples=60, deadline=None)
    @given(S=partial_map_semigroups(), data=st.data())
    def test_random_semigroups(self, S, data):
        # the pair loops are quadratic or worse; P3 and I3 are checked on their own
        assume(bisection_count(germ_groupoid(S, frozenset()).groupoid) <= 120)
        full = iota(S, frozenset())
        B = full.algebra
        for name in sl.BUILTIN_RELATION_SETS:
            chi = sl.spectrum(S.semilattice, invsgp.invariant_closure(S, rels(S, name)))
            m = AdditiveMorphism.build(*restriction_brute(full, chi))
            keep = mask_of(a for a, k in enumerate(m.images) if k)
            assert congruence_brute(full, chi) == kernel_partition(B, keep)
            assert theorem_quotients_check(S, chi) == len(kernel_partition(B, keep)[0])
            check_additive_brute(B, m.target, expanded(m))
            if m.images:
                a = data.draw(st.integers(0, len(m.images) - 1))
                v = data.draw(st.sampled_from(m.target.elements))
                bad = AdditiveMorphism(B, m.target, m.images[:a] + (v,) + m.images[a + 1:])
                assert raises_law(_check_additive, bad) == raises_law(check_additive_brute, B, m.target, expanded(bad))
            rep = iota(S, rels(S, name))
            reached = generated_subsemigroup_brute(rep.algebra, rep.images)
            assert generated_subsemigroup(rep.algebra, rep.images) == len(reached)

    @pytest.mark.parametrize("s", ("i2", "b2", "p3"))
    def test_poisoned_product_is_caught(self, s):
        # the morphism check on the restriction reads products on arrow
        # pairs through the universal groupoid's composition table: moving
        # a composite to another arrow is caught exactly when the two
        # arrows' images differ
        S = SEMIGROUPS[s]()
        full = iota(S, frozenset())
        G = full.algebra.groupoid
        for name in ("none", "tight"):
            chi = sl.spectrum(S.semilattice, invsgp.invariant_closure(S, rels(S, name)))
            _, T, kept = restriction_brute(full, chi)
            caught = 0
            for a, b in itertools.product(range(G.n_arrows), repeat=2):
                comp = dense_comp(G)
                ab = comp[a][b]
                if ab < 0:
                    continue
                comp[a][b] = (ab + 1) % G.n_arrows
                bad = BisAlgebra(G._replace(comp=sparse_comp(comp)))
                if kept[ab] == kept[comp[a][b]]:
                    AdditiveMorphism.build(bad, T, kept)
                    continue
                with pytest.raises(LawViolation, match="product not preserved"):
                    AdditiveMorphism.build(bad, T, kept)
                caught += 1
            assert caught > 0


class TestMaskPathAgainstEnumeratingOracles:
    """The quotient and presentation reports, read off arrows, atoms and
    ``bisection_count``, against the enumerating oracles on the expanded
    algebra; corrupted composites and atom images of the restriction are
    rejected as the pair loop rejects them."""

    @settings(max_examples=60, deadline=None)
    @given(S=partial_map_semigroups(), name=st.sampled_from(sl.BUILTIN_RELATION_SETS),
           data=st.data())
    def test_random_semigroups(self, S, name, data):
        assume(bisection_count(germ_groupoid(S, frozenset()).groupoid) <= 120)
        full, X = iota(S, frozenset()), rels(S, name)
        B = full.algebra
        spec = sl.spectrum(S.semilattice, invsgp.invariant_closure(S, X))
        # the quotient report, or the refusal and its message, for the
        # spectrum of X and for any mask of generators, which may hold the
        # zero's bit 0 or fail to be invariant
        chi = data.draw(st.integers(0, (1 << S.semilattice.n) - 1))
        for c in (spec, chi):
            got = outcome(theorem_quotients_check, S, c)
            want = got if isinstance(got, str) else QuotientReport.passing(got)
            assert outcome(theorem_quotients_check_brute, S, c) == want
        # the presentation report from the enumerated algebra of X
        total = check_presentation(S, X)
        assert check_presentation_brute(S, X) == PresentationReport.passing(total)
        G = B.groupoid
        if not G.n_arrows:
            return
        # a corrupted atom image is rejected exactly when the pair loop
        # rejects its expanded table
        m = restriction_brute(full, spec)
        T = m.target
        a = data.draw(st.integers(0, G.n_arrows - 1))
        v = data.draw(st.sampled_from(T.elements))
        bad = AdditiveMorphism(B, T, m.images[:a] + (v,) + m.images[a + 1:])
        assert raises_law(_check_additive, bad) == raises_law(check_additive_brute, B, T, expanded(bad))
        # a composite moved to another arrow, or made where a and b do not
        # compose, is rejected exactly when its image changes
        a, b = data.draw(st.integers(0, G.n_arrows - 1)), data.draw(st.integers(0, G.n_arrows - 1))
        comp = dense_comp(G)
        ab = comp[a][b]
        moved = data.draw(st.sampled_from([c for c in range(G.n_arrows) if c != ab] or [ab]))
        comp[a][b] = moved
        bad_source = BisAlgebra(G._replace(comp=sparse_comp(comp)))
        image = [0, *m.images]  # image[c + 1]: the image of {c}, or of 0 for c = -1
        refused = raises_law(AdditiveMorphism.build, bad_source, T, m.images)
        assert refused == (image[ab + 1] != image[moved + 1])


class TestUniversalMorphism:
    def test_factor_through_self_is_identity(self):
        rep = iota(I2, rels(I2, "tight"))
        res = find_universal_morphism(I2, rels(I2, "tight"), rep.algebra, rep.images)
        assert count_additive_morphisms_brute(res.source, rep.algebra, dict(zip(rep.images, rep.images))) == 1
        assert res.images == tuple(1 << a for a in range(rep.algebra.groupoid.n_arrows))

    def test_canonical_surjection_onto_tight(self):
        tight_rep = iota(I2, rels(I2, "tight"))
        res = find_universal_morphism(I2, frozenset(), tight_rep.algebra, tight_rep.images)
        pins = dict(zip(iota(I2, frozenset()).images, tight_rep.images))
        assert count_additive_morphisms_brute(res.source, tight_rep.algebra, pins) == 1
        assert set(map(res.apply, res.source.elements)) == set(tight_rep.algebra.elements)

    def test_agrees_with_restriction_quotient(self):
        full = iota(I2, frozenset())
        chi = sl.spectrum(E_I2, rels(I2, "tight"))
        from xjoin import boolalg
        E, elems = I2.semilattice, I2.idems
        chi_sorted = elements_of(chi)
        BA = boolalg.FinBooleanAlgebra(tuple(E.label(c) for c in chi_sorted))
        images = [
            sum(1 << i for i, c in enumerate(chi_sorted) if E.leq(c, e))
            for e in range(E.n)
        ]
        carved_rels = boolalg.x_pi(boolalg.SemilatticeRep.build(E, BA, images))
        morph = AdditiveMorphism.build(*restriction_brute(full, chi))
        assert morph.target.groupoid == germ_groupoid(I2, carved_rels).groupoid
        phi = tuple(morph.apply(full.images[s]) for s in range(I2.n))
        res = find_universal_morphism(I2, carved_rels, morph.target, phi)
        pins = dict(zip(iota(I2, carved_rels).images, phi))
        assert count_additive_morphisms_brute(res.source, morph.target, pins) == 1
        images = list(map(res.apply, res.source.elements))
        assert sorted(images) == sorted(morph.target.elements)  # bijective

    def test_rejects_non_conforming_map(self):
        rep = iota(I2, frozenset())
        with pytest.raises(LawViolation, match="join constraints"):
            find_universal_morphism(I2, rels(I2, "tight"), rep.algebra, rep.images)

    def test_generator_determinacy_above_search_cutoff(self):
        # the doubled target has 49 elements; the diagonal representation
        # still factors
        rep = iota(I2, rels(I2, "tight"))
        G = rep.germs.groupoid
        doubled = _disjoint_double(G)
        target = BisAlgebra(doubled)
        assert len(target) == 49
        phi = tuple(x | x << G.n_arrows for x in rep.images)
        res = find_universal_morphism(I2, rels(I2, "tight"), target, phi)
        uni = iota(I2, rels(I2, "tight"))
        for s in range(I2.n):
            assert res.apply(uni.images[s]) == phi[s]

    @settings(max_examples=60, deadline=None)
    @given(S=partial_map_semigroups(), name=st.sampled_from(sl.BUILTIN_RELATION_SETS),
           universal=st.booleans())
    def test_unique_on_random_semigroups(self, S, name, universal):
        # the canonical map into a target of at most 30 elements, factored
        # through its own relation set or through the universal algebra
        target = iota(S, rels(S, name))
        assume(len(target.algebra) <= 30)
        relations = frozenset() if universal else rels(S, name)
        res = find_universal_morphism(S, relations, target.algebra, target.images)
        uni = iota(S, relations)
        assert [res.apply(x) for x in uni.images] == list(target.images)
        pins = dict(zip(uni.images, target.images))
        assert count_additive_morphisms_brute(res.source, target.algebra, pins) == 1


def _disjoint_double(G: FinGroupoid) -> FinGroupoid:
    n, m = G.n_arrows, G.n_units
    comp = [[-1] * (2 * n) for _ in range(2 * n)]
    for a, row in enumerate(dense_comp(G)):
        for b, ab in enumerate(row):
            if ab >= 0:
                comp[a][b] = ab
                comp[a + n][b + n] = ab + n
    return from_parts(
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

        source = iota(invsgp.z2_with_zero(), frozenset()).algebra
        target = iota(I2, rels(I2, "tight")).algebra
        raw = 0
        for images in product(target.elements, repeat=source.groupoid.n_arrows):
            try:
                AdditiveMorphism.build(source, target, images)
            except LawViolation:
                continue
            raw += 1
        counted = count_additive_morphisms_brute(source, target, {}, limit=raw + 5)
        assert counted == raw
        assert raw >= 2  # at least the zero map and an embedding exist


class TestClosureEquivalence:
    def test_semigroup_maps_satisfy_x_iff_closure(self):
        # a multiplicative map conjugates its join constraints, so the
        # original and the closed relation set constrain it identically
        E = I2.semilattice
        top, e1, e2 = E.index("1>1,2>2"), E.index("1>1"), E.index("2>2")
        custom = frozenset({sl.XRelation(top, mask_of({e1, e2}))})
        relation_sets = [rels(I2, n) for n in sl.BUILTIN_RELATION_SETS] + [custom]
        reps = [idem_rep(iota(I2, rels(I2, n))) for n in sl.BUILTIN_RELATION_SETS]
        for X in relation_sets:
            closed = invsgp.invariant_closure(I2, X)
            for rep in reps:
                assert is_x_to_join(rep, X) == is_x_to_join(rep, closed)


class TestJsonEmission:
    def test_elements_reload_against_groupoid(self):
        from oracles import groupoid_from_json

        B = iota(I2, rels(I2, "tight")).algebra
        doc = json.loads("".join(bis_to_json(B)))
        G = groupoid_from_json(json.dumps(doc["groupoid"]))
        rebuilt = BisAlgebra(G)
        assert [
            [a for a in range(G.n_arrows) if e >> a & 1] for e in rebuilt.elements
        ] == doc["elements"]
