import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xjoin import invsgp
from xjoin import semilattice as sl
from xjoin.groupoid import (
    FinGroupoid,
    germ_groupoid,
    groupoid_to_dot,
    groupoid_to_json,
    is_local_bisection,
    theta,
)
from xjoin.semilattice import LawViolation

from oracles import (
    check_groupoid_brute,
    dense_comp,
    elements_of,
    from_parts,
    germ_of,
    germs_equal_existential,
    groupoid_from_json,
    mask_of,
    sparse_comp,
)


I2 = invsgp.i2()
E_I2, ELEMS_I2 = I2.semilattice, I2.idems


def s_idx(label):
    return I2.index(label)


def char_at(label):
    return E_I2.index(label)


class TestGermNormalForm:
    def test_identity_and_restriction_share_germs(self):
        c = char_at("1>1")
        assert germ_of(I2, s_idx("1>1,2>2"), c) == germ_of(I2, s_idx("1>1"), c)

    def test_representative_at_full_domain(self):
        s = s_idx("1>2")
        c = char_at("1>1")  # the generator is exactly d(s)
        assert germ_of(I2, s, c) == s

    def test_swap_and_its_restriction(self):
        c = char_at("1>1")
        assert germ_of(I2, s_idx("1>2,2>1"), c) == germ_of(I2, s_idx("1>2"), c)

    def test_outside_domain_rejected(self):
        with pytest.raises(LawViolation, match="domain"):
            germ_of(I2, s_idx("1>2"), char_at("1>1,2>2"))

    @pytest.mark.parametrize(
        "S",
        [I2, invsgp.b2(), invsgp.chain_semigroup(3), invsgp.from_partial_maps(3, [{1: 2, 2: 3}])[0]],
        ids=["i2", "b2", "chain", "shift3"],
    )
    def test_normal_form_matches_existential_equivalence(self, S):
        E, elems = S.semilattice, S.idems
        for f_idx in range(1, E.n):
            f = elems[f_idx]
            c = f_idx
            admissible = [
                s for s in range(S.n) if invsgp.natural_leq(S, f, S.d(s))
            ]
            for s in admissible:
                for t in admissible:
                    same = germ_of(S, s, c) == germ_of(S, t, c)
                    assert same == germs_equal_existential(S, s, t, f)


class TestGermGroupoid:
    def test_universal_counts(self):
        gg = germ_groupoid(I2, frozenset())
        assert gg.groupoid.n_units == 3
        assert gg.groupoid.n_arrows == 6

    def test_tight_counts(self):
        gg = germ_groupoid(I2, invsgp.semigroup_relations(I2, "tight"))
        assert gg.groupoid.n_units == 2
        assert gg.groupoid.n_arrows == 4

    def test_commutative_case_has_only_units(self):
        S = invsgp.chain_semigroup(3)
        gg = germ_groupoid(S, frozenset())
        assert gg.groupoid.n_units == 3
        assert gg.groupoid.n_arrows == 3
        assert all(
            gg.groupoid.unit_arrow[gg.groupoid.src[a]] == a
            for a in range(gg.groupoid.n_arrows)
        )

    def test_composition_is_multiplication(self):
        for S in (I2, invsgp.b2()):
            gg = germ_groupoid(S, frozenset())
            for a, row in enumerate(dense_comp(gg.groupoid)):
                for b, c in enumerate(row):
                    if c >= 0:
                        assert gg.germs[c] == S.mul(gg.germs[a], gg.germs[b])

    def test_units_whose_ranges_escape_are_rejected(self):
        # 1>2 at the character of 1>1 ends at that of 2>2, not a unit here
        with pytest.raises(LawViolation, match=r"range of germ \[1>2,1>1\] left the spectrum"):
            germ_groupoid(I2, units=mask_of({E_I2.index("1>1")}))

    def test_takes_exactly_one_of_relations_and_units(self):
        with pytest.raises(TypeError, match="one of relations and units"):
            germ_groupoid(I2)
        with pytest.raises(TypeError, match="one of relations and units"):
            germ_groupoid(I2, frozenset(), units=sl.characters(E_I2))

    def test_ranges_stay_in_spectrum(self):
        for name in sl.BUILTIN_RELATION_SETS:
            gg = germ_groupoid(I2, invsgp.semigroup_relations(I2, name))
            assert all(0 <= u < gg.groupoid.n_units for u in gg.groupoid.rng)

    def test_tight_groupoid_is_the_restricted_universal_one(self):
        for S in (I2, invsgp.from_partial_maps(3, [{1: 2, 2: 3}])[0]):
            universal = germ_groupoid(S, frozenset())
            tight = germ_groupoid(S, invsgp.semigroup_relations(S, "tight"))
            kept = set(tight.units)
            assert kept <= set(universal.units)
            filtered = tuple(
                t for t, u in zip(universal.germs, universal.groupoid.src) if universal.units[u] in kept
            )
            assert filtered == tight.germs

    def test_shift_semigroup_counts(self):
        S, _ = invsgp.from_partial_maps(3, [{1: 2, 2: 3}])
        assert S.n == 14
        universal = germ_groupoid(S, frozenset())
        assert universal.groupoid.n_units == 5
        assert universal.groupoid.n_arrows == 13
        tight = germ_groupoid(S, invsgp.semigroup_relations(S, "tight"))
        # the rank-one germs form the pair groupoid on three points
        assert tight.groupoid.n_units == 3
        assert tight.groupoid.n_arrows == 9


class TestTheta:
    def test_full_domain_set(self):
        gg = germ_groupoid(I2, frozenset())
        one = s_idx("1>1,2>2")
        assert theta(gg, one).bit_count() == 3

    def test_exclusion_by_domain(self):
        gg = germ_groupoid(I2, frozenset())
        got = theta(gg, s_idx("1>1,2>2"), (s_idx("1>1"),))
        bases = {gg.units[gg.groupoid.src[a]] for a in elements_of(got)}
        # characters whose generator avoids the excluded domain
        assert bases == {char_at("2>2"), char_at("1>1,2>2")}

    def test_zero_has_no_germs(self):
        gg = germ_groupoid(I2, frozenset())
        assert theta(gg, 0) == 0

    def test_exclusion_must_sit_below(self):
        gg = germ_groupoid(I2, frozenset())
        with pytest.raises(LawViolation, match="not below"):
            theta(gg, s_idx("1>1"), (s_idx("1>1,2>2"),))

    def test_subtracts_as_arrow_sets(self):
        gg = germ_groupoid(I2, frozenset())
        one = s_idx("1>1,2>2")
        for t in (s_idx("1>1"), s_idx("2>2")):
            assert theta(gg, one, (t,)) == theta(gg, one) & ~theta(gg, t)

    def test_every_theta_set_is_a_bisection(self):
        gg = germ_groupoid(I2, frozenset())
        for s in range(I2.n):
            assert is_local_bisection(gg.groupoid, theta(gg, s))


class TestLocalBisection:
    def test_units_always_qualify(self):
        gg = germ_groupoid(I2, frozenset())
        G = gg.groupoid
        assert is_local_bisection(G, mask_of(G.unit_arrow[:2]))

    def test_shared_source_fails(self):
        gg = germ_groupoid(I2, frozenset())
        G = gg.groupoid
        u = G.unit_arrow[0]
        other = next(
            a for a in range(G.n_arrows) if a != u and G.src[a] == G.src[u]
        )
        assert not is_local_bisection(G, mask_of((u, other)))


class TestEmission:
    def test_dot_shape_for_tight(self):
        gg = germ_groupoid(I2, invsgp.semigroup_relations(I2, "tight"))
        dot = groupoid_to_dot(gg.groupoid)
        assert dot.count("shape=circle") == 2
        assert dot.count("->") == 2

    def test_json_round_trip(self):
        gg = germ_groupoid(I2, invsgp.semigroup_relations(I2, "tight"))
        back = groupoid_from_json("".join(groupoid_to_json(gg.groupoid)))
        assert back == gg.groupoid

    def test_groupoid_validation_rejects_broken_inverse(self):
        gg = germ_groupoid(I2, invsgp.semigroup_relations(I2, "tight"))
        G = gg.groupoid
        bad_inv = list(G.inv)
        bad_inv[0], bad_inv[1] = bad_inv[1], bad_inv[0]
        with pytest.raises(LawViolation):
            from_parts(
                G.unit_labels, G.arrow_labels, G.src, G.rng,
                G.unit_arrow, bad_inv, dense_comp(G),
            )

    def test_groupoid_validation_rejects_non_associative_loop(self):
        # a Latin square with identity 0 whose every element is its own
        # inverse, but (1*1)*2 = 2 != 1*(1*2) = 4: a loop, not a group
        loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
        with pytest.raises(LawViolation, match="composition not associative"):
            from_parts(
                ["u"], [f"a{i}" for i in range(5)], [0] * 5, [0] * 5, [0], range(5), loop,
            )


def _relabelled(G: FinGroupoid, order) -> FinGroupoid:
    """G with arrow order[i] renamed i; built without validation."""
    where = {old: new for new, old in enumerate(order)}
    where[-1] = -1
    comp = dense_comp(G)
    return FinGroupoid(
        G.unit_labels,
        tuple(G.arrow_labels[a] for a in order),
        tuple(G.src[a] for a in order),
        tuple(G.rng[a] for a in order),
        tuple(where[a] for a in G.unit_arrow),
        tuple(where[G.inv[a]] for a in order),
        sparse_comp([where[comp[a][b]] for b in order] for a in order),
    )


def _outcome(check, G):
    try:
        check(G)
    except LawViolation as exc:
        return str(exc)
    return None


I3 = invsgp.from_partial_maps(3, [{1: 2, 2: 3, 3: 1}, {1: 2, 2: 1, 3: 3}, {1: 1, 2: 2}])[0]
P3 = invsgp.from_partial_maps(3, [{1: 2, 2: 3}])[0]
LOOP = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
GROUPOIDS = [
    germ_groupoid(S, invsgp.semigroup_relations(S, name)).groupoid
    for S in (I2, invsgp.b2(), P3, I3, invsgp.z2_with_zero())
    for name in ("none", "tight", "core")
] + [
    FinGroupoid(("u",), tuple(f"a{i}" for i in range(5)), (0,) * 5, (0,) * 5, (0,), tuple(range(5)),
                sparse_comp(LOOP)),
]


class TestCheckGroupoidOracle:
    """``oracles.check_groupoid_brute``, the one groupoid checker, accepts
    every germ groupoid and rejects every single-entry corruption of one: a
    groupoid's identities, inverses, ends and composites are each fixed by
    the rest of its tables, so no changed entry leaves a groupoid."""

    def test_germ_groupoids_accepted(self):
        for G in GROUPOIDS[:-1]:
            assert _outcome(check_groupoid_brute, G) is None

    @settings(max_examples=400, deadline=None)
    @given(G=st.sampled_from(GROUPOIDS), data=st.data())
    def test_relabelled_and_corrupted(self, G, data):
        n, m = G.n_arrows, G.n_units
        is_groupoid = G is not GROUPOIDS[-1]
        G = intact = _relabelled(G, data.draw(st.permutations(range(n))))
        field = data.draw(st.sampled_from(["intact", "comp", "inv", "src", "rng", "unit_arrow"]))
        if field == "comp":
            a, b = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
            comp = dense_comp(G)
            comp[a][b] = data.draw(st.integers(-1, n - 1))
            G = G._replace(comp=sparse_comp(comp))
        elif field != "intact":
            values = list(getattr(G, field))
            top = m - 1 if field in ("src", "rng") else n - 1
            values[data.draw(st.integers(0, len(values) - 1))] = data.draw(st.integers(0, top))
            G = G._replace(**{field: tuple(values)})
        assert (_outcome(check_groupoid_brute, G) is None) == (is_groupoid and G == intact)

    def test_row_missing_a_composable_arrow_rejected(self):
        G = GROUPOIDS[0]
        b = next(iter(G.comp[0]))
        rows = ({c: ab for c, ab in G.comp[0].items() if c != b},) + G.comp[1:]
        with pytest.raises(LawViolation, match="disagrees with source/range"):
            check_groupoid_brute(G._replace(comp=rows))

    def test_row_holding_a_non_composable_arrow_rejected(self):
        G = GROUPOIDS[0]
        b = next(b for b in range(G.n_arrows) if b not in G.comp[0])
        rows = ({**G.comp[0], b: 0},) + G.comp[1:]
        with pytest.raises(LawViolation, match="disagrees with source/range"):
            check_groupoid_brute(G._replace(comp=rows))
        rows = ({**G.comp[0], G.n_arrows: 0},) + G.comp[1:]
        with pytest.raises(LawViolation, match="names a non-arrow"):
            check_groupoid_brute(G._replace(comp=rows))
