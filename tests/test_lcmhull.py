import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import UNDECIDED, hull_fragment_brute, left_divide_brute, right_lcm_search_brute

from xjoin import lcmhull as lh
from xjoin.semilattice import LawViolation


FREE = lh.FreeMonoid("ab")
NAT2 = lh.NatPow(2)
NX = lh.NRtimesNx()


def h(P, p, q):
    return lh.hull_element(P, p, q)


class TestBuiltinOracles:
    def test_free_prefix_lcm(self):
        assert FREE.right_lcm("ab", "a") == "ab"
        assert FREE.right_lcm("a", "b") is None
        assert FREE.right_lcm("", "ba") == "ba"

    def test_nat_componentwise_max(self):
        assert NAT2.right_lcm((1, 0), (0, 2)) == (1, 2)

    def test_nx_congruence_rule(self):
        assert NX.right_lcm((0, 2), (1, 2)) is None
        assert NX.right_lcm((1, 2), (3, 4)) == (3, 4)
        assert NX.right_lcm((0, 2), (0, 3)) == (0, 6)

    @pytest.mark.parametrize("M,depth,cof", [(FREE, 3, 3), (NAT2, 3, 4), (NX, 4, 6)])
    def test_against_bounded_ideal_search(self, M, depth, cof):
        lh._check_lcm_oracle(M, depth, cof)

    def test_left_divide_consistency(self):
        for M in (FREE, NAT2, NX):
            frag = M.elements_up_to(3)
            for p in frag:
                for x in frag:
                    r = M.multiply(p, x)
                    assert M.left_divide(p, r) == x  # left cancellativity


class TestHullArithmetic:
    def test_polycyclic_contraction(self):
        assert lh.hull_mul(FREE, h(FREE, "", "a"), h(FREE, "a", "")) == h(FREE, "", "")

    def test_disjoint_ideals_annihilate(self):
        assert lh.hull_mul(FREE, h(FREE, "", "a"), h(FREE, "b", "")).is_zero

    def test_identity(self):
        one = lh.hull_identity(FREE)
        for x in (h(FREE, "ab", "b"), lh.HULL_ZERO, one):
            assert lh.hull_mul(FREE, x, one) == x
            assert lh.hull_mul(FREE, one, x) == x

    def test_inversion_swaps(self):
        assert lh.hull_inv(h(FREE, "a", "b")) == h(FREE, "b", "a")
        assert lh.hull_inv(lh.HULL_ZERO).is_zero

    def test_idempotent_order(self):
        assert lh.hull_idem_leq(FREE, "ab", "a")
        assert not lh.hull_idem_leq(FREE, "a", "ab")
        assert not lh.hull_idem_leq(NAT2, (1, 2), (2, 0))

    def test_fragment_is_inverse_semigroup(self):
        assert lh.fragment_law_failure(FREE, 2) is None


class TestFragmentLaws:
    @pytest.mark.parametrize("M", [FREE, NAT2, NX], ids=repr)
    @pytest.mark.parametrize("depth", [1, 2])
    def test_agrees_with_triple_loop(self, M, depth):
        assert lh.fragment_law_failure(M, depth) == hull_fragment_brute(M, depth) is None

    @pytest.mark.parametrize("M", [FREE, NAT2, NX], ids=repr)
    def test_corrupted_product_is_caught(self, M, monkeypatch):
        # [p,e][e,p] is [p,p]; sending it to zero breaks both associativity
        # and the inverse law at x = [p,e]
        p = M.elements_up_to(1)[1]
        bad = (h(M, p, M.identity), h(M, M.identity, p))
        true_mul = lh.hull_mul

        def corrupted(P, x, y):
            return lh.HULL_ZERO if (x, y) == bad else true_mul(P, x, y)

        monkeypatch.setattr(lh, "hull_mul", corrupted)
        got = lh.fragment_law_failure(M, 1)
        assert got is not None and got == hull_fragment_brute(M, 1)
        assert got.startswith(f"{M!r}: associativity fails at ")
        # the named witness breaks the law under the corrupted product
        named = {k: lh.parse_hull(M, v) for k, v in re.findall(r"(\w)=(\S+)", got)}
        x, y, z = named["x"], named["y"], named["z"]
        assert corrupted(M, corrupted(M, x, y), z) != corrupted(M, x, corrupted(M, y, z))

    @pytest.mark.parametrize("M", [FREE, NAT2, NX], ids=repr)
    def test_corrupted_inverse_is_caught(self, M, monkeypatch):
        p = M.elements_up_to(1)[1]
        bad = h(M, p, M.identity)
        true_inv = lh.hull_inv
        monkeypatch.setattr(lh, "hull_inv", lambda x: x if x == bad else true_inv(x))
        got = lh.fragment_law_failure(M, 1)
        assert got == hull_fragment_brute(M, 1) == f"{M!r}: inverse law fails at x={bad.format(M)}"


class TestFoundationSets:
    def test_alphabet_is_foundation(self):
        assert lh.is_foundation_set(FREE, ["a", "b"]).kind == "yes"

    def test_single_letter_is_not(self):
        verdict = lh.is_foundation_set(FREE, ["a"])
        assert verdict.kind == "no" and verdict.witness == "b"

    def test_empty_set_fails_at_identity(self):
        assert lh.is_foundation_set(FREE, []).kind == "no"

    def test_nat_always_founded(self):
        assert lh.is_foundation_set(NAT2, [(1, 0)]).kind == "yes"

    def test_uneven_code(self):
        assert lh.is_foundation_set(FREE, ["a", "ba", "bb"]).kind == "yes"
        assert lh.is_foundation_set(FREE, ["a", "ba"]).witness == "bb"

    def test_bounded_search_refutes(self):
        verdict = lh.is_foundation_set(NX, [(1, 2)], depth=3)
        # ideals with even offset and even step miss (1,2)P entirely
        assert verdict.kind == "no"

    def test_bounded_search_unknown(self):
        assert lh.is_foundation_set(NX, [(0, 1)], depth=2).kind in ("yes", "unknown")


class TestLemmaFoundCheck:
    @pytest.mark.parametrize(
        "P,F",
        [
            (FREE, ["a", "b"]),
            (FREE, ["a"]),
            (FREE, ["a", "ba", "bb"]),
            (NAT2, [(1, 0)]),
        ],
    )
    def test_agreement(self, P, F):
        assert lh.lemma_found_check(P, F, depth=4)


class TestZappaSzep:
    def test_adding_machine_validates(self):
        P = lh.zappa_szep(lh.adding_machine(), depth=4)
        assert P.report is not None and P.report.depth == 4

    def test_adding_machine_action(self):
        P = lh.zappa_szep(lh.adding_machine())
        assert P.act("g", "00") == "10" and P.res("g", "00") == ""
        assert P.act("g", "10") == "01" and P.res("g", "10") == ""
        assert P.act("g", "11") == "00" and P.res("g", "11") == "g"
        assert P.act("gg", "11") == "10" and P.res("gg", "11") == "g"

    def test_direct_product_accepted(self):
        P = lh.zappa_szep(direct_product(), depth=3)
        assert P.multiply(("0", "g"), ("1", "")) == ("01", "g")

    def test_non_bijective_action_rejected(self):
        data = lh.ZappaSzepData.from_tables(
            "01", "g",
            action={"g": {"0": "0", "1": "0"}},
            restriction={"g": {"0": "", "1": ""}},
        )
        with pytest.raises(LawViolation, match="C3"):
            lh.zappa_szep(data, depth=3)

    def test_second_factor_must_be_a_chain(self):
        with pytest.raises(LawViolation, match="C2"):
            lh.zappa_szep(two_generators(), depth=2)

    def test_multiplication_and_division(self):
        P = lh.zappa_szep(lh.adding_machine())
        for x in P.elements_up_to(2):
            for y in P.elements_up_to(2):
                r = P.multiply(x, y)
                assert P.left_divide(x, r) == y

    def test_right_lcm_small(self):
        P = lh.zappa_szep(lh.adding_machine())
        assert P.right_lcm(("0", ""), ("1", "")) is None
        r = P.right_lcm(("", "g"), ("0", ""))
        assert P.left_divide(("", "g"), r) is not None
        assert P.left_divide(("0", ""), r) is not None

    def test_right_lcm_where_grade_drops(self):
        # (e, ggg)(0, e) = (1, g): the bounded search finds no least multiple
        P = lh.zappa_szep(lh.adding_machine())
        assert P.multiply(("", "ggg"), ("0", "")) == ("1", "g")
        assert right_lcm_search_brute(P, ("", ""), ("", "ggg")) == UNDECIDED
        assert P.right_lcm(("", ""), ("", "ggg")) == ("", "ggg")

    def test_depth_below_one_is_refused(self):
        # at depth 0 the law loops check nothing
        with pytest.raises(LawViolation, match="depth must be at least 1"):
            lh.zappa_szep(lh.adding_machine(), depth=0)
        with pytest.raises(LawViolation, match="depth must be at least 1"):
            lh.zappa_szep(two_generators(), depth=0)


def direct_product() -> lh.ZappaSzepData:
    """g fixes every letter and restricts to itself."""
    return lh.ZappaSzepData.from_tables(
        "01", "g",
        action={"g": {"0": "0", "1": "1"}},
        restriction={"g": {"0": "g", "1": "g"}},
    )


def two_generators() -> lh.ZappaSzepData:
    """Two generators g and h: their ideals are incomparable, so no C2."""
    return lh.ZappaSzepData.from_tables(
        "01", "gh",
        action={"g": {"0": "0", "1": "1"}, "h": {"0": "0", "1": "1"}},
        restriction={"g": {"0": "g", "1": "g"}, "h": {"0": "h", "1": "h"}},
    )


def ternary_odometer() -> lh.ZappaSzepData:
    """Adding 1 with carry to words over 0,1,2."""
    return lh.ZappaSzepData.from_tables(
        "012", "g",
        action={"g": {"0": "1", "1": "2", "2": "0"}},
        restriction={"g": {"0": "", "1": "", "2": "g"}},
    )


def letter_collapse() -> lh.ZappaSzepData:
    """Two generators, one of which sends both letters to a: no C3, but
    division must still find the first preimage or none."""
    return lh.ZappaSzepData.from_tables(
        "ab", "st",
        action={"s": {"a": "b", "b": "a"}, "t": {"a": "a", "b": "a"}},
        restriction={"s": {"a": "t", "b": ""}, "t": {"a": "s", "b": "st"}},
    )


class TestLeftDivide:
    """``ZappaSzepProduct.left_divide`` through the memoised inverse of the
    action against the letter-by-letter loop in ``tests/oracles.py``."""

    @pytest.mark.parametrize("data, depth", [
        (lh.adding_machine(), 4), (ternary_odometer(), 3), (letter_collapse(), 3),
    ], ids=["adding", "ternary", "collapse"])
    def test_all_pairs_of_fragment(self, data, depth):
        P = lh.ZappaSzepProduct(data)
        frag = P.elements_up_to(depth)
        for x in frag:
            for r in frag:
                assert P.left_divide(x, r) == left_divide_brute(P, x, r)
            for z in frag:
                r = P.multiply(x, z)
                assert P.left_divide(x, r) == left_divide_brute(P, x, r)


@st.composite
def one_generator_products(draw) -> lh.ZappaSzepData:
    """One letter g permuting 2 or 3 letters, restricting to g^0, g^1 or g^2."""
    letters = "012"[: draw(st.integers(2, 3))]
    image = draw(st.permutations(letters))
    return lh.ZappaSzepData.from_tables(
        letters, "g",
        action={"g": dict(zip(letters, image))},
        restriction={"g": {c: "g" * draw(st.integers(0, 2)) for c in letters}},
    )


class TestZappaRightLcm:
    """The closed-form ``ZappaSzepProduct.right_lcm`` against the bounded
    search of multiples and against brute-force ideal intersections."""

    @pytest.mark.parametrize("data, depth, decided", [
        (lh.adding_machine(), 4, 3199), (ternary_odometer(), 3, 3313), (direct_product(), 4, 3249),
    ], ids=["adding", "ternary", "direct"])
    def test_agrees_with_bounded_search(self, data, depth, decided):
        P = lh.zappa_szep(data, depth=3)
        frag = P.elements_up_to(depth)
        seen = 0
        for x in frag:
            for y in frag:
                want = right_lcm_search_brute(P, x, y)
                if want != UNDECIDED:
                    seen += 1
                    assert P.right_lcm(x, y) == want, (x, y)
        assert seen == decided

    @pytest.mark.parametrize("data, depth", [(lh.adding_machine(), 4), (ternary_odometer(), 3)],
                             ids=["adding", "ternary"])
    def test_against_ideal_intersections(self, data, depth):
        lh._check_lcm_oracle(lh.zappa_szep(data, depth=depth), depth, depth)

    @settings(max_examples=60, deadline=None)
    @given(data=one_generator_products())
    def test_random_one_generator_products(self, data):
        lh._check_lcm_oracle(lh.zappa_szep(data), 2, 3)

    def test_adding_machine_hull_fragment(self):
        assert lh.fragment_law_failure(lh.zappa_szep(lh.adding_machine()), 2) is None


@pytest.fixture(scope="module")
def adding():
    return lh.zappa_szep(lh.adding_machine(), depth=4)


class TestRelationGenerators:
    def test_xa_contains_extension_pairs(self, adding):
        xa = lh.gen_xa(adding, 3)
        ea = lh.hull_element(adding, ("", "g"), ("", "g"))
        eb = lh.hull_element(adding, ("", "gg"), ("", "gg"))
        assert lh.HullRelation(ea, frozenset((eb,))) in xa
        assert lh.HullRelation(ea, frozenset((ea,))) in xa

    def test_xa_respects_divisibility(self, adding):
        for r in lh.gen_xa(adding, 3):
            (_, a), part = r.e.p, next(iter(r.parts))
            (_, b) = part.p
            assert len(b) >= len(a)

    def test_xu_contains_letter_cover(self, adding):
        xu = lh.gen_xu(adding, 3)
        e = lh.hull_element(adding, ("", ""), ("", ""))
        zero_l = lh.hull_element(adding, ("0", ""), ("0", ""))
        one_l = lh.hull_element(adding, ("1", ""), ("1", ""))
        assert lh.HullRelation(e, frozenset((zero_l, one_l))) in xu
        assert lh.HullRelation(e, frozenset((e,))) in xu

    def test_xu_rejects_non_covering_family(self, adding):
        xu = lh.gen_xu(adding, 3)
        e = lh.hull_element(adding, ("", ""), ("", ""))
        bad = frozenset(
            lh.hull_element(adding, (w, ""), (w, "")) for w in ("00", "01")
        )
        assert lh.HullRelation(e, bad) not in xu

    def test_max_parts_bound(self, adding):
        assert all(len(r.parts) <= 2 for r in lh.gen_xu(adding, 2, max_parts=2))

    def test_prefix_code_counts(self):
        assert len(lh.prefix_codes("01", 0)) == 1
        assert len(lh.prefix_codes("01", 1)) == 2
        assert len(lh.prefix_codes("01", 2)) == 5
        assert len(lh.prefix_codes("01", 3)) == 26
        for alphabet, top in (("01", 4), ("012", 3)):
            for d in range(top + 1):
                assert lh.prefix_code_count(len(alphabet), d) == len(lh.prefix_codes(alphabet, d))

    def test_xu_forecast_counts_what_is_enumerated(self, adding):
        for depth in range(5):
            assert lh.xu_relation_count(2, depth) == len(lh.gen_xu(adding, depth))
        assert lh.xu_relation_count(2, 5) == 459_892

    def test_xu_over_budget_is_refused(self, adding):
        with pytest.raises(lh.BudgetExceeded, match="459,892"):
            lh.gen_xu(adding, 5, max_parts=2)
        with pytest.raises(LawViolation, match="more than the 459,892 relations of depth 5"):
            lh.gen_xu(adding, 40)

    def test_json_round_trip(self, adding):
        xa = lh.gen_xa(adding, 2)
        back = lh.hull_relations_from_json(adding, lh.hull_relations_to_json(adding, xa))
        assert back == xa

    def test_xu_is_the_tight_set_of_the_word_fragment(self, adding):
        # hull idempotents over words up to the depth bound form a finite
        # meet-semilattice (meet = lcm, zero for incomparable prefixes);
        # its minimal covers are exactly the generated families
        from xjoin import semilattice as sl

        depth = 3
        words = adding.u_monoid.elements_up_to(depth)
        pos = {w: i + 1 for i, w in enumerate(words)}
        n = len(words) + 1

        def meet(i, j):
            if i == 0 or j == 0:
                return 0
            v, w = words[i - 1], words[j - 1]
            r = adding.u_monoid.right_lcm(v, w)
            return pos[r] if r is not None and len(r) <= depth else 0

        table = [[meet(i, j) for j in range(n)] for i in range(n)]
        E = sl.FinMeetSemilattice.from_meet(table, ["zero"] + [w or "e" for w in words])
        got = sl.x_tight(E)
        want = set()
        for rel in lh.gen_xu(adding, depth):
            e = pos[rel.e.p[0]]
            parts = frozenset(pos[p.p[0]] for p in rel.parts)
            want.add(sl.XRelation(e, parts))
        assert got == frozenset(want)

    def test_xa_is_the_tight_set_of_the_power_fragment(self, adding):
        # the idempotents of the second factor form a chain under division,
        # where every nonzero singleton below an element covers it
        from xjoin import semilattice as sl

        depth = 3
        powers = adding.a_monoid.elements_up_to(depth)
        pos = {a: i + 1 for i, a in enumerate(powers)}
        n = len(powers) + 1

        def meet(i, j):
            if i == 0 or j == 0:
                return 0
            longer = max(powers[i - 1], powers[j - 1], key=len)
            return pos[longer]

        table = [[meet(i, j) for j in range(n)] for i in range(n)]
        E = sl.FinMeetSemilattice.from_meet(table, ["zero"] + [a or "e" for a in powers])
        got = sl.x_tight(E)
        want = set()
        for rel in lh.gen_xa(adding, depth):
            e = pos[rel.e.p[1]]
            parts = frozenset(pos[p.p[1]] for p in rel.parts)
            want.add(sl.XRelation(e, parts))
        assert got == frozenset(want)


class TestZappaJson:
    def test_round_trip(self):
        data = lh.adding_machine()
        back = lh.zappa_data_from_json(lh.zappa_data_to_json(data))
        assert back == data

    def test_file_spec(self, tmp_path):
        f = tmp_path / "odometer.json"
        f.write_text(lh.zappa_data_to_json(lh.adding_machine()))
        P = lh.monoid_from_spec(f"zs:{f}")
        assert isinstance(P, lh.ZappaSzepProduct)
        assert P.act("g", "0") == "1"

    def test_missing_keys(self):
        with pytest.raises(lh.LawViolation, match="u_letters"):
            lh.zappa_data_from_json("{}")


class TestParsing:
    def test_monoid_specs(self):
        assert isinstance(lh.monoid_from_spec("free:2"), lh.FreeMonoid)
        assert lh.monoid_from_spec("free:xy").alphabet == "xy"
        assert isinstance(lh.monoid_from_spec("nat:3"), lh.NatPow)
        assert isinstance(lh.monoid_from_spec("nx"), lh.NRtimesNx)
        assert isinstance(lh.monoid_from_spec("adding"), lh.ZappaSzepProduct)
        with pytest.raises(LawViolation):
            lh.monoid_from_spec("octonions")

    def test_hull_parsing(self):
        assert lh.parse_hull(FREE, "[e,a]") == h(FREE, "", "a")
        assert lh.parse_hull(FREE, "0").is_zero
        assert lh.parse_hull(NAT2, "[1.0,0.2]") == h(NAT2, (1, 0), (0, 2))
        with pytest.raises(LawViolation):
            lh.parse_hull(FREE, "[a]")

    def test_format_round_trip(self):
        for M, el in ((FREE, "ab"), (NAT2, (1, 2)), (NX, (3, 2))):
            assert M.parse(M.format(el)) == el
