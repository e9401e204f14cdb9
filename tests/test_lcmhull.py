import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    UNDECIDED, free_foundation_brute, hull_fragment_brute, hull_idem_leq, left_divide_brute, mask_of,
    prefix_codes, right_lcm_search_brute, xa_oracle, xu_by_words, xu_oracle, zappa_walk_brute,
)

from xjoin import lcmhull as lh
from xjoin.lcmhull import HullElement
from xjoin.semilattice import LawViolation


FREE = lh.FreeMonoid("ab")
NAT2 = lh.NatPow(2)
NX = lh.NRtimesNx()


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

    # the free monoids on 1, 2 and 3 letters stand for the factors of every
    # Zappa-Szep product, which zappa_szep proves right LCM instead of checking
    @pytest.mark.parametrize("M,depth,cof", [
        (FREE, 3, 3), (NAT2, 3, 4), (NX, 4, 6), (lh.FreeMonoid("a"), 3, 3), (lh.FreeMonoid("abc"), 3, 3),
    ])
    def test_against_bounded_ideal_search(self, M, depth, cof):
        lh._check_lcm_oracle(M, depth, cof)

    # FreeMonoid("ab") but for right_lcm("a", "a"), each failure of
    # _check_lcm_oracle once, printed one message a line
    WRONG_LCM = """
from xjoin import lcmhull as lh
from xjoin.semilattice import LawViolation
for wrong in (None, "ab", "b"):
    class Wrong(lh.FreeMonoid):
        def right_lcm(self, p, q, wrong=wrong):
            return wrong if (p, q) == ("a", "a") else super().right_lcm(p, q)
    try:
        lh._check_lcm_oracle(Wrong("ab"), 3, 4)
    except LawViolation as exc:
        print(exc)
"""

    @pytest.mark.parametrize("seed", ["1", "2"])
    def test_wrong_lcm_names_the_same_witness_under_any_hash_seed(self, seed):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        done = subprocess.run([sys.executable, "-c", self.WRONG_LCM], capture_output=True, text=True,
                              env=env, timeout=60, check=True)
        assert done.stdout.splitlines() == [
            "oracle says ideals of a and a miss, but a lies in both",
            "lcm ab misses a in the intersection of a and a",
            "lcm b of a,a not divisible by both",
        ]

    def test_left_divide_consistency(self):
        for M in (FREE, NAT2, NX):
            frag = M.elements_up_to(3)
            for p in frag:
                for x in frag:
                    r = M.multiply(p, x)
                    assert M.left_divide(p, r) == x  # left cancellativity


class TestHullArithmetic:
    def test_polycyclic_contraction(self):
        assert lh.hull_mul(FREE, HullElement("", "a"), HullElement("a", "")) == HullElement("", "")

    def test_disjoint_ideals_annihilate(self):
        assert lh.hull_mul(FREE, HullElement("", "a"), HullElement("b", "")).is_zero

    def test_identity(self):
        one = HullElement("", "")
        for x in (HullElement("ab", "b"), lh.HULL_ZERO, one):
            assert lh.hull_mul(FREE, x, one) == x
            assert lh.hull_mul(FREE, one, x) == x

    def test_inversion_swaps(self):
        assert lh.hull_inv(HullElement("a", "b")) == HullElement("b", "a")
        assert lh.hull_inv(lh.HULL_ZERO).is_zero

    def test_idempotent_order(self):
        # [p,p] <= [q,q] exactly when [p,p][q,q] = [p,p]
        for P, p, q, leq in ((FREE, "ab", "a", True), (FREE, "a", "ab", False), (NAT2, (1, 2), (2, 0), False)):
            ep, eq = HullElement(p, p), HullElement(q, q)
            assert hull_idem_leq(P, p, q) == leq == (lh.hull_mul(P, ep, eq) == ep)

    def test_fragment_is_inverse_semigroup(self):
        assert lh.fragment_law_failure(FREE, 2) is None


class TestFragmentLaws:
    @pytest.mark.parametrize("M", [FREE, NAT2, NX], ids=repr)
    @pytest.mark.parametrize("depth", [1, 2])
    def test_agrees_with_triple_loop(self, M, depth):
        assert lh.fragment_law_failure(M, depth) == hull_fragment_brute(M, depth) is None

    @pytest.mark.parametrize("M", [FREE, NAT2, NX], ids=repr)
    def test_corrupted_product_is_caught(self, M):
        # p p answered as p, and a common multiple p p that is not least
        # answered as the lcm of p and p, each break associativity
        p = M.elements_up_to(1)[1]
        pp = M.multiply(p, p)
        for method, args, value in (("multiply", (p, p), p), ("right_lcm", (p, p), pp)):
            bad = OneWrongEntry(M, method, args, value)
            got = lh.fragment_law_failure(bad, 1)
            assert got is not None and got == hull_fragment_brute(bad, 1)
            assert got.startswith(f"{M!r}: associativity fails at ")
            # the named witness breaks the law under the corrupted product
            named = {k: lh.parse_hull(M, v) for k, v in re.findall(r"(\w)=(\S+)", got)}
            x, y, z = named["x"], named["y"], named["z"]

            def mul(u, v):
                return lh.hull_mul(bad, u, v)

            assert mul(mul(x, y), z) != mul(x, mul(y, z))

    @pytest.mark.parametrize("M", [FREE, NAT2, NX], ids=repr)
    def test_corrupted_inverse_is_caught(self, M, monkeypatch):
        p = M.elements_up_to(1)[1]
        bad = HullElement(p, M.identity)
        true_inv = lh.hull_inv
        monkeypatch.setattr(lh, "hull_inv", lambda x: x if x == bad else true_inv(x))
        got = lh.fragment_law_failure(M, 1)
        assert got == hull_fragment_brute(M, 1) == f"{M!r}: inverse law fails at x={bad.format(M)}"

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_one_wrong_oracle_entry(self, data):
        M = data.draw(st.sampled_from([FREE, NAT2, NX]), label="monoid")
        elements = st.sampled_from(M.elements_up_to(2))
        method = data.draw(st.sampled_from(["multiply", "right_lcm", "left_divide"]))
        args = data.draw(st.tuples(elements, elements), label="args")
        # a product is always an element; the other two may answer None
        value = data.draw(elements if method == "multiply" else elements | st.none())
        bad = OneWrongEntry(M, method, args, value)

        def outcome(check):
            try:
                return check(bad, 1)
            except LawViolation as exc:
                return f"LawViolation: {exc}"

        assert outcome(lh.fragment_law_failure) == outcome(hull_fragment_brute)

    # one corrupted entry per monoid at depth 2: an lcm that its arguments do
    # not divide, met at a pair outside the fragment; a missed lcm; a product
    @pytest.mark.parametrize("M,entry,law", [
        (FREE, ("right_lcm", ("aabb", ""), "ab"), "LawViolation: oracle inconsistency"),
        (NAT2, ("right_lcm", ((2, 0), (1, 3)), None), "NatPow(2): associativity fails"),
        (NX, ("multiply", ((1, 3), (2, 1)), (3, 1)), "NRtimesNx(): associativity fails"),
    ], ids=["free", "nat2", "nx"])
    def test_depth_two_corruption_agrees_with_triple_loop(self, M, entry, law):
        bad = OneWrongEntry(M, *entry)
        got = outcome_at(lh.fragment_law_failure, bad, 2)
        assert got == outcome_at(hull_fragment_brute, bad, 2) and got.startswith(law)

    # The first failure from each source in turn, a and f counted in fragment
    # order from 0, the identity: one side alone zero (then a = f = 0), the
    # left components alone at some a > 0 (then f = 0), the right components
    # alone at some f > 0 (then a = 0).  One wrong entry never gives the
    # second: while right_lcm is symmetric, the left components failing at a
    # and middle (b,c,d,e) are the right ones failing at f = a and (e,d,c,b);
    # while multiply is associative, (ab')g = a(b'g) differs from ak only if
    # b'g differs from k, as at a = 0.  So that case's oracle, on N, has the
    # identity 0 times 1 or 2 answered 0, and 1, 0 answered as a miss.
    @pytest.mark.parametrize("source,M,entries", [
        ("zero", NX, [("right_lcm", ((2, 1), (0, 2)), None)]),
        ("a", lh.NatPow(1), [
            ("multiply", ((0,), (1,)), (0,)), ("multiply", ((0,), (2,)), (0,)),
            ("right_lcm", ((1,), (0,)), None),
        ]),
        ("f", NAT2, [("multiply", ((2, 0), (1, 0)), (0, 2))]),
    ], ids=["zero", "a", "f"])
    def test_first_failure_source(self, source, M, entries):
        bad = wrong_entries(M, entries)
        got = lh.fragment_law_failure(bad, 1)
        assert got is not None and got == hull_fragment_brute(bad, 1)
        x, y, z = (lh.parse_hull(M, v) for _, v in re.findall(r"(\w)=(\S+)", got))
        left = lh.hull_mul(bad, lh.hull_mul(bad, x, y), z)
        right = lh.hull_mul(bad, x, lh.hull_mul(bad, y, z))
        if left.is_zero != right.is_zero:
            sources = ["zero"]
        else:
            sources = [s for s, u, v in (("a", left.p, right.p), ("f", left.q, right.q)) if u != v]
        assert sources == [source]
        frag = M.elements_up_to(1)
        assert (frag.index(x.p) > 0, frag.index(z.q) > 0) == (source == "a", source == "f")

    # a wrong product and an lcm its arguments do not divide: the triple loop
    # meets the lcm, at a pair outside the fragment, after the first failure,
    # and at a pair of the fragment before it, at x = 0
    @pytest.mark.parametrize("entries,expected", [
        ([("multiply", ("a", "aa"), "b"), ("right_lcm", ("a", "ba"), "bab")],
         "FreeMonoid('ab'): associativity fails at x=[e,a] y=[e,a] z=[e,a]"),
        ([("multiply", ("ba", ""), "b"), ("right_lcm", ("b", ""), "aab")],
         "LawViolation: oracle inconsistency: lcm aab not divisible by its arguments"),
    ], ids=["failure-first", "inconsistency-first"])
    def test_failure_and_inconsistency_in_loop_order(self, entries, expected):
        bad = wrong_entries(FREE, entries)
        with pytest.raises(LawViolation):
            lh._cofactors(bad, *entries[1][1])
        assert outcome_at(lh.fragment_law_failure, bad, 1) == outcome_at(hull_fragment_brute, bad, 1) == expected


def outcome_at(check, M, depth: int) -> str | None:
    """``check(M, depth)``, or the text of the ``LawViolation`` it raises."""
    try:
        return check(M, depth)
    except LawViolation as exc:
        return f"LawViolation: {exc}"


def wrong_entries(M, entries):
    """M with each (method, args, value) of ``entries`` made wrong."""
    for entry in entries:
        M = OneWrongEntry(M, *entry)
    return M


class OneWrongEntry:
    """A monoid oracle that answers ``value`` to ``method(*args)`` and
    delegates everything else to M."""

    def __init__(self, M, method, args, value):
        self._M, self._entry = M, (method, args, value)

    def __getattr__(self, name):
        attr = getattr(self._M, name)
        method, args, value = self._entry
        if name != method:
            return attr
        return lambda *a: value if a == args else attr(*a)

    def __repr__(self):
        return repr(self._M)


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

    @settings(max_examples=300, deadline=None)
    @given(alphabet=st.sampled_from(("ab", "abc")), data=st.data())
    def test_tree_walk_matches_word_enumeration(self, alphabet, data):
        F = data.draw(st.lists(st.text(alphabet, max_size=4), min_size=1, max_size=6))
        verdict = lh.FreeMonoid(alphabet).foundation_verdict(F)
        assert (verdict.kind, verdict.witness) == free_foundation_brute(alphabet, F)

    def test_long_member_is_walked_not_enumerated(self):
        # the enumeration would read 2^200 words
        long = "a" * 200
        assert lh.is_foundation_set(FREE, ["a", "b", long]).kind == "yes"
        assert lh.is_foundation_set(FREE, ["b", "ab", long]) == ("no", "a" * 199 + "b", None)

    @pytest.mark.parametrize("P, F, depth, first", [
        (NX, [(1, 2)], 1000, 446),
        (lh.FreeMonoid("abc"), ["a", "b", "c"], 17, 11),
        (lh.FreeMonoid("a"), ["a"], 10 ** 9, 100_000),
        (NAT2, [(1, 0)], 500, 446),
    ], ids=["nx", "free3", "free1", "nat2"])
    def test_listing_over_budget_is_refused(self, P, F, depth, first):
        assert P.count_up_to(first - 1) <= lh.ELEMENT_BUDGET < P.count_up_to(first)
        with pytest.raises(lh.BudgetExceeded, match=f"of depth {first}, over the budget of 100,000"):
            lh.lemma_found_check(P, F, depth)

    @pytest.mark.parametrize(
        "P", [FREE, lh.FreeMonoid("a"), NAT2, lh.NatPow(3), NX, lh.zappa_szep(lh.adding_machine())], ids=repr
    )
    def test_count_forecasts_the_listing(self, P):
        for depth in range(6):
            assert P.count_up_to(depth) == len(P.elements_up_to(depth))


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


@st.composite
def letter_tables(draw) -> lh.ZappaSzepData:
    """1 to 3 U-letters, the A-letters g or gh, any action, bijective or
    not, and restrictions of up to two letters."""
    us = draw(st.sampled_from(("0", "01", "012")))
    as_ = draw(st.sampled_from(("g", "gh")))
    action = {a: {u: draw(st.sampled_from(us)) for u in us} for a in as_}
    restriction = {a: {u: draw(st.text(as_, max_size=2)) for u in us} for a in as_}
    return lh.ZappaSzepData.from_tables(us, as_, action, restriction)


class TestZappaSzep:
    def test_adding_machine_validates(self):
        P = lh.zappa_szep(lh.adding_machine())
        assert isinstance(P, lh.ZappaSzepProduct) and P.data == lh.adding_machine()

    def test_adding_machine_action(self):
        P = lh.zappa_szep(lh.adding_machine())
        assert P.act("g", "00") == "10" and P.res("g", "00") == ""
        assert P.act("g", "10") == "01" and P.res("g", "10") == ""
        assert P.act("g", "11") == "00" and P.res("g", "11") == "g"
        assert P.act("gg", "11") == "10" and P.res("gg", "11") == "g"

    def test_direct_product_accepted(self):
        P = lh.zappa_szep(direct_product())
        assert P.multiply(("0", "g"), ("1", "")) == ("01", "g")

    def test_non_bijective_action_rejected(self):
        data = lh.ZappaSzepData.from_tables(
            "01", "g",
            action={"g": {"0": "0", "1": "0"}},
            restriction={"g": {"0": "", "1": ""}},
        )
        with pytest.raises(LawViolation, match="C3"):
            lh.zappa_szep(data)

    def test_second_factor_must_be_a_chain(self):
        with pytest.raises(LawViolation, match="C2"):
            lh.zappa_szep(two_generators())

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

    def test_long_words_are_walked_in_a_loop(self):
        # 1,200 letters on either side: no stack frame per letter
        P = lh.monoid_from_spec("adding")
        long_u = lh.hull_mul(P, lh.parse_hull(P, "[e.g,e.e]"), lh.parse_hull(P, f"[{'1' * 1200}.e,e.e]"))
        assert long_u.format(P) == f"[{'0' * 1200}.g,e.e]"
        long_a = lh.hull_mul(P, lh.parse_hull(P, f"[e.{'g' * 1200},e.e]"), lh.parse_hull(P, "[0.e,e.e]"))
        assert long_a.format(P) == f"[0.{'g' * 600},e.e]"

    @settings(max_examples=60, deadline=None)
    @given(tables=letter_tables(), data=st.data())
    def test_walk_matches_recursive_definition(self, tables, data):
        P = lh.ZappaSzepProduct(tables)
        us, as_ = tables.u_alphabet, tables.a_alphabet
        bijective = all(len({v for b, _, v in tables.act_letter if b == a}) == len(us) for a in as_)
        for _ in range(8):
            a, u = data.draw(st.text(as_, max_size=4)), data.draw(st.text(us, max_size=5))
            assert (P.act(a, u), P.res(a, u)) == zappa_walk_brute(tables, a, u)
            v = P.act_inverse(a, u)
            assert v is None or zappa_walk_brute(tables, a, v)[0] == u
            assert v is not None or not bijective

    @settings(max_examples=40, deadline=None)
    @given(tables=letter_tables())
    def test_matched_pair_laws_hold_for_any_tables(self, tables):
        # the laws zappa_szep takes from its docstring's proof, on every word
        # up to length 3
        P = lh.ZappaSzepProduct(tables)
        A, U = P.a_monoid.elements_up_to(3), P.u_monoid.elements_up_to(3)
        for a in A:
            for u in U:
                assert (P.act(a, u), P.res(a, u)) == zappa_walk_brute(tables, a, u)
                for v in U:
                    assert P.act(a, u + v) == P.act(a, u) + P.act(P.res(a, u), v)
                    assert P.res(a, u + v) == P.res(P.res(a, u), v)
                for b in A:
                    assert P.act(a + b, u) == P.act(a, P.act(b, u))
                    assert P.res(a + b, u) == P.res(a, P.act(b, u)) + P.res(b, u)


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
        P = lh.zappa_szep(data)
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
        lh._check_lcm_oracle(lh.zappa_szep(data), depth, depth)

    @settings(max_examples=60, deadline=None)
    @given(data=one_generator_products())
    def test_random_one_generator_products(self, data):
        lh._check_lcm_oracle(lh.zappa_szep(data), 2, 3)

    def test_adding_machine_hull_fragment(self):
        assert lh.fragment_law_failure(lh.zappa_szep(lh.adding_machine()), 2) is None


@pytest.fixture(scope="module")
def adding():
    return lh.zappa_szep(lh.adding_machine())


class TestRelationGenerators:
    def test_xa_contains_extension_pairs(self, adding):
        xa = lh.gen_xa(adding, 3)
        ea = HullElement(("", "g"), ("", "g"))
        eb = HullElement(("", "gg"), ("", "gg"))
        assert lh.HullRelation(ea, frozenset((eb,))) in xa
        assert lh.HullRelation(ea, frozenset((ea,))) in xa

    def test_xa_respects_divisibility(self, adding):
        for r in lh.gen_xa(adding, 3):
            (_, a), part = r.e.p, next(iter(r.parts))
            (_, b) = part.p
            assert len(b) >= len(a)

    def test_xu_contains_letter_cover(self, adding):
        xu = lh.gen_xu(adding, 3)
        e = HullElement(("", ""), ("", ""))
        zero_l = HullElement(("0", ""), ("0", ""))
        one_l = HullElement(("1", ""), ("1", ""))
        assert lh.HullRelation(e, frozenset((zero_l, one_l))) in xu
        assert lh.HullRelation(e, frozenset((e,))) in xu

    def test_xu_rejects_non_covering_family(self, adding):
        xu = lh.gen_xu(adding, 3)
        e = HullElement(("", ""), ("", ""))
        bad = frozenset(HullElement((w, ""), (w, "")) for w in ("00", "01"))
        assert lh.HullRelation(e, bad) not in xu

    def test_max_parts_bound(self, adding):
        assert all(len(r.parts) <= 2 for r in lh.gen_xu(adding, 2, max_parts=2))

    def test_prefix_code_counts(self):
        assert len(prefix_codes("01", 0)) == 1
        assert len(prefix_codes("01", 1)) == 2
        assert len(prefix_codes("01", 2)) == 5
        assert len(prefix_codes("01", 3)) == 26
        for alphabet, top in (("01", 4), ("012", 3)):
            for d in range(top + 1):
                assert lh.prefix_code_count(len(alphabet), d) == len(prefix_codes(alphabet, d))

    @pytest.mark.parametrize("data, top", [(lh.adding_machine(), 4), (ternary_odometer(), 3)],
                             ids=["adding", "ternary"])
    def test_xu_is_built_word_by_word_from_prefix_codes(self, data, top):
        P = lh.zappa_szep(data)
        for depth in range(top + 1):
            for max_parts in (None, 1, 2, 3, 5):
                assert lh.gen_xu(P, depth, max_parts) == xu_by_words(P, depth, max_parts)

    def test_xu_forecast_counts_what_is_enumerated(self, adding):
        for depth in range(5):
            assert lh.xu_relation_count(2, depth) == len(lh.gen_xu(adding, depth))
        assert lh.xu_relation_count(2, 5) == 459_892

    def test_xa_forecast_counts_what_is_enumerated(self, adding):
        for depth in range(8):
            assert lh.xa_relation_count(1, depth) == len(lh.gen_xa(adding, depth)) == (depth + 1) * (depth + 2) // 2

    def test_xa_over_budget_is_refused(self, adding):
        assert lh.xa_relation_count(1, 445) <= lh.XU_RELATION_BUDGET < lh.xa_relation_count(1, 446)
        with pytest.raises(lh.BudgetExceeded, match="^xa relation generation at depth 446 would enumerate 100,128"):
            lh.gen_xa(adding, 446)
        with pytest.raises(lh.BudgetExceeded, match="more than the 100,128 relations of depth 446"):
            lh.gen_xa(adding, 2000)

    def test_xa_letter_forecast_counts_what_is_enumerated(self, adding):
        for depth in range(9):
            letters = sum(len(r.e.p[1]) + len(b.p[1]) for r in lh.gen_xa(adding, depth) for b in r.parts)
            assert lh.xa_letter_count(1, depth) == letters == depth * (depth + 1) * (depth + 2) // 2
        assert lh.xa_letter_count(1, 300) == 13_635_300 and lh.xa_letter_count(1, 445) == 44_358_045

    def test_xa_over_letter_budget_is_refused(self, adding):
        assert lh.xa_letter_count(1, 340) <= lh.XA_LETTER_BUDGET < lh.xa_letter_count(1, 341)
        assert lh.xa_relation_count(1, 445) <= lh.XU_RELATION_BUDGET
        with pytest.raises(lh.BudgetExceeded, match="^xa relation generation at depth 341 would enumerate 20,000,673 letters"):
            lh.gen_xa(adding, 341)
        with pytest.raises(lh.BudgetExceeded, match="more than the 20,000,673 letters of depth 341"):
            lh.gen_xa(adding, 445)

    def test_xu_over_budget_is_refused(self, adding):
        with pytest.raises(lh.BudgetExceeded, match="459,892"):
            lh.gen_xu(adding, 5, max_parts=2)
        with pytest.raises(LawViolation, match="more than the 459,892 relations of depth 5"):
            lh.gen_xu(adding, 40)

    def test_json_round_trip(self, adding):
        """The writer's text against the documents the oracles build from the definitions."""
        for gen, oracle in ((lh.gen_xa, xa_oracle), (lh.gen_xu, xu_oracle)):
            text = lh.hull_relations_to_json(adding, gen(adding, 2))
            assert text == json.dumps(oracle(2), indent=2, sort_keys=True)

    def test_json_order_is_the_writers(self, adding):
        # the generators return sets: the writer alone orders what it prints
        xu = lh.gen_xu(adding, 3)
        shuffled = list(xu)
        random.Random(3).shuffle(shuffled)
        text = lh.hull_relations_to_json(adding, xu)
        assert lh.hull_relations_to_json(adding, shuffled) == text
        golden = json.loads((Path(__file__).parent / "data" / "adding_machine_x_depth3.json").read_text())
        assert text == json.dumps(golden["xu"], indent=2, sort_keys=True)

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
            parts = mask_of(pos[p.p[0]] for p in rel.parts)
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
            parts = mask_of(pos[p.p[1]] for p in rel.parts)
            want.add(sl.XRelation(e, parts))
        assert got == frozenset(want)


ODOMETER_DOC = {
    "u_letters": "01",
    "a_letters": "g",
    "action": {"g": {"0": "1", "1": "0"}},
    "restriction": {"g": {"0": "", "1": "g"}},
}


class TestZappaJson:
    def test_round_trip(self):
        """A hand-written odometer document reads as ``adding_machine()``."""
        assert lh.zappa_data_from_json(json.dumps(ODOMETER_DOC)) == lh.adding_machine()

    def test_file_spec(self, tmp_path):
        f = tmp_path / "odometer.json"
        f.write_text(json.dumps(ODOMETER_DOC))
        P = lh.monoid_from_spec(f"zs:{f}")
        assert isinstance(P, lh.ZappaSzepProduct)
        assert P.act("g", "0") == "1"

    def test_missing_keys(self):
        with pytest.raises(lh.LawViolation, match="u_letters"):
            lh.zappa_data_from_json("{}")

    def test_malformed_table_is_not_a_missing_key(self):
        # all four keys are there: the fault is the action row, a list
        doc = {"u_letters": "01", "a_letters": "g", "action": {"g": ["1", "0"]},
               "restriction": {"g": {"0": "", "1": "g"}}}
        with pytest.raises(lh.LawViolation, match=r"^action of 'g' must be an object over the U-letters"):
            lh.zappa_data_from_json(json.dumps(doc))

    @pytest.mark.parametrize("u_letters", [5, None, ["0", "1"]])
    def test_alphabets_must_be_strings(self, u_letters):
        doc = {"u_letters": u_letters, "a_letters": "g", "action": {"g": {"0": "1", "1": "0"}},
               "restriction": {"g": {"0": "", "1": "g"}}}
        with pytest.raises(lh.LawViolation, match="must be a nonempty string of letters"):
            lh.zappa_data_from_json(json.dumps(doc))


class TestParsing:
    def test_monoid_specs(self):
        assert isinstance(lh.monoid_from_spec("free:2"), lh.FreeMonoid)
        assert lh.monoid_from_spec("free:xy").alphabet == "xy"
        assert isinstance(lh.monoid_from_spec("nat:3"), lh.NatPow)
        assert isinstance(lh.monoid_from_spec("nx"), lh.NRtimesNx)
        assert isinstance(lh.monoid_from_spec("adding"), lh.ZappaSzepProduct)
        with pytest.raises(LawViolation):
            lh.monoid_from_spec("octonions")

    @pytest.mark.parametrize("spec", ["nat:+2", "nat:2_0", "nat: 2", "nat:\u0662", "nat:-1", "nat:"])
    def test_nat_rank_in_ascii_digits(self, spec):
        with pytest.raises(LawViolation, match="nat:K rank must be written in the digits 0-9"):
            lh.monoid_from_spec(spec)

    def test_coordinates_in_ascii_digits(self):
        assert NAT2.parse("10.0") == (10, 0)
        assert lh.NRtimesNx().parse("3.2") == (3, 2)
        for text in ("1_0.0", "+1.0", "1.-0", "1.\u0660", "1.0x"):
            with pytest.raises(LawViolation, match="must be written in the digits 0-9"):
                NAT2.parse(text)
            with pytest.raises(LawViolation, match="must be written in the digits 0-9"):
                lh.NRtimesNx().parse(text)

    def test_free_rank_skips_the_identity_letter(self):
        assert lh.monoid_from_spec("free:5").alphabet == "abcdf"
        assert lh.monoid_from_spec("free:25").alphabet == "abcdfghijklmnopqrstuvwxyz"
        with pytest.raises(LawViolation, match=r"free rank 26 out of range 1\.\.25"):
            lh.monoid_from_spec("free:26")

    @pytest.mark.parametrize("spec, letter", [
        ("free:abe", "e"), ("free:a.b", "."), ("free:a,b", ","), ("free:a[", "["), ("free:]", "]"),
        ("free:a b", " "), ("free:aba", "a"),
    ])
    def test_alphabet_letters_the_notation_uses_are_refused(self, spec, letter):
        with pytest.raises(LawViolation, match=re.escape(f"letter {letter!r} of alphabet {spec[5:]!r}")):
            lh.monoid_from_spec(spec)

    @pytest.mark.parametrize("alphabet", ["", ["a", "b"], None])
    def test_alphabet_must_be_a_nonempty_string(self, alphabet):
        with pytest.raises(LawViolation, match="must be a nonempty string of letters"):
            lh.FreeMonoid(alphabet)

    def test_hull_parsing(self):
        assert lh.parse_hull(FREE, "[e,a]") == HullElement("", "a")
        assert lh.parse_hull(FREE, "0").is_zero
        assert lh.parse_hull(NAT2, "[1.0,0.2]") == HullElement((1, 0), (0, 2))
        with pytest.raises(LawViolation):
            lh.parse_hull(FREE, "[a]")

    def test_format_round_trip(self):
        for M, el in ((FREE, "ab"), (NAT2, (1, 2)), (NX, (3, 2))):
            assert M.parse(M.format(el)) == el
