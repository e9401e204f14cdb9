"""Acceptance gate: one test per criterion, exact checks at stated budgets.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion (add ``-s`` to see the printed summaries).
"""

import itertools
import json
import random
import time
from pathlib import Path

import pytest

from xjoin import boolalg as ba
from xjoin import invsgp
from xjoin import lcmhull as lh
from xjoin import semilattice as sl
from xjoin.bisection import (
    check_presentation,
    check_variety_identities,
    find_universal_morphism,
    iota,
    theorem_quotients_check,
)
from xjoin.semilattice import LawViolation

from xjoin.suites import tight_spectrum_brute

from oracles import (
    PresentationReport,
    QuotientReport,
    check_presentation_brute,
    congruence_brute,
    count_additive_morphisms_brute,
    count_bisections_brute,
    elements_of,
    theorem_quotients_check_brute,
    xa_oracle,
    xu_oracle,
)

DATA = Path(__file__).parent / "data"


def _report(num, ok, detail):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def all_proper_reps(E, max_atoms=2):
    for m in range(max_atoms + 1):
        B = ba.FinBooleanAlgebra(tuple(f"p{i}" for i in range(m)))
        for images in itertools.product(range(B.size), repeat=E.n - 1):
            try:
                rep = ba.SemilatticeRep.build(E, B, (0,) + images)
            except LawViolation:
                continue
            if ba.is_proper(rep):
                yield rep


def test_criterion_01_chain_family():
    t0 = time.monotonic()
    for n in range(1, 6):
        E = sl.chain(n)
        tight = sl.x_tight(E)
        prime = sl.builtin_relations(E, "prime")
        assert sl.spectrum(E, tight).bit_count() == 1
        Bt, rep_t = ba.booleanization(E, tight)
        assert Bt.size == 2
        assert sl.spectrum(E, prime).bit_count() == n
        Bp, rep_p = ba.booleanization(E, prime)
        assert Bp.size == 2 ** n
        assert len(set(rep_p.images)) == E.n
        assert ba.is_lattice_morphism(rep_p)
        if n >= 2:
            assert len(set(rep_t.images)) < E.n
    elapsed = time.monotonic() - t0
    _report(1, elapsed < 1.0, f"chain family n=1..5 in {elapsed:.2f}s")


def test_criterion_02_tight_spectrum_is_atoms():
    t0 = time.monotonic()
    rng = random.Random(20240817)
    for _ in range(50):
        E = sl.random_semilattice(rng, max_size=10)
        spec = sl.spectrum(E, sl.x_tight(E))
        assert elements_of(spec) == list(E.atoms())
        assert spec == tight_spectrum_brute(E)
    elapsed = time.monotonic() - t0
    _report(2, elapsed < 10.0, f"50 random semilattices in {elapsed:.2f}s")


def test_criterion_03_morphism_characterizations():
    for E in (sl.powerset_semilattice(2), sl.powerset_semilattice(3)):
        tight = sl.x_tight(E)
        for rep in all_proper_reps(E):
            assert ba.is_x_to_join(rep, tight) == ba.is_ba_morphism(rep)
    five_element_distributive = [
        sl.chain(4),
        sl.from_subsets(
            [frozenset(), {1}, {2}, {1, 2}, {1, 2, 3}], ["0", "a", "b", "j", "t"]
        ),
        sl.from_subsets(
            [frozenset(), {1}, {1, 2}, {1, 3}, {1, 2, 3}], ["0", "c", "a", "b", "t"]
        ),
    ]
    for E in five_element_distributive:
        assert ba.has_all_joins(E)
        prime = sl.x_prime(E)
        for rep in all_proper_reps(E):
            assert ba.is_x_to_join(rep, prime) == ba.is_lattice_morphism(rep)
    _report(3, True, "tight=BA-morphism and prime=lattice-morphism, exhaustive")


def test_criterion_04_bisection_counts():
    t0 = time.monotonic()
    I2 = invsgp.i2()
    tight = invsgp.semigroup_relations(I2, "tight")
    Bt = iota(I2, tight).algebra
    full = iota(I2, frozenset())
    assert len(Bt) == 7
    assert len(full.algebra) == 21
    assert count_bisections_brute(Bt.groupoid) == 7
    assert count_bisections_brute(full.algebra.groupoid) == 21
    E = I2.semilattice
    chi = sl.spectrum(E, tight)
    assert len(congruence_brute(full, chi)[0]) == theorem_quotients_check(I2, chi) == 7
    assert theorem_quotients_check_brute(I2, chi) == QuotientReport.passing(7)
    elapsed = time.monotonic() - t0
    _report(4, elapsed < 1.0, f"7 / 21 / 7 classes in {elapsed:.2f}s")


GRID_SEMIGROUPS = [invsgp.i2(), invsgp.b2(), invsgp.chain_semigroup(3)]
GRID_IDS = ["i2", "b2", "e3"]


@pytest.mark.parametrize("S", GRID_SEMIGROUPS, ids=GRID_IDS)
def test_criterion_05_variety_identities(S):
    t0 = time.monotonic()
    for name in sl.BUILTIN_RELATION_SETS:
        report = check_variety_identities(iota(S, invsgp.semigroup_relations(S, name)).algebra)
        assert report.ok and report.exhaustive, report.first_failure()
    elapsed = time.monotonic() - t0
    _report(5, elapsed < 60.0, f"identities on the {S.n}-element semigroup in {elapsed:.1f}s")


def invariant_spectra(S):
    # every mask of nonzero generators, ascending
    return [chi for chi in range(0, 1 << S.semilattice.n, 2) if invsgp.character_set_invariant(S, chi)]


@pytest.mark.parametrize("S", [invsgp.i2(), invsgp.b2()], ids=["i2", "b2"])
def test_criterion_06_quotient_theorem(S):
    E = S.semilattice
    spectra = invariant_spectra(S)
    full_spec = sl.spectrum(E, frozenset())
    tight_spec = sl.spectrum(E, invsgp.semigroup_relations(S, "tight"))
    assert full_spec in spectra and tight_spec in spectra
    for chi in spectra:
        classes = theorem_quotients_check(S, chi)
        assert theorem_quotients_check_brute(S, chi) == QuotientReport.passing(classes), elements_of(chi)
    _report(6, True, f"{len(spectra)} invariant spectra on the {S.n}-element semigroup")


@pytest.mark.parametrize("S", GRID_SEMIGROUPS, ids=GRID_IDS)
def test_criterion_07_presentations(S):
    for name in sl.BUILTIN_RELATION_SETS:
        X = invsgp.semigroup_relations(S, name)
        assert check_presentation_brute(S, X) == PresentationReport.passing(check_presentation(S, X)), name
    _report(7, True, f"presentation on the {S.n}-element semigroup, all relation sets")


def test_criterion_08_universal_morphisms():
    I2 = invsgp.i2()
    B2 = invsgp.b2()
    cases = []
    for S in (I2, B2):
        tight = invsgp.semigroup_relations(S, "tight")
        rep_t = iota(S, tight)
        cases.append((S, tight, rep_t.algebra, rep_t.images))        # identity
        cases.append((S, frozenset(), rep_t.algebra, rep_t.images))  # surjection
    full = iota(I2, frozenset())
    cases.append((I2, frozenset(), full.algebra, full.images))       # identity on 21
    # the quotient composite, which is the canonical map of the relation set
    # it carves out, against that relation set
    E = I2.semilattice
    chi = sl.spectrum(E, invsgp.semigroup_relations(I2, "tight"))
    chi_sorted = elements_of(chi)
    BA = ba.FinBooleanAlgebra(tuple(E.label(c) for c in chi_sorted))
    images = [
        sum(1 << i for i, c in enumerate(chi_sorted) if E.leq(c, e))
        for e in range(E.n)
    ]
    carved = ba.x_pi(ba.SemilatticeRep.build(E, BA, images))
    rep_c = iota(I2, carved)
    cases.append((I2, carved, rep_c.algebra, rep_c.images))
    for S, relations, target, phi in cases:
        assert len(target) <= 30
        res = find_universal_morphism(S, relations, target, phi)
        uni = iota(S, relations)
        for s in range(S.n):
            assert res.apply(uni.images[s]) == phi[s]
        assert count_additive_morphisms_brute(res.source, target, dict(zip(uni.images, phi))) == 1
    _report(8, True, f"{len(cases)} representations factored with unique morphisms")


def test_criterion_09_hull_and_foundation():
    t0 = time.monotonic()
    free = lh.FreeMonoid("ab")
    e_a = lh.HullElement("", "a")
    a_e = lh.HullElement("a", "")
    b_e = lh.HullElement("b", "")
    assert lh.hull_mul(free, e_a, a_e) == lh.HullElement(free.identity, free.identity)
    assert lh.hull_mul(free, e_a, b_e).is_zero
    assert lh.is_foundation_set(free, ["a", "b"]).kind == "yes"
    no = lh.is_foundation_set(free, ["a"])
    assert no.kind == "no" and no.witness == "b"
    assert lh.lemma_found_check(free, ["a", "b"], depth=4)
    assert lh.lemma_found_check(free, ["a"], depth=4)
    lh._check_lcm_oracle(lh.NRtimesNx(), 6, 6)
    elapsed = time.monotonic() - t0
    _report(9, elapsed < 10.0, f"hull arithmetic and lcm oracle in {elapsed:.2f}s")


def test_criterion_10_adding_machine_relations():
    P = lh.zappa_szep(lh.adding_machine())
    golden = json.loads((DATA / "adding_machine_x_depth3.json").read_text())
    assert golden["depth"] == 3
    lib_xa = json.loads(lh.hull_relations_to_json(P, lh.gen_xa(P, 3)))
    lib_xu = json.loads(lh.hull_relations_to_json(P, lh.gen_xu(P, 3)))
    assert lib_xa == golden["xa"]
    assert lib_xu == golden["xu"]
    # the committed file reproduces from the definitional enumeration
    assert xa_oracle(3) == golden["xa"]
    assert xu_oracle(3) == golden["xu"]
    _report(10, True, "depth-3 relation sets match the committed enumeration")
