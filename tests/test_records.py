"""The immutable records of xjoin: NamedTuples that compare and hash by value."""

import subprocess
import sys
from pathlib import Path

import pytest

from xjoin import bisection, boolalg, groupoid, invsgp, lcmhull
from xjoin import semilattice as sl

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = (sl, boolalg, invsgp, groupoid, bisection, lcmhull)


def record_examples() -> dict[type, object]:
    """One instance of every record class, built by the code that builds it."""
    E = sl.diamond()
    tight = sl.x_tight(E)
    B, rep = boolalg.booleanization(E, tight)
    I2 = invsgp.i2()
    I2_tight = invsgp.semigroup_relations(I2, "tight")
    gg = groupoid.germ_groupoid(I2, I2_tight)
    full = bisection.iota(I2, frozenset())
    P = lcmhull.zappa_szep(lcmhull.adding_machine())
    xa = lcmhull.gen_xa(P, 1)
    examples = [
        E, next(iter(tight)),
        B, rep, boolalg.universal_extension(rep, tight),
        I2, gg, gg.groupoid,
        full, bisection.check_variety_identities(full.algebra),
        bisection.find_universal_morphism(I2, frozenset(), full.algebra, full.images),
        P.data, min(xa), min(xa).e, lcmhull.is_foundation_set(P, [P.identity]),
    ]
    return {type(r): r for r in examples}


EXAMPLES = record_examples()
# the records whose later fields are derived from the first k, which alone
# make up their value
VALUE_FIELDS = {sl.FinMeetSemilattice: 2, invsgp.FinInverseSemigroup: 3, groupoid.GermGroupoid: 4}


def hash_or_error(x):
    try:
        return hash(x)
    except TypeError:
        return TypeError


def test_examples_cover_every_record_class():
    records = {
        cls for mod in MODULES for cls in vars(mod).values()
        if isinstance(cls, type) and issubclass(cls, tuple) and cls.__module__ == mod.__name__
    }
    assert len(records) == 15
    assert records == set(EXAMPLES)


def test_import_loads_no_dataclasses():
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import xjoin, xjoin.cli, xjoin.suites; "
            "print('dataclasses' in sys.modules)")
    done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


@pytest.mark.parametrize("cls", sorted(EXAMPLES, key=lambda c: c.__name__), ids=lambda c: c.__name__)
class TestEveryRecord:
    def test_fields_are_read_only(self, cls):
        r = EXAMPLES[cls]
        for name in r._fields:
            with pytest.raises(AttributeError):
                setattr(r, name, getattr(r, name))
        with pytest.raises(AttributeError):
            r.extra = 1

    def test_hash_is_that_of_the_value_fields(self, cls):
        # a set of records iterates in the order of these hashes
        r = EXAMPLES[cls]
        k = VALUE_FIELDS.get(cls, len(r))
        assert hash_or_error(r) == hash_or_error(tuple(r)[:k])
        assert r == r._replace() and not r != r._replace()


def test_groupoid_tables_are_unhashable():
    with pytest.raises(TypeError):
        hash(EXAMPLES[groupoid.FinGroupoid])


class TestDerivedFieldsTakeNoPartInEquality:
    def assert_same_value(self, a, b, hashable=True):
        assert tuple(a) != tuple(b)
        assert a == b and not a != b
        if hashable:
            assert hash(a) == hash(b)

    def test_semigroup_and_its_json_round_trip(self):
        I2 = invsgp.i2()
        back = invsgp.invsgp_from_json("".join(invsgp.invsgp_to_json(I2)))
        assert (I2.gens, back.gens) == ((6, 1), (5, 6, 1))
        self.assert_same_value(I2, back)
        assert len({I2, back}) == 1

    def test_semilattice_and_its_json_round_trip(self):
        E = sl.powerset_semilattice(2)
        back = sl.semilattice_from_json(sl.semilattice_to_json(E))
        assert back == E and not back != E and hash(back) == hash(E)
        self.assert_same_value(E, back._replace(below=(), above=(), atom_bits=0))
        assert E != sl.chain(4) and not E == sl.chain(4)

    def test_germ_groupoid_without_its_indexes(self):
        gg = EXAMPLES[groupoid.GermGroupoid]
        self.assert_same_value(gg, gg._replace(unit_index={}, arrow_index={}), hashable=False)
        assert gg != gg._replace(units=()) and not gg == gg._replace(units=())

    def test_other_types_are_not_equal(self):
        I2 = invsgp.i2()
        assert I2 != tuple(I2)[:3] and not I2 == tuple(I2)[:3]
