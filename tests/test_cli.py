import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from xjoin import boolalg, invsgp
from xjoin import semilattice as sl
from xjoin.cli import main

from oracles import relations_to_json


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    base = tmp_path_factory.mktemp("structures")
    chain3 = base / "chain3.json"
    chain3.write_text(sl.semilattice_to_json(sl.chain(3)))
    i2 = base / "i2.json"
    i2.write_text("".join(invsgp.invsgp_to_json(invsgp.i2())))
    i3 = base / "i3.json"
    i3.write_text(json.dumps({"points": 3, "partial_maps": [
        {"1": "2", "2": "3", "3": "1"}, {"1": "2", "2": "1", "3": "3"}, {"1": "1", "2": "2"},
    ]}))
    i4 = base / "i4.json"
    i4.write_text(json.dumps({"points": 4, "partial_maps": [
        {"1": "2", "2": "3", "3": "4", "4": "1"}, {"1": "2", "2": "1", "3": "3", "4": "4"},
        {"1": "1", "2": "2", "3": "3"},
    ]}))
    return {"chain3": str(chain3), "i2": str(i2), "i3": str(i3), "i4": str(i4), "base": base}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GOLDEN = json.loads((Path(__file__).parent / "data" / "invsgp_cli_golden.json").read_text())


class TestBooleanize:
    def test_chain_tight(self, files, capsys):
        code, out, _ = run(capsys, "booleanize", "--semilattice", files["chain3"], "--x", "tight")
        assert code == 0
        assert out.strip() == "spectrum=1 elements=2"

    def test_chain_prime(self, files, capsys):
        code, out, _ = run(capsys, "booleanize", "--semilattice", files["chain3"], "--x", "prime")
        assert code == 0
        assert out.strip() == "spectrum=3 elements=8"

    def test_invsgp_dot(self, files, capsys):
        code, out, _ = run(
            capsys, "booleanize", "--invsgp", files["i2"], "--x", "tight", "--format", "dot"
        )
        assert code == 0
        assert out.count("shape=circle") == 2
        assert out.count("->") == 2

    def test_semilattice_dot_refused(self, files, capsys):
        # DOT draws a germ groupoid, which only a semigroup has
        code, out, err = run(capsys, "booleanize", "--semilattice", files["chain3"], "--format", "dot")
        assert code == 2 and out == ""
        assert err == "error: --format dot draws the germ groupoid and needs --invsgp, not --semilattice\n"

    def test_invsgp_counts(self, files, capsys):
        code, out, _ = run(capsys, "booleanize", "--invsgp", files["i2"], "--x", "none")
        assert code == 0
        assert out.strip() == "units=3 arrows=6 elements=21"

    def test_determinism(self, files, capsys):
        _, out1, _ = run(capsys, "booleanize", "--invsgp", files["i2"], "--x", "tight", "--format", "json")
        _, out2, _ = run(capsys, "booleanize", "--invsgp", files["i2"], "--x", "tight", "--format", "json")
        assert out1 == out2


class TestChecks:
    def test_quotient_check(self, files, capsys):
        code, out, _ = run(capsys, "quotient-check", "--invsgp", files["i2"], "--x", "tight")
        assert code == 0
        assert "classes=7" in out and "ok=true" in out

    def test_over_budget_bisections_refused_fast(self, files, capsys):
        # the universal groupoid of I4 has 15 units and 208 arrows: the
        # checks answer from the arrows, and only listing the
        # 83,135,918,096,825 elements is refused
        for command, x, line in (
            ("quotient-check", "none", "classes=83135918096825 quotient=83135918096825 wmp=true ok=true"),
            ("quotient-check", "tight", "classes=209 quotient=209 wmp=true ok=true"),
            ("presentation-check", "core", "relations=ok generated=83135918096825 total=83135918096825 ok=true"),
            ("booleanize", "core", "units=15 arrows=208 elements=83135918096825"),
        ):
            start = time.perf_counter()
            code, out, err = run(capsys, command, "--invsgp", files["i4"], "--x", x)
            assert time.perf_counter() - start < 5.0
            assert (code, out, err) == (0, line + "\n", "")
        start = time.perf_counter()
        code, out, err = run(capsys, "booleanize", "--invsgp", files["i4"], "--x", "core", "--format", "json")
        assert time.perf_counter() - start < 5.0
        assert code == 2 and out == ""
        assert "83,135,918,096,825" in err and "100,000" in err

    def test_refused_listing_writes_no_out_file(self, files, capsys, tmp_path):
        out_file = tmp_path / "b.json"
        code, out, err = run(capsys, "booleanize", "--invsgp", files["i4"], "--x", "core",
                             "--format", "json", "--out", str(out_file))
        assert (code, out) == (2, "") and "83,135,918,096,825" in err
        assert not out_file.exists()

    def test_out_file_is_stdout_less_its_newline(self, files, capsys, tmp_path):
        out_file = tmp_path / "b.json"
        argv = ("booleanize", "--invsgp", files["i3"], "--x", "core", "--format", "json")
        assert run(capsys, *argv, "--out", str(out_file)) == (0, "", "")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.endswith("\n") and out_file.read_bytes() == out[:-1].encode()
        assert len(json.loads(out)["elements"]) == 33_082

    @pytest.mark.parametrize("command, x, line", [
        ("quotient-check", "tight", "classes=34 quotient=34 wmp=true ok=true"),
        ("presentation-check", "core", "relations=ok generated=33082 total=33082 ok=true"),
    ], ids=["quotient-check-tight", "presentation-check-core"])
    def test_i3_universal_checks_answer_fast(self, files, capsys, command, x, line):
        # both checks work on the 33 arrows of the 33,082-element universal algebra of I3
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--invsgp", files["i3"], "--x", x)
        assert time.perf_counter() - start < 5.0
        assert (code, out, err) == (0, line + "\n", "")

    def test_x_pi_over_budget_refused_fast(self, files, capsys):
        # the tight spectrum of a 16-step chain is one character below every
        # nonzero element, so each of them has all 17 elements as candidates
        # (16 · 2^17 subsets) and the zero has itself (2): x_pi refuses, and
        # the quotient check, which reads X_pi's spectrum in closed form, answers
        chain = files["base"] / "chain16.json"
        chain.write_text(json.dumps({"points": 16, "partial_maps": [
            {str(j): str(j) for j in range(1, i + 1)} for i in range(1, 17)
        ]}))
        start = time.perf_counter()
        code, out, err = run(capsys, "quotient-check", "--invsgp", str(chain), "--x", "tight")
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (0, "classes=2 quotient=2 wmp=true ok=true\n", "")
        S = invsgp.invsgp_from_json(chain.read_text())
        gens = boolalg.spectrum_atoms(S.semilattice, invsgp.invariant_closure(S, invsgp.semigroup_relations(S, "tight")))
        start = time.perf_counter()
        with pytest.raises(sl.BudgetExceeded, match="2,097,154 subsets of candidate parts, over the budget of 250,000"):
            boolalg.x_pi(boolalg.character_rep(S.semilattice, gens))
        assert time.perf_counter() - start < 1.0

    def test_powerset_rungs(self, files, capsys):
        # P(7) Booleanizes from its atoms without the 186,139-relation cover
        # walk; P(8)'s walk passes the relation budget and refuses mid-walk
        p7, p8 = files["base"] / "p7.json", files["base"] / "p8.json"
        for k, path in ((7, p7), (8, p8)):
            path.write_text(sl.semilattice_to_json(sl.powerset_semilattice(k)))
        start = time.perf_counter()
        got = run(capsys, "booleanize", "--semilattice", str(p7), "--x", "tight")
        assert time.perf_counter() - start < 10.0
        assert got == (0, "spectrum=7 elements=128\n", "")
        for x in ("tight", "prime"):
            start = time.perf_counter()
            code, out, err = run(capsys, "semilattice", "--input", str(p8), "--x", x)
            assert time.perf_counter() - start < 10.0
            assert code == 2 and out == ""
            assert err.startswith("error: the minimal-cover walk passed 200,001 relations at ")
            assert err.endswith(", over the budget of 200,000\n")

    @pytest.mark.parametrize("command, x", [("booleanize", "none"), ("presentation-check", "core")])
    def test_i5_universal_refused_before_composition(self, files, capsys, command, x):
        # I5's universal algebra, 31 units and 1,545 arrows, answers from its
        # arrows; no budget reads its 2^31 idempotents
        i5 = files["base"] / "i5.json"
        i5.write_text(json.dumps({"points": 5, "partial_maps": [
            {"1": "2", "2": "3", "3": "4", "4": "5", "5": "1"},
            {"1": "2", "2": "1", "3": "3", "4": "4", "5": "5"},
            {"1": "1", "2": "2", "3": "3", "4": "4"},
        ]}))
        count = 8868249359917215104633431316993619608586
        line = {
            "booleanize": f"units=31 arrows=1545 elements={count}",
            "presentation-check": f"relations=ok generated={count} total={count} ok=true",
        }[command]
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--invsgp", str(i5), "--x", x)
        assert time.perf_counter() - start < 5.0
        assert (code, out, err) == (0, line + "\n", "")

    def test_table_over_budget_refused_fast(self, files, capsys):
        # I6: 13,327 partial injections of 6 points, whose table would have
        # 177,608,929 entries
        i6 = files["base"] / "i6.json"
        i6.write_text(json.dumps({"points": 6, "partial_maps": [
            {"1": "2", "2": "3", "3": "4", "4": "5", "5": "6", "6": "1"},
            {"1": "2", "2": "1", "3": "3", "4": "4", "5": "5", "6": "6"},
            {"1": "1", "2": "2", "3": "3", "4": "4", "5": "5"},
        ]}))
        start = time.perf_counter()
        code, out, err = run(capsys, "invsgp", "--input", str(i6))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert "6 points" in err and "13,327 elements" in err
        assert "177,608,929 entries" in err and "10,000,000" in err

    def test_presentation_check(self, files, capsys):
        code, out, _ = run(capsys, "presentation-check", "--invsgp", files["i2"], "--x", "none")
        assert code == 0
        assert "generated=21 total=21" in out


class TestStructureCommands:
    def test_semilattice_info(self, files, capsys):
        code, out, _ = run(capsys, "semilattice", "--input", files["chain3"], "--x", "tight")
        assert code == 0
        assert "elements=4" in out and "spectrum=1" in out
        assert "spectrum_generators=e1" in out

    def test_semilattice_json_round_trip(self, files, capsys):
        code, out, _ = run(capsys, "semilattice", "--input", files["chain3"], "--format", "json")
        assert code == 0
        assert sl.semilattice_from_json(out) == sl.chain(3)

    def test_invsgp_info(self, files, capsys):
        code, out, _ = run(capsys, "invsgp", "--input", files["i2"])
        assert code == 0
        assert "elements=7" in out and "idempotents=4" in out

    @pytest.mark.parametrize("fmt", ("text", "json"))
    def test_invsgp_ignores_points_no_generator_names(self, files, capsys, fmt):
        # points no generator names are undefined in every element, so a
        # million of them change neither the semigroup nor its labels
        doc = json.loads(Path(files["i3"]).read_text())
        wide = files["base"] / "i3_wide.json"
        wide.write_text(json.dumps({**doc, "points": 10**6}))
        _, want, _ = run(capsys, "invsgp", "--input", files["i3"], "--format", fmt)
        start = time.perf_counter()
        code, out, _ = run(capsys, "invsgp", "--input", str(wide), "--format", fmt)
        assert time.perf_counter() - start < 1.0
        assert code == 0 and out == want

    def test_invsgp_json_round_trip(self, files, capsys):
        code, out, _ = run(capsys, "invsgp", "--input", files["i2"], "--format", "json")
        assert code == 0
        assert invsgp.invsgp_from_json(out) == invsgp.i2()

    def test_groupoid_json_round_trip(self, files, capsys):
        from oracles import groupoid_from_json
        from xjoin.groupoid import germ_groupoid

        code, out, _ = run(
            capsys, "groupoid", "--invsgp", files["i2"], "--x", "tight", "--format", "json"
        )
        assert code == 0
        want = germ_groupoid(invsgp.i2(), invsgp.semigroup_relations(invsgp.i2(), "tight"))
        assert groupoid_from_json(out) == want.groupoid

    def test_relation_file_input(self, files, capsys, tmp_path):
        E = sl.chain(3)
        rel_file = tmp_path / "rels.json"
        rel_file.write_text(relations_to_json(E, sl.x_tight(E)))
        code, out, _ = run(
            capsys, "booleanize", "--semilattice", files["chain3"], "--x", str(rel_file)
        )
        assert code == 0
        assert out.strip() == "spectrum=1 elements=2"

    def test_relation_file_over_idempotents(self, files, capsys, tmp_path):
        # relation labels resolve against the idempotents of the semigroup
        rel_file = tmp_path / "sgp_rels.json"
        rel_file.write_text(
            '[{"e": "1>1,2>2", "parts": ["1>1", "2>2"]}]'
        )
        code, out, _ = run(
            capsys, "booleanize", "--invsgp", files["i2"], "--x", str(rel_file)
        )
        assert code == 0
        assert out.strip() == "units=2 arrows=4 elements=7"


class TestHull:
    def test_mul(self, capsys):
        code, out, _ = run(capsys, "hull", "--monoid", "free:2", "mul", "[e,a]", "[a,e]")
        assert code == 0
        assert out.strip() == "result=[e,e]"

    def test_mul_zero(self, capsys):
        code, out, _ = run(capsys, "hull", "--monoid", "free:2", "mul", "[e,a]", "[b,e]")
        assert code == 0
        assert out.strip() == "result=0"

    def test_mul_adding_machine_where_grade_drops(self, capsys):
        code, out, _ = run(capsys, "hull", "--monoid", "adding", "mul", "[e.e,e.e]", "[e.ggg,e.ggg]")
        assert code == 0
        assert out.strip() == "result=[e.ggg,e.ggg]"

    def test_foundation_yes(self, capsys):
        code, out, _ = run(capsys, "hull", "--monoid", "free:2", "foundation", "--set", "a,b", "--depth", "4")
        assert code == 0
        assert "verdict=yes" in out

    def test_foundation_no_exits_one(self, capsys):
        code, out, _ = run(capsys, "hull", "--monoid", "free:2", "foundation", "--set", "a", "--depth", "4")
        assert code == 1
        assert "witness=b" in out

    def test_lemma(self, capsys):
        code, out, _ = run(capsys, "hull", "--monoid", "free:2", "lemma", "--set", "a,b", "--depth", "4")
        assert code == 0
        assert "agree=true" in out

    def test_foundation_with_a_long_member(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(capsys, "hull", "--monoid", "free:2", "foundation", "--set", "a,b," + "a" * 40)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (0, "verdict=yes\n")

    def test_xa_out_file_round_trips(self, capsys, tmp_path):
        out_file = tmp_path / "xa.json"
        code, _, _ = run(
            capsys, "hull", "--monoid", "adding", "xa", "--depth", "3", "--out", str(out_file)
        )
        assert code == 0
        golden = json.loads((Path(__file__).parent / "data" / "adding_machine_x_depth3.json").read_text())
        assert out_file.read_text() == json.dumps(golden["xa"], indent=2, sort_keys=True)

    def test_xa_needs_product_monoid(self, capsys):
        code, _, err = run(capsys, "hull", "--monoid", "free:2", "xa", "--depth", "2")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "argv, value",
        [
            (("--monoid", "nx", "foundation", "--set", "1.1", "--depth", "-2"), "depth must be at least 0, got -2"),
            (("--monoid", "free:2", "lemma", "--set", "a", "--depth", "-1"), "depth must be at least 0, got -1"),
            (("--monoid", "adding", "xa", "--depth", "-1"), "depth must be at least 0, got -1"),
            (("--monoid", "adding", "xu", "--depth", "-1"), "depth must be at least 0, got -1"),
            (("--monoid", "adding", "xu", "--max-parts", "0"), "max_parts must be at least 1, got 0"),
        ],
        ids=["foundation", "lemma", "xa", "xu-depth", "xu-max-parts"],
    )
    def test_bound_out_of_range_refused(self, capsys, argv, value):
        code, out, err = run(capsys, "hull", *argv)
        assert code == 2 and out == ""
        assert err == f"error: {value}\n"

    def test_free_rank_five_skips_e(self, capsys):
        code, out, _ = run(capsys, "hull", "--monoid", "free:5", "foundation", "--set", "a,b,c,d", "--depth", "2")
        assert code == 1 and out == "verdict=no witness=f\n"

    @pytest.mark.parametrize("table, err", [
        ({"u_letters": "012", "a_letters": "g", "action": {"g": {"0": "1", "1": "2", "2": "0"}},
          "restriction": {"g": {"0": "", "1": "", "2": "g"}}}, None),
        ({"u_letters": "01", "a_letters": "g", "action": {"g": {"0": "0", "1": "0"}},
          "restriction": {"g": {"0": "", "1": ""}}}, "error: C3 fails: action of 'g' on length-1 words"),
        ({"u_letters": "0e", "a_letters": "g", "action": {"g": {"0": "e", "e": "0"}},
          "restriction": {"g": {"0": "", "e": "g"}}}, "error: letter 'e' of alphabet '0e'"),
        ({"u_letters": "01", "a_letters": "g", "action": {"g": {"0": "1", "1": "0"}},
          "restriction": {"g": {"0": [], "1": ["g"]}}}, "error: restriction of 'g' at '0' must be a word"),
        ({"u_letters": "01", "a_letters": "g", "action": {"g": {"0": ["1"], "1": "0"}},
          "restriction": {"g": {"0": "", "1": "g"}}}, "error: action of 'g' on '0' must be a single letter"),
    ], ids=["ternary", "non-bijective", "letter-e", "restriction-not-a-word", "action-not-a-letter"])
    def test_product_file(self, capsys, tmp_path, table, err):
        f = tmp_path / "product.json"
        f.write_text(json.dumps(table))
        code, out, got = run(capsys, "hull", "--monoid", f"zs:{f}", "mul", "[e.g,e.e]", "[22.e,e.e]")
        if err is None:
            assert code == 0 and out == "result=[00.g,e.e]\n"
        else:
            assert code == 2 and out == "" and got.startswith(err)

    def test_reserved_letter_refused(self, capsys):
        code, out, err = run(capsys, "hull", "--monoid", "free:abe", "mul", "[e,a]", "[a,e]")
        assert code == 2 and out == ""
        assert err == "error: letter 'e' of alphabet 'abe' is reserved or repeated\n"

    @pytest.mark.parametrize("monoid, x, y, bad", [
        ("nat:2", "[1_0.+1,0.0]", "[0.0,0.0]", "'1_0'"),
        ("nat:2", "[1_0.0,0.0]", "[0.0,0.0]", "'1_0'"),
        ("nat:2", "[+1.0,0.0]", "[0.0,0.0]", "'+1'"),
        ("nat:2", "[1. 0,0.0]", "[0.0,0.0]", "' 0'"),
        ("nat:2", "[-1.0,0.0]", "[0.0,0.0]", "'-1'"),
        ("nat:2", "[\u0661.0,0.0]", "[0.0,0.0]", "'\u0661'"),
        ("nx", "[1_0.2,0.1]", "[0.1,0.1]", "'1_0'"),
        ("nx", "[1.+2,0.1]", "[0.1,0.1]", "'+2'"),
        ("nat:+2", "[1.0,0.0]", "[0.0,0.0]", "'+2'"),
        ("nat:2_0", "[1.0,0.0]", "[0.0,0.0]", "'2_0'"),
    ], ids=["underscore-and-sign", "underscore", "sign", "space", "negative", "arabic-indic",
            "nx-underscore", "nx-sign", "rank-sign", "rank-underscore"])
    def test_numbers_in_ascii_digits_only(self, capsys, monoid, x, y, bad):
        # int() would read all of these, and the result would print them back differently
        code, out, err = run(capsys, "hull", "--monoid", monoid, "mul", x, y)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and f"must be written in the digits 0-9, got {bad}" in err

    def test_numbers_print_back_as_read(self, capsys):
        code, out, _ = run(capsys, "hull", "--monoid", "nat:2", "mul", "[10.1,0.0]", "[0.0,0.0]")
        assert (code, out) == (0, "result=[10.1,0.0]\n")
        code, out, err = run(capsys, "hull", "--monoid", "nx", "mul", "[1.0,0.1]", "[0.1,0.1]")
        assert (code, out, err) == (2, "", "error: step must be >= 1 in '1.0'\n")

    @pytest.mark.parametrize("action, restriction, err", [
        ({"g": ["1", "0"]}, {"g": {"0": "", "1": "g"}},
         "error: action of 'g' must be an object over the U-letters, got ['1', '0']\n"),
        ({"g": {"0": "1", "1": "0"}}, {"h": {"0": "", "1": "g"}},
         "error: restriction of 'g' must be an object over the U-letters, got None\n"),
        ({"g": {"0": "1", "1": "0"}}, ["g"],
         "error: restriction of 'g' must be an object over the U-letters, got None\n"),
    ], ids=["action-row-a-list", "restriction-row-missing", "restriction-a-list"])
    def test_malformed_product_table_names_table_and_letter(self, capsys, tmp_path, action, restriction, err):
        f = tmp_path / "product.json"
        f.write_text(json.dumps({"u_letters": "01", "a_letters": "g", "action": action,
                                 "restriction": restriction}))
        assert run(capsys, "hull", "--monoid", f"zs:{f}", "mul", "[e.e,e.e]", "[e.e,e.e]") == (2, "", err)

    def test_xu_over_budget_refuses_fast(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "hull", "--monoid", "adding", "xu", "--depth", "5")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert "459,892" in err and "100,000" in err

    @pytest.mark.parametrize("argv, forecast", [
        (("--monoid", "adding", "xa", "--depth", "2000"), "more than the 100,128 relations of depth 446"),
        (("--monoid", "free:3", "lemma", "--set", "a,b,c", "--depth", "17"),
         "more than the 265,720 elements of depth 11"),
        (("--monoid", "nx", "foundation", "--set", "1.2", "--depth", "3000"),
         "more than the 100,128 elements of depth 446"),
    ], ids=["xa", "lemma", "foundation"])
    def test_listing_over_budget_refuses_fast(self, capsys, argv, forecast):
        start = time.perf_counter()
        code, out, err = run(capsys, "hull", *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert forecast in err and "over the budget of 100,000" in err


class TestParserReuse:
    """``main`` builds its parser once per process; each call of a sequence
    in this process must print and exit as it does first in a fresh one."""

    def test_sequence_matches_fresh_processes(self, files, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        calls = [
            ("booleanize", "--semilattice", files["chain3"], "--x", "prime"),
            ("booleanize", "--invsgp", files["i2"], "--x", "tight"),
            ("semilattice", "--input", files["chain3"], "--bogus"),
            ("hull", "--monoid", "adding", "xu", "--max-parts", "4"),
            ("hull", "--monoid", "adding", "xu"),
        ]
        got = [run(capsys, *argv) for argv in calls]
        for argv, mine in zip(calls, got):
            fresh = subprocess.run(
                [sys.executable, "-m", "xjoin.cli", *argv], capture_output=True, text=True, env=env,
            )
            assert mine == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        assert [code for code, _, _ in got] == [0, 0, 2, 0, 0]
        assert got[3][1] != got[4][1]  # --max-parts does not stick to the next call


class TestInvsgpGolden:
    """Stdout, byte for byte, and exit codes of the inverse-semigroup
    commands on I2, B2 and a shuffled I3 table under every built-in relation
    set, against ``tests/data/invsgp_cli_golden.json``."""

    @pytest.fixture(scope="class")
    def instances(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("golden")
        paths = {}
        for name, doc in GOLDEN["instances"].items():
            paths["@" + name] = str(base / f"{name}.json")
            (base / f"{name}.json").write_text(json.dumps(doc))
        return paths

    @pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda c: " ".join(c["argv"]))
    def test_matches(self, instances, capsys, case):
        code, out, _ = run(capsys, *(instances.get(a, a) for a in case["argv"]))
        assert code == case["exit"]
        assert len(out.encode()) == case["stdout_bytes"]
        assert hashlib.sha256(out.encode()).hexdigest() == case["stdout_sha256"]


class TestSuite:
    def test_suite_passes(self, capsys):
        code, out, _ = run(capsys, "suite", "--max-size", "6")
        assert code == 0
        assert "failed=0" in out
        assert out.count("ok - ") >= 15

    @pytest.mark.parametrize("size", ["1", "0", "-1"])
    def test_max_size_below_two_refused(self, size):
        # no random family of at least two elements fits: the draw never ended,
        # so the run gets a process of its own that the timeout can stop
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "xjoin.cli", "suite", "--max-size", size],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=10,
        )
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr == f"error: max_size must be at least 2, got {size}\n"


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "semilattice", "--input", "/nonexistent.json")
        assert code == 2
        assert "error:" in err

    def test_invalid_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, _, err = run(capsys, "semilattice", "--input", str(bad))
        assert code == 2

    def test_law_violation_reported(self, capsys, tmp_path):
        bad = tmp_path / "bad_meet.json"
        bad.write_text(json.dumps({"elements": ["0", "x"], "meet": [[0, 1], [1, 1]]}))
        code, _, err = run(capsys, "semilattice", "--input", str(bad))
        assert code == 2
        assert "bottom" in err

    def test_declared_zero_named_by_its_label(self, capsys, tmp_path):
        # the declared zero moves to index 0, so the messages name it, not 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"elements": ["0", "a"], "mult": [[0, 0], [0, 1]], "zero": "a"}))
        code, out, err = run(capsys, "invsgp", "--input", str(bad))
        assert code == 2 and out == ""
        assert err == "error: element a is not absorbing against 0\n"
        bad.write_text(json.dumps({"elements": ["b", "x"], "meet": [[0, 1], [1, 1]]}))
        code, out, err = run(capsys, "semilattice", "--input", str(bad))
        assert code == 2 and out == ""
        assert err == "error: element b is not the bottom: b^x = x\n"

    @pytest.mark.parametrize("command, doc, key", [
        ("semilattice", {"elements": ["0", "x"], "meet": [[0, 0.4], [False, 1.9]]}, "meet"),
        ("invsgp", {"elements": ["0", "x"], "zero": "0", "mult": [[0, False], [0.7, "1"]]}, "mult"),
        ("invsgp", {"elements": ["x", "0"], "zero": "0", "mult": [[0.0, True], [1, 1]]}, "mult"),
    ], ids=["meet-floats-and-bools", "mult-floats-bools-and-strings", "mult-reindexed-float-and-bool"])
    def test_entries_that_are_not_ints_refused(self, capsys, tmp_path, command, doc, key):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, "--input", str(bad))
        assert code == 2 and out == ""
        assert err == f"error: '{key}' must be a square table of element indices\n"

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "booleanize", "--nonsense", "x")
        assert code == 2

    @pytest.mark.parametrize("failing", ["write", "flush"])
    @pytest.mark.parametrize("argv", [
        ("suite", "--max-size", "2"), ("hull", "--monoid", "free:2", "mul", "[e,a]", "[a,e]"),
    ], ids=["suite", "hull-mul"])
    def test_closed_reader_stops_quietly(self, capsys, monkeypatch, failing, argv):
        # a reader that closes stdout early gets 128 + SIGPIPE and no message,
        # whether the closed pipe shows on a write or on the final flush
        class Closed:
            def write(self, text):
                if failing == "write":
                    raise BrokenPipeError(32, "Broken pipe")
                return len(text)

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", Closed())
        assert main(list(argv)) == 141
        assert capsys.readouterr().err == ""

    def test_closed_pipe_prints_nothing_at_exit(self, tmp_path):
        # stdout is a pipe whose read end is closed: writing to it fails
        # with EPIPE, and the flush at interpreter exit must not report it
        code = ("import os, sys; r, w = os.pipe(); os.close(r); os.dup2(w, 1); "
                "from xjoin.cli import main; sys.exit(main(['suite', '--max-size', '2']))")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert (done.returncode, done.stderr) == (141, "")

    @pytest.mark.parametrize(
        "command, doc, key",
        [
            ("invsgp", {"partial_maps": [{"1": "2"}]}, "'points'"),
            ("invsgp", {"points": "2", "partial_maps": [{"1": "2"}]}, "'points'"),
            ("invsgp", {"points": 2, "partial_maps": [[1, 2]]}, "'partial_maps'"),
            ("invsgp", {"points": 2, "partial_maps": [{"1": [2]}]}, "'partial_maps'"),
            ("invsgp", {"points": 2, "partial_maps": [{"1": None}]}, "'partial_maps'"),
            ("invsgp", {"points": 3, "partial_maps": [{"1": "2", "01": "3"}]}, "names the point 1 twice"),
            ("invsgp", {"points": 2, "partial_maps": [{"1": 2.7}]}, "'partial_maps'"),
            ("invsgp", {"points": 2, "partial_maps": [{"1": True}]}, "'partial_maps'"),
            ("invsgp", 7, "object"),
            ("invsgp", {"elements": ["x", "z"], "zero": "z", "mult": [[0]]}, "'mult'"),
            ("invsgp", {"elements": ["x", "z"], "zero": "z", "mult": [[0, 5], [1, 1]]}, "'mult'"),
            ("invsgp", {"elements": ["z", "x"], "zero": "z", "mult": [[0, None], [0, 1]]}, "'mult'"),
            ("invsgp", {"elements": ["z"], "zero": "z", "mult": [[[0]]]}, "'mult'"),
            ("invsgp", {"elements": ["z"], "zero": "z", "mult": 5}, "'mult'"),
            ("relations", [{"parts": ["e1"]}], "'e'"),
            ("relations", [{"e": "e1", "parts": 5}], "'parts'"),
            ("relations", 5, "list of relations"),
            ("semilattice", {"elements": ["0"], "meet": [[[0]]]}, "'meet'"),
            ("semilattice", {"elements": ["0", "x"], "meet": [[0, 0], [0, None]]}, "'meet'"),
            ("semilattice", {"elements": ["0"], "meet": 5}, "'meet'"),
            ("semilattice", {"elements": 5, "meet": [[0]]}, "'elements'"),
            ("semilattice", {"elements": "0ab", "meet": [[0, 0, 0], [0, 1, 0], [0, 0, 2]]}, "'elements'"),
            ("semilattice", {"elements": {"0": 0, "a": 1}, "meet": [[0, 0], [0, 1]]}, "'elements'"),
            ("invsgp", {"elements": "0a", "zero": "0", "mult": [[0, 0], [0, 1]]}, "'elements'"),
            ("invsgp", {"elements": {"0": 0, "a": 1}, "zero": "0", "mult": [[0, 0], [0, 1]]}, "'elements'"),
            ("invsgp", {"points": -1, "partial_maps": [{}]}, "points must be at least 0"),
        ],
        ids=["points-missing", "points-string", "maps-not-objects", "maps-list-image",
             "maps-null-image", "maps-point-named-twice", "maps-float-image", "maps-bool-image",
             "not-an-object",
             "mult-short-row", "mult-bad-entry", "mult-null-entry", "mult-list-entry",
             "mult-not-a-list", "relation-without-e", "relation-parts-not-a-list",
             "relations-not-a-list", "meet-list-entry", "meet-null-entry",
             "meet-not-a-list", "elements-not-a-list", "elements-a-string", "elements-an-object",
             "mult-elements-a-string", "mult-elements-an-object", "points-negative"],
    )
    def test_malformed_json_names_key(self, files, capsys, tmp_path, command, doc, key):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        if command in ("invsgp", "semilattice"):
            argv = (command, "--input", str(bad))
        else:
            argv = ("semilattice", "--input", files["chain3"], "--x", str(bad))
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and key in err
