import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from xjoin import invsgp
from xjoin import semilattice as sl
from xjoin.cli import main


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    base = tmp_path_factory.mktemp("structures")
    chain3 = base / "chain3.json"
    chain3.write_text(sl.semilattice_to_json(sl.chain(3)))
    i2 = base / "i2.json"
    i2.write_text(invsgp.invsgp_to_json(invsgp.i2()))
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
        # the universal groupoid of I4 has 15 units and 208 arrows
        start = time.perf_counter()
        code, out, err = run(capsys, "quotient-check", "--invsgp", files["i4"], "--x", "none")
        assert time.perf_counter() - start < 5.0
        assert code == 2 and out == ""
        assert "83,135,918,096,825" in err and "100,000" in err

    @pytest.mark.parametrize("command, x", [("quotient-check", "tight"), ("presentation-check", "core")])
    def test_over_budget_pairs_refused_fast(self, files, capsys, command, x):
        # both checks work over all pairs of the 33,082-element universal algebra of I3
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--invsgp", files["i3"], "--x", x)
        assert time.perf_counter() - start < 5.0
        assert code == 2 and out == ""
        assert "1,094,418,724" in err and "33,082" in err and "1,000,000" in err

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

    def test_invsgp_json_round_trip(self, files, capsys):
        code, out, _ = run(capsys, "invsgp", "--input", files["i2"], "--format", "json")
        assert code == 0
        assert invsgp.invsgp_from_json(out) == invsgp.i2()

    def test_groupoid_json_round_trip(self, files, capsys):
        from xjoin.groupoid import germ_groupoid, groupoid_from_json

        code, out, _ = run(
            capsys, "groupoid", "--invsgp", files["i2"], "--x", "tight", "--format", "json"
        )
        assert code == 0
        want = germ_groupoid(invsgp.i2(), invsgp.semigroup_relations(invsgp.i2(), "tight"))
        assert groupoid_from_json(out) == want.groupoid

    def test_relation_file_input(self, files, capsys, tmp_path):
        E = sl.chain(3)
        rel_file = tmp_path / "rels.json"
        rel_file.write_text(sl.relations_to_json(E, sl.x_tight(E)))
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

    def test_xa_out_file_round_trips(self, capsys, tmp_path):
        from xjoin import lcmhull as lh

        out_file = tmp_path / "xa.json"
        code, _, _ = run(
            capsys, "hull", "--monoid", "adding", "xa", "--depth", "3", "--out", str(out_file)
        )
        assert code == 0
        P = lh.zappa_szep(lh.adding_machine())
        back = lh.hull_relations_from_json(P, out_file.read_text())
        assert back == lh.gen_xa(P, 3)

    def test_xa_needs_product_monoid(self, capsys):
        code, _, err = run(capsys, "hull", "--monoid", "free:2", "xa", "--depth", "2")
        assert code == 2
        assert "error:" in err

    def test_xu_over_budget_refuses_fast(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "hull", "--monoid", "adding", "xu", "--depth", "5")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert "459,892" in err and "100,000" in err


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

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "booleanize", "--nonsense", "x")
        assert code == 2

    @pytest.mark.parametrize(
        "command, doc, key",
        [
            ("invsgp", {"partial_maps": [{"1": "2"}]}, "'points'"),
            ("invsgp", {"points": "2", "partial_maps": [{"1": "2"}]}, "'points'"),
            ("invsgp", {"points": 2, "partial_maps": [[1, 2]]}, "'partial_maps'"),
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
        ],
        ids=["points-missing", "points-string", "maps-not-objects", "not-an-object",
             "mult-short-row", "mult-bad-entry", "mult-null-entry", "mult-list-entry",
             "mult-not-a-list", "relation-without-e", "relation-parts-not-a-list",
             "relations-not-a-list", "meet-list-entry", "meet-null-entry",
             "meet-not-a-list"],
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
