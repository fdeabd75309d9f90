"""Command-line surface: exit codes, file round-trips, CSV and DOT output."""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path

import pytest

from depthlogic import dot, muddy, semantics
from depthlogic.cli import main
from depthlogic.model import Model, load_model, save_model, to_dict
from depthlogic.muddy import build_muddy, canonical_depths


@pytest.fixture
def model_file(tmp_path, one_state_model) -> str:
    path = tmp_path / "one.json"
    save_model(one_state_model, str(path))
    return str(path)


@pytest.fixture
def three_world_file(tmp_path, three_world_model) -> str:
    path = tmp_path / "three.json"
    save_model(three_world_model, str(path))
    return str(path)


class TestCheck:
    def test_true_prints_true(self, model_file, capsys):
        rc = main(["check", "--model", model_file, "--state", "s",
                   "--formula", "K[0] p", "--semantics", "DPAL"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_false_prints_false_exit_zero(self, model_file, capsys):
        rc = main(["check", "--model", model_file, "--state", "s",
                   "--formula", "q"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "false"

    def test_three_world_announcement(self, three_world_file, capsys):
        rc = main(["check", "--model", three_world_file, "--state", "1",
                   "--formula", "[K[2] K[2] p0] K[0] K[1] p0",
                   "--semantics", "ADPAL"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_parse_error_exits_2(self, model_file, capsys):
        rc = main(["check", "--model", model_file, "--state", "s",
                   "--formula", "K[0] &"])
        assert rc == 2

    def test_mode_error_exits_3(self, three_world_file):
        rc = main(["check", "--model", three_world_file, "--state", "1",
                   "--formula", "p0", "--semantics", "DPAL"])
        assert rc == 3

    def test_fragment_error_exits_3(self, model_file):
        rc = main(["check", "--model", model_file, "--state", "s",
                   "--formula", "[p]p", "--semantics", "DBEL"])
        assert rc == 3

    def test_unknown_state_exits_3(self, model_file):
        rc = main(["check", "--model", model_file, "--state", "zzz",
                   "--formula", "p"])
        assert rc == 3

    def test_missing_formula_exits_2(self, model_file, capsys):
        rc = main(["check", "--model", model_file, "--state", "s"])
        assert rc == 2
        assert "(line 1, column 1)" in capsys.readouterr().err

    def test_deeply_nested_formula_exits_2(self, model_file, capsys):
        rc = main(["check", "--model", model_file, "--state", "s",
                   "--formula", "!" * 3000 + "p"])
        assert rc == 2
        assert "nested too deeply" in capsys.readouterr().err

    def test_missing_model_file_exits_3(self, tmp_path, capsys):
        rc = main(["check", "--model", str(tmp_path / "nonexistent.json"),
                   "--state", "s", "--formula", "p"])
        assert rc == 3
        assert capsys.readouterr().err.startswith("file error: ")

    def test_depth_for_unknown_state_exits_3(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "agents": 1, "states": ["s"], "rel": {"0": []},
            "depth": {"0": {"s": 0, "t": 1}}}))
        rc = main(["check", "--model", str(path), "--state", "s",
                   "--formula", "true"])
        assert rc == 3

    @pytest.mark.parametrize("mode", ["equivalence", "reflexive"])
    @pytest.mark.parametrize("rel,message", [
        ({"0": [["s", "t"]]}, "relation pair ('s', 't') uses unknown state"),
        ({"0": [["t", "t"]]}, "relation pair ('t', 't') uses unknown state"),
        ({"1": []}, "relation for unknown agent 1"),
        ({"-1": [["s", "s"]]}, "relation for unknown agent -1"),
    ])
    def test_relation_naming_unknown_state_or_agent_exits_3(
            self, tmp_path, capsys, mode, rel, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"agents": 1, "mode": mode,
                                    "states": ["s"], "rel": rel}))
        rc = main(["check", "--model", str(path), "--state", "s",
                   "--formula", "true"])
        assert rc == 3
        assert capsys.readouterr().err == f"validation error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["check", "--state", "s", "--formula", "K[5] p"],
    ["update", "--formula", "E[7,0]"],
    ["export-dot", "--announce", "p", "--announce", "P[3,1]"],
])
def test_formula_naming_unknown_agent_exits_3(model_file, capsys, argv):
    rc = main(argv[:1] + ["--model", model_file] + argv[1:])
    assert rc == 3
    assert "unknown agent" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [
    ("val", [["p"]]),
    ("rel", [[]]),
    ("depth", [{"s": 0}]),
    ("depth", {"0": [1]}),         # the in-memory sequence form
    ("depth", {"0": {"s": 1.7}}),  # coerced to 1 before
    ("states", "s"),               # coerced to ["s"] before
])
@pytest.mark.parametrize("argv", [
    ["check", "--state", "s", "--formula", "p"],
    ["update", "--formula", "p"],
    ["export-dot", "--state", "s"],
])
def test_malformed_model_file_exits_3(tmp_path, one_state_model, capsys,
                                      key, value, argv):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**to_dict(one_state_model), key: value}))
    rc = main(argv[:1] + ["--model", str(path)] + argv[1:])
    assert rc == 3
    assert "malformed model document" in capsys.readouterr().err


class TestUpdate:
    def test_edpal_top_is_byte_identical(self, model_file, tmp_path):
        out = tmp_path / "out.json"
        rc = main(["update", "--model", model_file, "--formula", "true",
                   "--semantics", "EDPAL", "--out", str(out)])
        assert rc == 0
        assert out.read_bytes() == Path(model_file).read_bytes()

    def test_dpal_doubles_states(self, model_file, tmp_path):
        out = tmp_path / "out.json"
        rc = main(["update", "--model", model_file, "--formula", "p",
                   "--semantics", "DPAL", "--out", str(out)])
        assert rc == 0
        m = load_model(str(out))
        assert set(m.states) == {"0.s", "1.s"}

    def test_unwritable_out_exits_3(self, model_file, tmp_path, capsys):
        out = tmp_path / "nonexistent" / "x.json"
        rc = main(["update", "--model", model_file, "--formula", "p",
                   "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err.startswith("file error: ")


class TestSat:
    def test_satisfiable_prints_model(self, capsys):
        rc = main(["sat", "--formula", "E[0,2] & K[0] K[0] p",
                   "--max-states", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        data = json.loads(out[out.index("{"):])
        assert data["agents"] == 1

    def test_unsatisfiable_within_bounds(self, capsys):
        rc = main(["sat", "--formula", "p & !p", "--max-states", "2"])
        assert rc == 0
        assert "none-within-bounds" in capsys.readouterr().out

    @pytest.mark.parametrize("bound", [["--max-states", "0"],
                                       ["--max-states", "-2"],
                                       ["--max-depth", "-1"]])
    def test_impossible_bound_exits_2(self, bound, capsys):
        rc = main(["sat", "--formula", "p", *bound])
        assert rc == 2
        captured = capsys.readouterr()
        assert "none-within-bounds" not in captured.out
        assert bound[0] in captured.err


class TestMuddy:
    def test_phi_k_true(self, capsys):
        rc = main(["muddy", "--k", "2", "--formula", "phi_k",
                   "--semantics", "DPAL"])
        assert rc == 0
        assert "true" in capsys.readouterr().out

    def test_depth_expression(self, capsys):
        rc = main(["muddy", "--k", "3", "--depths", "k-1-i",
                   "--formula", "upper", "--semantics", "EDPAL"])
        assert rc == 0
        assert "true" in capsys.readouterr().out

    @pytest.mark.parametrize("depths", ["n-k", "min(n-k, 5)"])
    def test_depth_expression_binds_k_and_n(self, capsys, depths):
        # with k=2 of n=3 children muddy, child 0 needs depth 1 to learn
        rc = main(["muddy", "--n", "3", "--k", "2", "--depths", depths])
        assert rc == 0
        assert capsys.readouterr().out.endswith("true\n")

    @pytest.mark.parametrize("depths,column", [
        ("().__class__.__name__.__len__()", 1), ("k**k", 1), ("k//(i-i)", 1),
        ("1,x", 4), ("1,x,2", 3)])
    def test_bad_depth_expression_exits_2(self, capsys, depths, column):
        rc = main(["muddy", "--k", "3", "--depths", depths])
        assert rc == 2
        assert f"(line 1, column {column})" in capsys.readouterr().err

    @pytest.mark.parametrize("depths,column", [("1,2", 4), ("1,2,3,4", 7)])
    def test_wrong_depth_count_exits_2(self, capsys, depths, column):
        rc = main(["muddy", "--k", "3", "--depths", depths])
        assert rc == 2
        assert f"(line 1, column {column})" in capsys.readouterr().err

    def test_amnesia_only_under_edpal(self, capsys):
        rc = main(["muddy", "--k", "3", "--formula", "amnesia",
                   "--semantics", "EDPAL"])
        assert rc == 0
        assert "true" in capsys.readouterr().out
        rc = main(["muddy", "--k", "3", "--formula", "amnesia",
                   "--semantics", "DPAL"])
        assert rc == 0
        assert "false" in capsys.readouterr().out


    @pytest.mark.parametrize("which,steps", [
        ("phi_k", 2), ("upper", 2), ("lower", 2), ("amnesia", 2),
        ("leakage", 1)])
    def test_dot_draws_each_announcement(self, tmp_path, which, steps):
        out = tmp_path / "muddy.dot"
        rc = main(["muddy", "--k", "3", "--formula", which, "--dot",
                   str(out)])
        assert rc == 0
        assert out.read_text().count("subgraph cluster_") == 1 + steps


class TestAxioms:
    def test_clean_suite_exits_zero(self, capsys):
        rc = main(["axioms", "--table", "T1", "--semantics", "DBEL",
                   "--cases", "30", "--models", "6"])
        assert rc == 0
        assert "0 violations" in capsys.readouterr().out

    def test_violating_property_exits_one(self, capsys):
        rc = main(["axioms", "--property", "KP", "--semantics", "EDPAL",
                   "--direction", "reverse", "--cases", "400"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "violations" in out and "0 violations" not in out

    def test_bare_command_uses_the_tables_semantics(self, capsys):
        # T1 is stated for DBEL, so the bare command checks it under DBEL
        rc = main(["axioms"])
        assert rc == 0
        assert "T1: 300 cases" in capsys.readouterr().out

    def test_table_semantics_mismatch_exits_3(self, capsys):
        rc = main(["axioms", "--table", "T1", "--semantics", "DPAL"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "stated for DBEL" in err
        assert "SemanticsKind" not in err

    @pytest.mark.parametrize("bound", [["--cases", "0"],
                                       ["--models", "0"],
                                       ["--max-states", "0"],
                                       ["--cases", "-3"]])
    def test_empty_suite_bound_exits_2(self, bound, capsys):
        rc = main(["axioms", "--table", "T1", *bound])
        assert rc == 2
        captured = capsys.readouterr()
        assert "violations" not in captured.out
        assert bound[0] in captured.err

    def test_unambiguous_flag_accepted(self):
        rc = main(["axioms", "--table", "T1", "--semantics", "DBEL",
                   "--cases", "10", "--models", "4", "--unambiguous"])
        assert rc == 0


class TestBench:
    def test_blowup_csv(self, tmp_path):
        out = tmp_path / "bench.csv"
        rc = main(["bench", "--family", "blowup", "--cases", "20",
                   "--out", str(out)])
        assert rc == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 20
        for row in rows:
            assert int(row["updated_size"]) <= 4 * int(row["model_size"])

    def test_3sat_family(self, tmp_path):
        out = tmp_path / "bench.csv"
        rc = main(["bench", "--family", "3sat", "--max-vars", "3",
                   "--out", str(out)])
        assert rc == 0
        rows = list(csv.DictReader(out.open()))
        assert [row["family"] for row in rows] == ["3sat"] * 3

    @pytest.mark.parametrize("bound", [["--cases", "0"],
                                       ["--cases", "-3"],
                                       ["--max-vars", "0"]])
    def test_empty_family_bound_exits_2(self, bound, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        rc = main(["bench", *bound, "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        assert bound[0] in capsys.readouterr().err


class TestExportDot:
    def test_single_model(self, three_world_file, capsys):
        rc = main(["export-dot", "--model", three_world_file,
                   "--state", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph") or out.startswith("graph")
        assert "lightyellow" in out  # designated state highlighted

    def test_announcement_sequence_clusters(self, three_world_file, tmp_path):
        out = tmp_path / "seq.dot"
        rc = main(["export-dot", "--model", three_world_file, "--state", "1",
                   "--announce", "K[2] K[2] p0", "--semantics", "ADPAL",
                   "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert text.count("subgraph cluster_") == 2

    @pytest.mark.parametrize("announce", [[], ["--announce", "p"]])
    def test_quotes_and_backslashes_in_names_are_escaped(self, tmp_path,
                                                         capsys, announce):
        quote, backslash = 'a"b', "c\\d"
        m = Model(agents=1, states=[quote, backslash],
                  val={quote: ['x"y'], backslash: ["p\\q"]},
                  class_ids={0: [0, 0]},
                  depth={0: {quote: 1, backslash: 1}})
        path = tmp_path / "odd.json"
        save_model(m, str(path))
        rc = main(["export-dot", "--model", str(path), "--state", quote]
                  + announce)
        assert rc == 0
        out = capsys.readouterr().out
        quoted = re.compile(r'"((?:[^"\\]|\\.)*)"')
        for line in out.splitlines():
            # outside DOT quoted strings, no quote or backslash is left over
            assert not re.search(r'["\\]', quoted.sub("", line)), line
        names = {re.sub(r"\\(.)", r"\1", s)
                 for s in quoted.findall(out)}
        prefix = "s0:" if announce else ""
        assert {prefix + quote, prefix + backslash} <= names
        assert r'label="a\"b\n{x\"y}\nd: 1"' in out
        assert r'label="c\\d\n{p\\q}\nd: 1"' in out
        assert out.count("fillcolor") == (2 if announce else 1)

    @pytest.mark.parametrize("announce", [[], ["--announce", "p0"]])
    def test_unknown_state_exits_3(self, three_world_file, capsys, announce):
        rc = main(["export-dot", "--model", three_world_file, "--state",
                   "zzz", "--semantics", "ADPAL"] + announce)
        assert rc == 3
        captured = capsys.readouterr()
        assert "unknown state 'zzz'" in captured.err
        assert captured.out == ""


def test_determinism_under_seed(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert main(["bench", "--family", "3sat", "--max-vars", "2",
                     "--seed", "7", "--out", str(path)]) == 0
    rows = lambda p: [r[:4] + r[5:] for r in csv.reader(p.open())]  # noqa: E731
    assert rows(a) == rows(b)  # identical apart from the timing column


class TestCachedParser:
    """``build_parser`` is built once per process; each call of ``main``
    must still start from the parser's defaults."""

    def test_out_does_not_carry_over(self, model_file, tmp_path, capsys):
        out = tmp_path / "out.json"
        assert main(["update", "--model", model_file, "--formula", "p",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        written = out.read_text()
        assert main(["check", "--model", model_file, "--state", "s",
                     "--formula", "p"]) == 0
        assert capsys.readouterr().out == "true\n"
        assert main(["update", "--model", model_file, "--formula", "p"]) == 0
        assert capsys.readouterr().out == written
        assert out.read_text() == written

    def test_announce_lists_do_not_accumulate(self, three_world_file,
                                              capsys):
        argv = ["export-dot", "--model", three_world_file, "--semantics",
                "ADPAL", "--announce", "p0", "--announce", "K[1] p0"]
        outputs = []
        for _ in range(2):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0].count("subgraph cluster_") == 3
        assert main(argv[:5]) == 0
        assert "subgraph" not in capsys.readouterr().out


def test_updates_and_dot_label_instead_of_running_the_oracle(
        monkeypatch, tmp_path):
    def oracle(*args):
        raise AssertionError("check_naive was called")

    for module in (semantics, dot, muddy):
        monkeypatch.setattr(module, "check_naive", oracle)
    monkeypatch.setattr(semantics, "_nv", oracle)
    m3 = tmp_path / "m3.json"
    save_model(build_muddy(3, 3, canonical_depths(3)).model, str(m3))
    for sem in ("DPAL", "EDPAL", "ADPAL"):
        assert main(["update", "--model", str(m3), "--formula",
                     "[!K[2] m2] !K[1] m1", "--semantics", sem,
                     "--out", str(tmp_path / "u.json")]) == 0
        assert main(["export-dot", "--model", str(m3), "--state", "111",
                     "--semantics", sem, "--announce", "!K[2] m2",
                     "--announce", "!K[1] m1",
                     "--out", str(tmp_path / "e.dot")]) == 0
        assert main(["muddy", "--k", "3", "--semantics", sem,
                     "--dot", str(tmp_path / "m.dot")]) == 0
