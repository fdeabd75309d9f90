"""Command-line surface: exit codes, file round-trips and DOT output."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import depthlogic
from depthlogic import dot, muddy, semantics
from depthlogic.cli import build_parser, main
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


@pytest.mark.parametrize("formula,message", [
    ("K[\u0660] p", "unexpected character '\u0660' (line 1, column 3)"),
    ("K[" + "1" * 5000 + "] p",
     "number of 5000 digits is too long (line 1, column 3)"),
], ids=["unicode-digit", "5000-digit-index"])
def test_unicode_digit_or_overlong_index_exits_2(model_file, capsys, formula,
                                                 message):
    rc = main(["check", "--model", model_file, "--state", "s",
               f"--formula={formula}"])
    assert rc == 2
    assert capsys.readouterr().err == f"parse error: {message}\n"


@pytest.mark.parametrize("key,value", [
    ("val", [["p"]]),
    ("rel", [[]]),
    ("depth", [{"s": 0}]),
    ("depth", {"0": [1]}),         # the in-memory sequence form
    ("depth", {"0": {"s": 1.7}}),  # coerced to 1 before
    ("states", "s"),               # coerced to ["s"] before
    ("rel", {"0": [], "00": []}),  # "00" replaced agent 0's pairs before
    ("depth", {" 0": {"s": 1}}),   # read as agent 0 before
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

    def test_depth_list(self, capsys):
        rc = main(["muddy", "--k", "3", "--depths", "2,1,0",
                   "--formula", "upper", "--semantics", "EDPAL"])
        assert rc == 0
        assert "true" in capsys.readouterr().out

    @pytest.mark.parametrize("depths", ["1,1,1", "1"])
    def test_depths_for_n_children(self, capsys, depths):
        # with k=2 of n=3 children muddy, child 0 needs depth 1 to learn;
        # a single value is every child's depth
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

    @pytest.mark.parametrize("depths,column", [
        ("2,-1,0", 3), ("k-5", 1), ("1_0,1,1", 1), ("+1,1,1", 1),
        ("\u0662,1,0", 1), ("1,2," + "9" * 5000, 5), ("2,1,0,", 7)])
    def test_depth_outside_the_grammar_exits_2(self, capsys, depths, column):
        # values are ASCII digits only; a trailing comma adds an empty value
        rc = main(["muddy", "--k", "3", f"--depths={depths}"])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"(line 1, column {column})" in err
        assert len(err) < 200   # an over-long value is not echoed

    @pytest.mark.parametrize("argv", [["--k", "2", "--n", "0"], ["--k", "0"]])
    def test_fewer_than_one_child_exits_2(self, capsys, argv):
        assert main(["muddy", *argv]) == 2
        assert capsys.readouterr().out == ""

    @settings(max_examples=200, deadline=None)
    @given(text=st.lists(
        st.from_regex(r"[ ]?[0-9]{1,2}[ ]?", fullmatch=True)
        | st.text(st.sampled_from("0123456789 -+_ik\u0662"), max_size=3),
        min_size=1, max_size=4).map(",".join))
    def test_depths_are_one_or_three_ascii_integers(self, text):
        """Comma-joined fields, well-formed ones drawn often enough that
        one- and three-value lists both occur."""
        rc = main(["muddy", "--k", "3", f"--depths={text}"])
        value = r"[ ]*[0-9]+[ ]*"
        assert rc == (0 if re.fullmatch(f"{value}|{value},{value},{value}",
                                        text) else 2)

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


def test_files_are_utf8_under_an_ascii_locale(tmp_path):
    """Formula files and DOT output are UTF-8, as model files are, whatever
    the locale's encoding."""
    model = tmp_path / "accent.json"
    save_model(Model(agents=1, states=["\u00e9t\u00e9"], val={}), str(model))
    formula = tmp_path / "accent.txt"
    formula.write_text("K[0] \u00e9", encoding="utf-8")
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0",
               PYTHONUTF8="0", PYTHONPATH=os.path.dirname(
                   os.path.dirname(depthlogic.__file__)))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "depthlogic.cli", *argv],
                              env=env, capture_output=True).returncode

    out = tmp_path / "accent.dot"
    assert run("export-dot", "--model", str(model), "--out", str(out)) == 0
    assert "\u00e9t\u00e9" in out.read_text(encoding="utf-8")
    assert run("check", "--model", str(model), "--state", "\u00e9t\u00e9",
               "--formula-file", str(formula)) == 2


def test_files_that_are_not_utf8_exit_3_as_file_errors(tmp_path, capsys):
    model = tmp_path / "m.json"
    save_model(Model(agents=1, states=["s"], val={}), str(model))
    formula = tmp_path / "latin1.txt"
    formula.write_bytes(b"K[0] \xe9")
    assert main(["check", "--model", str(model), "--state", "s",
                 "--formula-file", str(formula)]) == 3
    assert capsys.readouterr().err.startswith("file error: ")
    model.write_bytes(b'{"agents": 1, "states": ["\xe9"]}')
    assert main(["check", "--model", str(model), "--state", "s",
                 "--formula", "p"]) == 3
    assert capsys.readouterr().err.startswith("file error: ")


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


def test_readme_cli_table_lists_exactly_the_subcommands():
    readme = Path(__file__).parents[1].joinpath("README.md").read_text(
        encoding="utf-8")
    table = readme.split("\n## CLI\n", 1)[1].strip().split("\n\n")[0]
    listed = re.findall(r"^\| `([\w-]+)` \|", table, re.MULTILINE)
    commands = next(a for a in build_parser()._actions
                    if a.dest == "command")
    assert listed == list(commands.choices)


# -- fuzzing the CLI in process --

_TOKENS = ("p", "q", "true", "false", "!", "&", "|", "->", "<->", "(", ")",
           "[", "]", "<", ">", "K[0]", "K[1]", "K[3]", "Kinf[0]", "E[0,1]",
           "P[1,0]", "K[", ",", "0", "\u0660", "K[\u0661]", "E[0,\u0663]",
           "1" * 5000)
_WELL_FORMED = st.recursive(
    st.sampled_from(("p", "q", "true", "false", "E[0,1]", "P[1,0]")),
    lambda f: st.one_of(
        f.map("!{}".format),
        st.tuples(f, st.sampled_from(("&", "|", "->")), f).map(
            lambda t: "({} {} {})".format(*t)),
        st.tuples(st.sampled_from(("K", "Kinf")), st.integers(0, 3), f).map(
            lambda t: "{}[{}] {}".format(*t)),
        st.tuples(f, f).map(lambda t: "[{}] {}".format(*t)),
        st.tuples(f, f).map(lambda t: "<{}> {}".format(*t))),
    max_leaves=6)
_FORMULAS = st.one_of(_WELL_FORMED, st.lists(
    st.sampled_from(_TOKENS), min_size=1, max_size=8).map(" ".join))
_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=6)


@st.composite
def _model_docs(draw):
    """A small model document: 1-3 agents, at most 4 states, now and then
    with one field replaced by arbitrary JSON."""
    agents = draw(st.integers(1, 3))
    states = ["s0"] + draw(st.lists(st.sampled_from(("s1", "s2", "s3")),
                                    max_size=3, unique=True))
    keys = st.sampled_from([str(a) for a in range(agents)])
    named = st.sampled_from(states)
    doc = {"agents": agents, "states": states,
           "mode": draw(st.sampled_from(("equivalence",) * 2
                                        + ("reflexive",))),
           "val": draw(st.dictionaries(named, st.lists(
               st.sampled_from(("p", "q")), max_size=2, unique=True))),
           "rel": draw(st.dictionaries(keys, st.lists(
               st.lists(named, min_size=2, max_size=2), max_size=4))),
           "depth": draw(st.dictionaries(keys, st.dictionaries(
               named, st.integers(0, 3))))}
    field = draw(st.sampled_from([None] * 12 + sorted(doc)))
    if field is not None:
        doc[field] = draw(_ANY_JSON)
    return doc


@pytest.mark.filterwarnings("ignore:agent .* relation was not closed")
@settings(max_examples=300, deadline=None)
@given(doc=_model_docs(), formula=_FORMULAS,
       command=st.sampled_from(("check", "update", "export-dot")),
       sem=st.sampled_from(("DBEL", "DPAL", "EDPAL", "ADPAL")),
       state=st.sampled_from(("s0", "s1", "zz")))
def test_cli_ends_with_a_documented_exit_code(tmp_path_factory, doc, formula,
                                              command, sem, state):
    """Any small model document and formula text ends with exit 0, 2 or 3
    and lets no exception escape."""
    work = tmp_path_factory.mktemp("fuzz")
    model = work / "model.json"
    model.write_text(json.dumps(doc), encoding="utf-8")
    argv = [command, "--model", str(model), "--semantics", sem]
    if command == "check":
        argv += ["--state", state, f"--formula={formula}"]
    elif command == "update":
        argv += ["--out", str(work / "out.json"), f"--formula={formula}"]
    else:
        argv += [f"--announce={formula}", "--out", str(work / "out.dot")]
    assert main(argv) in (0, 2, 3)
