"""Command line behaviour: formats, exit codes, determinism."""

import io
import json
from contextlib import redirect_stdout

import pytest

from shifted_crystal import cli, export_json, graph_from_json, verify
from shifted_crystal import core as core_module
from shifted_crystal import graph as graph_module
from shifted_crystal.cli import main
from shifted_crystal.core import InvariantError


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_lrs_count_command():
    code, out = run_cli("lrs-count", "--lambda", "2,1", "--mu", "", "--nu", "2,1")
    assert code == 0 and out.strip() == "1"


def test_enumerate_command():
    code, out = run_cli("enumerate", "--shape", "2,1", "--n", "2")
    assert code == 0
    assert out.splitlines() == ["1 1 / 2", "1 2' / 2"]


def test_apply_command_braid_golden(tmp_path):
    f = tmp_path / "t.txt"
    f.write_text("5,3,1/\n1 1 1 1 3' / 2 2 3' / 3\n", encoding="utf-8")
    code, out1 = run_cli("apply", "--tableau", str(f), "--ops", "S1,S2,S1", "--n", "3")
    assert code == 0 and out1.splitlines()[1] == "1 1 1 2 3 / 2 3' 3 / 3"
    code, out2 = run_cli("apply", "--tableau", str(f), "--ops", "S2,S1,S2", "--n", "3")
    assert code == 0 and out2.splitlines()[1] == "1 1 1 2' 3' / 2 3' 3 / 3"
    assert out1 != out2


def test_apply_undefined_prints_none(tmp_path):
    f = tmp_path / "t.txt"
    f.write_text("2,1/\n1 1 / 2\n", encoding="utf-8")
    code, out = run_cli("apply", "--tableau", str(f), "--ops", "F1", "--n", "2")
    assert code == 0 and out.strip() == "none"


def test_transform_commands_roundtrip(tmp_path):
    f = tmp_path / "t.txt"
    f.write_text("4,2/\n1 1 2' 2 / 2 3\n", encoding="utf-8")
    code, out = run_cli("evacuate", "--tableau", str(f), "--n", "3")
    assert code == 0 and out.splitlines() == ["4,2/", "1 2' 2 3 / 2 3"]
    # output parses back in
    g = tmp_path / "e.txt"
    g.write_text(out, encoding="utf-8")
    code, out2 = run_cli("evacuate", "--tableau", str(g), "--n", "3")
    assert code == 0 and out2.splitlines()[1] == "1 1 2' 2 / 2 3"

    skew = tmp_path / "s.txt"
    skew.write_text("2,1/1\n1 / 2\n", encoding="utf-8")
    code, out = run_cli("rectify", "--tableau", str(skew))
    assert code == 0 and out.splitlines() == ["2/", "1 2"]
    code, out = run_cli("reversal", "--tableau", str(skew), "--n", "2")
    assert code == 0 and out.splitlines()[0] == "2,1/1"


def test_eta_command(tmp_path):
    f = tmp_path / "t.txt"
    f.write_text("2,1/\n1 1 / 2\n", encoding="utf-8")
    code, out = run_cli("eta", "--tableau", str(f), "--n", "2")
    assert code == 0 and out.splitlines()[1] == "1 2' / 2"
    code, out2 = run_cli("eta", "--tableau", str(f), "--interval", "1,2", "--n", "2")
    assert out2 == out


def test_graph_command_formats(tmp_path):
    code, dot = run_cli("graph", "--shape", "2,1", "--n", "2", "--format", "dot")
    assert code == 0 and dot.startswith("digraph crystal {")
    out_file = tmp_path / "g.json"
    code, _ = run_cli("graph", "--shape", "2,1", "--n", "4",
                      "--format", "json", "--out", str(out_file))
    assert code == 0
    obj = json.loads(out_file.read_text(encoding="utf-8"))
    assert len(obj["vertices"]) == 16
    # determinism: a second run is byte identical
    code, text1 = run_cli("graph", "--shape", "3,1", "--n", "3", "--format", "json")
    code, text2 = run_cli("graph", "--shape", "3,1", "--n", "3", "--format", "json")
    assert text1 == text2
    # a skew export reads back through graph_from_json, whose constructor
    # checks every edge, and writes out byte-equal
    code, text = run_cli("graph", "--shape", "3,1/1", "--n", "3", "--format", "json")
    assert code == 0 and export_json(graph_from_json(text)) == text


def test_graph_out_fails_before_the_build(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "build_graph", lambda *args: calls.append(args))
    missing = tmp_path / "no" / "such" / "g.json"
    assert main(["graph", "--shape", "2,1", "--n", "2", "--out", str(missing)]) == 2
    assert calls == [] and str(missing) in capsys.readouterr().err


def test_graph_refused_over_the_cap_leaves_an_empty_file(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SHIFTED_CRYSTAL_MAX_VERTICES", "3")
    out_file = tmp_path / "g.json"
    assert main(["graph", "--shape", "2,1", "--n", "3", "--out", str(out_file)]) == 2
    assert out_file.read_text(encoding="utf-8") == ""
    assert "more than 3 vertices" in capsys.readouterr().err


def test_verify_command_exit_codes():
    code, out = run_cli("verify", "cactus", "--shape", "2,1", "--n", "4")
    assert code == 0 and "no violations" in out
    code, out = run_cli("verify", "braid", "--shape", "5,3,1", "--n", "3")
    assert code == 1 and "fail" in out
    code, out = run_cli("verify", "knuth", "--max-size", "3")
    assert code == 0


def test_verify_json_prints_the_whole_report(monkeypatch):
    code, out = run_cli("verify", "cactus", "--shape", "2,1", "--n", "4", "--json")
    rep = json.loads(out)
    assert code == 0 and rep["ok"] and rep["suite"] == "cactus"
    assert rep["checked"] == {"involution": 96, "disjoint": 16, "nested": 144}
    assert rep["graph"]["vertices"] == 16 and rep["violations"] == []
    code, out = run_cli("verify", "braid", "--shape", "5,3,1", "--n", "3", "--json")
    rep = json.loads(out)
    assert code == 1 and rep["checked"] == rep["graph"]["vertices"] and rep["violations"]
    # the suites built on one contract: "suite" first, "violations", "ok" and
    # "summary" last
    for argv, fields in (
        (("knuth", "--max-size", "2", "--shape", "2,1", "--n", "1"),
         ["words", "classes", "shapes", "tableaux", "checked", "seconds"]),
        (("symmetry", "--shape", "2,1"), ["checked"]),
        (("structure", "--shape", "2,1", "--n", "2"), ["graphs"]),
    ):
        code, out = run_cli("verify", *argv, "--json")
        rep = json.loads(out)
        assert code == 0 and list(rep) == ["suite", *fields, "violations", "ok", "summary"]
        assert rep["suite"] == argv[0] and rep["violations"] == []
    # knuth at a small scope keeps this fast; criterion 9 runs the full one
    real_knuth = verify.run_knuth
    monkeypatch.setattr(verify, "run_knuth", lambda seed: real_knuth(
        3, bound="3,1", n_max=2, orders=5, seed=seed))
    code, out = run_cli("verify", "all", "--json")
    rep = json.loads(out)
    assert code == 0 and rep["ok"] and rep["suite"] == "all"
    assert [r["suite"] for r in rep["reports"]] == [
        "cactus", "cactus", "cactus", "braid-witness", "knuth", "symmetry", "structure"]
    assert all(r["ok"] for r in rep["reports"])
    assert rep["reports"][0]["checked"]["involution"] == 96
    braid = rep["reports"][3]
    assert braid["suite"] == "braid-witness"
    assert braid["graph"] == {"shape": "5,3,1", "n": 3, "vertices": 64}
    assert braid["checked"] == 64 and braid["violations_found"] == 46


def test_verify_knuth_honours_shape_and_n():
    # bound (2,1) with n <= 1 holds 9 tableaux; the default scope checks 2 588
    code, out = run_cli("verify", "knuth", "--max-size", "2", "--shape", "2,1", "--n", "1")
    assert code == 0 and "on 9 tableaux" in out


def test_verify_knuth_json_shows_its_work():
    code, out = run_cli("verify", "knuth", "--max-size", "2", "--shape", "2,1", "--n", "1",
                        "--json")
    rep = json.loads(out)
    assert code == 0 and rep["ok"] and rep["suite"] == "knuth"
    for key in ("words", "classes", "shapes", "tableaux", "violations", "summary"):
        assert key in rep
    assert set(rep["checked"]) == {"words", "tableaux", "orders", "slides"}
    assert rep["checked"]["tableaux"] == rep["tableaux"] == 9
    assert set(rep["checked"]["slides"]) == {"words", "orders"}
    assert set(rep["seconds"]) == {"words", "orders"}


def test_zero_values_are_honoured(tmp_path):
    f = tmp_path / "t.txt"
    f.write_text("2,1/\n1 1 / 2\n", encoding="utf-8")
    code, out = run_cli("evacuate", "--tableau", str(f), "--n", "0")
    assert code == 2 and out == ""
    code, _ = run_cli("verify", "cactus", "--shape", "2,1", "--n", "2", "--max-size", "0")
    assert code == 2


def test_vertex_cap_from_the_environment_refuses_early(monkeypatch, capsys):
    monkeypatch.setenv("SHIFTED_CRYSTAL_MAX_VERTICES", "1000")
    assert main(["graph", "--shape", "7,5,3,1", "--n", "5"]) == 2
    assert capsys.readouterr() == (
        "", "error: more than 1000 vertices; raise SHIFTED_CRYSTAL_MAX_VERTICES to override\n")


def test_enumerate_command_past_the_cap_builds_at_most_cap_plus_one_tableaux(
        monkeypatch, capsys):
    # B((7,5,3,1),5) has 153 600 tableaux; under a cap of 1000 the command
    # prints none of them, and the enumeration stores at most cap + 1 words
    built, leaf = [0], core_module._leaf
    results, enumerate_ = [], graph_module._enumerate

    def counted_leaf(*args):
        built[0] += 1
        return leaf(*args)

    monkeypatch.setattr(core_module, "_leaf", counted_leaf)
    monkeypatch.setattr(graph_module, "_enumerate",
                        lambda *args: results.append(enumerate_(*args)) or results[-1])
    monkeypatch.setenv("SHIFTED_CRYSTAL_MAX_VERTICES", "1000")
    assert main(["enumerate", "--shape", "7,5,3,1", "--n", "5"]) == 2
    assert capsys.readouterr() == (
        "", "error: more than 1000 vertices; raise SHIFTED_CRYSTAL_MAX_VERTICES to override\n")
    [result] = results
    assert 0 < len(result) <= 1001
    assert built[0] <= 1001


def test_lrs_count_command_under_the_vertex_cap(monkeypatch, capsys):
    argv = ["lrs-count", "--lambda", "9,7,5,3,1", "--mu", "3,1", "--nu", "8,6,4,2,1"]
    monkeypatch.setenv("SHIFTED_CRYSTAL_MAX_VERTICES", "100")
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "", "error: more than 100 vertices; raise SHIFTED_CRYSTAL_MAX_VERTICES to override\n")
    monkeypatch.delenv("SHIFTED_CRYSTAL_MAX_VERTICES")
    assert main(argv) == 0
    assert capsys.readouterr() == ("8\n", "")


def test_vertex_cap_from_max_size_names_its_source(monkeypatch, capsys):
    # the variable is set but does not set the cap, so raising it would not help
    monkeypatch.setenv("SHIFTED_CRYSTAL_MAX_VERTICES", "100000")
    assert main(["verify", "cactus", "--shape", "2,1", "--n", "2", "--max-size", "0"]) == 2
    assert capsys.readouterr() == (
        "", "error: more than 0 vertices; raise max_vertices to override\n")


@pytest.mark.parametrize("value", ["abc", "-5", "2.5", ""])
def test_vertex_cap_environment_must_be_a_non_negative_integer(value, monkeypatch, capsys):
    monkeypatch.setenv("SHIFTED_CRYSTAL_MAX_VERTICES", value)
    assert main(["graph", "--shape", "2,1", "--n", "2"]) == 2
    assert capsys.readouterr() == (
        "", f"error: SHIFTED_CRYSTAL_MAX_VERTICES must be a non-negative integer, got {value!r}\n")


@pytest.mark.parametrize("suite", ["cactus", "braid", "knuth"])
def test_verify_rejects_a_negative_max_size(suite, capsys):
    assert main(["verify", suite, "--max-size", "-1"]) == 2
    assert capsys.readouterr() == (
        "", "error: --max-size must be a non-negative integer, got -1\n")


def test_verify_rejects_a_negative_max_report(capsys):
    assert main(["verify", "braid", "--shape", "5,3,1", "--n", "3", "--max-report", "-1"]) == 2
    assert capsys.readouterr() == (
        "", "error: --max-report must be a non-negative integer, got -1\n")


def test_max_report_limits_the_text_violations_and_is_refused_where_unused(capsys):
    braid = ["verify", "braid", "--shape", "5,3,1", "--n", "3"]
    for extra, shown in [([], 10), (["--max-report", "2"], 2), (["--max-report", "0"], 0)]:
        code, out = run_cli(*braid, *extra)
        summary, _, listed = out.partition("\n")
        assert code == 1 and "fail at" in summary
        assert len(json.loads(listed)) == shown
    # --json prints every violation, and "all" prints no list: neither reads the flag
    assert main([*braid, "--json", "--max-report", "2"]) == 2
    assert main(["verify", "all", "--max-report", "2"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: --max-report limits the text output; --json prints every violation",
        "error: verify all prints no violations list, so it takes no --max-report",
    ]


def test_rectify_takes_no_alphabet_bound(tmp_path, capsys):
    f = tmp_path / "t.txt"
    f.write_text("2,1/\n1 1 / 2\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["rectify", "--tableau", str(f), "--n", "1"])
    assert exc.value.code == 2 and "--n" in capsys.readouterr().err
    # evacuate does take the bound, and refuses one below the tableau's letters
    assert main(["evacuate", "--tableau", str(f), "--n", "1"]) == 2


def test_verify_knuth_rejects_negative_sizes(capsys):
    assert main(["verify", "knuth", "--n", "-2", "--max-size", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "n_max" in err and "non-negative" in err
    for kwargs in ({"orders": -3}, {"max_len": -1}, {"n_max": -1}):
        with pytest.raises(ValueError, match="must be non-negative"):
            verify.run_knuth(**kwargs)


def test_verify_knuth_past_the_cap_exits_2_before_it_builds_a_word(monkeypatch, capsys):
    monkeypatch.delenv("SHIFTED_CRYSTAL_MAX_VERTICES", raising=False)
    monkeypatch.setattr(verify, "_canonical_words", lambda *args: pytest.fail("words built"))
    assert main(["verify", "knuth", "--max-size", "12"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == ("error: run_knuth: more than 100000 words up to length 12; "
                                 "raise SHIFTED_CRYSTAL_MAX_VERTICES to override\n")


# knuth takes all four suite flags, so it has no case here
@pytest.mark.parametrize("suite, flag, value", [
    ("cactus", "--seed", "3"),
    ("braid", "--seed", "3"),
    ("symmetry", "--n", "5"),
    ("structure", "--max-size", "2"),
    ("all", "--shape", "2,1"),
])
def test_verify_rejects_flags_a_suite_does_not_take(suite, flag, value, capsys):
    assert main(["verify", suite, flag, value]) == 2
    assert capsys.readouterr() == ("", f"error: verify {suite} does not take {flag}\n")


def test_invariant_error_exits_3(tmp_path, monkeypatch, capsys):
    def broken(args):
        raise InvariantError("slide left a hole")

    monkeypatch.setattr(cli, "_cmd_rectify", broken)
    f = tmp_path / "t.txt"
    f.write_text("2,1/\n1 1 / 2\n", encoding="utf-8")
    assert main(["rectify", "--tableau", str(f)]) == 3
    assert capsys.readouterr().err == "internal error: slide left a hole\n"


def test_usage_errors_exit_2(tmp_path):
    code, _ = run_cli("enumerate", "--shape", "1,2", "--n", "2")
    assert code == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("2,1/\n2 1 / 2\n", encoding="utf-8")
    code, _ = run_cli("rectify", "--tableau", str(bad))
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["graph", "--shape", "2,1", "--n", "2", "--format", "pdf"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (["enumerate", "--shape", "a,b", "--n", "2"], "cannot parse part 'a' of 'a,b'"),
    (["lrs-count", "--lambda", "3,1", "--mu", "x", "--nu", "1"], "cannot parse part 'x' of 'x'"),
    (["verify", "cactus", "--shape", "2,x"], "cannot parse part 'x' of '2,x'"),
    # lrs_count((3, 1), (1,), (1, 2)) is 0; the command refuses the part list
    (["lrs-count", "--lambda", "3,1", "--mu", "1", "--nu", "1,2"],
     "parts not strictly decreasing: (1, 2)"),
])
def test_a_part_that_is_not_an_integer_exits_2_and_names_the_text(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("tableau, interval, message", [
    ("2,1/\n1 1 / 2\n", "2", "--interval must be two integers p,q, got '2'"),
    ("2,1/\n1 1 / 2\n", "2,3,4", "--interval must be two integers p,q, got '2,3,4'"),
    ("2,1/\n1 1 / 2\n", "a,b", "--interval must be two integers p,q, got 'a,b'"),
    ("2,1/\n1 1 / 2\n", "", "--interval must be two integers p,q, got ''"),
    ("2,1/\n", None, "tableau input needs a shape line and a filling line"),
    ("2,1/\n1 1\n", None, "expected 2 rows in filling, got 1"),
    ("2,1/\n1 1 2 / 2\n", None, "row 1 expects 2 cells, got 3"),
])
def test_eta_input_errors_exit_2_and_name_the_input(tmp_path, capsys, tableau, interval, message):
    f = tmp_path / "t.txt"
    f.write_text(tableau, encoding="utf-8")
    extra = [] if interval is None else ["--interval", interval]
    code, _ = run_cli("eta", "--tableau", str(f), "--n", "3", *extra)
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_stdin_tableau(monkeypatch):
    import sys
    monkeypatch.setattr(sys, "stdin", io.StringIO("2,1/\n1 1 / 2\n"))
    code, out = run_cli("apply", "--tableau", "-", "--ops", "F1'", "--n", "2")
    assert code == 0 and out.splitlines()[1] == "1 2' / 2"
