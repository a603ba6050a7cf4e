import json
import subprocess
import sys

import pytest

from mdid import kernel as K
from mdid.cli import main
from mdid.fixtures import FIXTURE_NAMES, fixture_text, load
from mdid.gfile import ParseError, parse_graph_file, render_graph_file
from mdid.graph import GraphError
from mdid.model import MdDag
from mdid import oracle as O


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_round_trip_all_fixtures():
    for name in FIXTURE_NAMES:
        model = load(name)
        back = parse_graph_file(render_graph_file(model))
        if isinstance(model, MdDag):
            assert back.graph == model.graph
            assert set(back.triples) == set(model.triples)
            assert back.observed == model.observed
        else:
            assert back == model


def test_render_refuses_statuses_the_format_cannot_carry():
    g = load("confounded_chain")
    with pytest.raises(GraphError, match=r"fixed \['A'\], selected \[\]"):
        render_graph_file(g.with_statuses(fixed=["A"]))
    with pytest.raises(GraphError, match=r"fixed \[\], selected \['B', 'M'\]"):
        render_graph_file(g.with_statuses(selected=["M", "B"]))


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        parse_graph_file("var A observed\nedge A => B\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_graph_file("vertex A\n")
    # a third parent on a proxy violates the structural contract
    bad = fixture_text("colluder_pair") + "edge X2(1) -> X1\n"
    with pytest.raises(ParseError, match=r"^proxy 'X1' must have parents") as exc:
        parse_graph_file(bad)
    # a structural error belongs to the whole file, not to a line
    assert exc.value.line_no is None
    with pytest.raises(ParseError, match=r"^graph contains a directed cycle$"):
        parse_graph_file("var A observed\nvar B observed\nedge A -> B\nedge B -> A\n")


@pytest.mark.parametrize("line", ["var A", "var A hidden", "var A missing now"])
def test_var_lines_need_a_name_and_a_role(line):
    with pytest.raises(ParseError, match=r"^line 2: expected: var NAME missing\|observed$"):
        parse_graph_file("var B observed\n" + line + "\n")


def test_empty_file_is_a_valid_empty_graph():
    g = parse_graph_file("")
    assert not isinstance(g, MdDag)
    assert g.vertex_names == ()


def test_check_command(capsys, tmp_path):
    code, out, _ = run_cli(["check", "fixture:colluder_pair"], capsys)
    assert code == 2
    assert "(R2, R1)" in out
    code, out, _ = run_cli(["check", "fixture:crisscross"], capsys)
    assert code == 0

    path = tmp_path / "m.graph"
    path.write_text(fixture_text("crisscross"))
    code, out, _ = run_cli(["check", str(path)], capsys)
    assert code == 0


def test_identify_command_exit_codes(capsys):
    code, out, _ = run_cli(["identify", "fixture:crisscross", "--query",
                            "target"], capsys)
    assert code == 0 and "status: identified" in out
    code, out, _ = run_cli(["identify", "fixture:colluder_pair", "--query",
                            "full"], capsys)
    assert code == 2 and "certificate" in out
    code, out, _ = run_cli(["identify", "fixture:confounded_chain"], capsys)
    assert code == 1


def test_identify_json_deterministic(capsys):
    code1, out1, _ = run_cli(["identify", "fixture:latent_trio", "--json"], capsys)
    code2, out2, _ = run_cli(["identify", "fixture:latent_trio", "--json"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["status"] == "identified"
    assert any(r.startswith("R1 =") for r in payload["propensities"])


def test_identify_full_renders_latex(capsys):
    # the full-law functional is the propensities' product over the
    # all-observed slice, divided by that product at R = 1
    code, out, _ = run_cli(["identify", "fixture:crisscross", "--query", "full", "--latex"],
                           capsys)
    assert code == 0
    want = (r"functional: \left[p(R1 \mid R2=1,R3=1,X2,X3)\,p(R2 \mid R1=1,R3=1,X1,X3)"
            r"\,p(R3 \mid R1=1,R2=1,X1,X2)\right]\cdot\frac{p(R1=1,R2=1,R3=1,X1,X2,X3)}"
            r"{\left[\cdots\right]_{R=1}}")
    assert want in out.splitlines()


def test_verify_command(capsys):
    code, out, _ = run_cli(["verify", "fixture:staggered_trio", "--query",
                            "target", "--trials", "20", "--seed", "7",
                            "--tol", "1e-9"], capsys)
    assert code == 0 and "status: verified" in out
    code, out, _ = run_cli(["verify", "fixture:joint_quartet", "--query",
                            "indicator:R4", "--trials", "10", "--seed", "3",
                            "--tol", "1e-9"], capsys)
    assert code == 0


def test_verify_full_law_command(capsys):
    code, out, _ = run_cli(["verify", "fixture:crisscross", "--query", "full",
                            "--trials", "3"], capsys)
    assert code == 0
    assert "status: verified" in out and "trials: 3" in out


def test_verify_and_fixtures_sample_at_the_cardinality_asked(capsys, monkeypatch):
    asked = set()
    sample = O.sample_full_law

    def recorded(md, cardinality=2, *args, **kw):
        asked.add(cardinality)
        return sample(md, cardinality, *args, **kw)

    monkeypatch.setattr(O, "sample_full_law", recorded)
    code, out, _ = run_cli(["verify", "fixture:staggered_trio", "--trials", "3",
                            "--cardinality", "3"], capsys)
    assert code == 0 and "status: verified" in out and asked == {3}
    code, _, _ = run_cli(["fixtures", "--trials", "1", "--cardinality", "4"], capsys)
    assert code == 0 and asked == {3, 4}
    assert main(["verify", "fixture:staggered_trio", "--cardinality", "1"]) == 1
    assert "cardinality must be at least 2, not 1" in capsys.readouterr().err


def test_usage_errors_exit_1_and_help_exits_0(capsys):
    # 2 means "not identified": a mistyped flag must not read as a verdict
    for argv in (["verify", "fixture:staggered_trio", "--trials", "abc"],
                 ["identify"], ["nosuch"], ["check", "fixture:octet", "--bogus"]):
        assert main(argv) == 1
        assert "usage: mdid" in capsys.readouterr().err
    # a value no verification can use is a usage error, not a failed functional
    for argv, message in (
            (["verify", "fixture:crisscross", "--trials", "0"],
             "trials must be at least 1, not 0"),
            (["verify", "fixture:crisscross", "--trials", "-2"],
             "trials must be at least 1, not -2"),
            (["fixtures", "--trials", "-1"], "trials must be at least 0, not -1"),
            (["fixtures", "--seed", "-1"], "seed must be at least 0, not -1"),
            (["verify", "fixture:crisscross", "--tol", "nan"],
             "tolerance must be finite and at least 0, not nan"),
            (["verify", "fixture:crisscross", "--tol", "inf"],
             "tolerance must be finite and at least 0, not inf"),
            (["fixtures", "--tol", "-0.5"],
             "tolerance must be finite and at least 0, not -0.5")):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "usage: mdid" in err and message in err
    assert main(["verify", "--help"]) == 0
    assert "--cardinality" in capsys.readouterr().out


def test_fixtures_trials_0_skips_verification(capsys, monkeypatch):
    monkeypatch.setattr("mdid.cli.FIXTURE_NAMES", ("staggered_trio",))
    code, out, err = run_cli(["fixtures", "--trials", "0", "--tol", "0"], capsys)
    assert (code, out, err) == (0, "staggered_trio: target=identified full=identified\n", "")


def test_failed_verification_is_one_error_line(capsys, monkeypatch):
    """An error inside verification, such as a law past MAX_CELLS, exits 1
    with one error line instead of a traceback."""
    def too_large(md, full):
        raise K.ExprError("a table of 19131876 cells exceeds MAX_CELLS")

    monkeypatch.setattr(O, "target_law", too_large)
    code, out, err = run_cli(["verify", "fixture:crisscross", "--trials", "1"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: a table of 19131876 cells exceeds MAX_CELLS\n"
    monkeypatch.setattr("mdid.cli.FIXTURE_NAMES", ("confounded_chain", "crisscross"))
    code, out, err = run_cli(["fixtures", "--trials", "1"], capsys)
    assert (code, out) == (1, "confounded_chain: mixed graph (4 vertices)\n")
    assert err == "error: crisscross: a table of 19131876 cells exceeds MAX_CELLS\n"


# every fixture line of `mdid fixtures`, up to the target law's error
FIXTURE_LINES = {
    "confounded_chain": "mixed graph (4 vertices)",
    "block_sequential": "target=identified full=not-identified certificate=(R2, R1)",
    "crisscross": "target=identified full=identified",
    "staggered_trio": "target=identified full=identified",
    "latent_trio": "target=identified full=not-identified certificate=(R2, R1)",
    "joint_quartet": "target=identified full=not-identified certificate=(R1, R2)",
    "context_fix": "target=identified full=not-identified certificate=(R1, R2)",
    "octet": "target=identified full=not-identified certificate=(R1, R2)",
    "colluder_pair": "target=identified full=not-identified certificate=(R2, R1)",
}


def test_fixtures_command(capsys):
    code, out, err = run_cli(["fixtures", "--trials", "2"], capsys)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert [line.split(":", 1)[0] for line in lines] == list(FIXTURE_NAMES)
    for name, line in zip(FIXTURE_NAMES, lines):
        verdicts, _, err_bit = line.removeprefix(f"{name}: ").partition(" target_err=")
        assert verdicts == FIXTURE_LINES[name]
        if err_bit:
            assert float(err_bit) <= 1e-9
        else:
            assert name == "confounded_chain"


def test_fixtures_command_fails_when_a_functional_does_not_verify(capsys, monkeypatch):
    # a target functional off by 1.0 fails its check, yet every fixture
    # still gets its line before the command exits 1
    def off(md, functional, trials, seed, cardinality):
        return O.VerifyReport(trials, 1.0, 0, [1.0] * trials)

    monkeypatch.setattr("mdid.cli.O.verify_target_functional", off)
    code, out, err = run_cli(["fixtures", "--trials", "1"], capsys)
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert [line.split(":", 1)[0] for line in lines] == list(FIXTURE_NAMES)
    for name, line in zip(FIXTURE_NAMES, lines):
        if name != "confounded_chain":
            assert line == f"{name}: {FIXTURE_LINES[name]} target_err=1.00e+00"


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("MDID_BUDGET_MAX_SCHEDULES", "1")
    code, out, _ = run_cli(["identify", "fixture:joint_quartet", "--query",
                            "indicator:R4"], capsys)
    assert code == 3 and "status: unknown" in out
    monkeypatch.delenv("MDID_BUDGET_MAX_SCHEDULES")
    code, out, _ = run_cli(["identify", "fixture:joint_quartet", "--query",
                            "indicator:R4"], capsys)
    assert code == 0


@pytest.mark.parametrize("value", ["abc", "0"])
def test_fixtures_command_rejects_bad_budget(capsys, monkeypatch, value):
    monkeypatch.setenv("MDID_BUDGET_MAX_SCHEDULES", value)
    code, out, err = run_cli(["fixtures", "--trials", "0"], capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"error: MDID_BUDGET_MAX_SCHEDULES={value!r}")
    assert "Traceback" not in err


@pytest.mark.parametrize("env,value", [
    ("MDID_BUDGET_MAX_SCHEDULES", "1e3"),
    ("MDID_BUDGET_MAX_SCHEDULES", "0"),
    ("MDID_BUDGET_MAX_SET_SIZE", "-2"),
    ("MDID_BUDGET_TIME_LIMIT", "abc"),
    ("MDID_BUDGET_TIME_LIMIT", "nan"),
])
@pytest.mark.parametrize("command", ["identify", "verify"])
def test_bad_budget_variable_names_itself(capsys, monkeypatch, env, value, command):
    monkeypatch.setenv(env, value)
    code, out, err = run_cli([command, "fixture:crisscross"], capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {env}={value!r} is not a positive ")


@pytest.mark.parametrize("command", ["identify", "check", "verify"])
def test_unknown_fixture_is_an_error(capsys, command):
    code, out, err = run_cli([command, "fixture:nope"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: unknown fixture 'nope'; have ")


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "mdid.cli", "check",
                           "fixture:crisscross"], capture_output=True, text=True)
    assert proc.returncode == 0


@pytest.mark.parametrize("argv,code,check", [
    (["check", "fixture:confounded_chain"], 0,
     lambda out, err: "kind: Cadmg" in out.splitlines() and err == ""),
    (["verify", "fixture:confounded_chain"], 1,
     lambda out, err: out == "" and "missing-data model" in err),
    (["verify", "fixture:colluder_pair", "--query", "full"], 2,
     lambda out, err: out == "status: not-identified\n" and err == ""),
    (["identify", "fixture:crisscross", "--query", "bogus"], 1,
     lambda out, err: out == "" and "'bogus'" in err),
    (["identify", "fixture:octet", "--query", "indicator:X1"], 1,
     lambda out, err: out == "" and "'X1'" in err),
])
def test_cli_paths_and_their_exit_codes(capsys, argv, code, check):
    got, out, err = run_cli(argv, capsys)
    assert got == code
    assert check(out, err)
    # an error is one line; a verdict writes nothing to stderr
    assert err == "" or (err.startswith("error: ") and err.count("\n") == 1)
