import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tanglenabla
from tanglenabla import corpus
from tanglenabla.cli import gradings_json, main
from tanglenabla.diagram import parse_tangle
from tanglenabla.gradings import generator_gradings
from tanglenabla.verify import PROPERTIES

from conftest import seeded_diagrams


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def corpus_arg(name):
    return f"corpus:{name}"


def test_nabla_text(capsys):
    code, out, err = run_cli("nabla", corpus_arg("pretzel_2m3"), "--site", "b",
                             capsys=capsys)
    assert code == 0
    assert out == "site b: q^-3 p - q^-1 p^-1 + q p^-1\n"


def test_nabla_json_matches_schema(capsys):
    code, out, _ = run_cli("--format", "json", "nabla", corpus_arg("clasp"),
                           capsys=capsys)
    assert code == 0
    data = json.loads(out)
    jsonschema = pytest.importorskip("jsonschema")
    schema_path = Path(__file__).resolve().parents[1] / "src" / "tanglenabla" \
        / "schemas" / "output.json"
    schema = json.loads(schema_path.read_text())
    jsonschema.validate(data, {**schema, "$ref": "#/$defs/nabla"})


def test_states_output(capsys):
    code, out, _ = run_cli("states", corpus_arg("crossing_pos"), capsys=capsys)
    assert code == 0
    assert out.splitlines() == ["x1:q0  site c", "x1:q1  site d",
                                "x1:q2  site a", "x1:q3  site b"]


def test_regions_and_euler_and_gradings_json(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    schema_path = Path(__file__).resolve().parents[1] / "src" / "tanglenabla" \
        / "schemas" / "output.json"
    schema = json.loads(schema_path.read_text())
    for cmd, ref in (("regions", "regions"), ("euler", "euler"),
                     ("gradings", "gradings"), ("states", "states")):
        code, out, _ = run_cli("--format", "json", cmd, corpus_arg("clasp"),
                               capsys=capsys)
        assert code == 0
        jsonschema.validate(json.loads(out), {**schema, "$ref": f"#/$defs/{ref}"})


def test_gradings_pretzel_count(capsys):
    code, out, _ = run_cli("--format", "json", "gradings",
                           corpus_arg("pretzel_2m3"), capsys=capsys)
    data = json.loads(out)
    assert len(data["generators"]) == 22
    sites = [tuple(g["site"]) for g in data["generators"]]
    assert sites.count(("a",)) == 6 and sites.count(("b",)) == 5
    assert sites.count(("c",)) == 6 and sites.count(("d",)) == 5


def test_gradings_json_writer_matches_json_dumps():
    diagrams = [corpus.load(n) for n in corpus.names()] + seeded_diagrams(5, 40, 7)
    seen = set()
    for d in diagrams:
        if d.split:
            continue
        gens = generator_gradings(d)
        payload = {"diagram": d.name, "generators": [
            {"site": sorted(g.site.arcs), "alexander2": dict(g.alexander2),
             "delta2": g.delta2, "h": g.h, "ladybug_bits": list(g.ladybug_bits),
             "markers": list(g.state.markers)} for g in gens]}
        assert gradings_json(d.name, gens) == json.dumps(payload, indent=2, sort_keys=True)
        seen.add((2 * d.n_open, d.m_closed > 0))
    assert gradings_json("none", []) == json.dumps(
        {"diagram": "none", "generators": []}, indent=2, sort_keys=True)
    # 2-ended diagrams give "site": [], diagrams without closed components
    # "ladybug_bits": []
    assert seen == {(n, c) for n in (2, 4, 6) for c in (False, True)}, seen


def test_one_site_commands_print_their_line_of_the_full_output(capsys):
    for cmd in (["nabla"], ["nabla", "--hat"], ["euler"]):
        full = run_cli(*cmd, corpus_arg("clasp"), capsys=capsys)[1].splitlines()
        for line in full:
            site = line.split(":")[0].split()[1]
            code, out, _ = run_cli(*cmd, corpus_arg("clasp"), "--site", site,
                                   capsys=capsys)
            assert (code, out) == (0, line + "\n"), cmd


def test_unknown_site_rejected(capsys):
    for cmd in ("nabla", "euler"):
        code, out, err = run_cli(cmd, corpus_arg("clasp"), "--site", "zz",
                                 capsys=capsys)
        assert (code, out) == (1, "") and "E_BAD_SITE" in err, cmd


def test_split_diagram_commands_report_e_split(tmp_path, capsys):
    path = tmp_path / "split.tgl"
    path.write_text("tangle split\nends 2\nboundary a e1 b e2\n"
                    "crossing x1 + under e1 e3 over e3 e2\ncolour e1 t\ncircle u\n")
    for cmd in ("regions", "gradings", "euler"):
        code, out, err = run_cli(cmd, str(path), capsys=capsys)
        assert (code, out) == (1, "") and err.startswith("error: E_SPLIT: "), cmd


def test_split_diagram_close_and_glue_end_without_a_traceback(tmp_path, capsys):
    path = tmp_path / "split.tgl"
    path.write_text("tangle split\nends 2\nboundary a e1 b e2\n"
                    "crossing x1 + under e1 e3 over e3 e2\ncolour e1 t\ncircle u\n")
    # closing needs the outer region, which a split diagram does not have
    code, out, err = run_cli("transform", "close", str(path), capsys=capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: E_BAD_LOCATION: ") and len(err.splitlines()) == 1
    # glueing needs no region: the result is split too and keeps the circle
    code, out, err = run_cli("transform", "glue", str(path), "--with", corpus_arg("clasp"),
                             "--count", "2", "--start2", "1", capsys=capsys)
    assert (code, err) == (0, "")
    assert parse_tangle(out).split and "circle u" in out.splitlines()


@pytest.mark.parametrize("argv", [
    ("nabla", "{bad}"),
    ("transform", "glue", "corpus:clasp", "--with", "{bad}"),
    ("check", "euler_char", "{bad}"),
], ids=["nabla", "glue", "check"])
def test_non_utf8_input_is_one_syntax_error(argv, tmp_path, capsys):
    path = tmp_path / "bad.tgl"
    path.write_bytes(b"\xff\xfetangle x\n")
    code, out, err = run_cli(*(a.format(bad=path) for a in argv), capsys=capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: E_SYNTAX: ") and len(err.splitlines()) == 1


def test_conway(capsys):
    code, out, _ = run_cli("conway", corpus_arg("trefoil"), capsys=capsys)
    assert code == 0
    assert "t^-2 - 1 + t^2" in out


def test_transform_roundtrip(tmp_path, capsys):
    code, out, _ = run_cli("transform", "mirror", corpus_arg("crossing_pos"),
                           capsys=capsys)
    assert code == 0 and out.startswith("tangle ")
    path = tmp_path / "m.tgl"
    path.write_text(out)
    code, out2, _ = run_cli("nabla", str(path), "--site", "d", capsys=capsys)
    assert code == 0
    assert out2 == "site d: o^-1/2 u^-1/2\n"


def test_transform_mutate_close(capsys):
    code, out, _ = run_cli("transform", "mutate", corpus_arg("pretzel_2m3"),
                           "--axis", "y", capsys=capsys)
    assert code == 0
    code, out, _ = run_cli("transform", "close", corpus_arg("pretzel_2m3"),
                           "--at", "a", capsys=capsys)
    assert code == 0 and "ends 2" in out


def test_check_pass_and_exit_codes(capsys):
    code, out, _ = run_cli("check", "mutorient_counterexample", capsys=capsys)
    assert code == 0 and "pass" in out
    # hypothesis violation: distinct open colours
    code, out, err = run_cli("check", "mutation", corpus_arg("clasp"),
                             capsys=capsys)
    assert code == 2
    assert "E_HYPOTHESIS" in err


def test_check_json_report(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    code, out, _ = run_cli("--format", "json", "check", "mirror",
                           "--seed", "5", "--cases", "3", capsys=capsys)
    assert code == 0
    data = json.loads(out)
    schema_path = Path(__file__).resolve().parents[1] / "src" / "tanglenabla" \
        / "schemas" / "output.json"
    schema = json.loads(schema_path.read_text())
    jsonschema.validate(data, {**schema, "$ref": "#/$defs/report"})
    assert data["passed"] is True and data["seed"] == 5


def test_usage_error_exit_code(capsys):
    assert run_cli("frobnicate", capsys=capsys)[0] == 2
    assert run_cli("nabla", "/nonexistent/x.tgl", capsys=capsys)[0] == 1


def test_check_rejects_fewer_than_one_case(capsys):
    for cases in ("-3", "0", "x"):
        code, out, err = run_cli("check", "skein", "--cases", cases, capsys=capsys)
        assert (code, out) == (2, ""), cases
        assert "--cases" in err, cases
    assert run_cli("check", "skein", "--cases", "1", capsys=capsys)[0] == 0


def test_check_rejects_diagrams_for_generated_only_properties(capsys):
    takes_diagrams = {"mutation", "euler_char", "mutorient_counterexample"}
    for prop in sorted(set(PROPERTIES) - takes_diagrams):
        code, out, err = run_cli("check", prop, corpus_arg("clasp"), capsys=capsys)
        assert (code, out) == (2, ""), prop
        assert "E_HYPOTHESIS" in err, prop
    code, out, _ = run_cli("check", "euler_char", corpus_arg("clasp"), capsys=capsys)
    assert (code, out) == (0, "euler_char: pass (1 cases, seed 0)\n")


def test_nabla_seed_env(monkeypatch, capsys):
    monkeypatch.setenv("NABLA_SEED", "99")
    code, out, _ = run_cli("--format", "json", "check", "parity", "--cases", "2",
                           capsys=capsys)
    assert json.loads(out)["seed"] == 99


def test_byte_identical_invocations(capsys):
    a = run_cli("nabla", corpus_arg("pretzel_2m3"), capsys=capsys)[1]
    b = run_cli("nabla", corpus_arg("pretzel_2m3"), capsys=capsys)[1]
    assert a == b


def test_console_entry_point_runs():
    # the child imports the package from where this process did, which is
    # src/ when pytest's pythonpath setting, not an install, provides it
    package_root = str(Path(tanglenabla.__file__).parents[1])
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "tanglenabla.cli", "regions", "corpus:clasp"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert proc.stdout.endswith("\n")


def test_transform_reverse_and_glue(tmp_path, capsys):
    code, out, _ = run_cli("transform", "reverse", corpus_arg("clasp"),
                           "--colours", "t1", capsys=capsys)
    assert code == 0 and "tangle" in out
    path = tmp_path / "rev.tgl"
    path.write_text(out)
    code, out2, _ = run_cli("nabla", str(path), "--site", "r", capsys=capsys)
    assert code == 0
    assert out2 == "site r: -t1^-1 + t1\n" or out2 == "site r: t1^-1 - t1\n"
    # glueing two single crossings into a clasp-shaped diagram
    code, out3, _ = run_cli("transform", "glue", corpus_arg("crossing_pos"),
                            "--with", corpus_arg("crossing_pos"),
                            "--start1", "2", "--start2", "1", "--count", "2",
                            capsys=capsys)
    assert code == 0 and "ends 4" in out3
