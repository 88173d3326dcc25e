import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import tanglenabla
from tanglenabla import cli, corpus, layout
from tanglenabla.cli import main
from tanglenabla.diagram import parse_tangle, serialize
from tanglenabla.gradings import generator_gradings
from tanglenabla.states import markers_of
from tanglenabla.transform import close_tangle
from tanglenabla.verify import PROPERTIES

from conftest import seeded_diagrams
from oracles import gradings_output


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


def test_states_output(capsys):
    code, out, _ = run_cli("states", corpus_arg("crossing_pos"), capsys=capsys)
    assert code == 0
    assert out.splitlines() == ["x1:q0  site c", "x1:q1  site d",
                                "x1:q2  site a", "x1:q3  site b"]


# every JSON-emitting command, with the definition of output.json it meets;
# QUOTIENT stands for a 2-ended diagram with a closed component whose
# Conway quotient is exact
SCHEMA_CASES = {
    "regions": (["regions", "corpus:clasp"], "regions"),
    "states": (["states", "corpus:clasp"], "states"),
    "nabla": (["nabla", "corpus:clasp"], "nabla"),
    "nabla-hat-site": (["nabla", "corpus:pretzel_2m3", "--hat", "--site", "b"], "nabla"),
    "conway": (["conway", "corpus:trefoil"], "conway"),
    "conway-quotient": (["conway", "QUOTIENT"], "conway"),
    "gradings": (["gradings", "corpus:clasp"], "gradings"),
    "euler": (["euler", "corpus:clasp"], "euler"),
    "transform": (["transform", "mirror", "corpus:clasp"], "transform"),
    "check": (["check", "mirror", "--seed", "5", "--cases", "3"], "report"),
}


@pytest.mark.parametrize("case", sorted(SCHEMA_CASES))
def test_json_output_matches_schema(case, tmp_path, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    schema_path = Path(__file__).resolve().parents[1] / "src" / "tanglenabla" \
        / "schemas" / "output.json"
    schema = json.loads(schema_path.read_text())
    argv, ref = SCHEMA_CASES[case]
    path = tmp_path / "q.tgl"
    path.write_text(serialize(seeded_diagrams(5, 40, 7)[30]))
    argv = [str(path) if a == "QUOTIENT" else a for a in argv]
    code, out, _ = run_cli("--format", "json", *argv, capsys=capsys)
    assert code == 0
    data = json.loads(out)
    assert (data.get("quotient") is not None) == (case == "conway-quotient")
    jsonschema.validate(data, {**schema, "$ref": f"#/$defs/{ref}"})


def test_gradings_pretzel_count(capsys):
    code, out, _ = run_cli("--format", "json", "gradings",
                           corpus_arg("pretzel_2m3"), capsys=capsys)
    data = json.loads(out)
    assert len(data["generators"]) == 22
    sites = [tuple(g["site"]) for g in data["generators"]]
    assert sites.count(("a",)) == 6 and sites.count(("b",)) == 5
    assert sites.count(("c",)) == 6 and sites.count(("d",)) == 5


def test_gradings_json_writer_matches_json_dumps(tmp_path, monkeypatch, capsys):
    # both formats, byte for byte as the sorted generator list renders
    # through json.dumps or line by line
    diagrams = [corpus.load(n) for n in corpus.names()] + seeded_diagrams(5, 40, 7)
    seen = set()
    for k, d in enumerate(diagrams):
        if d.split:
            continue
        path = tmp_path / f"d{k}.tgl"
        path.write_text(serialize(d))
        gens = generator_gradings(d)
        for fmt in ("json", "text"):
            code, out, err = run_cli("--format", fmt, "gradings", str(path), capsys=capsys)
            assert (code, err) == (0, ""), d.name
            assert out == gradings_output(d.name, gens, fmt), (d.name, fmt)
        seen.add((2 * d.n_open, d.m_closed > 0))
    # 2-ended diagrams give "site": [], diagrams without closed components
    # "ladybug_bits": []
    assert seen == {(n, c) for n in (2, 4, 6) for c in (False, True)}, seen
    # an empty table: "generators": [] and one empty text line
    real = cli.generator_keys
    monkeypatch.setattr(cli, "generator_keys", lambda d: (real(d)[0], []))
    for fmt in ("json", "text"):
        code, out, _ = run_cli("--format", fmt, "gradings", corpus_arg("clasp"), capsys=capsys)
        assert (code, out) == (0, gradings_output("clasp", [], fmt)), fmt


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


def test_non_integral_grading_is_e_grading(monkeypatch, capsys):
    # a delta code off by 1/2 at every corner of crossing 0 makes every
    # state's h a half-integer
    d = corpus.load("mutorient")
    codes = d.corner_codes

    def off_by_half(weight, h=0, delta=0):
        first, *rest = codes(weight, h, delta)
        return [tuple(c + delta for c in first), *rest]
    monkeypatch.setattr(d, "corner_codes", off_by_half)
    monkeypatch.setattr(cli, "_read_diagram", lambda path: d)
    for argv in (["gradings"], ["--format", "json", "gradings"], ["euler"],
                 ["euler", "--site", "b"]):
        code, out, err = run_cli(*argv, "x.tgl", capsys=capsys)
        assert (code, out) == (1, "") and err.startswith("error: E_GRADING: "), argv


def test_zero_ended_diagram_has_no_site(tmp_path, capsys):
    d = close_tangle(close_tangle(corpus.load("clasp"), "l"))
    assert not d.boundary and not d.split and d.sites() == []
    path = tmp_path / "closed.tgl"
    path.write_text(serialize(d))
    for argv in (["nabla"], ["nabla", "--hat"], ["nabla", "--site", "-"], ["states"],
                 ["gradings"], ["--format", "json", "gradings"], ["euler"],
                 ["--format", "json", "euler"]):
        code, out, err = run_cli(*argv, str(path), capsys=capsys)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: E_BAD_SITE: ") and len(err.splitlines()) == 1, argv
    code, out, err = run_cli("check", "euler_char", "corpus:clasp", str(path), capsys=capsys)
    assert (code, out) == (2, "") and err.startswith("error: E_HYPOTHESIS: ")


def test_consecutive_calls_share_no_state(capsys):
    clasp = corpus_arg("clasp")
    hat = run_cli("nabla", clasp, "--hat", capsys=capsys)
    plain = run_cli("nabla", clasp, capsys=capsys)
    assert hat[0] == plain[0] == 0 and hat[1] != plain[1] and "h" not in plain[1]
    as_json = run_cli("--format", "json", "nabla", clasp, capsys=capsys)
    as_text = run_cli("nabla", clasp, capsys=capsys)
    assert json.loads(as_json[1])["hat"] is False and as_text == plain
    sub_json = run_cli("nabla", clasp, "--format", "json", capsys=capsys)
    assert sub_json == as_json and run_cli("nabla", clasp, capsys=capsys) == plain
    code, out, err = run_cli("nabla", clasp, "--hat", "--bogus", capsys=capsys)
    assert (code, out) == (2, "") and "--bogus" in err
    assert run_cli("nabla", clasp, capsys=capsys) == plain
    # and each of those outputs is what a fresh parser gives
    for argv, want in ((["nabla", clasp, "--hat"], hat), (["nabla", clasp], plain),
                       (["--format", "json", "nabla", clasp], as_json)):
        args = cli.build_parser().parse_args(argv)
        assert (args.fn(args), *capsys.readouterr()) == want


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


@pytest.mark.parametrize("ends", ["²", "٤", "４", "+4"])
def test_ends_takes_ascii_digits_only(ends, tmp_path, capsys):
    # str.isdigit holds for "²", which int() rejects, and for the Arabic-Indic
    # and fullwidth fours, which int() reads as 4
    path = tmp_path / "clasp.tgl"
    for line, want in ((f"ends {ends}\n", 1), ("ends 4\n", 0)):
        path.write_text(corpus.source("clasp").replace("ends 4\n", line), encoding="utf-8")
        code, out, err = run_cli("regions", str(path), capsys=capsys)
        assert code == want, line
        if want:
            assert out == "" and err == "error: E_SYNTAX: line 4: ends <2n>\n", line


CLOSED_TREFOIL = """tangle trefoil_closed_b
ends 0
outer r {edge} R
crossing x1 + under e1 e4 over e5 e3
crossing x2 + under e7 e5 over e6 e1
crossing x3 + under e3 e6 over e4 e7
colour e1 t
"""


@pytest.mark.parametrize("extra", ["", "circle s\n"], ids=["connected", "split"])
def test_outer_hint_naming_no_edge_is_a_syntax_error(extra, tmp_path, capsys):
    assert parse_tangle(CLOSED_TREFOIL.format(edge="e1") + extra).split == bool(extra)
    path = tmp_path / "closed.tgl"
    path.write_text(CLOSED_TREFOIL.format(edge="zz") + extra)
    for cmd in ("regions", "states"):
        code, out, err = run_cli(cmd, str(path), capsys=capsys)
        assert (code, out) == (1, "") and err.startswith("error: E_SYNTAX: "), cmd
        assert len(err.splitlines()) == 1 and "'zz'" in err


@pytest.mark.parametrize("colour", ["h", "delta", "9x-"])
def test_a_free_circle_keeps_the_colour_name_rule(colour, tmp_path, capsys):
    # a strand coloured h would collide with the grading variable, in
    # euler_factor among others; a free circle is a strand too
    path = tmp_path / "circle.tgl"
    for line, want in ((f"circle {colour}\n", 1), ("circle s\n", 0)):
        path.write_text(corpus.source("trefoil") + line)
        for cmd in ("nabla", "conway"):
            code, out, err = run_cli(cmd, str(path), capsys=capsys)
            assert code == want, (line, cmd)
            if want:
                assert out == "" and err == f"error: E_SYNTAX: bad colour name {colour!r}\n"


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


def test_check_rejects_diagrams_outside_the_hypothesis(capsys):
    # mutation needs 4 ends, also when the open strands share a colour (the
    # trefoil's one does); the counterexample needs a site {b} (the trefoil
    # has none) and a closed strand to reverse (the clasp has none)
    for prop, name in (("mutation", "trefoil"), ("mutorient_counterexample", "trefoil"),
                       ("mutorient_counterexample", "clasp")):
        code, out, err = run_cli("check", prop, corpus_arg(name), capsys=capsys)
        assert (code, out) == (2, ""), (prop, name)
        assert err.startswith("error: E_HYPOTHESIS"), (prop, name, err)
        assert "Traceback" not in err


def test_nabla_seed_env(monkeypatch, capsys):
    monkeypatch.setenv("NABLA_SEED", "99")
    code, out, _ = run_cli("--format", "json", "check", "parity", "--cases", "2",
                           capsys=capsys)
    assert json.loads(out)["seed"] == 99


def test_malformed_nabla_seed_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("NABLA_SEED", "abc")
    code, out, err = run_cli("check", "parity", "--cases", "2", capsys=capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "NABLA_SEED" in err


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


def test_glue_start_outside_the_ends_is_e_bad_location(capsys):
    # clasp has 4 ends and crossing_pos 4; an end is 0 <= start < 4 on each
    # side, not read modulo the number of ends
    glue = ("transform", "glue", corpus_arg("clasp"), "--with", corpus_arg("crossing_pos"),
            "--count", "1")
    code, out, _ = run_cli(*glue, "--start1", "1", capsys=capsys)
    assert code == 0 and out
    for start in (("--start1", "5"), ("--start1", "-3"), ("--start1", "4"),
                  ("--start2", "4"), ("--start2", "-1")):
        code, out, err = run_cli(*glue, *start, capsys=capsys)
        assert (code, out) == (1, "") and err.startswith("error: E_BAD_LOCATION: "), start


def test_state_marker_text_matches_the_per_crossing_rendering():
    # layout.markers with the pieces of the states text and of the JSON
    # tails: every code for m <= 5, a sample with both extremes above
    rng = random.Random(1607)
    pieces = [(lambda i, q: f"x{i + 1}:q{q}", " "), (lambda i, q: str(q), ",\n        ")]
    for m in range(10):
        codes = range(4 ** m) if m <= 5 else \
            {0, 4 ** m - 1, *(rng.randrange(4 ** m) for _ in range(500))}
        for piece, sep in pieces:
            text = layout.markers(m, piece, sep)("<", ">")
            for x in codes:
                want = sep.join(piece(i, q) for i, q in enumerate(markers_of(x, m)))
                assert text(x) == "<" + want + ">", (m, x)
