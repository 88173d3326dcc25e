"""The JSON writer of ``layout`` against its oracle, ``json.dumps(value,
indent=2, sort_keys=True)``, on polynomials, on payloads and on the output
of every JSON command."""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from tanglenabla import corpus, layout
from tanglenabla.cli import main
from tanglenabla.diagram import parse_tangle, serialize
from tanglenabla.gradings import euler_characteristics
from tanglenabla.laurent import LaurentPoly
from tanglenabla.nabla import conway_potential, nabla_all, nabla_hat_all

from conftest import seeded_diagrams

NAMES = ["t", "t1", "u", "h", "delta", 'café"q\\z', "\x00\n"]
COEFS = st.one_of(st.integers(-3, 3), st.integers(-(1 << 90), 1 << 90))


def oracle(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


def plain(value):
    """``value`` with each polynomial replaced by its ``to_json()``."""
    if isinstance(value, LaurentPoly):
        return value.to_json()
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    return value


@st.composite
def polys(draw):
    names = draw(st.lists(st.sampled_from(NAMES), unique=True, max_size=4))
    exps = st.tuples(*[st.integers(-7, 7) for _ in names])
    return LaurentPoly(names, draw(st.dictionaries(exps, COEFS, max_size=6)))


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(polys())
@example(LaurentPoly.zero())                                # "terms": [], "vars": []
@example(LaurentPoly(("t",), {}))                           # "terms": [] only
@example(LaurentPoly.integer(-7))                           # "exp2": [] in one term
@example(LaurentPoly.integer(1 << 64))                      # beyond 2^63
@example(LaurentPoly(("t", "h"), {(0, 0): -(1 << 70), (2, -2): 1}))
def test_poly_matches_to_json_at_every_depth(p):
    text = oracle(p.to_json())
    for depth in range(5):
        assert layout.poly(p, depth) == text.replace("\n", "\n" + "  " * depth), depth
    nested = {"a": [p], "b": {"c": [[p, None]]}}
    assert layout.dump(nested) == oracle(plain(nested))


PAYLOADS = st.recursive(
    st.one_of(st.none(), st.booleans(), COEFS, st.text(max_size=6), polys()),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=12)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(PAYLOADS)
@example({})
@example([])
@example({"diagram": 'café"q\\z', "states": [], "quotient": None, "hat": False})
@example((1, ("a", [])))
def test_dump_matches_json_dumps(value):
    assert layout.dump(value) == oracle(plain(value))


def test_table_matches_json_dumps(capsys):
    items = [{"markers": [1, 0], "site": ["a"]}, {"markers": [], "site": []}]
    chunks = ["    " + layout.dump(x, 2) + ",\n" for x in items]
    lines = ["x1:q0  site a\n", "x1:q1  site b\n"]
    for n in (0, 1, 2):
        layout.write_table("x", "states", iter(chunks[:n]), True)
        assert capsys.readouterr().out == oracle({"diagram": "x", "states": items[:n]}) + "\n"
        layout.write_table("x", "states", iter(lines[:n]), False)
        assert capsys.readouterr().out == ("".join(lines[:n]) or "\n")


CAFE = corpus.source("trefoil").replace("tangle trefoil", 'tangle café"q\\z')
SPLIT = ("tangle split\nends 2\nboundary a e1 b e2\n"
         "crossing x1 + under e1 e3 over e3 e2\ncolour e1 t\ncircle u\n")
JSON_COMMANDS = (["regions"], ["states"], ["nabla"], ["nabla", "--hat"], ["conway"],
                 ["gradings"], ["euler"], ["transform", "mirror"])


def diagram_files(tmp_path):
    texts = [corpus.source(n) for n in corpus.names()] + [CAFE, SPLIT]
    texts += [serialize(d) for d in seeded_diagrams(5, 40, 7)[:16]]
    for k, text in enumerate(texts):
        path = tmp_path / f"d{k}.tgl"
        path.write_text(text, encoding="utf-8")
        yield path


def test_every_json_command_is_written_as_json_dumps_writes_it(tmp_path, capsys):
    written = 0
    for path in diagram_files(tmp_path):
        for cmd in JSON_COMMANDS:
            code = main(["--format", "json", *cmd, str(path)])
            out, _ = capsys.readouterr()
            if code:
                assert out == "", (path, cmd)        # E_SPLIT, E_NOT_TWO_ENDED
                continue
            assert out == oracle(json.loads(out)) + "\n", (path, cmd)
            written += 1
    assert written > 150
    for argv in (["check", "mirror", "--seed", "5", "--cases", "3"],
                 ["check", "euler_char", str(tmp_path / "d0.tgl")]):
        main(["--format", "json", *argv])
        out, _ = capsys.readouterr()
        assert out == oracle(json.loads(out)) + "\n", argv


def test_diagram_names_are_escaped_as_json_dumps_escapes_them(tmp_path, capsys):
    path = tmp_path / "cafe.tgl"
    path.write_text(CAFE, encoding="utf-8")
    assert json.dumps('café"q\\z') == '"caf\\u00e9\\"q\\\\z"'
    for cmd in JSON_COMMANDS:
        assert main(["--format", "json", *cmd, str(path)]) == 0, cmd
        out, _ = capsys.readouterr()
        # transform writes the name inside the text of its result
        want = "tangle " if cmd[0] == "transform" else ""
        assert f'  "diagram": "{want}caf\\u00e9\\"q\\\\z' in out, cmd


@pytest.mark.parametrize("hat", [False, True])
def test_polynomial_commands_match_the_to_json_payload(hat, tmp_path, capsys):
    for path in diagram_files(tmp_path):
        d = parse_tangle(path.read_text(encoding="utf-8"))
        if not d.sites():
            continue
        values = nabla_hat_all(d) if hat else nabla_all(d)
        main(["--format", "json", "nabla", str(path), *(["--hat"] if hat else [])])
        out, _ = capsys.readouterr()
        assert out == oracle({"diagram": d.name, "hat": hat,
                              "nabla": {str(s): p.to_json() for s, p in values.items()}}) + "\n"
        if hat:
            continue
        if d.n_open == 1:
            cp = conway_potential(d)
            main(["--format", "json", "conway", str(path)])
            out, _ = capsys.readouterr()
            assert out == oracle({
                "diagram": d.name, "numerator": cp.numerator.to_json(),
                "divisor_colour": cp.colour,
                "quotient": None if cp.quotient is None else cp.quotient.to_json()}) + "\n"
        if not d.split:
            chis = euler_characteristics(d)
            main(["--format", "json", "euler", str(path)])
            out, _ = capsys.readouterr()
            assert out == oracle({"diagram": d.name,
                                  "euler": {str(s): p.to_json() for s, p in chis.items()}}) + "\n"
