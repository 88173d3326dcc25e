import io
import random
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from tanglenabla import cli, corpus
from tanglenabla import transform as tr
from tanglenabla.diagram import TangleDiagram, TangleError
from tanglenabla.verify import random_diagram


@pytest.fixture(scope="session")
def corpus_names():
    return corpus.names()


def load(name):
    return corpus.load(name)


def seeded_diagrams(seed, count, max_crossings):
    """``count`` random diagrams with 2, 4 or 6 ends and 1..max_crossings
    crossings, from one seeded generator."""
    rng = random.Random(seed)
    return [random_diagram(rng, rng.choice((2, 4, 6)), rng.randint(1, max_crossings))
            for _ in range(count)]


def cli_on(monkeypatch, d, *argv):
    """(exit code, stdout) of the CLI on d, read from a stand-in path."""
    monkeypatch.setattr(cli, "_read_diagram", lambda path: d)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main([*argv, "d.tgl"])
    return code, buf.getvalue()


@pytest.fixture
def clasp():
    return load("clasp")


@pytest.fixture
def pretzel():
    return load("pretzel_2m3")


def _renamed(d, a, b, **kw):
    """``d`` with the edge ids ``a`` and ``b`` swapped."""
    swap = {a: b, b: a}.get
    return tr._rebuild(d, crossings=[c.renamed(lambda e: swap(e, e)) for c in d.crossings],
                       boundary=[swap(e, e) for e in d.boundary],
                       seeds={swap(e, e): c for e, c in tr._seeds_of(d).items()}, **kw)


def reopen_at(d, e):
    """``tr.reopen`` cutting edge ``e`` instead of the least edge on the
    outer region: ``e`` swaps ids with the least edge for the cut, and back.
    E_BAD_LOCATION unless ``e`` borders the outer region."""
    if not d.split and d.arcs[0] not in (d.region_beside(e, "L"), d.region_beside(e, "R")):
        raise TangleError("E_BAD_LOCATION", f"edge {e!r} does not border the outer region")
    least = d.edges[0]
    hint, side = d.outer_hint
    hint = {e: least, least: e}.get(hint, hint)
    return _renamed(tr.reopen(_renamed(d, e, least, outer_hint=(hint, side))), e, least)


def transform_outputs(d):
    """``(label, result)`` for every transform of ``transform.py`` at every
    location of ``d`` (RM2 insertions: the first six side pairs), in a fixed
    order.  ``result`` is a TangleDiagram, a GlueRecord or the code of the
    TangleError raised.  Closures are reopened and smoothings have each
    closed colour deleted, which reaches the 0-ended and free-circle cases.
    """
    def run(label, f, *args):
        try:
            return label, f(*args)
        except TangleError as ex:
            return label, ex.code

    out = [run("mirror", tr.mirror_diagram, d)]
    for col in d.colours():
        out.append(run(f"reverse {col}", tr.reverse_orientation, d, {col}))
    out.append(run("reverse all", tr.reverse_orientation, d, set(d.colours())))
    out.append(run("recolour", tr.recolour, d, {c: "t" for c in d.colours()}))
    for ci in range(len(d.crossings)):
        out.append(run(f"switch {ci}", tr.switch_crossing, d, ci))
        label, sm = run(f"smooth {ci}", tr.smooth_crossing, d, ci)
        out.append((label, sm))
        if isinstance(sm, TangleDiagram):
            for comp in sm.components:
                if comp.kind == "closed":
                    out.append(run(f"{label} delete {comp.colour}",
                                   tr.delete_component, sm, comp.colour))
    for comp in d.components:
        if comp.kind == "closed":
            out.append(run(f"delete {comp.colour}", tr.delete_component, d, comp.colour))
    for a in d.arcs:
        out.append(run(f"cap {a}", tr._cap, d, a))
        label, closed = run(f"close {a}", tr.close_tangle, d, a)
        out.append((label, closed))
        if isinstance(closed, TangleDiagram) and not closed.boundary:
            out.append(run(f"{label} reopen", tr.reopen, closed))
            for e in closed.edges:
                out.append(run(f"{label} reopen {e}", reopen_at, closed, e))
    if not d.boundary:
        out.append(run("reopen", tr.reopen, d))
    for axis in "xyz":
        out.append(run(f"mutate {axis}", tr.mutate_tangle, d, axis))
    for e in d.edges:
        for side in "LR":
            for sign in (1, -1):
                out.append(run(f"rm1 {e} {side} {sign}", tr.rm1_insert, d, e, side, sign))
    for ci in tr.find_kinks(d):
        out.append(run(f"rm1r {ci}", tr.rm1_remove, d, ci))
    sides = [(e, s) for e in d.edges for s in "LR"]
    pairs = [(a, b) for a in sides for b in sides
             if a[0] != b[0] and d.region_beside(*a) is not None
             and d.region_beside(*a) == d.region_beside(*b)][:6]
    for (e1, s1), (e2, s2) in pairs:
        for first_over in (True, False):
            out.append(run(f"rm2 {e1} {s1} {e2} {s2} {first_over}",
                           tr.rm2_insert, d, e1, s1, e2, s2, first_over))
    for rid in tr.find_bigons(d):
        out.append(run(f"rm2r {rid}", tr.rm2_remove, d, rid))
    for rid in tr.find_triangles(d):
        out.append(run(f"rm3 {rid}", tr.rm3, d, rid))
    piece = corpus.load("crossing_pos")
    for start1 in range(len(d.boundary)):
        for start2 in range(4):
            for count in (1, 2):
                out.append(run(f"glue {start1} {start2} {count}",
                               tr.glue_diagrams, d, piece, start1, start2, count))
    return out
