"""Seeded diagram generators for the benchmark workloads.

Every diagram is glued together from one-crossing pieces whose edge ids and
colours carry the piece's index.  ``glue_diagrams`` renames only the second
diagram's edges (with a ``g_`` prefix), so glueing a piece onto a glue
result of two copies of one corpus diagram reuses an edge id and fails with
``E_DANGLING``; fresh ids per piece avoid that.

A recipe is a small JSON object; ``build(recipe)`` turns it into the same
diagram every time:

* ``{"kind": "grow", "seed": g, "crossings": m, "ends": n, "flips": f}``
  glues random pieces onto the boundary, one at a time, choosing how many
  ends to join so that the result has ``n`` ends; a non-zero ``f`` then
  swaps over- and under-strand at a random half of the crossings.  The
  flips keep the projection, hence the states and components, and change
  the invariants.
* ``{"kind": "pretzel", "seed": g, "columns": [a, b, ...], "close": c}``
  places vertical twists of ``a``, ``b``, ... crossings side by side; with
  ``close`` a last piece is glued over three ends, leaving two.
"""

from __future__ import annotations

import random

from tanglenabla import transform as tr
from tanglenabla.diagram import Crossing, TangleDiagram, TangleError


def piece(rng: random.Random, idx: int) -> TangleDiagram:
    """A one-crossing tangle with random sign and strand directions."""
    e = [f"p{idx}e{k}" for k in range(4)]
    c = Crossing(rng.choice((1, -1)), (e[0], e[1]), (e[2], e[3]))
    u, o = f"u{idx}", f"o{idx}"
    d = TangleDiagram(f"p{idx}", [c], c.slots(), ("a", "b", "c", "d"),
                      {e[0]: u, e[2]: o})
    flip = rng.choice(((), (u,), (o,), (u, o)))
    return tr.reverse_orientation(d, set(flip)) if flip else d


def _glue_first(d1, d2, tries):
    """The first (start1, start2, count) in ``tries`` that glues, or None."""
    for start1, start2, count in tries:
        try:
            return tr.glue_diagrams(d1, d2, start1, start2, count).diagram
        except TangleError:
            continue
    return None


def grow(rng: random.Random, crossings: int, ends: int):
    """A random connected diagram, or None when the growth got stuck."""
    d = piece(rng, 0)
    for idx in range(1, crossings):
        n = len(d.boundary)
        left = crossings - 1 - idx
        counts = [j for j in (1, 2, 3)
                  if j <= n and not j == n == 4 and n + 4 - 2 * j >= 2
                  and abs(n + 4 - 2 * j - ends) <= 2 * left]
        rng.shuffle(counts)
        tries = []
        for j in counts:
            for s1 in rng.sample(range(n), n):
                tries += [(s1, s2, j) for s2 in rng.sample(range(4), 4)]
        d = _glue_first(d, piece(rng, idx), tries)
        if d is None:
            return None
    return d if len(d.boundary) == ends and not d.split else None


# Ends of a 4-ended tangle in standard position, counterclockwise: NW, SW,
# SE, NE.  Glueing a piece below a column leaves the result rotated by one
# (its NW end at boundary index 1); glueing side by side leaves it unrotated.

def _glue_piece(rng, d, idx, start1, start2, count):
    for _ in range(16):
        out = _glue_first(d, piece(rng, idx), [(start1, start2, count)])
        if out is not None:
            return out
    return None


def _column(rng, n, idx):
    """A vertical twist of n crossings and its rotation."""
    d, rot = piece(rng, idx), 0
    for k in range(1, n):
        d = _glue_piece(rng, d, idx + k, (1 + rot) % 4, 0, 2)
        if d is None:
            return None, 0
        rot = 1
    return d, rot


def pretzel(rng: random.Random, columns, close: bool):
    """Vertical twists glued side by side, or None when an orientation
    choice could not be completed."""
    d, rot = _column(rng, columns[0], 0)
    idx = columns[0]
    for n in columns[1:]:
        if d is None:
            return None
        for _ in range(16):
            col, crot = _column(rng, n, idx)
            glued = col and _glue_first(d, col, [((2 + rot) % 4, (1 + crot) % 4, 2)])
            if glued:
                break
        d, rot = glued, 0
        idx += n
    if d is not None and close:
        d = next((g for g in (_glue_piece(rng, d, idx, (1 + rot) % 4, s2, 3)
                              for s2 in range(4)) if g is not None), None)
    return None if d is None or d.split else d


def finish(d: TangleDiagram, name: str, flips=None) -> TangleDiagram:
    """Short edge ids e1, e2, ... and strand colours t1, t2, ...; with a
    ``flips`` generator, each crossing's over- and under-strand swap places
    with probability 1/2."""
    ren = {e: f"e{i}" for i, e in enumerate(d.edges, 1)}
    crossings = []
    for c in d.crossings:
        if flips is not None and flips.random() < 0.5:
            c = Crossing(-c.sign, c.over, c.under)
        crossings.append(Crossing(c.sign, (ren[c.under[0]], ren[c.under[1]]),
                                  (ren[c.over[0]], ren[c.over[1]])))
    colour = {c: f"t{i}" for i, c in enumerate(d.colours(), 1)}
    seeds = {ren[comp.edges[0]]: colour[comp.colour] for comp in d.components}
    return TangleDiagram(name, crossings, [ren[e] for e in d.boundary], d.arcs, seeds)


def recipe_name(recipe: dict) -> str:
    if recipe["kind"] == "grow":
        return (f"grow_m{recipe['crossings']}_e{recipe['ends']}_s{recipe['seed']}"
                f"_f{recipe['flips']}")
    cols = "_".join(map(str, recipe["columns"]))
    return f"pretzel_{cols}{'_c' if recipe['close'] else ''}_s{recipe['seed']}"


def build(recipe: dict):
    """The diagram a recipe describes, or None if it does not exist."""
    rng = random.Random(recipe["seed"])
    flips = None
    if recipe["kind"] == "grow":
        d = grow(rng, recipe["crossings"], recipe["ends"])
        if recipe["flips"]:
            flips = random.Random(recipe["flips"])
    else:
        d = pretzel(rng, recipe["columns"], recipe["close"])
    return None if d is None else finish(d, recipe_name(recipe), flips)
