"""Property catalogue: every identity the invariants satisfy, runnable on
given diagrams or on seeded random ones, with machine-readable reports.

Random diagrams are grown by repeatedly glueing fresh one-crossing pieces
onto the boundary and capping adjacent ends, which keeps them connected and
planar by construction.  Growth runs on int edge ids: piece i owns the ids
4i .. 4i+3, and its crossing is one of eight tabled pieces (sign, and which
strands are reversed).  Glues pair ends by the rule of
``transform._glue_ends`` and caps by that of ``transform._cap_shape``, on
the boundary's ids and ``incoming`` flags; each join pairs two ids that
were not joined before, so one list, ``mate``, records every edge.  Names,
crossings and the diagram are built once, for a try whose caps reach the
requested ends: an edge takes the least name of its two ids, and the
strands, walked on the crossings' edge maps, are coloured t1, t2, ... in
component order; a knot tangle drops a shape with a closed strand before
its crossings are built.  The cap closing the last two ends needs the
outer region, so it caps a diagram.

The checks compare site families as packed int maps
(``nabla.packed_family``): the diagrams of one case share a layout, one
digit per colour name and h on digit 0, so each identity is a map on ints.
Mirroring negates a term; reversing colour c subtracts x (2 w_c + 1) for
its digit x and weight w_c; h = -1 and renaming every colour to t are
layouts; (m - m^-1) p is two shifted copies of p; setting a colour to ±1
drops its digit with a sign; parity reads digits mod 4.  The glueing check
packs each piece with colour c on the digit of its image iota(c), so a
product term is one int addition, summed over the site pairs in one pass.
A polynomial is decoded only for a failure payload, so a report reads as
before.  ``euler_char`` and ``mutorient_counterexample`` compare
polynomials: the one against the gradings' Euler characteristics, the
other on a single given diagram.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

from . import transform as tr
from .diagram import Crossing, Site, TangleDiagram, TangleError, linking_number, serialize
from .gradings import euler_characteristics
from .laurent import LaurentPoly, binomial
from .nabla import (check_product, euler_factor, nabla_all, nabla_hat_all, packed_digit,
                    packed_family, packed_weight)


@dataclass
class CheckReport:
    prop: str
    seed: int
    cases: int
    passed: bool
    failures: list = field(default_factory=list)
    note: str = ""

    def to_json(self) -> dict:
        return {"property": self.prop, "seed": self.seed, "cases": self.cases,
                "passed": self.passed, "failures": self.failures, "note": self.note}


# ----------------------------------------------------------------------
# random diagram generation

class _Piece(NamedTuple):
    """A one-crossing piece on the local edge ids 0..3: whether a strand is
    reversed, its crossing's sign and under and over strands in flow order,
    its boundary edges (the slots of the unreversed crossing) and whether
    each end is incoming."""

    rev: bool
    sign: int
    under: tuple[int, int]
    over: tuple[int, int]
    boundary: tuple[int, int, int, int]
    incoming: tuple[bool, ...]


def _pieces(sign: int) -> tuple[_Piece, ...]:
    """The four pieces of one sign, in the order growth draws them: the
    crossing with under strand (0, 1) and over strand (2, 3), with no
    strand, u, o or both reversed, as ``reverse_orientation`` would."""
    c = Crossing(sign, (0, 1), (2, 3))
    out = []
    for u, o in ((False, False), (True, False), (False, True), (True, True)):
        r = c.reversed(u, o)
        # an end is incoming where its edge leaves the crossing
        out.append(_Piece(u or o, r.sign, r.under, r.over, c.slots(),
                          tuple(x in (r.under[1], r.over[1]) for x in c.slots())))
    return tuple(out)


_PIECES = {sign: _pieces(sign) for sign in (1, -1)}


def _strands(follow: dict[str, str], starts) -> tuple[list[str], list[str]]:
    """The strands of a diagram, walked on its in -> out edge map
    ``follow``: the least edge of each open strand, in the order of the
    edges in ``starts`` that they enter at, and the least edge of each
    closed strand, sorted."""
    seen: set[str] = set()

    def least(e):
        out = e
        while e is not None and e not in seen:
            seen.add(e)
            out = min(out, e)
            e = follow.get(e)
        return out

    opens = [least(e) for e in starts]
    return opens, sorted([least(e) for e in follow if e not in seen])


def _diagram(pieces: list[_Piece], mate: list[int], s: tr.Shape, closing: bool = False,
             knot: bool = False) -> TangleDiagram:
    """The diagram of grown ``pieces`` capped to ``s``, a shape on their
    edge ids, without crossings, named by its caps.  An edge takes the
    least name of its ids (``mate``): piece 0 names its edges ``p0_k``, a
    later piece i ``g_p<i>_k``, the ids that ``transform._glue_shapes``
    gives them.  Strands are coloured t1, t2, ... in component order: open
    ones by the end they enter at, then closed ones by least edge (all by
    least edge when ``closing`` its last two ends).  With ``knot``, a shape
    with a closed strand raises E_GENERATION before its crossings are built."""
    ids = [f"p0_{k}" for k in range(4)]
    ids += [f"g_p{i}_{k}" for i in range(1, len(pieces)) for k in range(4)]
    edge = [min(e, ids[y]) for e, y in zip(ids, mate)]
    follow = {edge[4 * i + a]: edge[4 * i + b]
              for i, p in enumerate(pieces) for a, b in (p.under, p.over)}
    boundary = [edge[x] for x in s.boundary]
    opens, closed = _strands(follow, [e for e, inc in zip(boundary, s.incoming) if not inc])
    if knot and closed:
        raise TangleError("E_GENERATION", "the shape has a closed strand")
    order = sorted(opens + closed) if closing else opens + closed
    crossings = [Crossing(p.sign, (edge[4 * i + p.under[0]], edge[4 * i + p.under[1]]),
                          (edge[4 * i + p.over[0]], edge[4 * i + p.over[1]]))
                 for i, p in enumerate(pieces)]
    name = "+".join([f"piece{i}_rev" if p.rev else f"piece{i}"
                     for i, p in enumerate(pieces)]) + s.name
    return TangleDiagram(name, crossings, boundary, s.arcs,
                         {e: f"t{i + 1}" for i, e in enumerate(order)})


# growth attempts of one random_diagram call, and of one random_knot_tangle
_DIAGRAM_TRIES = 200
_KNOT_TRIES = 400


def random_diagram(rng: random.Random, n_ends: int = 4, n_crossings: int = 6,
                   knot: bool = False) -> TangleDiagram:
    """A random connected oriented tangle diagram with the requested number
    of boundary ends and crossings.  Components get colours t1, t2, ...
    With ``knot``, a grown shape with a closed strand raises E_GENERATION
    before it is constructed (see ``_diagram``)."""
    if n_ends < 0 or n_ends % 2:
        raise TangleError("E_GENERATION", f"no diagram has {n_ends} boundary ends")
    n_crossings = max(n_crossings, (n_ends - 2) // 2, 1)
    for _ in range(_DIAGRAM_TRIES):
        d = _try_random_diagram(rng, n_ends, n_crossings, knot)
        if d is not None:
            return d
    raise TangleError("E_GENERATION", "could not generate a diagram with these parameters")


def _shuffled(rng: random.Random, items) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def _first(f, options):
    """``f(*o)`` for the first ``o`` in ``options`` that ``f`` takes without a
    TangleError; None if there is none."""
    for o in options:
        try:
            return f(*o)
        except TangleError:
            continue
    return None


def _grow(rng, n_ends, n_crossings):
    """Glue fresh pieces onto piece 0 until there are ``n_crossings``, each
    at the first option (glue size, end of the shape, end of the piece, in
    shuffled order) whose ends ``transform._glue_ends`` pairs; None if a
    piece has no such option.  Piece i owns the edge ids 4i .. 4i+3.
    Returns the pieces, ``mate``, which maps each glued id to the id it was
    glued to and every other id to itself, and the ids and ``incoming``
    flags of the boundary ends.  A glued end leaves the boundary, so no id
    is glued twice."""
    pieces = [rng.choice(_PIECES[rng.choice((1, -1))])]
    boundary, incoming = pieces[0].boundary, pieces[0].incoming
    mate = list(range(4 * n_crossings))
    while len(pieces) < n_crossings:
        n = len(boundary)
        piece = rng.choice(_PIECES[rng.choice((1, -1))])
        js = [j for j in (1, 2, 3) if n + 4 - 2 * j >= max(n_ends, 2) and j < n]
        options = ((s1, s2, j) for j in _shuffled(rng, js or [1])
                   for s1 in _shuffled(rng, range(n)) for s2 in _shuffled(rng, range(4)))
        plan = next(filter(None, (tr._glue_ends(incoming, piece.incoming, *o)
                                  for o in options)), None)
        if plan is None:
            return None
        pairs, keep1, keep2 = plan
        ends = [4 * len(pieces) + x for x in piece.boundary]
        for p1, p2 in pairs:
            x, y = boundary[p1], ends[p2]
            mate[x], mate[y] = y, x
        boundary = (*(boundary[i] for i in keep1), *(ends[i] for i in keep2))
        incoming = (*(incoming[i] for i in keep1), *(piece.incoming[i] for i in keep2))
        pieces.append(piece)
    return pieces, mate, boundary, incoming


def _try_random_diagram(rng, n_ends, n_crossings, knot) -> Optional[TangleDiagram]:
    grown = _grow(rng, n_ends, n_crossings)
    if grown is None:
        return None
    pieces, mate, boundary, incoming = grown
    # cap adjacent ends down to n_ends, on a shape of edge ids that carries
    # no crossings and is named by its caps: each cap pairs its two ids in
    # ``mate``.  The cap that closes the diagram needs its outer region, so
    # it caps the validated diagram.
    s = tr.Shape("", (), boundary, tuple(tr._arc_labels(len(boundary))), incoming)
    for _ in range(50):
        if len(s.boundary) <= n_ends:
            break
        if len(s.boundary) == 2:
            d = _diagram(pieces, mate, s, closing=True)
            d = _first(tr._cap, ((d, a) for a in _shuffled(rng, d.arcs)))
            return None if d is None or d.split else d
        capped = _first(tr._cap_shape, ((s, a) for a in _shuffled(rng, s.arcs)))
        if capped is None:
            return None
        s, x, y = capped
        mate[x], mate[y] = y, x
    if len(s.boundary) != n_ends:
        return None
    d = _diagram(pieces, mate, s, knot=knot)
    return None if d.split else d


def random_knot_tangle(rng: random.Random, n_crossings: int) -> TangleDiagram:
    """A 2-ended diagram whose single component is open (a knot tangle).
    Each try is one ``random_diagram(rng, 2, n_crossings, knot=True)``,
    which ends at its first candidate with a closed strand, unbuilt;
    a 2-ended candidate without one is a knot."""
    for _ in range(_KNOT_TRIES):
        try:
            return random_diagram(rng, 2, n_crossings, knot=True)
        except TangleError:
            continue
    raise TangleError("E_GENERATION", "no knot tangle found")


def random_rm_sequence(rng: random.Random, d: TangleDiagram, moves: int):
    """Apply up to ``moves`` random legal Reidemeister moves; returns the
    final diagram and the list of (move, location) actually applied."""
    applied = []
    for _ in range(moves):
        options = [("RM1_insert", (rng.choice(d.edges), rng.choice("LR"), rng.choice((1, -1))))]
        # each edge side with the region beside it, read once
        sides = [(e, s, r) for e in d.edges for s in "LR"
                 for r in (d.region_beside(e, s),) if r is not None]
        rng.shuffle(sides)
        for e1, s1, r1 in sides:
            mates = [(e2, s2) for e2, s2, r2 in sides if e2 != e1 and r2 == r1]
            if mates:
                e2, s2 = rng.choice(mates)
                options.append(("RM2_insert", (e1, s1, e2, s2, rng.random() < 0.5)))
                break
        for ci in tr.find_kinks(d):
            options.append(("RM1_remove", ci))
        for rid in tr.find_bigons(d):
            options.append(("RM2_remove", rid))
        for rid in tr.find_triangles(d):
            options.append(("RM3", rid))
            options.append(("RM3", rid))  # weight slides up; they are rare
        move, loc = rng.choice(options)
        try:
            d = tr.apply_rm_move(d, move, loc)
            applied.append((move, loc))
        except TangleError:
            continue
    return d, applied


# ----------------------------------------------------------------------
# helpers shared by the checks

def _layout(*diagrams: TangleDiagram) -> dict[str, int]:
    """One digit per colour name of ``diagrams``, from digit 1 on in order of
    first appearance, for ``packed_family`` (h is on digit 0; at h = -1,
    colour c is on digit ``layout[c] - 1``)."""
    names = dict.fromkeys(c for d in diagrams for c in d.colours())
    return {c: k for k, c in enumerate(names, 1)}


def _mirrored(terms: dict[int, int]) -> dict[int, int]:
    """Every colour and h inverted: each packed exponent negated."""
    return {-e: c for e, c in terms.items()}


def _reversed(terms: dict[int, int], flips, shift: int = 0) -> dict[int, int]:
    """Hatted terms with c^x sent to c^-x h^-x for each colour c in
    ``flips``, given as (reader of its digit, 2 * its weight + 1), times
    h^shift (doubled)."""
    return {e - sum([read(e) * w for read, w in flips]) + shift: c for e, c in terms.items()}


def _binomial_times(terms: dict[int, int], x: int, unit: int = 1) -> dict[int, int]:
    """unit * (m - m^-1) * terms, for the packed monomial m = x: two
    shifted copies."""
    out: dict[int, int] = {}
    for e, c in terms.items():
        out[e + x] = out.get(e + x, 0) + unit * c
        out[e - x] = out.get(e - x, 0) - unit * c
    return {e: c for e, c in out.items() if c}


def _difference(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """a - b, zero terms dropped."""
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) - c
    return {e: c for e, c in out.items() if c}


def _at_unit(terms: dict[int, int], read, w: int, sign: int) -> dict[int, int]:
    """The terms with the colour on one digit (its reader and weight) set to
    ``sign``: that digit dropped and, at -1, each term times (-1)^(x/2) for
    its doubled exponent x there.  x is even: the checks set the colour of a
    knot or of a closed component, whose exponents are all integral."""
    out: dict[int, int] = {}
    for e, c in terms.items():
        x = read(e)
        k = e - x * w
        out[k] = out.get(k, 0) + (-c if sign < 0 and x & 2 else c)
    return {k: c for k, c in out.items() if c}


def _payload(**kw):
    out = {}
    for k, v in kw.items():
        if isinstance(v, TangleDiagram):
            out[k] = serialize(v)
        elif isinstance(v, LaurentPoly):
            out[k] = v.pretty()
        else:
            out[k] = v
    return out


def orientation_type(d: TangleDiagram):
    """(type, rotation) for a 4-ended diagram: type 1 has the two inward
    ends opposite, type 2 adjacent; rotation r normalizes the labels so the
    inward ends sit at positions {0, 2} (type 1) or {0, 1} (type 2)."""
    if len(d.boundary) != 4:
        raise TangleError("E_NOT_FOURENDED", "orientation type needs 4 ends")
    m = len(d.crossings)
    ins = {k for k in range(4) if not d.incoming[4 * m + k]}
    if ins in ({0, 2}, {1, 3}):
        return 1, (0 if ins == {0, 2} else 1)
    r = next(r for r in range(4) if ins == {r, (r + 1) % 4})
    return 2, r


def _normalized(d: TangleDiagram, family: dict, rotation: int) -> list:
    """The values of a site family at the sites {a}, {b}, {c}, {d} of the
    normalized position labels."""
    return [family[Site(frozenset({d.arcs[(i + rotation) % 4]}))] for i in range(4)]


# ----------------------------------------------------------------------
# the catalogue: each identity compared on packed site families

def _check_rm_invariance(rng, cases, fail):
    for k in range(cases):
        d = random_diagram(rng, rng.choice((2, 4, 4, 6)), rng.randint(1, 8))
        d2, moves = random_rm_sequence(rng, d, rng.randint(1, 6))
        lay = _layout(d, d2)
        if packed_family(d, lay, True) != packed_family(d2, lay, True):
            fail(_payload(case=k, diagram=d, moved=d2, moves=repr(moves)))


def _check_mirror(rng, cases, fail):
    for k in range(cases):
        d = random_diagram(rng, rng.choice((2, 4, 6)), rng.randint(1, 7))
        lay = _layout(d)
        lhs = packed_family(tr.mirror_diagram(d), lay)
        if lhs != {s: _mirrored(t) for s, t in packed_family(d, lay).items()}:
            fail(_payload(case=k, diagram=d))


def _check_reversal(rng, cases, fail):
    for k in range(cases):
        d = random_diagram(rng, rng.choice((2, 4, 6)), rng.randint(1, 7))
        lay = _layout(d)
        hats = packed_family(d, lay)
        flips = {c: (packed_digit(x), 2 * packed_weight(x) + 1) for c, x in lay.items()}
        # single strand: c -> c^-1 h^-1, times h^lk2
        colour = rng.choice(d.colours())
        lk2 = int(2 * linking_number(d, colour, "all")) if len(d.colours()) > 1 else 0
        r1 = tr.reverse_orientation(d, {colour})
        # all strands
        rall = tr.reverse_orientation(d, set(d.colours()))
        ok = (packed_family(r1, lay) == {s: _reversed(t, [flips[colour]], lk2)
                                         for s, t in hats.items()}
              and packed_family(rall, lay) == {s: _reversed(t, flips.values())
                                               for s, t in hats.items()})
        if not ok:
            fail(_payload(case=k, diagram=d, colour=colour))


def _check_skein(rng, cases, fail):
    done = 0
    guard = 0
    while done < cases and guard < cases * 40:
        guard += 1
        d = random_diagram(rng, rng.choice((2, 4)), rng.randint(1, 6))
        ci = rng.randrange(len(d.crossings))
        c = d.crossings[ci]
        cu = d.colour_of_edge[c.under[0]]
        co = d.colour_of_edge[c.over[0]]
        if cu != co:
            d = tr.recolour(d, {co: cu})
        plus = d if d.crossings[ci].sign > 0 else tr.switch_crossing(d, ci)
        minus = tr.switch_crossing(plus, ci)
        try:
            zero = tr.smooth_crossing(plus, ci)
        except TangleError:
            # the smoothed tangle has no valid connected diagram here
            continue
        done += 1
        k = done
        # every colour renamed to t: all on digit 1, so t on weight 1 at h = -1
        one = dict.fromkeys((*plus.colours(), *zero.colours()), 1)
        pluses, minuses, zeros = (packed_family(x, one, True) for x in (plus, minus, zero))
        t = 2 * packed_weight(0)
        if not all(_difference(pluses[s], minuses[s]) == _binomial_times(zeros[s], t)
                   for s in plus.sites()):
            fail(_payload(case=k, diagram=d, crossing=ci))


def _check_knot_pm_one(rng, cases, fail):
    read = packed_digit(0)
    for k in range(cases):
        d = random_knot_tangle(rng, rng.randint(1, 8))
        # the one colour on digit 0 at h = -1: at ±1 the value is a signed
        # sum of coefficients, on the key 0
        p = packed_family(d, {d.colours()[0]: 1}, True)[Site(frozenset())]
        if _at_unit(p, read, 1, 1) != {0: 1} or _at_unit(p, read, 1, -1) != {0: 1}:
            fail(_payload(case=k, diagram=d, value=nabla_all(d)[Site(frozenset())]))


def _check_set_pm_one(rng, cases, fail):
    done = 0
    guard = 0
    while done < cases and guard < cases * 60:
        guard += 1
        d = random_diagram(rng, rng.choice((2, 4)), rng.randint(2, 7))
        closed = [c.colour for c in d.components if c.kind == "closed" and c.edges]
        if not closed:
            continue
        t1 = rng.choice(closed)
        if sum(1 for c in d.components if c.colour == t1) > 1:
            continue
        try:
            rest = tr.delete_component(d, t1)
        except TangleError:
            # deletion can leave the remaining open strands in separate
            # pieces; that diagram of the remainder is not connected
            continue
        done += 1
        lks = {c: int(2 * linking_number(d, t1, c)) for c in d.colours() if c != t1}
        bad = _pm_one_failure(d, rest, t1, lks)
        if bad is not None:
            s, sign, unit = bad
            fail(_payload(case=done, diagram=d, colour=t1, site=str(s),
                          **_pm_one_sides(d, rest, t1, s, sign, lks, unit)))
            return


def _pm_one_failure(d: TangleDiagram, rest: TangleDiagram, t1: str, lks: dict[str, int]):
    """The first (site, sign, unit) at which the set_pm_one identity fails
    for the closed colour t1 of d, ``rest`` the diagram without it and
    ``lks`` its doubled linking numbers with the other colours; None if it
    holds at every site, for t1 = 1 and t1 = -1."""
    lay = _layout(d, rest)
    nd = packed_family(d, lay, True)
    nrest = (packed_family(rest, lay, True) if not rest.split
             else {s: {} for s in d.sites()})
    lk_total = sum(lks.values()) // 2
    # m = prod c^lk_c, so that the right-hand side is unit * (m - m^-1) * nrest
    m = sum(lk * packed_weight(lay[c] - 1) for c, lk in lks.items())
    read, w = packed_digit(lay[t1] - 1), packed_weight(lay[t1] - 1)
    for s in d.sites():
        for sign in (1, -1):
            unit = 1 if sign == 1 or (lk_total + 1) % 2 == 0 else -1
            if _at_unit(nd[s], read, w, sign) != _binomial_times(nrest[s], m, unit):
                return s, sign, unit
    return None


def _pm_one_sides(d, rest, t1, s, sign, lks, unit) -> dict[str, LaurentPoly]:
    """The two sides of the set_pm_one identity at s, as polynomials."""
    p = nabla_all(d)[s]
    lhs = p.substitute(t1, {}, sign) if t1 in p.vars else p
    fwd = LaurentPoly.monomial(1, {c: lk for c, lk in lks.items() if lk})
    bwd = LaurentPoly.monomial(1, {c: -lk for c, lk in lks.items() if lk})
    q = nabla_all(rest)[s] if not rest.split else LaurentPoly.zero()
    return {"lhs": lhs, "rhs": LaurentPoly.integer(unit) * (fwd - bwd) * q}


def _check_glueing(rng, cases, fail):
    for k in range(cases):
        d1 = random_diagram(rng, rng.choice((4, 6)), rng.randint(1, 4))
        d2 = random_diagram(rng, rng.choice((4, 6)), rng.randint(1, 4))
        rec = None
        for _ in range(40):
            s1 = rng.randrange(len(d1.boundary))
            s2 = rng.randrange(len(d2.boundary))
            count = rng.randint(1, min(len(d1.boundary), len(d2.boundary)) - 1)
            try:
                rec = tr.glue_diagrams(d1, d2, s1, s2, count)
                break
            except TangleError:
                continue
        if rec is None or rec.diagram.split:
            continue
        T = rec.diagram
        lay = _layout(T)
        hats_T = packed_family(T, lay)
        totals = _glued_sums(rec, d1, d2, lay)
        for s in T.sites():
            if totals[s] != hats_T[s]:
                fail(_payload(case=k, glued=T, site=str(s), got=_glued_value(rec, d1, d2, s),
                              expected=nabla_hat_all(T)[s]))
                return


def _glue_pairs(rec: tr.GlueRecord, d1: TangleDiagram, d2: TangleDiagram):
    """The site pairs of the glueing formula, as (glued site, site of d1,
    site of d2), d1's sites outermost: the pairs whose images are distinct
    regions that cover every closed region on the seam and, besides those,
    are exactly the glued site's open regions.  A site's images are a
    bitmask over the seam's closed regions and the open regions, so a pair
    test is a few int operations."""
    T = rec.diagram
    kind = {r.rid: r.kind for r in T.regions}
    seam = {rid for rid in (*rec.arc_map_1.values(), *rec.arc_map_2.values())
            if kind.get(rid) == "closed"}
    bit = {r.rid: 1 << k for k, r in enumerate(T.regions) if r.kind == "open" or r.rid in seam}
    seam_bits = sum(bit[rid] for rid in seam)
    target = {sum(bit[a] for a in s.arcs): s for s in T.sites()}

    def masks(d, arc_map):
        out = []
        for s in d.sites():
            img = {arc_map[a] for a in s.arcs}
            if len(img) == len(s.arcs) and img <= bit.keys():
                out.append((sum(bit[r] for r in img), s))
        return out

    side_2 = masks(d2, rec.arc_map_2)
    for m1, s1 in masks(d1, rec.arc_map_1):
        for m2, s2 in side_2:
            m = m1 | m2
            if m1 & m2 or m & seam_bits != seam_bits:
                continue
            s = target.get(m ^ seam_bits)
            if s is not None:
                yield s, s1, s2


def _glued_sums(rec: tr.GlueRecord, d1: TangleDiagram, d2: TangleDiagram,
                lay: dict[str, int]) -> dict[Site, dict[int, int]]:
    """The right-hand side of the glueing formula at every site of the
    glued diagram, packed under ``lay`` (a layout of its colours): the sum
    of the products of the pieces' hatted values over ``_glue_pairs``.  Each
    piece is packed with its colour c on the digit of its image iota(c), so
    colours the glue merges add their exponents and a product term is one
    int addition."""
    check_product(d1, d2)
    f1 = packed_family(d1, {c: lay[rec.iota_1.get(c, c)] for c in d1.colours()})
    f2 = packed_family(d2, {c: lay[rec.iota_2.get(c, c)] for c in d2.colours()})
    sums: dict[Site, dict[int, int]] = {s: {} for s in rec.diagram.sites()}
    for s, s1, s2 in _glue_pairs(rec, d1, d2):
        acc = sums[s]
        x2 = f2[s2]
        for e1, c1 in f1[s1].items():
            for e2, c2 in x2.items():
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
    return sums


def _glued_value(rec: tr.GlueRecord, d1: TangleDiagram, d2: TangleDiagram,
                 s: Site) -> LaurentPoly:
    """The right-hand side of the glueing formula at s as a polynomial: the
    ``+`` fold of its pairs' products, colours renamed by the iotas."""
    hats_1, hats_2 = nabla_hat_all(d1), nabla_hat_all(d2)
    out = LaurentPoly.zero()
    for t, s1, s2 in _glue_pairs(rec, d1, d2):
        if t == s:
            out = out + hats_1[s1].rename(rec.iota_1) * hats_2[s2].rename(rec.iota_2)
    return out


def _check_parity(rng, cases, fail):
    for k in range(cases):
        d = random_diagram(rng, rng.choice((2, 4, 6)), rng.randint(1, 8))
        lay = _layout(d)
        reads = [(v, packed_digit(lay[v] - 1)) for v in d.colours()]
        for s, t in packed_family(d, lay, True).items():
            for v, read in reads:
                if len({read(e) % 4 for e in t}) > 1:
                    fail(_payload(case=k, diagram=d, site=str(s), colour=v,
                                  value=nabla_all(d)[s]))
                    return


def _check_fourended(rng, cases, fail):
    seen = {1: 0, 2: 0}
    for k in range(cases):
        d = random_diagram(rng, 4, rng.randint(1, 7))
        flip = rng.random() < 0.5
        open_cols = [c.colour for c in d.components if c.kind == "open"]
        if flip:
            # flip the orientation type by reversing one open strand, while
            # the two open strands still have their own colours
            d = tr.reverse_orientation(d, {open_cols[0]})
        d = tr.recolour(d, {open_cols[1]: open_cols[0]})
        typ, rot = orientation_type(d)
        seen[typ] += 1
        rall = tr.reverse_orientation(d, set(d.colours()))
        # every colour renamed to t: all on one digit
        one = dict.fromkeys(d.colours(), 1)
        a, b, c, dd = _normalized(d, packed_family(d, one, True), rot)
        _, rb, rc, _ = _normalized(rall, packed_family(rall, one, True), rot)
        ok = a == rc == c and dd == rb
        if typ == 1:
            ok = ok and dd == b
        if not ok:
            fail(_payload(case=k, diagram=d, type=typ))
    return f"orientation types seen: 1 x{seen[1]}, 2 x{seen[2]}"


def _check_mutation_one(d: TangleDiagram, fail, case=0):
    if len(d.boundary) != 4:
        raise TangleError("E_HYPOTHESIS", "mutation invariance needs a 4-ended diagram")
    open_cols = {c.colour for c in d.components if c.kind == "open"}
    if len(open_cols) != 1:
        raise TangleError("E_HYPOTHESIS",
                          "mutation invariance needs equal colours on the open strands")
    lay = _layout(d)
    before = packed_family(d, lay, True)
    for axis in ("x", "y", "z"):
        md = tr.mutate_tangle(d, axis)
        after = packed_family(md, _layout(d, md), True)
        if not all(before[Site(frozenset({a}))] == after[Site(frozenset({a}))]
                   for a in d.arcs):
            fail(_payload(case=case, diagram=d, axis=axis))


def _check_mutation(rng, cases, fail):
    for k in range(cases):
        d = random_diagram(rng, 4, rng.randint(1, 7))
        open_cols = [c.colour for c in d.components if c.kind == "open"]
        d = tr.recolour(d, {open_cols[1]: open_cols[0]})
        _check_mutation_one(d, fail, case=k)


def _euler_char_one(d: TangleDiagram, fail, case=0):
    if not d.sites():
        raise TangleError("E_HYPOTHESIS", "the Euler characteristic identity needs a "
                          "diagram with ends: one without has no site to compare")
    chis = euler_characteristics(d)
    fac = euler_factor(d)
    nabs = nabla_all(d)
    for s in d.sites():
        ok, _ = chis[s].equal_up_to_unit(fac * nabs[s])
        if not ok:
            fail(_payload(case=case, diagram=d, site=str(s), chi=chis[s], nabla=nabs[s]))


def _check_euler_char(rng, cases, fail):
    for k in range(cases):
        _euler_char_one(random_diagram(rng, rng.choice((2, 4)), rng.randint(1, 6)),
                        fail, case=k)


def _mutorient_diagram() -> TangleDiagram:
    from .corpus import load
    return load("mutorient")


def _check_mutorient(rng, cases, fail, diagram: Optional[TangleDiagram] = None):
    d = diagram if diagram is not None else _mutorient_diagram()
    site_b = Site(frozenset({"b"}))
    closed = [c.colour for c in d.components if c.kind == "closed"]
    if not d.has_site(site_b) or not closed:
        raise TangleError("E_HYPOTHESIS", "the counterexample needs a diagram with a "
                          "site {b} and a closed strand to reverse")
    vals = nabla_all(d)
    expected = (LaurentPoly.monomial(1, {"p": 4, "r": 2})
                - binomial("r")
                - LaurentPoly.monomial(1, {"p": -4, "r": -2}))
    if vals[site_b] != expected:
        fail(_payload(diagram=d, got=vals[site_b], expected=expected))
        return
    rev = tr.reverse_orientation(d, {closed[0]})
    if nabla_all(rev)[site_b] == vals[site_b]:
        fail(_payload(diagram=d,
                      note="reversing the closed strand left the invariant unchanged"))


PROPERTIES: dict[str, Callable] = {
    "rm_invariance": _check_rm_invariance,
    "mirror": _check_mirror,
    "reversal": _check_reversal,
    "skein": _check_skein,
    "knot_pm_one": _check_knot_pm_one,
    "set_pm_one": _check_set_pm_one,
    "glueing": _check_glueing,
    "parity": _check_parity,
    "fourended_symmetry": _check_fourended,
    "mutation": _check_mutation,
    "euler_char": _check_euler_char,
    "mutorient_counterexample": _check_mutorient,
}


def run_check(prop: str, diagrams: Optional[list[TangleDiagram]] = None,
              seed: int = 0, cases: int = 25) -> CheckReport:
    """Run one catalogue property; deterministic for a given seed.  Given
    ``diagrams`` replace the generated ones; only ``mutation``,
    ``euler_char`` and ``mutorient_counterexample`` take them."""
    if prop not in PROPERTIES:
        raise TangleError("E_UNKNOWN_PROPERTY",
                          f"unknown property {prop!r}; known: {sorted(PROPERTIES)}")
    if diagrams and prop not in ("mutation", "euler_char", "mutorient_counterexample"):
        raise TangleError("E_HYPOTHESIS",
                          f"property {prop!r} runs on generated diagrams only")
    rng = random.Random(seed)
    failures: list = []
    note = ""
    fail = failures.append
    if prop == "mutation" and diagrams:
        for i, d in enumerate(diagrams):
            _check_mutation_one(d, fail, case=i)
        cases = len(diagrams)
    elif prop == "mutorient_counterexample":
        _check_mutorient(rng, cases, fail,
                         diagram=diagrams[0] if diagrams else None)
        cases = 1
    elif prop == "euler_char" and diagrams:
        for i, d in enumerate(diagrams):
            _euler_char_one(d, fail, case=i)
        cases = len(diagrams)
    else:
        note = PROPERTIES[prop](rng, cases, fail) or ""
    return CheckReport(prop, seed, cases, not failures, failures, note)
