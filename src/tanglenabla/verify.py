"""Property catalogue: every identity the invariants satisfy, runnable on
given diagrams or on seeded random ones, with machine-readable reports.

Random diagrams are grown by repeatedly glueing fresh one-crossing pieces
onto the boundary and capping adjacent ends, which keeps them connected and
planar by construction.  Pieces and caps are ``transform.Shape`` records.
Growth pairs ends by the glue rule of ``transform._glue_ends``, skipping an
option it rejects, and records the glued edge pairs on one union-find over
the final edge ids; the edges are renamed once, when the shape is grown.
Caps use the transforms' own cap rule.  Only the result is validated, its
strands, walked on the shape's edge maps, coloured t1, t2, ... in component
order; a knot tangle drops a shape with a closed strand before that.  The
cap closing the last two ends needs the outer region, so it caps a diagram.
The glueing check sums its pieces' products on packed terms, in one pass
over site pairs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import transform as tr
from .diagram import (Crossing, Site, TangleDiagram, TangleError, UnionFind,
                      linking_number, serialize)
from .gradings import euler_characteristics
from .laurent import H, LaurentPoly, _order_vars, binomial
from .nabla import _packer, _unpacker, euler_factor, nabla_all, nabla_hat_all


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

def _fresh_piece(rng: random.Random, idx: int) -> tr.Shape:
    """A random one-crossing tangle with fresh edge ids: a crossing of random
    sign whose under strand u and over strand o are each reversed at random,
    as ``reverse_orientation`` would (then named ``piece<idx>_rev``).  The
    edges of piece 0 are ``p0_k``; those of a later piece ``g_p<idx>_k``,
    the ids that ``transform._glue_shapes`` gives them on glueing."""
    e = [f"{'g_' if idx else ''}p{idx}_{k}" for k in range(4)]
    c = Crossing(rng.choice((1, -1)), (e[0], e[1]), (e[2], e[3]))
    colours = rng.choice((set(), {"u"}, {"o"}, {"u", "o"}))
    r = c.reversed("u" in colours, "o" in colours)
    # an end is incoming where its edge leaves the crossing
    return tr.Shape(f"piece{idx}_rev" if colours else f"piece{idx}", (r,), c.slots(),
                    ("a", "b", "c", "d"), tuple(x in (r.under[1], r.over[1]) for x in c.slots()))


def _strands(s: tr.Shape) -> tuple[list[str], list[str]]:
    """The strands of a shape, walked on its under and over in -> out edge
    maps: the least edge of each open strand, in the order of the boundary
    edges they leave from, and the least edge of each closed strand,
    sorted."""
    follow = {e: f for c in s.crossings for e, f in (c.under, c.over)}
    seen: set[str] = set()

    def least(e):
        out = e
        while e is not None and e not in seen:
            seen.add(e)
            out = min(out, e)
            e = follow.get(e)
        return out

    opens = [least(e) for e, inc in zip(s.boundary, s.incoming) if not inc]
    return opens, sorted([least(e) for e in follow if e not in seen])


def _diagram(s: tr.Shape, closing: bool = False, knot: bool = False) -> TangleDiagram:
    """The diagram of a grown shape, its strands coloured t1, t2, ... in
    component order: open ones by the end they leave from, then closed ones
    by least edge (all by least edge when ``closing`` its last two ends).
    With ``knot``, a shape with a closed strand raises E_GENERATION before
    it is constructed."""
    opens, closed = _strands(s)
    if knot and closed:
        raise TangleError("E_GENERATION", "the shape has a closed strand")
    order = sorted(opens + closed) if closing else opens + closed
    return TangleDiagram(s.name, s.crossings, s.boundary, s.arcs,
                         {e: f"t{i + 1}" for i, e in enumerate(order)})


def random_diagram(rng: random.Random, n_ends: int = 4, n_crossings: int = 6,
                   max_tries: int = 200) -> TangleDiagram:
    """A random connected oriented tangle diagram with the requested number
    of boundary ends and crossings.  Components get colours t1, t2, ...
    """
    return _random_diagram(rng, n_ends, n_crossings, max_tries)


def _random_diagram(rng, n_ends, n_crossings, max_tries=200, knot=False) -> TangleDiagram:
    """``random_diagram``; with ``knot``, a grown shape with a closed strand
    raises E_GENERATION before it is constructed (see ``_diagram``)."""
    if n_ends < 0 or n_ends % 2:
        raise TangleError("E_GENERATION", f"no diagram has {n_ends} boundary ends")
    n_crossings = max(n_crossings, (n_ends - 2) // 2, 1)
    for _ in range(max_tries):
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


def _grow(rng, n_ends, n_crossings) -> Optional[tr.Shape]:
    """Glue fresh pieces onto piece 0 until the shape has ``n_crossings``,
    each at the first option (glue size, end of the shape, end of the
    piece, in shuffled order) whose ends ``transform._glue_ends`` pairs;
    None if a piece has no such option.  One union-find over the final
    edge ids records the glued pairs, and the edges are renamed once, at
    the end, to the least id of their pair, as ``_glue_shapes`` renames
    them glue by glue."""
    s = _fresh_piece(rng, 0)
    name, crossings, boundary, incoming = s.name, list(s.crossings), s.boundary, s.incoming
    edges = UnionFind()
    while len(crossings) < n_crossings:
        ends = len(boundary)
        piece = _fresh_piece(rng, len(crossings))
        js = [j for j in (1, 2, 3) if ends + 4 - 2 * j >= max(n_ends, 2) and j < ends]
        options = ((s1, s2, j) for j in _shuffled(rng, js or [1])
                   for s1 in _shuffled(rng, range(ends)) for s2 in _shuffled(rng, range(4)))
        plan = next(filter(None, (tr._glue_ends(incoming, piece.incoming, *o)
                                  for o in options)), None)
        if plan is None:
            return None
        pairs, keep1, keep2 = plan
        for p1, p2 in pairs:
            edges.union(boundary[p1], piece.boundary[p2])
        name = f"{name}+{piece.name}"
        crossings += piece.crossings
        boundary = (*(boundary[i] for i in keep1), *(piece.boundary[i] for i in keep2))
        incoming = (*(incoming[i] for i in keep1), *(piece.incoming[i] for i in keep2))
    return tr.Shape(name, tuple(c.renamed(edges.find) for c in crossings), boundary,
                    tuple(tr._arc_labels(len(boundary))), incoming)


def _try_random_diagram(rng, n_ends, n_crossings, knot) -> Optional[TangleDiagram]:
    s = _grow(rng, n_ends, n_crossings)
    # cap adjacent ends down to n_ends; the cap that closes the diagram needs
    # its outer region, so it caps the validated diagram
    for _ in range(50):
        if s is None or len(s.boundary) <= n_ends:
            break
        closing = len(s.boundary) == 2
        if closing:
            s = _diagram(s, closing=True)
        cap = tr._cap if closing else lambda s, a: tr._cap_shape(s, a)[0]
        s = _first(cap, ((s, a) for a in _shuffled(rng, s.arcs)))
    if s is None or len(s.boundary) != n_ends:
        return None
    d = s if isinstance(s, TangleDiagram) else _diagram(s, knot=knot)
    return None if d.split else d


def random_knot_tangle(rng: random.Random, n_crossings: int,
                       max_tries: int = 400) -> TangleDiagram:
    """A 2-ended diagram whose single component is open (a knot tangle).
    Each try is one ``random_diagram(rng, 2, n_crossings)`` that ends at
    its first candidate with a closed strand, before that is constructed;
    a 2-ended candidate without one is a knot."""
    for _ in range(max_tries):
        try:
            return _random_diagram(rng, 2, n_crossings, knot=True)
        except TangleError:
            continue
    raise TangleError("E_GENERATION", "no knot tangle found")


def random_rm_sequence(rng: random.Random, d: TangleDiagram, moves: int):
    """Apply up to ``moves`` random legal Reidemeister moves; returns the
    final diagram and the list of (move, location) actually applied."""
    applied = []
    for _ in range(moves):
        options = [("RM1_insert", (rng.choice(d.edges), rng.choice("LR"), rng.choice((1, -1))))]
        sides = [(e, s) for e in d.edges for s in "LR"
                 if d.region_beside(e, s) is not None]
        rng.shuffle(sides)
        for (e1, s1) in sides:
            mates = [(e2, s2) for (e2, s2) in sides
                     if e2 != e1 and d.region_beside(e2, s2) == d.region_beside(e1, s1)]
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

def _sub_if(p: LaurentPoly, var: str, repl, sign=1) -> LaurentPoly:
    return p.substitute(var, repl, sign) if var in p.vars else p


def _invert_all(p: LaurentPoly, colours, invert_h=False) -> LaurentPoly:
    for v in colours:
        p = _sub_if(p, v, {v: -2})
    if invert_h:
        p = _sub_if(p, H, {H: -2})
    return p


def _single_variable(p: LaurentPoly, colours, t="t") -> LaurentPoly:
    return p.rename({c: t for c in colours})


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


def normalized_nabla(d: TangleDiagram, rotation: int) -> dict[str, LaurentPoly]:
    """Site values keyed by normalized position labels a, b, c, d."""
    vals = nabla_all(d)
    labels = "abcd"
    out = {}
    for i in range(4):
        orig = d.arcs[(i + rotation) % 4]
        out[labels[i]] = vals[Site(frozenset({orig}))]
    return out


# ----------------------------------------------------------------------
# the catalogue

def _check_rm_invariance(rng, cases, fail):
    for k in range(cases):
        d = random_diagram(rng, rng.choice((2, 4, 4, 6)), rng.randint(1, 8))
        before = nabla_all(d)
        d2, moves = random_rm_sequence(rng, d, rng.randint(1, 6))
        after = nabla_all(d2)
        if before != after:
            fail(_payload(case=k, diagram=d, moved=d2, moves=repr(moves)))


def _check_mirror(rng, cases, fail):
    for k in range(cases):
        d = random_diagram(rng, rng.choice((2, 4, 6)), rng.randint(1, 7))
        m = tr.mirror_diagram(d)
        lhs = nabla_hat_all(m)
        rhs = {s: _invert_all(p, d.colours(), invert_h=True)
               for s, p in nabla_hat_all(d).items()}
        if lhs != rhs:
            fail(_payload(case=k, diagram=d))


def _check_reversal(rng, cases, fail):
    for k in range(cases):
        d = random_diagram(rng, rng.choice((2, 4, 6)), rng.randint(1, 7))
        hats = nabla_hat_all(d)
        # single strand
        colour = rng.choice(d.colours())
        lk2 = int(2 * linking_number(d, colour, "all")) if len(d.colours()) > 1 else 0
        r1 = tr.reverse_orientation(d, {colour})
        pref = LaurentPoly.monomial(1, {H: lk2} if lk2 else {})
        ok = True
        for s, p in nabla_hat_all(r1).items():
            rhs = pref * _sub_if(hats[s], colour, {colour: -2, H: -2})
            ok = ok and p == rhs
        # all strands
        rall = tr.reverse_orientation(d, set(d.colours()))
        for s, p in nabla_hat_all(rall).items():
            rhs = hats[s]
            for v in d.colours():
                rhs = _sub_if(rhs, v, {v: -2, H: -2})
            ok = ok and p == rhs
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
        cols = set(plus.colours()) | set(zero.colours())
        t = binomial("t")
        pluses, minuses, zeros = nabla_all(plus), nabla_all(minus), nabla_all(zero)
        ok = True
        for s in plus.sites():
            a = _single_variable(pluses[s], cols)
            b = _single_variable(minuses[s], cols)
            cc = _single_variable(zeros[s], cols)
            ok = ok and (a - b == t * cc)
        if not ok:
            fail(_payload(case=k, diagram=d, crossing=ci))


def _check_knot_pm_one(rng, cases, fail):
    one = LaurentPoly.integer(1)
    for k in range(cases):
        d = random_knot_tangle(rng, rng.randint(1, 8))
        p = nabla_all(d)[Site(frozenset())]
        colour = d.colours()[0]
        at_plus = _sub_if(p, colour, {})
        at_minus = _sub_if(p, colour, {}, sign=-1)
        if at_plus != one or at_minus != one:
            fail(_payload(case=k, diagram=d, value=p))


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
        nd = nabla_all(d)
        nrest = nabla_all(rest) if not rest.split else {s: LaurentPoly.zero()
                                                        for s in d.sites()}
        others = [c for c in d.colours() if c != t1]
        lks = {c: int(2 * linking_number(d, t1, c)) for c in others}
        lk_total = sum(lks.values()) // 2
        fwd = LaurentPoly.monomial(1, {c: lk for c, lk in lks.items() if lk})
        bwd = LaurentPoly.monomial(1, {c: -lk for c, lk in lks.items() if lk})
        for s in d.sites():
            for sign in (1, -1):
                lhs = _sub_if(nd[s], t1, {}, sign=sign)
                unit = 1 if sign == 1 or (lk_total + 1) % 2 == 0 else -1
                rhs = LaurentPoly.integer(unit) * (fwd - bwd) * nrest[s]
                if lhs != rhs:
                    fail(_payload(case=done, diagram=d, colour=t1, site=str(s),
                                  lhs=lhs, rhs=rhs))
                    return


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
        hats_T = nabla_hat_all(T)
        totals = _glued_sums(rec, nabla_hat_all(d1), nabla_hat_all(d2))
        for s in T.sites():
            if totals[s] != hats_T[s]:
                fail(_payload(case=k, glued=T, site=str(s),
                              got=totals[s], expected=hats_T[s]))
                return


def _glued_sums(rec: tr.GlueRecord, hats_1: dict[Site, LaurentPoly],
                hats_2: dict[Site, LaurentPoly]) -> dict[Site, LaurentPoly]:
    """The right-hand side of the glueing formula at every site of the
    glued diagram: the sum of ``hats_1[s1] * hats_2[s2]``, colours renamed
    by the record's iotas, over the site pairs whose images are distinct
    regions that cover every closed region on the seam and, besides those,
    are exactly the site's open regions.

    Each piece polynomial is packed once (``nabla._packer``), one digit per
    glued colour and h: a colour takes the digit of its iota image, so
    colours the glue merges add their exponents, and a product term is one
    int addition.  A site's arc images are a bitmask over the seam's closed
    regions and the open regions, so a pair test is a few int operations.
    Each glued site sums its product terms in one int -> coef map and is
    built once (``nabla._unpacker``), over the table of the ``+`` fold of its
    products in pair order: the union of its pairs' renamed tables in that
    order, one entry per distinct pair of tables."""
    T = rec.diagram
    kind = {r.rid: r.kind for r in T.regions}
    seam = {rid for rid in (*rec.arc_map_1.values(), *rec.arc_map_2.values())
            if kind.get(rid) == "closed"}
    bit = {r.rid: 1 << k for k, r in enumerate(T.regions) if r.kind == "open" or r.rid in seam}
    seam_bits = sum(bit[rid] for rid in seam)
    target = {sum(bit[a] for a in s.arcs): s for s in T.sites()}
    digit: dict[str, int] = {}

    def packed(hats, arc_map, iota, tables):
        """Per site whose images are distinct regions with a bit: the mask
        of its images, the index of its renamed table in ``tables`` and its
        packed terms."""
        index: dict[tuple[str, ...], tuple[int, Callable]] = {}
        out = []
        for s, p in hats.items():
            img = {arc_map[a] for a in s.arcs}
            if len(img) != len(s.arcs) or not img <= bit.keys():
                continue
            t = index.get(p.vars)
            if t is None:
                names = [iota.get(v, v) for v in p.vars]
                t = index[p.vars] = (len(tables), _packer([digit.setdefault(n, len(digit))
                                                           for n in names]))
                tables.append(names)
            out.append((sum(bit[r] for r in img), t[0], t[1](p.terms)))
        return out

    tables_1: list[list[str]] = []
    tables_2: list[list[str]] = []
    side_2 = packed(hats_2, rec.arc_map_2, rec.iota_2, tables_2)
    sums: dict[Site, dict[int, int]] = {s: {} for s in target.values()}
    pairs: dict[Site, dict[tuple[int, int], None]] = {s: {} for s in target.values()}
    for m1, t1, x1 in packed(hats_1, rec.arc_map_1, rec.iota_1, tables_1):
        for m2, t2, x2 in side_2:
            m = m1 | m2
            if m1 & m2 or m & seam_bits != seam_bits:
                continue
            s = target.get(m ^ seam_bits)
            if s is None:
                continue
            pairs[s][t1, t2] = None
            acc = sums[s]
            for e1, c1 in x1.items():
                for e2, c2 in x2.items():
                    e = e1 + e2
                    acc[e] = acc.get(e, 0) + c1 * c2
    folds: dict[tuple, tuple] = {}     # a site's pairs of tables -> its table, unpacker
    out = {}
    for s in T.sites():
        key = tuple(pairs[s])
        fold = folds.get(key)
        if fold is None:
            vs = _order_vars(v for t1, t2 in key for v in (*tables_1[t1], *tables_2[t2]))
            fold = folds[key] = (vs, _unpacker(len(digit), [digit[v] for v in vs]))
        vs, unpack = fold
        out[s] = LaurentPoly._canonical(vs, unpack(sums[s]))
    return out


def _check_parity(rng, cases, fail):
    for k in range(cases):
        d = random_diagram(rng, rng.choice((2, 4, 6)), rng.randint(1, 8))
        for s, p in nabla_all(d).items():
            for v in d.colours():
                exps = p.exponents_of(v)
                if len({e % 4 for e in exps}) > 1:
                    fail(_payload(case=k, diagram=d, site=str(s), colour=v, value=p))
                    return


def _check_fourended(rng, cases, fail):
    seen = {1: 0, 2: 0}
    for k in range(cases):
        d = random_diagram(rng, 4, rng.randint(1, 7))
        open_cols = [c.colour for c in d.components if c.kind == "open"]
        d = tr.recolour(d, {open_cols[1]: open_cols[0]})
        if rng.random() < 0.5:
            # flip the orientation type by reversing one open strand; both
            # open strands share a colour, so reverse its edges, not its colour
            comp = next(c for c in d.components if c.kind == "open")
            crossings, dirs = tr._reversed(d, d.crossings, set(comp.edges))
            d = tr._rebuild(d, crossings=crossings, edge_dirs=dirs, name=d.name + "_rev")
        typ, rot = orientation_type(d)
        seen[typ] += 1
        vals = normalized_nabla(d, rot)
        rall = tr.reverse_orientation(d, set(d.colours()))
        vals_r = normalized_nabla(rall, rot)
        cols = set(d.colours())
        f = lambda p: _single_variable(p, cols)
        ok = (f(vals["a"]) == f(vals_r["c"]) == f(vals["c"])
              and f(vals["d"]) == f(vals_r["b"]))
        if typ == 1:
            ok = ok and f(vals["d"]) == f(vals["b"])
        if not ok:
            fail(_payload(case=k, diagram=d, type=typ))
    return f"orientation types seen: 1 x{seen[1]}, 2 x{seen[2]}"


def _check_mutation_one(d: TangleDiagram, fail, case=0):
    open_cols = {c.colour for c in d.components if c.kind == "open"}
    if len(open_cols) != 1:
        raise TangleError("E_HYPOTHESIS",
                          "mutation invariance needs equal colours on the open strands")
    before = nabla_all(d)
    for axis in ("x", "y", "z"):
        md = tr.mutate_tangle(d, axis)
        after = nabla_all(md)
        same = all(before[Site(frozenset({a}))] == after[Site(frozenset({a}))]
                   for a in d.arcs)
        if not same:
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
    vals = nabla_all(d)
    site_b = Site(frozenset({"b"}))
    expected = (LaurentPoly.monomial(1, {"p": 4, "r": 2})
                - binomial("r")
                - LaurentPoly.monomial(1, {"p": -4, "r": -2}))
    if vals[site_b] != expected:
        fail(_payload(diagram=d, got=vals[site_b], expected=expected))
        return
    closed = [c.colour for c in d.components if c.kind == "closed"]
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
