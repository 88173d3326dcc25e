"""The state-sum invariants and the two-ended specialization to the Conway
potential.

The hatted site value ∇̂_s is the sum, over the Kauffman states at s, of
the product of the per-crossing quadrant codes (``TangleDiagram.quadrants``).
The codes are local, so the sum is taken crossing by crossing: a forward
pass over the crossings 0..m-1 keeps, per frontier key, the partial sum of
every prefix state that reaches it, multiplies it by the corner monomial of
each quadrant the walk of ``states.walk_tables`` admits, and merges prefixes
with equal keys.  The key is the walk's ``filled & live[i]``; for the full
family it also keeps the open regions filled so far, so the final keys are
the sites.  No state is built.

A monomial is one int: its doubled exponents (h, then the colours) are 20-bit
balanced digits, so multiplying by a corner monomial adds two ints (a
crossing moves a digit by at most 2, so any m below 2^18 fits).  Each term
carries its coefficient, a count of states, and the least prefix state (a
base-4 int, which orders like the marker vectors) that gives it.  The
variable table is the one that summing the states in lex order gives: a
colour ranks by the lex-least state in which its exponent is non-zero, then
by its first ``(crossing, slot of corner.exp2)`` in that state, and h comes
last if any state has a non-zero h exponent.  ``eval_h`` keeps the table, so
a colour whose terms cancel at h = -1 stays in it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .diagram import Site, TangleDiagram, TangleError
from .laurent import H, LaurentError, LaurentPoly, binomial
from .states import walk_tables

_BITS = 20
_MASK = (1 << _BITS) - 1
_HALF = 1 << (_BITS - 1)


def _packing(d: TangleDiagram) -> tuple[list[str], list[tuple[int, ...]]]:
    """The variable of each digit (h, then the colours in the order the
    corner codes name them) and, per crossing, each corner's packed monomial."""
    at = {H: 0}
    shifts = [tuple(c.h2 + sum(e << _BITS * at.setdefault(v, len(at)) for v, e in c.exp2)
                    for c in row) for row in d.quadrants]
    return list(at), shifts


def _frontier(d: TangleDiagram, s: Optional[Site],
              shifts: list[tuple[int, ...]]) -> dict[Site, dict[int, list[int]]]:
    """The packed state sums per site reached (only ``s``, if given), each
    a map from packed exponent to ``[coef, least state]``."""
    tables = walk_tables(d, s)
    if tables is None:
        return {}
    bits, live, start, children = tables
    keep = 0 if s is not None else sum(
        1 << k for k, r in enumerate(d.regions) if r.kind == "open")
    frontier = {start: {0: [1, 0]}}
    for i, row in enumerate(shifts):
        out: dict[int, dict[int, list[int]]] = {}
        lv = live[i]
        row_bits = bits[i]
        for key, terms in frontier.items():
            for q, nxt in children(i, key & lv):
                sh = row[q]
                k2 = nxt | (key | row_bits[q]) & keep
                dst = out.get(k2)
                if dst is None:
                    out[k2] = {e + sh: [c, 4 * l + q] for e, (c, l) in terms.items()}
                    continue
                for e, (c, l) in terms.items():
                    l = 4 * l + q
                    t = dst.get(e + sh)
                    if t is None:
                        dst[e + sh] = [c, l]
                    else:
                        t[0] += c
                        if l < t[1]:
                            t[1] = l
        frontier = out
    children.cache_clear()   # it refers to itself: free the memo now
    if s is not None:
        return {s: terms for terms in frontier.values()}
    arcs = [(k, r.rid) for k, r in enumerate(d.regions) if r.kind == "open"]
    return {Site(frozenset(a for k, a in arcs if key >> k & 1)): terms
            for key, terms in frontier.items()}


def _decode(d: TangleDiagram, names: list[str], terms: dict[int, list[int]]) -> LaurentPoly:
    """The polynomial of packed terms, with the variable table of the
    module docstring."""
    if not terms:
        return LaurentPoly.zero()
    # with _HALF added to every digit, each digit reads off without a
    # borrow, and x ^ bias has a zero digit where x's digit is zero
    bias = _HALF * ((1 << _BITS * len(names)) - 1) // _MASK
    rows = sorted((least, e + bias, c) for e, (c, least) in terms.items())
    used = 0
    for _, e, _ in rows:
        used |= e ^ bias
    todo = {k for k in range(1, len(names)) if used >> (_BITS * k) & _MASK}
    m = len(d.quadrants)
    order = []
    for least, e, _ in rows:   # distinct terms have distinct least states
        if not todo:
            break
        new = {k for k in todo if (e ^ bias) >> (_BITS * k) & _MASK}
        if len(new) > 1:
            # in the order of their first (crossing, slot of corner.exp2) here
            seen = dict.fromkeys(v for ci, row in enumerate(d.quadrants)
                                 for v, _ in row[least >> 2 * (m - 1 - ci) & 3].exp2)
            order += [k for k in map(names.index, seen) if k in new]
        else:
            order += new
        todo -= new
    if used & _MASK:
        order.append(0)   # h
    ats = [_BITS * k for k in order]
    return LaurentPoly([names[k] for k in order],
                       {tuple([(e >> at & _MASK) - _HALF for at in ats]): c
                        for _, e, c in rows})


def nabla_hat_all(d: TangleDiagram) -> dict[Site, LaurentPoly]:
    """The full family of hatted state sums, one per site (h unevaluated),
    from one frontier pass whose final keys are the sites."""
    names, shifts = _packing(d)
    sums = _frontier(d, None, shifts)
    return {s: _decode(d, names, sums.get(s, {})) for s in d.sites()}


def check_site(d: TangleDiagram, s: Site) -> None:
    """Raise ``E_BAD_SITE`` unless ``s`` is one of ``d.sites()``."""
    if s not in d.sites():
        raise TangleError("E_BAD_SITE", f"no site {s} on diagram {d.name!r}")


def nabla_hat(d: TangleDiagram, s: Site) -> LaurentPoly:
    """The hatted state sum at one site, from a frontier pass that starts
    with the open regions outside s filled, so it meets only the states at
    s; the variable table is the one ``nabla_hat_all`` gives at s."""
    check_site(d, s)
    names, shifts = _packing(d)
    return _decode(d, names, _frontier(d, s, shifts).get(s, {}))


def nabla_at_site(d: TangleDiagram, s: Site) -> LaurentPoly:
    return nabla_hat(d, s).eval_h()


def nabla_all(d: TangleDiagram) -> dict[Site, LaurentPoly]:
    return {s: p.eval_h() for s, p in nabla_hat_all(d).items()}


@dataclass(frozen=True)
class ConwayPotential:
    """The empty-site value of a 2-ended tangle together with the declared
    divisor (c - c^{-1}) for the open colour c; `quotient` is filled in when
    the division is exact (always the case with closed components present)."""

    numerator: LaurentPoly
    colour: str
    quotient: Optional[LaurentPoly]

    def pretty(self) -> str:
        if self.quotient is not None:
            return self.quotient.pretty()
        return f"({self.numerator.pretty()}) / ({self.colour} - {self.colour}^-1)"


def conway_potential(d: TangleDiagram) -> ConwayPotential:
    if d.n_open != 1:
        raise TangleError("E_NOT_TWO_ENDED", f"diagram has {2 * d.n_open} ends")
    open_colour = next(c.colour for c in d.components if c.kind == "open")
    num = nabla_at_site(d, Site(frozenset()))
    try:
        quot = num.divide_binomial(open_colour)
    except LaurentError:
        quot = None
    return ConwayPotential(num, open_colour, quot)


def euler_factor(d: TangleDiagram) -> LaurentPoly:
    """Product of (c - c^{-1}) over the closed components of the diagram."""
    out = LaurentPoly.integer(1)
    for comp in d.components:
        if comp.kind == "closed":
            out = out * binomial(comp.colour)
    return out
