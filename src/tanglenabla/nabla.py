"""The state-sum invariants and the two-ended specialization to the Conway
potential.

The hatted site value ∇̂_s is the sum, over the Kauffman states at s, of
the product of the per-crossing corner codes (``diagram.CORNER_RULE``,
packed by ``TangleDiagram.corner_codes``).
The codes are local, so the sum is taken crossing by crossing, by the one
pass over the states, ``states.frontier``: per frontier key it keeps the
partial sum of every prefix state that reaches it, multiplies it by the
corner monomial of each admitted quadrant and merges prefixes with equal
keys.  For the full family the final keys are the sites.  No state is built.

A monomial is one int: its doubled exponents (h, then the colours) are 20-bit
balanced digits, so multiplying by a corner monomial adds two ints (a
crossing moves a digit by at most 2, so any m below 2^18 fits).  Each term
carries one int: its coefficient, a signed count of states, offset by half
the range of the low ``states.count_bits(m)`` bits that hold it, and above
it the least state that gives it, as its base-4 marker code, which orders
like the marker vectors; so a site's terms sort by their least states as
ints.  The variable table is the one that summing the states in lex order
gives: a colour ranks by the lex-least state in which its exponent is
non-zero, then by the first corner of that state that lists it, and h comes
last if any state has a non-zero h exponent.  A corner lists its under colour before its over
colour, and at a self-crossing the one colour with the sum of its two
halves, or not at all if they cancel.  That table is canonical, so the
decoder builds its polynomial without re-ordering it.  ``_packing`` is
the one statement of that tie-break: it lists, once per diagram, the
colour digits of each corner in that order.

``nabla_all``, ``nabla_at_site`` and ``conway_potential`` take the value at
h = -1 straight from the pass: its codes have no h digit and the quadrant
whose corner carries h negates the count (``frontier(..., at_h=True)``), so
terms that differ only in h are added inside the pass and the decoder reads
one signed row per term.  A term whose states cancel keeps its least state,
so the table is the hatted one without h, and a colour whose terms cancel
stays in it, as ``LaurentPoly.eval_h`` keeps it.  Only ``nabla --hat``
(``nabla_hat_all``, ``nabla_hat``) keeps the h digit; no hatted polynomial
is built for the values at h = -1.

``packed_family`` gives the family undecoded, ``{site: {int: coef}}``, under
a layout of colour digits that its caller shares between diagrams, so the
catalogue compares and transforms families as int maps.  It runs the pass
with counts alone, signed at h = -1, so the pass's maps are its result.
The layout is the same at every h: at h = -1 digit 0 is empty and each
colour keeps its digit, as in ``_packing``.
``packed_digit`` and ``packed_weight`` read and build its digits, and
``check_product`` guards a product of two families against digit overflow.
"""

from __future__ import annotations

from typing import Callable, Mapping, NamedTuple, Optional

from .diagram import CORNER_RULE, Site, TangleDiagram, TangleError
from .laurent import H, LaurentError, LaurentPoly, binomial
from .states import count_bits, frontier

_BITS = 20
_MASK = (1 << _BITS) - 1
_HALF = 1 << (_BITS - 1)


def _packing(d: TangleDiagram, h: int):
    """Per crossing, each corner's packed monomial: colour k of
    ``d.colours()`` on digit k + 1 and h2 times ``h`` in digit 0, so none at
    h = -1; and per crossing and quadrant, the digits of the colours with a
    non-zero exponent there: the under colour first, and at a self-crossing
    its one digit, listed only if the halves of its two strands do not
    cancel."""
    weight = [packed_weight(k) for k in range(1, len(d.colours()) + 1)]
    firsts = [[(u + 1, o + 1)] * 4 if u != o else
              [(u + 1,) if eu + eo else () for eu, eo, _, _ in CORNER_RULE[sign < 0]]
              for sign, u, o, *_ in d.corners]
    return d.corner_codes(weight, h), firsts


def _bias(n: int) -> int:
    """_HALF in each of n digits: with it added, every digit of a packed
    exponent reads off without a borrow, as ``(e >> _BITS * k & _MASK) -
    _HALF``, and e ^ bias has a zero digit where e's digit is zero."""
    return _HALF * ((1 << _BITS * n) - 1) // _MASK


def packed_family(d: TangleDiagram, digit: Mapping[str, int],
                  at_h: bool = False) -> dict[Site, dict[int, int]]:
    """The state sum at every site of ``d`` as packed terms, ``{int: coef}``,
    under a layout that the caller shares between diagrams: h on digit 0 and
    colour c on digit ``digit[c]``, so colours given one digit add their
    exponents.  A site that no state reaches maps to {}.  With ``at_h``, the
    value at h = -1, from the signed pass: digit 0 is empty, each colour
    keeps its digit, and terms that cancel go.  One frontier pass, and no
    polynomial is built.

    A crossing moves a digit by at most 2, so the digits of an m-crossing
    family stay within 2m, and a product of families (``check_product``)
    stays in range while their crossings add up to less than 2^18."""
    weight = [packed_weight(digit[c]) for c in d.colours()]
    sums = frontier(d, None, d.corner_codes(weight, not at_h), at_h=at_h)
    if not at_h:
        return {s: sums.get(s, {}) for s in d.sites()}
    return {s: {e: c for e, c in sums.get(s, {}).items() if c} for s in d.sites()}


def packed_weight(k: int) -> int:
    """The packed int of doubled exponent 1 on digit k."""
    return 1 << _BITS * k


def packed_digit(k: int) -> Callable[[int], int]:
    """The reader of digit k of a packed term: its doubled exponent there."""
    bias, at = _bias(k + 1), _BITS * k
    return lambda e: (e + bias >> at & _MASK) - _HALF


def check_product(*diagrams: TangleDiagram) -> None:
    """Raise E_EXPONENT_RANGE unless the product of packed families of
    ``diagrams`` keeps every digit below _HALF: their crossings must add up
    to less than 2^18."""
    if sum(len(d.crossings) for d in diagrams) >= _HALF >> 1:
        raise LaurentError("E_EXPONENT_RANGE", "too many crossings to multiply packed families")


def _decode(colours: tuple[str, ...], firsts: list, terms: dict[int, int]) -> LaurentPoly:
    """The polynomial of packed terms (``frontier``'s, with their least
    states), with the variable table of the module docstring: h is in it
    only if some term has a non-zero h digit, and a colour whose terms
    cancelled at h = -1 stays in it."""
    if not terms:
        return LaurentPoly._canonical((), {})
    bias = _bias(len(colours) + 1)
    m = len(firsts)
    k0 = count_bits(m)
    mask, half = (1 << k0) - 1, 1 << k0 - 1
    # distinct terms have distinct least states, so the ints sort by them
    rows = sorted([(v, e + bias) for e, v in terms.items()])
    # the digits that are non-zero in some row: the scan ends once each
    # colour among them is ranked
    nonzero = 0
    for _, e in rows:
        nonzero |= e ^ bias
    todo = [k for k in range(1, len(colours) + 1) if nonzero >> _BITS * k & _MASK]
    order = []
    for v, e in rows:
        if not todo:
            break
        x = e ^ bias
        new = [k for k in todo if x >> _BITS * k & _MASK]
        if not new:
            continue
        if len(new) > 1:
            # in the order of the first corner of this state that lists them
            first = []
            for ci in range(m):
                for k in firsts[ci][v >> k0 + 2 * (m - 1 - ci) & 3]:
                    if k in new and k not in first:
                        first.append(k)
                if len(first) == len(new):
                    break
            new = first
        order += new
        todo = [k for k in todo if k not in new]
    names = tuple([colours[k - 1] for k in order])
    if nonzero & _MASK:
        order.append(0)
        names += (H,)
    ats = [_BITS * k for k in order]
    return LaurentPoly._canonical(names, {tuple([(e >> at & _MASK) - _HALF for at in ats]): c
                                          for v, e in rows if (c := (v & mask) - half)})


def _site_values(d: TangleDiagram, s: Optional[Site], at_h: bool) -> dict[Site, LaurentPoly]:
    """The decoded state sum at every site, or at ``s`` alone: with
    ``at_h``, its value at h = -1, from the signed pass without h."""
    codes, firsts = _packing(d, not at_h)
    sums = frontier(d, s, codes, least=True, at_h=at_h)
    return {t: _decode(d.colours(), firsts, sums.get(t, {}))
            for t in (d.sites() if s is None else [s])}


def nabla_hat_all(d: TangleDiagram) -> dict[Site, LaurentPoly]:
    """The full family of hatted state sums, one per site (h unevaluated),
    from one frontier pass whose final keys are the sites."""
    return _site_values(d, None, False)


def check_site(d: TangleDiagram, s: Site) -> None:
    """Raise ``E_BAD_SITE`` unless ``s`` is one of ``d.sites()``."""
    if not d.has_site(s):
        raise TangleError("E_BAD_SITE", f"no site {s} on diagram {d.name!r}")


def nabla_hat(d: TangleDiagram, s: Site) -> LaurentPoly:
    """The hatted state sum at one site, from a frontier pass that starts
    with the open regions outside s filled, so it meets only the states at
    s; the variable table is the one ``nabla_hat_all`` gives at s."""
    check_site(d, s)
    return _site_values(d, s, False)[s]


def nabla_at_site(d: TangleDiagram, s: Site) -> LaurentPoly:
    """∇_s: the hatted state sum at s evaluated at h = -1, decoded in one pass."""
    check_site(d, s)
    return _site_values(d, s, True)[s]


def nabla_all(d: TangleDiagram) -> dict[Site, LaurentPoly]:
    """∇_s at every site, each decoded at h = -1 from the frontier pass."""
    return _site_values(d, None, True)


class ConwayPotential(NamedTuple):
    """The empty-site value of a 2-ended tangle together with the declared
    divisor (c - c^{-1}) for the open colour c.  `quotient` is what
    ``numerator.divide_binomial(c)`` returns, and None whenever it raises:
    when the division is not exact, and also when the numerator is zero
    and its variable table lacks c."""

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
