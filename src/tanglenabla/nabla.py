"""The state-sum invariants: products of the per-crossing quadrant codes
(see ``TangleDiagram.quadrants``) over Kauffman states, and the two-ended
specialization to the Conway potential.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .diagram import Site, TangleDiagram, TangleError
from .laurent import H, LaurentError, LaurentPoly, binomial
from .states import KauffmanState, enumerate_states, site_of


def quadrant_label(d: TangleDiagram, ci: int, q: int) -> LaurentPoly:
    """The label monomial itself (coefficient +1; signs only enter at h=-1)."""
    corner = d.quadrants[ci][q]
    exp = dict(corner.exp2)
    if corner.h2:
        exp[H] = corner.h2
    return LaurentPoly.monomial(1, exp)


def state_monomial(d: TangleDiagram, x: KauffmanState) -> LaurentPoly:
    exp: dict[str, int] = {}
    h2 = 0
    for row, q in zip(d.quadrants, x.markers):
        corner = row[q]
        for v, e in corner.exp2:
            exp[v] = exp.get(v, 0) + e
        h2 += corner.h2
    exp = {v: e for v, e in exp.items() if e}
    if h2:
        exp[H] = h2
    return LaurentPoly.monomial(1, exp)


def nabla_hat_all(d: TangleDiagram) -> dict[Site, LaurentPoly]:
    """The full family of hatted state sums, one per site (h unevaluated)."""
    out: dict[Site, LaurentPoly] = {s: LaurentPoly.zero() for s in d.sites()}
    for x in enumerate_states(d):
        s = site_of(d, x)
        out[s] = out[s] + state_monomial(d, x)
    return out


def _check_site(d: TangleDiagram, s: Site) -> None:
    if not isinstance(s, Site):
        raise TangleError("E_BAD_SITE", f"not a site: {s!r}")
    labels = set(d.arcs) if d.boundary else set()
    if len(s.arcs) != max(d.n_open - 1, 0) or not s.arcs <= labels:
        raise TangleError(
            "E_BAD_SITE",
            f"site {s} is not an ({d.n_open - 1})-element subset of {sorted(labels)}")


def nabla_hat(d: TangleDiagram, s: Site) -> LaurentPoly:
    """The hatted state sum at one site, over the states at s alone."""
    _check_site(d, s)
    out = LaurentPoly.zero()
    for x in enumerate_states(d, s):
        out = out + state_monomial(d, x)
    return out


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
