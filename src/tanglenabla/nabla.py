"""The state-sum invariants: products of the per-crossing quadrant codes
(see ``TangleDiagram.quadrants``) over Kauffman states, and the two-ended
specialization to the Conway potential.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .diagram import Site, TangleDiagram, TangleError
from .laurent import H, LaurentError, LaurentPoly, binomial
from .states import KauffmanState, enumerate_states, site_of, state_codes


def _state_sum(d: TangleDiagram, states: list[KauffmanState]) -> LaurentPoly:
    """The sum of the state monomials; a colour whose exponent sums to 0
    over a state is left out of that state's monomial."""
    monomials = []
    for x in states:
        exp2, h2, _ = state_codes(d, x)
        pairs = [(v, e) for v, e in exp2.items() if e]
        if h2:
            pairs.append((H, h2))
        monomials.append((1, pairs))
    return LaurentPoly.sum(monomials)


def nabla_hat_all(d: TangleDiagram) -> dict[Site, LaurentPoly]:
    """The full family of hatted state sums, one per site (h unevaluated)."""
    by_site: dict[Site, list[KauffmanState]] = {s: [] for s in d.sites()}
    for x in enumerate_states(d):
        by_site[site_of(d, x)].append(x)
    return {s: _state_sum(d, states) for s, states in by_site.items()}


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
    return _state_sum(d, enumerate_states(d, s))


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
