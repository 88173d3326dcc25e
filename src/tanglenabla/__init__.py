"""Exact polynomial invariants of oriented tangle diagrams.

The package computes the marker-state sums of connected tangle diagrams
(one Laurent polynomial per site), their two-ended specialization to the
Conway potential, the bigraded generator tables whose Euler characteristics
decategorify to those polynomials, and ships a catalogue of machine-checked
identities relating all of the above.
"""

from .diagram import (Crossing, Region, Site, TangleDiagram, TangleError,
                      linking_number, parse_tangle, serialize)
from .gradings import (GradedGenerator, euler_characteristics, generator_gradings,
                       graded_euler_characteristic, poincare_table)
from .laurent import LaurentError, LaurentPoly, binomial
from .nabla import (ConwayPotential, conway_potential, euler_factor, nabla_all,
                    nabla_at_site, nabla_hat, nabla_hat_all)
from .states import enumerate_states, site_of
from .transform import (apply_rm_move, close_tangle, delete_component,
                        glue_diagrams, mirror_diagram, mutate_tangle, recolour,
                        reopen, reverse_orientation, smooth_crossing,
                        switch_crossing)
from .verify import CheckReport, PROPERTIES, random_diagram, run_check

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
