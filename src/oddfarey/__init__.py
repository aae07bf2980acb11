"""Exact-arithmetic gap statistics of Farey fractions with odd denominators.

The package streams Farey sequences and their odd-denominator subsequences,
measures the joint distribution of consecutive gaps, and reproduces the
limiting gap densities through exact convex geometry on the Farey triangle:
walk-family enumeration, rational polygon clipping, certified series
enclosures, and parity-restricted primitive lattice counts that tie the two
sides together by exact integer identities.
"""

from .density import Enclosure, gap_density, rho_odd, rho_table
from .dynamics import TrianglePoint, kappa, next_pair, orbit_kappas, prev_pair
from .farey import (
    UnitInterval,
    delta,
    farey_fractions,
    gap_histogram,
    odd_farey_count,
    odd_farey_fractions,
)
from .geometry import ConvexRegion, cylinder, stabilized_quadrangle, unimodular_image
from .lattice import (
    CountReport,
    PairParity,
    count_delta_tuples,
    count_lattice,
    empirical_rho,
    verify_parity_swap,
    verify_tuple_identities,
)
from .paths import PathFamily, families

__version__ = "0.1.0"

__all__ = [
    "Enclosure",
    "gap_density",
    "rho_odd",
    "rho_table",
    "TrianglePoint",
    "kappa",
    "next_pair",
    "prev_pair",
    "orbit_kappas",
    "UnitInterval",
    "count_delta_tuples",
    "delta",
    "empirical_rho",
    "farey_fractions",
    "gap_histogram",
    "odd_farey_count",
    "odd_farey_fractions",
    "ConvexRegion",
    "cylinder",
    "stabilized_quadrangle",
    "unimodular_image",
    "CountReport",
    "PairParity",
    "count_lattice",
    "verify_parity_swap",
    "verify_tuple_identities",
    "PathFamily",
    "families",
    "__version__",
]
