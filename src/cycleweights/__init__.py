"""Verification and exploration toolkit for squared-distance cycle weights.

Edge weights on a complete graph over points in the plane or 3-space
are *squared* Euclidean distances.  The package checks Hamiltonian cycle
weights against their sharp spectral interval on 3 to 10 points, the
four-point midpoint relation behind the 4-point bound, the five-point
midpoint iteration and its exact rational shadow sequence, and searches
for extremal ratios.  The names below are the ones README's Library
example imports; everything else is imported from its module.
"""

from .bounds import check_bounds
from .cycles import enumerate_cycles
from .extremal import optimize
from .geometry import random_config
from .pentagon import trace
from .sequences import sequence_table

__version__ = "0.1.0"
