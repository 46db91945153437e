"""mixzone: mixing-zone interface dynamics for unstable porous-media flow.

Evolves the regularized strip-averaged interface equation, evaluates its
closed-form kernels and damping symbols, rebuilds candidate relaxed
states (density, velocity, flux) on the mixing strip, and checks the
lamination-hull inequalities they must satisfy.
"""

__version__ = "0.1.0"

from .grid import GridFunction1D, NonFiniteError
from .evolution import InterfaceState, Trajectory

__all__ = [
    "__version__",
    "GridFunction1D",
    "NonFiniteError",
    "InterfaceState",
    "Trajectory",
]
