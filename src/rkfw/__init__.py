"""Runge-Kutta conditional gradient methods with feasibility certificates.

The package wires five pieces together: tableaus and their step-size
certificates, linear minimization oracles over standard regions, smooth
objectives, the multistage solver loop with its variants, and diagnostics
(zig-zag energy, rate slopes, flow references) for studying trajectories.
"""

__version__ = "0.1.0"  # set before the submodules load: harness writes it into manifests

from .diagnostics import *
from .flow import *
from .geometry import *
from .harness import *
from .objectives import *
from .problems import *
from .solvers import *
from .tableau import *
from . import (diagnostics, flow, geometry, harness, objectives, problems,
               solvers, tableau)

# each submodule's __all__ is its public API; the package's is their union
__all__ = [name for module in (diagnostics, flow, geometry, harness, objectives,
                               problems, solvers, tableau)
           for name in module.__all__]
