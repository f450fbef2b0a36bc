"""Numerical laboratory for planar Morrey extremals.

The package evaluates the separable singular p-harmonic cone solutions
exactly, computes the discrete Morrey extremal on the upper half plane by
convex energy minimization with a pinned unit value, and analyzes the
result: radial decay exponent, gradient decay, barrier comparison against
the cone supersolution, and an estimate of the optimal constant of the
underlying inequality.  The public names are those of the four modules'
__all__.
"""

from . import analysis, aronsson, grid, solver
from .aronsson import *
from .grid import *
from .solver import *
from .analysis import *

__version__ = "0.1.0"

__all__ = ["__version__", *aronsson.__all__, *grid.__all__, *solver.__all__,
           *analysis.__all__]
