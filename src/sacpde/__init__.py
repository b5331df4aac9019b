"""Structure-preserving solvers for the stochastic Allen-Cahn equation.

Import names from their modules:

    mesh_fem    periodic simplex meshes, P1 spaces, projection, prolongation
    model       reaction terms, energy, noise coefficients, initial data
    stepper     the implicit step with its exact energy identity, FemBackend
    spectral    the Fourier reference solver on the circle, SpectralBackend
    stochastic  counter-based Brownian paths, coarsening, Monte Carlo statistics
    harness     experiment plans and the coupled-path studies
    reports     deterministic JSON/CSV artifacts
    cli         the `sacpde` command line
"""

from .reports import VERSION

__version__ = VERSION
