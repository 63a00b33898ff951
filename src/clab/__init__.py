"""clab: measurement statistics two ways, plus the hardness gadgets.

The package simulates a spin measurement at desk scale along two rival
routes (exact propagation of a particle-detector state averaged over
random detectors, and a stochastic interaction Hamiltonian averaged over
energy uncertainties), and provides the supporting machinery: a
sparse adiabatic Exact Cover encoding and a grid-based
energy-threshold decision problem with a cheap eigenpair verifier.
"""

__version__ = "0.1.0"

from . import decoherence, montecarlo, qcore, reduction, stochastic

__all__ = [
    "__version__",
    "decoherence",
    "montecarlo",
    "qcore",
    "reduction",
    "stochastic",
]
