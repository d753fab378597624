"""oscpert: perturbative analysis of oscillation modes on directed networks.

Submodules:
    linalg     — number intakes, dense complex eigenvalues (batched too), propagator
    graph      — weighted digraphs, Laplacians, symmetrizable decomposition
    dyson      — generic order-by-order time-ordered expansion (quadrature)
    threemode  — cyclic 3-mode model: closed forms and hypergeometric blocks
    eigenfreq  — eigenfrequency estimators and truth labeled from the exceptional points
    benchmarks — frozen benchmark models (small / moderate / large coupling)
    cli        — reproduction harness (sweep, verify, decompose, xyz, term)
"""
from . import benchmarks, dyson, eigenfreq, graph, linalg, threemode
from .benchmarks import registry
from .dyson import PerturbedSystem
from .eigenfreq import EigenfrequencyReport
from .graph import LaplacianDecomposition, WeightedDigraph
from .threemode import SeriesTruncation, ThreeModeModel, XYZ

__version__ = "0.1.0"

__all__ = [
    "benchmarks",
    "dyson",
    "eigenfreq",
    "graph",
    "linalg",
    "threemode",
    "registry",
    "PerturbedSystem",
    "EigenfrequencyReport",
    "LaplacianDecomposition",
    "WeightedDigraph",
    "SeriesTruncation",
    "ThreeModeModel",
    "XYZ",
    "__version__",
]
