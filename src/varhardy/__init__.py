"""Numerical toolkit for weighted variable-exponent local Hardy spaces.

Core objects: uniform-grid functions, shifted dyadic cubes, variable
exponents, weights and their Muckenhoupt-type constants; on top of those,
the grand maximal quasi-norm and its atomic, scale-difference and wavelet
counterparts, with probe suites that stress the norm equivalences on
discretized data.
"""

__version__ = "0.1.0"

from .exponent import VariableExponent
from .grid import Domain, GridFunction, convolve, quadrature
from .norms import luxemburg_norm, modular
from .report import Report
from .weights import Weight

__all__ = [
    "Domain",
    "GridFunction",
    "Report",
    "VariableExponent",
    "Weight",
    "convolve",
    "luxemburg_norm",
    "modular",
    "quadrature",
]
