"""bernlab: exact Bernoulli and Stirling arithmetic with cross-verified
evaluation strategies.

The package computes Bernoulli numbers (B_1 = -1/2 convention) three
independent ways -- a table of zigzag numbers from the Seidel triangle,
a single alternating Stirling sum, and a two-index split sum -- and
verifies the split sum against a half-line integral identity evaluated
by composite Gauss-Legendre quadrature.  Supporting casts: Stirling
numbers of the second kind, Bell numbers, negative-order polylogarithms
as exact rational functions, integer-argument Beta values, and zeta at
non-positive integers.  Everything symbolic is arbitrary-precision
rational arithmetic; floats appear only inside the quadrature.
"""

from . import bernoulli, combinatorics, exact_arith, polylog, quadrature
from .bernoulli import *
from .combinatorics import *
from .exact_arith import *
from .polylog import *
from .quadrature import *

__version__ = "0.1.0"

__all__ = sorted(
    bernoulli.__all__ + combinatorics.__all__ + exact_arith.__all__ + polylog.__all__ + quadrature.__all__
)
