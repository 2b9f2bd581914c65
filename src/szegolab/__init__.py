"""Numerical laboratory for singular Berezin-Toeplitz operators.

Finite Hermitian matrices of operators whose multiplier is a compactly
supported density on a submanifold of C^N, assembled on a truncated
weighted Bargmann space, together with the closed-form spectral
asymptotics they are compared against (trace identities, Szego limits,
Weyl counts, Schatten sums, entropy limits, Bohr-Sommerfeld bounds).
"""

from .fock import FockTruncation
from .manifold import (
    ChartedSubmanifold,
    GeometryFrame,
    frame_at,
    classify,
    d_prime,
    delta_n,
    quadrature,
    manifold_from_spec,
)
from .assembly import HermitianOperator, assemble_T, exact_trace
from .spectral import SpectralSummary, TestFunction, eigensolve

__all__ = [
    "FockTruncation",
    "ChartedSubmanifold",
    "GeometryFrame",
    "frame_at",
    "classify",
    "d_prime",
    "delta_n",
    "quadrature",
    "manifold_from_spec",
    "HermitianOperator",
    "assemble_T",
    "exact_trace",
    "SpectralSummary",
    "TestFunction",
    "eigensolve",
]

__version__ = "0.1.0"
