"""Exact apolarity calculus for cubic forms in six variables.

Contraction pairing, catalecticants and Hilbert functions, annihilator
ideals and their squares, tangent-space dimensions on the Hilbert scheme
of 14 points, the determinantal equation of the divisor of non-smoothable
points along pencils, and stock constructions (Grassmannian sections,
sums of dp-cubes, ternary-sextic gatherings).  All arithmetic is exact:
int64 residues modulo word-sized primes, and over the rationals a p-adic
solver whose results (Fractions) pass an exact integer check.
"""

from .apolarity import hilbert_function
from .constructions import gr26_section_cubic
from .hilbert import analyze

__all__ = ["analyze", "gr26_section_cubic", "hilbert_function"]

__version__ = "0.1.0"
