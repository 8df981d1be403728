"""Exact-arithmetic structure decisions for closed oriented 5-manifolds.

The package turns an invariant profile of a closed oriented connected
smooth 5-manifold (integral homology, spin flag, degree-4 Wu-class
flag, first Pontryagin class, optionally a small mod-2 cohomology
fragment) into verdicts about tangent-geometric structure: existence
of an irreducible rank-3 subbundle of the tangent bundle, of two
linearly independent vector fields, and of rank-3 and rank-5 bundles
with prescribed characteristic classes.  All arithmetic is exact over
the integers and finitely generated abelian groups.

Each module's ``__all__`` is the one list of its public names; the
package re-exports them all.
"""

from . import charclass, constructors, decide, fgab, topology
from .charclass import *
from .constructors import *
from .decide import *
from .fgab import *
from .topology import *

__version__ = "0.1.0"

__all__ = [
    *charclass.__all__,
    *constructors.__all__,
    *decide.__all__,
    *fgab.__all__,
    *topology.__all__,
]
