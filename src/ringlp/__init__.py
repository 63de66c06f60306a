"""Exact primal-dual affine programming over ordered rings.

Five exact-arithmetic ring instances (integers, rationals, odd-denominator
rationals, leading-coefficient-ordered polynomials, and a non-commutative
skew polynomial ring), the affine program model with its key and duality
identities, theorem-indexed counterexample generators with re-checkable
certificates, and a brute-force box enumeration oracle.
"""

from .errors import *
from .rings import *
from .sampling import *
from .reports import *
from .linalg import *
from .affine import *
from .enumeration import *
from .constructions import *
from .progfile import *

__version__ = "0.1.0"
