"""Orbit images of Hermitian matrix tuples under trace-linear maps.

The library evaluates maps of the form ``X -> (tr(C_k1 X_1) + ... +
tr(C_km X_m))_k`` over joint unitary orbits, parametrizes the ellipsoidal
two-parameter slices of those images, synthesizes pinching chains, and
constructs certified witnesses for inclusion and star-shapedness
statements — plus the four-coordinate instance where inclusion fails.
"""

from . import core, ellipsoid, optimize, pinching, verify, witness
from .core import *  # noqa: F401,F403
from .ellipsoid import *  # noqa: F401,F403
from .optimize import *  # noqa: F401,F403
from .pinching import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403
from .witness import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (core, ellipsoid, optimize, pinching, verify, witness)
    for name in module.__all__
]
