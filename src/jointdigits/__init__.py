"""Exact joint leading-digit computation across integer bases.

The leading digit of x > 0 in base b >= 3 is the j in {1, ..., b-1} with
j * b**k <= x < (j+1) * b**k for some integer k.  This package computes
those digits exactly for positive rationals (arbitrary precision, no
floating point), decides which digit tuples are attainable jointly across
several bases, finds explicit witnesses, and explores the torus-orbit
geometry behind the attainability results.

The short story: bases that are powers of a common integer (say 4 and 8)
constrain each other's leading digits, and the set of attainable digit
pairs is computable exactly, with per-pair certificates.  Bases that are
not (say 3 and 10) impose no joint constraint: every digit tuple occurs,
and a witness search makes that concrete.
"""

from . import dependence, digits, errors, image, torus, witness
from .digits import *
from .dependence import *
from .errors import *
from .image import *
from .torus import *
from .witness import *

__version__ = "0.1.0"

__all__ = ["__version__", *digits.__all__, *dependence.__all__, *errors.__all__,
           *image.__all__, *torus.__all__, *witness.__all__]
