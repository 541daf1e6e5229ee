"""Semistable reduction, local L-factors and conductor exponents of
superelliptic curves y^n = f(x) over Q at primes p with p not dividing n."""

from .curve import SuperellipticCurve, branch_divisor
from .errors import SuperellError
from .fieldsearch import (
    SearchConfig,
    build_tower,
    semistabilizing_field,
    splitting_field,
)
from .finitefield import (
    FqPoly,
    count_kummer_points,
    factor_poly,
    fq_make,
    power_class,
    zeta_numerator,
)
from .localfield import LocalField, galois_group, ramification_filtration
from .pipeline import compute, compute_with_retry
from .qpoly import QPoly, parse_poly

__all__ = [
    "SuperellipticCurve", "branch_divisor", "SuperellError", "SearchConfig",
    "build_tower", "semistabilizing_field", "splitting_field", "FqPoly",
    "count_kummer_points", "factor_poly", "fq_make", "power_class",
    "zeta_numerator", "LocalField", "galois_group",
    "ramification_filtration", "compute", "compute_with_retry", "QPoly",
    "parse_poly",
]

__version__ = "0.1.0"
