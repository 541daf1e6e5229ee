"""Exception hierarchy for the whole package.

Every failure mode that can abort a pipeline run is a distinct class, so the
CLI can map it to a stable exit code and tests can assert on the precise
abort reason.  The four coarse buckets are:

* input/validation problems (exit code 2),
* the field catalog being too small (exit code 3),
* p-adic precision running out (exit code 4),
* violated internal invariants, i.e. bugs or inconsistent upstream data
  (exit code 5).
"""


class SuperellError(Exception):
    """Base class; ``exit_code`` is what the CLI returns for this failure."""

    exit_code = 5


class ValidationError(SuperellError):
    exit_code = 2


class CatalogError(SuperellError):
    exit_code = 3


class PrecisionError(SuperellError):
    exit_code = 4


class InternalError(SuperellError):
    exit_code = 5


# -- finite fields ----------------------------------------------------------

class NonPrime(ValidationError):
    pass


class ReducibleModulus(ValidationError):
    pass


class ZeroPolynomial(ValidationError):
    pass


class ZeroFunction(ValidationError):
    pass


class CharacteristicDividesExponent(ValidationError):
    pass


class CountsInconsistent(InternalError):
    pass


class WitnessMismatch(InternalError):
    """A power-class witness g does not satisfy g^d = h."""


class EnumerationBudgetExceeded(ValidationError):
    """A point count would exceed the configured affine-evaluation budget."""


# -- local fields -----------------------------------------------------------

class NotEisenstein(ValidationError):
    pass


class PrecisionTooLow(ValidationError):
    pass


class PrecisionExhausted(PrecisionError):
    pass


class NegativeValuation(ValidationError):
    pass


class NotGalois(ValidationError):
    pass


class NotMonogenicWitness(PrecisionError):
    pass


class CatalogExhausted(CatalogError):
    pass


# -- curve / tree -----------------------------------------------------------

class RootMultiplicityMismatch(InternalError):
    pass


class NotSplit(ValidationError):
    pass


class MatrixNotIntegral(InternalError):
    pass


class NoRationalFixedPoint(InternalError):
    pass


# -- reduction / descent / lzeta -------------------------------------------

class NotDivisible(InternalError):
    """A divisibility the construction relies on fails, e.g. n does not
    divide N_v although semistability was already checked."""


class AdmissibilityViolation(InternalError):
    pass


class GenusMismatch(InternalError):
    pass


class NotInvariant(InternalError):
    pass


class CocycleInconsistent(InternalError):
    pass


class NormNotOne(InternalError):
    pass


class NonIntegralFactor(InternalError):
    pass


class DegreeMismatch(InternalError):
    pass


class NonIntegralSwan(InternalError):
    pass
