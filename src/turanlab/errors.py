"""Exception types shared across the library."""

__all__ = [
    "TuranLabError",
    "InvalidHypergraphError",
    "InvalidArgumentError",
    "UnsupportedSizeError",
    "OutOfRangeError",
    "ParseError",
    "OptimizerFailureError",
    "CertificateError",
]


class TuranLabError(Exception):
    """Base class for all library errors."""


class InvalidArgumentError(TuranLabError):
    """An operation received arguments outside its contract; the base class
    of every refusal of input, which the CLI maps to exit code 2."""


class InvalidHypergraphError(InvalidArgumentError):
    """Hypergraph or pattern data violates a structural invariant."""


class UnsupportedSizeError(InvalidArgumentError):
    """An input exceeds a documented size cap."""


class OutOfRangeError(InvalidArgumentError):
    """A numeric argument falls outside its admissible range."""


class ParseError(InvalidArgumentError):
    """JSON input could not be parsed or validated."""


class OptimizerFailureError(TuranLabError):
    """The simplex optimizer failed to converge.

    The best candidate found so far, if any, is kept in ``best_so_far``.
    """

    def __init__(self, message, best_so_far=None):
        super().__init__(message)
        self.best_so_far = best_so_far


class CertificateError(TuranLabError):
    """Certificate conditions failed; ``failures`` lists each failed one."""

    def __init__(self, failures):
        failures = tuple(failures)
        super().__init__("; ".join(failures))
        self.failures = failures
