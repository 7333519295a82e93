"""Exception types shared across the package."""

from __future__ import annotations


class V2vLosError(Exception):
    """Base class for all library errors."""


class DomainError(V2vLosError):
    """An argument is outside the mathematical domain of an operation."""


class RangeError(V2vLosError):
    """A distance falls outside the supported range."""


class ConvergenceError(V2vLosError):
    """An iterative computation failed to converge."""


class DegenerateError(V2vLosError):
    """Input data carries no usable signal (zero variance, all-zero, ...)."""


class SingularError(V2vLosError):
    """A least-squares design matrix is rank deficient."""


class ParseError(V2vLosError):
    """A trace or table file is malformed.

    ``line`` is the 1-based line number of the offending row when known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class BatchError(V2vLosError):
    """One or more traces in a batch failed.

    ``failures`` holds every (index, exception) pair in input order; the
    message names the first ten indices and counts the rest.
    """

    def __init__(self, failures: list[tuple[int, Exception]]):
        self.failures = failures
        idx = ", ".join(str(i) for i, _ in failures[:10])
        idx += f" and {len(failures) - 10} more" if len(failures) > 10 else ""
        super().__init__(f"{len(failures)} trace(s) failed (indices: {idx}); "
                         f"first error: {failures[0][1]}")


class DistanceClampWarning(UserWarning):
    """A distance below the model floor was clamped up to it."""
