"""Exception types shared across the package: one class per kind of failure."""

from __future__ import annotations


class V2vLosError(Exception):
    """Base class for all library errors."""


class DomainError(V2vLosError):
    """An argument or distance is outside its domain (a distance above 500 m, say)."""


class ConvergenceError(V2vLosError):
    """An iterative computation failed to converge."""


class DegenerateError(V2vLosError):
    """Data too thin to fit or correlate: too few distinct points, zero variance, a singular system."""


class ParseError(V2vLosError):
    """A trace file is malformed; ``line`` is the 1-based number of the offending line when known."""

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

    def __reduce__(self):  # rebuilt from the failures, not from the message, which is ``args``
        return type(self), (self.failures,)


class DistanceClampWarning(UserWarning):
    """A distance below the model floor was clamped up to it."""
