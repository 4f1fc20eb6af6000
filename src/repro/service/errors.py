"""Service-level errors, each carrying its HTTP status.

The ASGI layer translates these —
plus :class:`~repro.errors.InvalidParameterError` from spec parsing,
which maps to 422 — into JSON error responses of the uniform shape
``{"error": <message>, "status": <code>}``.
"""

from __future__ import annotations

from ..errors import ReproError

__all__ = [
    "ServiceError",
    "QueueFullError",
    "RateLimitedError",
    "UnknownJobError",
]


class ServiceError(ReproError):
    """Base class for simulation-service failures."""

    #: HTTP status the ASGI layer answers with.
    status = 500


class QueueFullError(ServiceError):
    """The bounded job queue cannot accept another submission.

    Backpressure, not failure: the response is ``429`` with a
    ``Retry-After`` hint so well-behaved clients back off instead of
    piling on.
    """

    status = 429

    def __init__(self, message: str, *, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = retry_after


class RateLimitedError(ServiceError):
    """A client exceeded its request budget (token bucket empty)."""

    status = 429

    def __init__(self, message: str, *, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = retry_after


class UnknownJobError(ServiceError):
    """No job or committed cache entry under the requested id."""

    status = 404
