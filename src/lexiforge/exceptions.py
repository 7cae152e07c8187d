"""Exception hierarchy shared across the package."""


class LexiforgeError(Exception):
    """Base class for all package errors."""


class EmptyLemmaError(LexiforgeError):
    """Lemma is empty after trimming."""


class ParseError(LexiforgeError):
    """A line of an input file violates its format.

    Carries the 1-based line number and, for structured records, the path
    of the offending field.
    """

    def __init__(self, message: str, line_number: int | None = None, field: str | None = None):
        self.line_number = line_number
        self.field = field
        prefix = f"line {line_number}: " if line_number is not None else ""
        suffix = f" (field {field})" if field else ""
        super().__init__(f"{prefix}{message}{suffix}")


class EncodingError(LexiforgeError):
    """Input stream is not valid UTF-8."""


class DuplicateKeyError(LexiforgeError):
    """Two records share the same (lemma, category) key."""

    def __init__(self, message: str, line_number: int | None = None):
        self.line_number = line_number
        prefix = f"line {line_number}: " if line_number is not None else ""
        super().__init__(f"{prefix}{message}")


class ConfigError(LexiforgeError):
    """Invalid configuration value or template."""


class DimensionError(LexiforgeError):
    """Embedding vectors have mismatched dimensions."""


class ZeroVectorError(LexiforgeError):
    """Cosine similarity is undefined for an all-zero vector."""


class EmptyTextError(LexiforgeError):
    """Text is empty after normalization and cannot be embedded."""


class RequestError(LexiforgeError):
    """A request to a service failed.

    ``retryable`` distinguishes transient faults (timeouts, 5xx, 429) from
    permanent ones (bad request, malformed reply body). ``retry_after`` is
    the delay in seconds a 429 or 503 reply asked for, when it gave one.
    """

    def __init__(self, message: str, retryable: bool = True, retry_after: float | None = None):
        self.retryable = retryable
        self.retry_after = retry_after
        super().__init__(message)


class ProviderError(RequestError):
    """A text-generation provider call failed."""


class ServiceError(RequestError):
    """The embedding service failed: unreachable after retries, or it refused a request."""


class ProtocolError(LexiforgeError):
    """A service reply violates the wire contract."""
