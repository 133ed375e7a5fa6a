"""The error type for bad inputs, shared by every reader and validator."""


class ValidationError(ValueError):
    """Bad inputs or configuration, reported before any heavy work starts."""
