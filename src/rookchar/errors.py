"""Shared exception types and resource-guard limits."""

# Bound on the dense tensor dimension d^N, overridable through the environment.
# Kept here, free of numpy, so the CLI help can print it without loading the
# tensor oracle.
DEFAULT_MAX_DIM = 4096
MAX_DIM_ENV = "ROOKCHAR_MAX_DIM"


class ParseError(ValueError):
    """Raised when an element literal or a JSON config cannot be parsed."""


class ResourceGuardError(RuntimeError):
    """Raised when a request would exceed a combinatorial or memory guard."""
