"""Types shared by every layer: exceptions, the sweep report, resource-guard limits."""

from dataclasses import dataclass

# Bound on the dense tensor dimension d^N, overridable through the environment.
# Kept here, free of numpy, so the CLI help can print it without loading the
# tensor oracle.
DEFAULT_MAX_DIM = 4096
MAX_DIM_ENV = "ROOKCHAR_MAX_DIM"


class ParseError(ValueError):
    """Raised when an element literal or a JSON config cannot be parsed."""


class ResourceGuardError(RuntimeError):
    """Raised when a request would exceed a combinatorial or memory guard."""


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one pass/fail sweep: how many cases were checked, which failed.

    ``basis`` and ``distinct_products`` are set by the Gelfand sweep only: the
    size of R_n and the number of distinct sandwiches p a p it compared.
    """

    suite: str
    n: int
    checked: int
    violations: tuple[str, ...]
    basis: int | None = None
    distinct_products: int | None = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        payload = {
            "suite": self.suite,
            "n": self.n,
            "checked": self.checked,
            "ok": self.ok,
            "violations": list(self.violations[:20]),
        }
        if self.basis is not None:
            payload.update(basis=self.basis, distinct_products=self.distinct_products)
        return payload
