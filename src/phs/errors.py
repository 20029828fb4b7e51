"""Exception types shared across the package."""

import os
from numbers import Integral

try:
    import resource
except ImportError:  # not on every platform
    resource = None


class PHSError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(PHSError):
    """A model document does not conform to the JSON schema."""


class ValidationError(PHSError):
    """System data violates a structural invariant (Hermitian-ness,
    positive definiteness, invertibility, shape)."""


class DomainError(PHSError, ValueError):
    """An argument lies outside its admissible domain, e.g. zeta not in [0,1]."""


def _at_least(name: str, value: int, least: int) -> None:
    """Raise DomainError unless value is an integer, not a bool, and >= least."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise DomainError(f"{name} must be >= {least}, got {value}")


def _physical_memory() -> float:
    try:
        return float(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"))
    except (AttributeError, ValueError, OSError):
        return float("inf")


_PHYSICAL_MEMORY = _physical_memory()


def _memory_available() -> float:
    """The physical memory, or the process's address-space limit (ulimit -v)
    if it is lower; inf where neither can be read."""
    if resource is not None:
        soft, _ = resource.getrlimit(resource.RLIMIT_AS)
        if soft != resource.RLIM_INFINITY:
            return min(_PHYSICAL_MEMORY, float(soft))
    return _PHYSICAL_MEMORY


def _byte_size(nbytes: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB", "TiB", "PiB"):
        if nbytes < 1024.0 or unit == "PiB":
            return f"{nbytes:.3g} {unit}"
        nbytes /= 1024.0


def _check_memory(nbytes: int, what: str, error: type) -> None:
    """Raise ``error`` unless ``nbytes``, a lower bound on what ``what``
    holds at once, fits in the memory available, naming both sizes: arrays
    that cannot fit are refused before any is allocated."""
    limit = _memory_available()
    if nbytes > limit:
        raise error(f"{what} needs at least {_byte_size(nbytes)}, more than the "
                    f"{_byte_size(limit)} of memory available")


class ShapeError(PHSError):
    """A matrix argument has the wrong shape or symmetry for the operation."""


class PreconditionError(PHSError):
    """A test's standing assumption fails, so its verdict is inconclusive."""


class IllPosedError(PHSError):
    """Simulation of a system that does not generate a C0-semigroup was
    requested without the explicit opt-in flag."""


class ContinuityError(PHSError):
    """Eigenvalue crossing on the simulation grid; the diagonalizing
    transform is not smooth enough for the characteristics scheme."""


class StabilityError(PHSError):
    """Simulated field is not finite or exceeded the blow-up guard."""


class InvariantError(PHSError):
    """A relation that holds by theorem failed in floating point, so the
    computation that produced it cannot be trusted."""


class SpecError(PHSError):
    """An initial-condition spec string names an unknown profile or has
    malformed arguments."""
