"""Exception types shared across the package."""


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
    """Raise DomainError unless value >= least."""
    if value < least:
        raise DomainError(f"{name} must be >= {least}, got {value}")


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
