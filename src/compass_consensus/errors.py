"""Exception types shared across the package."""


class CompassError(Exception):
    """Base class for all library errors."""


class DomainError(CompassError):
    """An argument is outside the operation's domain (bad shape, sign, or range)."""


class OutsideBoxError(DomainError):
    """A query point lies outside the hyperrectangle beyond the face tolerance."""


class InsufficientHorizonError(DomainError):
    """The switching signal's horizon is too short for the requested window."""


class DivergenceError(CompassError):
    """The integrator produced a non-finite state.

    Attributes:
        time: simulation time at which the non-finite value appeared.
    """

    def __init__(self, time: float, message: str | None = None):
        self.time = time
        super().__init__(message or f"non-finite state at t={time}")


class OracleScopeError(CompassError):
    """The closed-form linear oracle was queried outside its validity scope."""


class ConfigError(DomainError):
    """An input entry is malformed, or input entries disagree with each other.

    Attributes:
        field: ``$.…`` JSON path of the offending entry, when known.
    """

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        super().__init__(message if field is None else f"{field}: {message}")
