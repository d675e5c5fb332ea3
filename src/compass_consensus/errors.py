"""Exception types shared across the package, and the one check of each kind
of argument that raises them: ``real`` for a number, ``integer`` for a count,
``reals`` for an array (its shape, element type and finiteness) and
``member`` for a choice among an Enum's members."""

import math
import numbers
import operator
from typing import Any


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


class ConfigError(DomainError):
    """An input entry is malformed, or input entries disagree with each other.

    Attributes:
        field: ``$.…`` JSON path of the offending entry, when known.
    """

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        super().__init__(message if field is None else f"{field}: {message}")


def real(name: str, value: Any, above: float | None = None, minimum: float | None = None) -> float:
    """``value``, a real number (numpy's and Fraction too), as a finite float
    greater than ``above`` and at least ``minimum`` where given; DomainError
    naming ``name`` for booleans, strings, None, arrays, NaN and overflows."""
    exact = type(value) in (float, int)  # before the slower test of the numbers ABC
    if exact or not isinstance(value, bool) and isinstance(value, numbers.Real):
        try:
            x = float(value)
        except OverflowError:  # an int or Fraction beyond the float range
            x = math.inf
        if math.isfinite(x) and (above is None or x > above) and (minimum is None or x >= minimum):
            return x
    bounds = [] if above is None else ["positive" if above == 0 else f"greater than {above}"]
    if minimum is not None:
        bounds.append("nonnegative" if minimum == 0 else f"at least {minimum}")
    rule = " and ".join(bounds + ["finite"])
    try:
        got = repr(value)
    except ValueError:  # an int past the interpreter's limit on digits to print
        got = "a number too long to print"
    raise DomainError(f"{name} must be {rule} (numbers, not booleans or strings), got {got}")


def integer(name: str, value: Any) -> int:
    """``operator.index(value)``: an int or numpy integer, not a boolean, whose
    index is 0 or 1; DomainError naming ``name`` for anything else."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise DomainError(f"{name} must be an integer (not booleans), got {value!r}")


def member(name: str, value: Any, choices: type) -> Any:
    """``value``, a member of the Enum class ``choices`` or a member's value,
    as the member; DomainError naming ``name`` for anything else (None and
    booleans too)."""
    if isinstance(value, choices):
        return value
    if not isinstance(value, bool):
        try:
            return choices(value)
        except (TypeError, ValueError):  # no member has that value
            pass
    raise DomainError(f"{name} must be one of {[m.value for m in choices]}, got {value!r}")


def reals(name: str, value: Any, shape: tuple) -> Any:
    """``value``, an int or float array or nested lists of such numbers, as a
    float array whose axes have the lengths in ``shape`` (None: any length);
    DomainError naming ``name`` for any other shape, ragged nesting, booleans,
    strings, complex numbers, objects, and a NaN or infinity (the first one)."""
    import numpy as np  # here: check-graphs imports this module without numpy

    try:
        x = np.asarray(value)
    except ValueError:  # numpy refuses ragged nesting
        got = "ragged nesting"
    else:
        if x.ndim != len(shape) or any(k not in (None, s) for k, s in zip(shape, x.shape)):
            got = f"shape {x.shape}"
        elif x.dtype.kind not in "iuf":
            got = f"elements of type {x.dtype}"
        elif np.isfinite(x).all():
            return x.astype(float, copy=False)
        else:
            at = tuple(map(int, np.unravel_index(np.argmin(np.isfinite(x)), x.shape)))
            got = f"{x[at]} at index {at}"
    want = str(tuple(k if k is None else int(k) for k in shape)).replace("None", "any")
    raise DomainError(f"{name} must be an array of shape {want} of finite numbers "
                      f"(not booleans or strings), got {got}")
