"""Exception types shared across the package, and the input checks that raise them."""

import enum
import numbers
import sys
import typing
from dataclasses import fields
from functools import cache


def _is_int(value) -> bool:
    """An integer of any kind (numpy's included) that is not a bool."""
    return type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool)


class SmartFogError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(SmartFogError, ValueError):
    """A parameter or config file value is invalid; message names the field."""


class ContractError(SmartFogError, ValueError):
    """A call violated an operation precondition (arity, missing entry, empty input)."""


class TopologyError(SmartFogError):
    """The overlay graph does not satisfy a structural requirement (e.g. connectivity)."""


class CapacityError(SmartFogError):
    """A request exceeds what the overlay can supply (gateways, cluster members)."""


class ChurnRejectedError(SmartFogError):
    """A churn event was refused because applying it would disconnect the overlay."""


class ConflictError(SmartFogError):
    """A churn event collides with existing state (e.g. duplicate device id)."""


class NumericalError(SmartFogError):
    """An iterative numerical routine failed to converge."""


class _Mismatch(Exception):
    """A value does not fit its annotation; ``_convert`` names the field."""


def _coerce(hint, value):
    """``value`` as the type ``hint`` describes, or _Mismatch.

    Ints are strict (no bools, floats or strings); numbers must be finite and
    become floats; lists become tuples of the annotated arity; enum values
    become members; ``X | None`` takes None; any other class, such as a
    nested dataclass, must hold an instance of itself.  Any other hint is
    ``X | None`` or ``tuple[...]``, read by its ``__args__``.
    """
    if type(value) is hint and hint is not float:  # an exact int, enum member or instance
        return value
    if hint is int:
        if _is_int(value):
            return int(value)
    elif hint is float:
        # The bound rejects NaN, infinities and ints too large to become a float.
        # Rationals (ints included) meet it exactly, other reals as the float
        # they become: numpy.float32 would cast the bound itself and overflow.
        if type(value) is float:
            number = value
        elif isinstance(value, numbers.Real) and not isinstance(value, bool):
            number = value if isinstance(value, numbers.Rational) else float(value)
        else:
            raise _Mismatch
        if abs(number) <= sys.float_info.max:
            return float(number)
    elif isinstance(hint, enum.EnumMeta):
        try:
            return hint(value)
        except (ValueError, TypeError):
            pass
    elif type(hint) is type:  # a plain class, such as a nested dataclass
        if isinstance(value, hint):
            return value
    elif type(None) in hint.__args__:  # X | None
        return None if value is None else _coerce(hint.__args__[0], value)
    elif isinstance(value, (list, tuple)):  # tuple[...]
        args = hint.__args__
        kinds = args[:1] * len(value) if args[-1] is Ellipsis else args
        if len(kinds) == len(value):
            return tuple(map(_coerce, kinds, value))
    raise _Mismatch


def _describe(hint) -> str:
    """What a value of type ``hint`` must be, as an error message says it."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        if len(set(args)) > 1 and Ellipsis not in args:
            return "a list of " + " and ".join(map(_describe, args))
        size = "a list" if args[-1] is Ellipsis else f"a list of {len(args)}"
        return f"{size}, each {_describe(args[0])}"
    if type(None) in args:
        return f"{_describe(args[0])} or null"
    if isinstance(hint, enum.EnumMeta):
        return "one of " + ", ".join(member.value for member in hint)
    names = {int: "an integer", float: "a finite number", str: "a string"}
    return names.get(hint, f"an instance of {hint.__name__}")


def _convert(hint, value, field: str, error: type[SmartFogError] = ConfigurationError):
    """``value`` as the type ``hint`` describes; else ``error`` naming ``field``."""
    try:
        return _coerce(hint, value)
    except _Mismatch:
        raise error(f"{field} must be {_describe(hint)}, got {value!r}") from None


def _convert_int(value, field: str, low: int, error: type[SmartFogError] = ConfigurationError):
    """``value`` as an int >= ``low``; else ``error`` naming ``field``."""
    value = _convert(int, value, field, error)
    if value < low:
        raise error(f"{field} must be an integer >= {low}, got {value!r}")
    return value


def _convert_range(value, field: str):
    """``value`` as a finite ``(lo, hi)`` with ``0 < lo <= hi``; else ConfigurationError."""
    lo, hi = _convert(tuple[float, float], value, field)
    if not 0 < lo <= hi:
        raise ConfigurationError(f"{field} must satisfy 0 < lo <= hi, got {(lo, hi)}")
    return lo, hi


def _are_plain(values, hint) -> bool:
    """Whether every one of ``values`` is exactly a ``hint``, in one pass at C speed."""
    return set(map(type, values)) <= {hint}


@cache
def _field_hints(cls) -> dict:
    """Each field of dataclass ``cls`` mapped to its resolved annotation."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _convert_fields(config) -> None:
    """Convert every field of frozen dataclass ``config`` to its annotated type, in place."""
    for name, hint in _field_hints(type(config)).items():
        object.__setattr__(config, name, _convert(hint, getattr(config, name), name))
