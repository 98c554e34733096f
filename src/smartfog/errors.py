"""Exception types shared across the package, and the input checks that raise them."""

import enum
import numbers
import sys
import typing
from dataclasses import fields
from functools import cache


def _is_int(value) -> bool:
    """An integer of any kind (numpy's included) that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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


def _as_member(enum_type, value, field: str):
    """``value`` as a member of ``enum_type`` (or its value); else ContractError naming ``field``."""
    try:
        return enum_type(value)
    except ValueError:
        allowed = ", ".join(member.value for member in enum_type)
        raise ContractError(f"{field} must be one of {allowed}, got {value!r}") from None


class _Mismatch(Exception):
    """A value does not fit its annotation; ``_convert`` names the field."""


def _coerce(hint, value):
    """``value`` as the type ``hint`` describes, or _Mismatch.

    Ints are strict (no bools, floats or strings); numbers must be finite and
    become floats; lists become tuples of the annotated arity; enum values
    become members; ``X | None`` takes None; any other class, such as a
    nested dataclass, must hold an instance of itself.
    """
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        if isinstance(value, (list, tuple)):
            kinds = args[:1] * len(value) if args[-1] is Ellipsis else args
            if len(kinds) == len(value):
                return tuple(map(_coerce, kinds, value))
    elif type(None) in args:
        return None if value is None else _coerce(args[0], value)
    elif hint is int:
        if _is_int(value):
            return int(value)
    elif hint is float:
        # The bound rejects NaN, infinities and ints too large to become a float.
        if isinstance(value, numbers.Real) and not isinstance(value, bool):
            if abs(value) <= sys.float_info.max:
                return float(value)
    elif isinstance(hint, enum.EnumMeta):
        try:
            return hint(value)
        except (ValueError, TypeError):
            pass
    elif isinstance(value, hint):
        return value
    raise _Mismatch


def _describe(hint) -> str:
    """What a value of type ``hint`` must be, as an error message says it."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        size = "a list" if args[-1] is Ellipsis else f"a list of {len(args)}"
        return f"{size}, each {_describe(args[0])}"
    if type(None) in args:
        return f"{_describe(args[0])} or null"
    if isinstance(hint, enum.EnumMeta):
        return "one of " + ", ".join(member.value for member in hint)
    names = {int: "an integer", float: "a finite number", str: "a string"}
    return names.get(hint, f"an instance of {hint.__name__}")


def _convert(hint, value, field: str):
    """``value`` as the type ``hint`` describes; else ConfigurationError naming ``field``."""
    try:
        return _coerce(hint, value)
    except _Mismatch:
        raise ConfigurationError(f"{field} must be {_describe(hint)}, got {value!r}") from None


@cache
def _field_hints(cls) -> dict:
    """Each field of dataclass ``cls`` mapped to its resolved annotation."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _convert_fields(config) -> None:
    """Convert every field of dataclass ``config`` to its annotated type, in place."""
    for name, hint in _field_hints(type(config)).items():
        setattr(config, name, _convert(hint, getattr(config, name), name))
