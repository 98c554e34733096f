"""Exception types shared across the package, and the input checks that raise them."""

import numbers


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
