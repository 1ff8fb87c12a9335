"""Exception hierarchy shared across the package, and the rules that refuse
a setting.

Exit-code mapping used by the CLI: usage errors (argparse and
ContractError) and WorkerError exit 2, DataError exits 3, NumericError
exits 4.

Each refusal rule raises the error class its caller passes (ContractError
by default), with a one-line message that names the setting and its value.
"""

import math


class KgExplainError(Exception):
    """Base class for all package errors."""


class ContractError(KgExplainError):
    """A caller violated a documented precondition."""


class DataError(KgExplainError):
    """Input data is malformed, missing, or inconsistent."""


class NumericError(KgExplainError):
    """A computation produced NaN/Inf or would overflow."""


class WorkerError(KgExplainError):
    """A worker process ended without sending its job's result."""


def at_least(name, value, low, error=ContractError):
    """Refuse a `value` that is not >= `low`, NaN included; None is no value
    (no cap) and passes."""
    if value is not None and not value >= low:
        raise error(f"{name} must be >= {low}, got {value}")


def rate(name, value, error=ContractError):
    """Refuse a `value` that is not positive, then one that is not finite."""
    if not value > 0:
        raise error(f"{name} must be positive, got {value}")
    if not math.isfinite(value):
        raise error(f"{name} must be finite, got {value}")


def one_of(name, value, choices, error=ContractError):
    """Refuse a `value` that is not one of `choices`."""
    if value not in choices:
        raise error(f"{name} must be one of {choices}, got {value!r}")
