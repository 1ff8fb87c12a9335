"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: usage errors (argparse and
ContractError) and WorkerError exit 2, DataError exits 3, NumericError
exits 4.
"""


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
