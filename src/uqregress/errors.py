"""Semantic exception hierarchy.

Every error raised by this package derives from :class:`UqError`, so callers
(including the CLI) can catch one type. Names mirror the failure they signal;
messages name the offending index/id wherever one exists.
"""


class UqError(Exception):
    """Base class for all errors raised by uqregress."""


# --- data model -------------------------------------------------------------

class LengthMismatchError(UqError):
    """Aligned arrays have different lengths."""


class NonFiniteValueError(UqError):
    """A NaN or Inf appeared where a finite value is required."""


class NegativeSigmaError(UqError):
    """A predicted standard deviation is negative."""


class DuplicateIdError(UqError):
    """Record identifiers are not unique."""


class KTooLargeError(UqError):
    """Requested more folds than there are rows."""


# --- numerics ---------------------------------------------------------------

class DomainError(UqError):
    """Argument outside the mathematical domain of the operation."""


class DegenerateSampleError(UqError):
    """Sample has too few points, or no finite nonzero spread, for density estimation."""


# --- metrics / calibration --------------------------------------------------

class MissingGroupsError(UqError):
    """Grouped metrics requested on a set without group tags."""


class AllSigmaZeroError(DomainError):
    """Fewer than two predictions have sigma > 0; no calibration curve exists."""


class FractionTooSmallError(UqError):
    """A subgroup fraction yields fewer than 2 points."""


class NonPositiveScalarError(UqError):
    """Recalibration scalar must be a finite positive number."""


# --- neural network ---------------------------------------------------------

class ShapeMismatchError(UqError):
    """Input vector width does not match the network input layer."""


class WrongHeadWidthError(UqError):
    """Operation requires a different output-head width (1 vs 4)."""


class NonFiniteLossError(UqError):
    """A network output or per-sample loss is NaN/Inf; message carries the sample id."""


class DivergenceError(UqError):
    """Training produced non-finite parameters."""


class FoldTooSmallError(UqError):
    """An ensemble member would train on fewer than 2 samples."""


# --- I/O --------------------------------------------------------------------

class FileParseError(UqError):
    """A CSV/JSON artifact failed to parse; message carries the line number."""


class ReportSchemaError(UqError):
    """A JSON report contains unknown fields or a wrong version tag."""


def _check_keys(d, allowed: tuple[str, ...], where: str) -> None:
    """``d`` must be a JSON object holding exactly the keys ``allowed``: the
    closed JSON schemas of reports and checkpoints."""
    if not isinstance(d, dict):
        raise ReportSchemaError(f"{where} must be a JSON object, got {type(d).__name__}")
    unknown = set(d) - set(allowed)
    if unknown:
        raise ReportSchemaError(f"unknown field(s) {sorted(unknown)} in {where}")
    missing = set(allowed) - set(d)
    if missing:
        raise ReportSchemaError(f"missing field(s) {sorted(missing)} in {where}")
