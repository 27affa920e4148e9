"""Exception types shared across the pipeline, and the reader and checks of JSON settings files.

Every exception carries a stable ``code`` string and an ``exit_code`` so the
CLI can map failures onto process statuses without string matching.
"""

from __future__ import annotations

import difflib
import json
from pathlib import Path

EXIT_INPUT = 2
EXIT_STATISTICAL = 3
EXIT_CONFIG = 4


class PipelineError(Exception):
    """Base class for all failures raised by this package."""

    code = "PIPELINE_ERROR"
    exit_code = EXIT_INPUT


class InputError(PipelineError):
    """Malformed or inconsistent input data."""

    exit_code = EXIT_INPUT


class StatisticalError(PipelineError):
    """The data admit no valid estimate (separation, degeneracy, ...)."""

    exit_code = EXIT_STATISTICAL


class ConfigError(PipelineError):
    code = "CONFIG"
    exit_code = EXIT_CONFIG


class MalformedRowError(InputError):
    code = "MALFORMED_ROW"

    def __init__(self, file: str, line: int, column: str, reason: str):
        self.file = file
        self.line = line
        self.column = column
        self.reason = reason
        super().__init__(f"{file}:{line} column '{column}': {reason}")


class UnknownPatientError(InputError):
    code = "UNKNOWN_PATIENT"

    def __init__(self, patient_id: str, file: str, line: int):
        self.patient_id = patient_id
        self.file = file
        self.line = line
        super().__init__(f"{file}:{line}: event references absent patient '{patient_id}'")


class DuplicatePatientError(InputError):
    code = "DUPLICATE_PATIENT"

    def __init__(self, patient_id: str, file: str | None = None, line: int | None = None):
        self.patient_id = patient_id
        self.file = file
        self.line = line
        where = "" if file is None else f"{file}:{line}: "
        super().__init__(f"{where}patient '{patient_id}' declared more than once")


class EmptyCohortMeanError(InputError):
    code = "EMPTY_COHORT_MEAN"

    def __init__(self, field: str, overflow: bool = False):
        self.field = field
        reason = "the sum of its observed values overflows" if overflow else (
            "no observed values in the cohort")
        super().__init__(f"cannot mean-impute '{field}': {reason}")


class UnknownFeatureError(InputError):
    code = "UNKNOWN_FEATURE"

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown feature '{name}'")


class InvalidSpecError(InputError):
    code = "INVALID_SPEC"


class SeparationError(StatisticalError):
    code = "SEPARATION_DETECTED"


class SingularInformationError(StatisticalError):
    code = "SINGULAR_INFORMATION"

    def __init__(self, message: str, columns: tuple[str, ...] = ()):
        self.columns = columns
        if columns:
            message = f"{message} (offending columns: {', '.join(columns)})"
        super().__init__(message)


class NotConvergedError(StatisticalError):
    code = "NOT_CONVERGED"


class DegenerateOutcomeError(StatisticalError):
    code = "DEGENERATE_OUTCOME"


class ZeroSeError(StatisticalError):
    code = "ZERO_SE"


class DimensionMismatchError(StatisticalError):
    code = "DIMENSION_MISMATCH"


class OneClassError(StatisticalError):
    code = "ONE_CLASS_ONLY"


class BadLabelError(StatisticalError):
    code = "BAD_LABEL"


class NonFiniteScoreError(StatisticalError):
    code = "NON_FINITE_SCORE"


class BadKError(StatisticalError):
    code = "BAD_K"


class MissingArmError(StatisticalError):
    code = "MISSING_ARM"


class TooManyBootFailuresError(StatisticalError):
    code = "TOO_MANY_BOOT_FAILURES"

    def __init__(self, requested: int, succeeded: int, failures: dict[str, int]):
        self.requested = requested
        self.succeeded = succeeded
        self.failures = dict(failures)
        taxonomy = ", ".join(f"{k}={v}" for k, v in sorted(failures.items()))
        super().__init__(
            f"only {succeeded}/{requested} bootstrap replicates succeeded ({taxonomy})"
        )


def require_type(name: str, value, kind: type, error: type[PipelineError]) -> None:
    """Raise ``error`` unless ``value`` has the JSON type ``kind``.

    Booleans are not numbers here, and a float setting also takes an integer.
    """
    kinds = (int, float) if kind is float else (kind,)
    if not isinstance(value, kinds) or (kind is not bool and isinstance(value, bool)):
        raise error(f"{name} must be of type {kind.__name__}, got {value!r}")


def require_known(keys, known, error: type[PipelineError], where: str = "") -> None:
    """Raise ``error`` on the first of ``keys`` not in ``known``, naming the closest known key."""
    for key in keys:
        if key not in known:
            hint = difflib.get_close_matches(key, known, n=1)
            raise error(f"unknown key '{key}'{where}"
                        + (f" (did you mean '{hint[0]}'?)" if hint else ""))


def read_json_object(path: str | Path, what: str, error: type[PipelineError]) -> tuple:
    """The JSON object in the ``what`` file at ``path``, and the file's bytes.

    Raise ``error`` on a file that cannot be read or is not UTF-8, on text that is not
    JSON or not an object, and on a key given twice in one object at any depth.
    """
    try:
        data = Path(path).read_bytes()
        text = data.decode("utf-8-sig")  # a leading byte-order mark is not JSON
    except (OSError, ValueError) as err:  # ValueError: a NUL in the path, or not UTF-8
        raise error(f"cannot read {what} {path}: {err}") from None

    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise error(f"{what} gives key '{key}' twice")
            obj[key] = value
        return obj

    try:
        raw = json.loads(text, object_pairs_hook=unique_keys)
    except (ValueError, RecursionError) as err:  # also an integer too long, or nesting too deep
        raise error(f"{what} is not valid JSON: {err}") from None
    if not isinstance(raw, dict):
        raise error(f"{what} must be a JSON object")
    return raw, data
