"""Exception types shared across the pipeline.

Every exception carries a stable ``code`` string and an ``exit_code`` so the
CLI can map failures onto process statuses without string matching.
"""

from __future__ import annotations

EXIT_OK = 0
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
