"""Exception types shared across the package.

Every error that stems from user-supplied data carries the full list of
problems found, so callers can surface all of them in one go instead of
fixing files one complaint at a time.
"""

from __future__ import annotations


class MlQualityError(Exception):
    """Base class for all errors raised by this package."""


class MultiProblemError(MlQualityError):
    """Error aggregating one or more problem messages."""

    def __init__(self, problems: list[str] | str):
        if isinstance(problems, str):
            problems = [problems]
        self.problems: list[str] = list(problems)
        super().__init__("; ".join(self.problems))


class ModelConfigError(MultiProblemError):
    """The quality-model configuration is malformed or violates invariants."""


class GapFileError(MultiProblemError):
    """A gaps CSV file could not be parsed into a valid assessment."""


class SnapshotError(MultiProblemError):
    """A registry snapshot document is malformed."""


class OverrideError(MultiProblemError):
    """A manual-override document is malformed or names unknown rows."""


class StoreError(MlQualityError):
    """A stored assessment is missing or unreadable."""


class CohortError(MlQualityError, ValueError):
    """Fleet cohort members that do not assess the same attributes."""
