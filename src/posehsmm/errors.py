"""Exception types shared across the toolkit, and its argument rules."""

from numbers import Real

import numpy as np


class PoseHsmmError(Exception):
    """Base class for all toolkit errors."""


class EmptySequence(PoseHsmmError):
    """A label or observation sequence was empty where T >= 1 is required."""


class MalformedSegmentation(PoseHsmmError):
    """Segment list violates the cover/ordering/maximal-run invariants."""


class DurationOutOfRange(PoseHsmmError):
    """Duration outside [1, d_max]."""


class ChannelAbsent(PoseHsmmError):
    """Requested channel is never available in the data at hand."""


class NoFeasiblePath(PoseHsmmError):
    """Every candidate segmentation has probability zero."""


class NoTransitionDetected(PoseHsmmError):
    """Transition classification was handed a motionless clip."""


class LabelMismatch(PoseHsmmError):
    """Label sequence and feature stream disagree in length."""


class BadArgument(PoseHsmmError, ValueError):
    """A parameter lies outside the domain the computation accepts;
    ``param`` names it when the check knows it."""

    def __init__(self, message: str, param: str | None = None):
        super().__init__(message)
        self.param = param


def is_integer(value) -> bool:
    """An int or numpy integer, not a bool; a tenth of ``Integral``'s cost."""
    return type(value) is not bool and isinstance(value, (int, np.integer))


def is_number(value) -> bool:
    """A ``numbers.Real`` that is not a bool."""
    return type(value) is not bool and isinstance(value, Real)


class FormatError(PoseHsmmError):
    """A persisted file is malformed or has an unsupported format version."""
