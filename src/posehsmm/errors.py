"""Exception types shared across the toolkit."""


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


class FormatError(PoseHsmmError):
    """A persisted file is malformed or has an unsupported format version."""
