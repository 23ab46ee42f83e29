"""Exception types shared across the package."""


class GaitError(Exception):
    """Base class for all gaitlab errors."""


class GaitInputError(GaitError):
    """Invalid input data: bad values, malformed files, broken preconditions."""


class CalibrationError(GaitError):
    """Offset or parameter calibration could not be completed."""


class SegmentationError(GaitError):
    """Step segmentation produced an inconsistent sequence."""
