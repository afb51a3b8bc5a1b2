"""Exception hierarchy for the rapidfeat pipeline."""


class RapidError(Exception):
    """Base class for all rapidfeat errors."""


class MalformedScanError(RapidError):
    """Scan file violates the packed binary layout or contains non-finite values."""


class LabelMismatchError(RapidError):
    """Label file length does not match the point cloud."""


class LabelsRequiredError(RapidError):
    """Operation needs per-point labels but the cloud has none."""


class EmptySceneError(RapidError):
    """Synthetic scene has no primitives."""


class InsufficientPointsError(RapidError):
    """Subset too small for the requested neighbor count."""


class UndefinedAngleError(RapidError):
    """The elevation ring rule is undefined at the origin (0, 0, 0)."""


class FormatError(RapidError):
    """Feature container is corrupt, truncated, or has an unknown version."""


class ContractError(RapidError):
    """Tensor shapes or argument combinations violate an operation contract."""


class UndefinedMetricError(RapidError):
    """No class has a defined IoU, so the mean is undefined."""
