"""Exception types shared across the package."""


class GlqError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(GlqError):
    """Array arguments have incompatible or unexpected shapes."""


class NotPositiveDefinite(GlqError):
    """Cholesky hit a pivot <= 0. Nothing retries with more damping: it
    propagates like any GlqError (exit 2 from the CLI)."""


class SingularHessian(NotPositiveDefinite):
    """A channel group's damped Hessian cannot be factored. `group` is
    the group's index in its layer: ``lnq_quantize`` is given a layer's
    groups, and ``HessianCache.store`` refuses a layer's set."""

    def __init__(self, layer: int, group: int, cause: str) -> None:
        super().__init__(f"layer {layer} group {group}: cannot factor the damped "
                         f"Hessian: {cause}")
        self.group, self.cause = group, cause


class DivergedLoss(GlqError):
    """Training produced a non-finite loss or gradient."""


class ZeroGradientGroup(GlqError):
    """A guided channel group has zero gradient on every sample, so its
    Hessian and its relative damping would both be 0."""


class EmptyCalibration(GlqError):
    """A calibration set with zero samples was supplied."""


class PartitionMismatch(GlqError):
    """A channel partition does not cover the layer it is applied to."""


class TooFewDistinctPoints(GlqError):
    """Fewer distinct points than requested codebook entries."""


class NonFiniteMass(GlqError):
    """A k-means++ draw's sampling mass does not sum to a finite number:
    weights times squared distances overflow."""


class NonFiniteFisher(GlqError):
    """A channel's diagonal Fisher (its k-means weights) has a NaN or
    infinite entry, for example from overflowing activations."""


class ZeroDiagonal(GlqError):
    """A Hessian diagonal entry is <= 0 where a division by it is required."""


class TooLarge(GlqError):
    """A brute-force oracle was asked for more work than its hard cap."""


class CorruptFile(GlqError):
    """A file on disk failed validation: a tensor file (magic, shape or
    payload size), a JSON manifest or header, an artifact layer, or a
    Hessian cache entry."""


class UnsupportedDtype(GlqError):
    """A tensor file declares a dtype code this reader does not know."""


class InvalidSize(GlqError):
    """A size or count argument is out of its legal range."""


class ConfigError(GlqError):
    """A run configuration failed validation."""
