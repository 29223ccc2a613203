"""Exception types shared across the package."""


class MotionSieveError(Exception):
    """Base class for all errors raised by this package."""


class MalformedHeader(MotionSieveError):
    """Stream header is missing or cannot be decoded."""


class UnsupportedColorspace(MotionSieveError):
    """Y4M colorspace tag outside the mono/420/444 families."""


class MalformedFrameMarker(MotionSieveError):
    """Expected a FRAME marker line, found something else."""


class TruncatedFrame(MotionSieveError):
    """Frame payload ended before the header-implied size."""


class DimensionMismatch(MotionSieveError):
    """Frame or mask dimensions disagree with their peer."""


class SinkUnavailable(MotionSieveError):
    """A write sink failed or was closed underneath us."""


class SpawnFailure(MotionSieveError):
    """External codec command could not be started."""


class NonZeroExit(MotionSieveError):
    """External codec command exited with a failure status."""


class BrokenPipe(MotionSieveError):
    """External codec command stopped consuming our stream."""


class MalformedRow(MotionSieveError):
    """Sidecar CSV row is not schema-valid."""


class NonMonotonicIndex(MotionSieveError):
    """Sidecar indices are out of order or leave gaps."""


class ZeroInput(MotionSieveError):
    """Reduction percentages are undefined for empty inputs."""


class TooFewFrames(MotionSieveError):
    """Pixel-change statistics need at least two frames."""


class SidecarMismatch(MotionSieveError):
    """Sidecar row count disagrees with the video frame count."""


class MissingReference(MotionSieveError):
    """Motion frame encountered before any full reference frame."""
