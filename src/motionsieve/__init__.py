"""Motion-gated video compression for long-running camera deployments.

Still frames are dropped, moving frames keep only their changing region
(plus a safety margin), and a CSV sidecar records where every emitted
frame came from so both original-timeline playback streams can be rebuilt
later.
"""

import os
import sys

# motionsieve never calls BLAS, yet OpenBLAS starts a spinning worker thread
# per extra core when numpy loads; keep this process's pool to one thread.
if "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .errors import (
    BrokenPipe,
    DimensionMismatch,
    MalformedFrameMarker,
    MalformedHeader,
    MalformedRow,
    MissingReference,
    MotionSieveError,
    NonMonotonicIndex,
    NonZeroExit,
    SidecarMismatch,
    SinkUnavailable,
    SpawnFailure,
    TooFewFrames,
    TruncatedFrame,
    UnsupportedColorspace,
    ZeroInput,
)
from .frame_io import (
    CodecDecoder,
    CodecEncoder,
    Frame,
    PixelFormat,
    RawReader,
    StreamHeader,
    Y4MReader,
    Y4MWriter,
    count_y4m_frames,
)
from .motion_core import MotionConfig
from .pipeline import PipelineReport, reference_compress, run_pipeline
from .reconstruct import RebuiltFrame, reconstruct_files, reconstruct_stream
from .sidecar import SidecarRecord, SidecarWriter, read_sidecar, write_sidecar
from .stats import (
    CompressionStats,
    PixelChangeSeries,
    frame_reduction,
    pixel_change_series,
    size_reduction,
    stats_json,
    stats_table,
)

__version__ = "0.1.0"

__all__ = [
    "BrokenPipe",
    "CodecDecoder",
    "CodecEncoder",
    "CompressionStats",
    "DimensionMismatch",
    "Frame",
    "MalformedFrameMarker",
    "MalformedHeader",
    "MalformedRow",
    "MissingReference",
    "MotionConfig",
    "MotionSieveError",
    "NonMonotonicIndex",
    "NonZeroExit",
    "PipelineReport",
    "PixelChangeSeries",
    "PixelFormat",
    "RawReader",
    "RebuiltFrame",
    "SidecarMismatch",
    "SidecarRecord",
    "SidecarWriter",
    "SinkUnavailable",
    "SpawnFailure",
    "StreamHeader",
    "TooFewFrames",
    "TruncatedFrame",
    "UnsupportedColorspace",
    "Y4MReader",
    "Y4MWriter",
    "ZeroInput",
    "count_y4m_frames",
    "frame_reduction",
    "pixel_change_series",
    "reconstruct_files",
    "reconstruct_stream",
    "read_sidecar",
    "reference_compress",
    "run_pipeline",
    "size_reduction",
    "stats_json",
    "stats_table",
    "write_sidecar",
]
