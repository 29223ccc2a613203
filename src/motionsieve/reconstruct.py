"""Rebuild full-frame streams from a compressed video plus its sidecar.

Playback of a compressed recording must serve two consumers: detectors
that want the original color frames as stored, and background-subtraction
detectors that want every frame against a stable background.  The first
stream is a pass-through.  The second is rebuilt in grayscale from the
most recent full frame: the environment outside the motion region is
recovered as the absolute difference between reference and motion frame,
then the motion content is added back with saturation at 255.  Both steps
are computed in uint8, with no widened copy of the frame.

Where the motion frame is zero (everything the mask removed), the rebuilt
pixel equals the reference exactly; inside the kept region it equals the
reference wherever the scene did not actually change.  The rebuilt frame
is never darker than the motion frame.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import MissingReference, SidecarMismatch
from .frame_io import Frame, PixelFormat, StreamHeader, Y4MWriter
from .motion_core import abs_diff, check_gray_pair, to_grayscale
from .sidecar import SidecarRecord

# The environment estimate |ref - mot| of equal-shape uint8 gray frames is
# the absolute difference that motion analysis thresholds.
env_frame = abs_diff


def rec_frame(env: np.ndarray, mot: np.ndarray) -> np.ndarray:
    """Saturating sum env + mot, capped at 255."""
    check_gray_pair(env, mot)
    # env + mot passes 255 exactly when env > 255 - mot, so
    # mot + min(env, 255 - mot) is the capped sum and never wraps.
    rebuilt = 255 - mot
    np.minimum(env, rebuilt, out=rebuilt)
    rebuilt += mot
    return rebuilt


@dataclass
class ReferenceStore:
    """Most recent full frame, held as grayscale, with its source index."""

    gray: np.ndarray
    input_index: int


@dataclass(frozen=True, eq=False)
class RebuiltFrame:
    """One reconstructed position: the stored color frame untouched, and
    the grayscale frame with the environment filled back in."""

    input_index: int
    is_full: bool
    color: Frame
    restored: np.ndarray


def reconstruct_stream(
    frames: Iterable[Frame], records: Iterable[SidecarRecord]
) -> Iterator[RebuiltFrame]:
    """Pair compressed frames with sidecar rows and rebuild each position.

    Raises SidecarMismatch when the counts disagree and MissingReference
    when a masked frame arrives before any full frame.  Errors surface
    while iterating, since both inputs may be streams.
    """
    record_iter = iter(records)
    reference: ReferenceStore | None = None
    for frame in frames:
        record = next(record_iter, None)
        if record is None:
            raise SidecarMismatch("video has more frames than sidecar rows")
        gray = to_grayscale(frame)
        if record.full_frame:
            reference = ReferenceStore(gray, record.input_frame)
            restored = gray
        else:
            if reference is None:
                raise MissingReference(
                    f"row for input frame {record.input_frame} is masked "
                    "but no full frame precedes it"
                )
            restored = rec_frame(env_frame(reference.gray, gray), gray)
        yield RebuiltFrame(record.input_frame, record.full_frame, frame, restored)
    if next(record_iter, None) is not None:
        raise SidecarMismatch("sidecar has more rows than video frames")


def reconstruct_files(
    frames: Iterable[Frame],
    header: StreamHeader,
    records: Iterable[SidecarRecord],
    out_prefix: str,
) -> tuple[str, str, str]:
    """Write both playback streams plus the alignment table.

    Produces ``<prefix>.dl.y4m`` (color pass-through, original header),
    ``<prefix>.fgbg.y4m`` (rebuilt grayscale), and ``<prefix>.align.csv``
    mapping output position to source frame index.  Returns the three
    paths.  Each is written as ``*.partial`` and renamed into place only
    after the whole stream succeeded, so a failed run leaves only
    ``*.partial`` files.
    """
    paths = (
        out_prefix + ".dl.y4m", out_prefix + ".fgbg.y4m", out_prefix + ".align.csv"
    )
    dl_partial, fgbg_partial, align_partial = (path + ".partial" for path in paths)
    mono_header = StreamHeader(
        header.width,
        header.height,
        header.fps_num,
        header.fps_den,
        PixelFormat.GRAY8,
    )
    with open(dl_partial, "wb") as dl_file, open(fgbg_partial, "wb") as fgbg_file, open(
        align_partial, "w", encoding="utf-8", newline=""
    ) as align_file:
        dl_writer = Y4MWriter(dl_file, header)
        fgbg_writer = Y4MWriter(fgbg_file, mono_header)
        align_file.write("position,input_frame\n")
        for position, rebuilt in enumerate(reconstruct_stream(frames, records)):
            dl_writer.write_frame(rebuilt.color)
            fgbg_writer.write_frame(
                Frame(
                    position,
                    header.width,
                    header.height,
                    PixelFormat.GRAY8,
                    rebuilt.restored.tobytes(),
                )
            )
            align_file.write(f"{position},{rebuilt.input_index}\n")
        dl_writer.flush()
        fgbg_writer.flush()
    for path in paths:
        os.replace(path + ".partial", path)
    return paths
