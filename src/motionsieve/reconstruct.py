"""Rebuild full-frame streams from a compressed video plus its sidecar.

Playback of a compressed recording must serve two consumers: detectors
that want the original color frames as stored, and background-subtraction
detectors that want every frame against a stable background.  The first
stream is a pass-through.  The second is rebuilt in grayscale from the
most recent full frame: the environment outside the motion region is
recovered as the absolute difference between reference and motion frame,
then the motion content is added back with saturation at 255.  Both steps
are computed in uint8, in row bands of about 256 KiB that stay in a
core's cache, with no frame-sized temporary.

Where the motion frame is zero (everything the mask removed), the rebuilt
pixel equals the reference exactly; inside the kept region it equals the
reference wherever the scene did not actually change.  The rebuilt frame
is never darker than the motion frame.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DimensionMismatch, MissingReference, SidecarMismatch
from .frame_io import Frame, PixelFormat, StreamHeader, Y4MWriter, _Sink, committed
from .motion_core import _band_diffs, abs_diff, check_gray_pair, to_grayscale
from .pipeline import _run_stages
from .sidecar import SidecarRecord

# What reconstruct_files appends to its output prefix: the color stream,
# the rebuilt grayscale stream and the alignment table.
OUTPUT_SUFFIXES = (".dl.y4m", ".fgbg.y4m", ".align.csv")

# The environment estimate |ref - mot| of equal-shape uint8 gray frames is
# the absolute difference that motion analysis thresholds.
env_frame = abs_diff


def rec_frame(
    env: np.ndarray, mot: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Saturating sum env + mot, capped at 255.

    ``out``, if given, is a uint8 array of their shape that receives the
    sum and is returned, so the call allocates nothing.  It may not
    overlap either operand.
    """
    check_gray_pair(env, mot)
    # env + mot passes 255 exactly when env > 255 - mot, so
    # mot + min(env, 255 - mot) is the capped sum and never wraps.
    rebuilt = np.subtract(255, mot, out=out)
    np.minimum(env, rebuilt, out=rebuilt)
    rebuilt += mot
    return rebuilt


@dataclass(frozen=True, eq=False)
class RebuiltFrame:
    """One reconstructed position: the stored color frame untouched, and
    the grayscale frame with the environment filled back in.  ``restored``
    is read-only, never a view into ``color``: a full row's is a copy of
    its luma, and the reference that later masked rows are rebuilt from."""

    input_index: int
    is_full: bool
    color: Frame
    restored: np.ndarray


def reconstruct_stream(
    frames: Iterable[Frame], records: Iterable[SidecarRecord]
) -> Iterator[RebuiltFrame]:
    """Pair compressed frames with sidecar rows and rebuild each position.

    Raises SidecarMismatch when the counts disagree, MissingReference
    when a masked frame arrives before any full frame and
    DimensionMismatch when a masked frame's size is not its reference's.
    Errors surface while iterating, since both inputs may be streams.
    """
    record_iter = iter(records)
    # The most recent full frame's luma, copied so that it does not keep
    # the whole color frame alive while it is the reference.
    reference: np.ndarray | None = None
    for frame in frames:
        record = next(record_iter, None)
        if record is None:
            raise SidecarMismatch("video has more frames than sidecar rows")
        gray = to_grayscale(frame)
        if record.full_frame:
            reference = restored = gray.copy()
        else:
            if reference is None:
                raise MissingReference(
                    f"row for input frame {record.input_frame} is masked "
                    "but no full frame precedes it"
                )
            height, width = gray.shape
            if reference.shape != (height, width):
                raise DimensionMismatch(
                    f"frame {record.input_frame} is {width}x{height}, "
                    f"reference is {reference.shape[1]}x{reference.shape[0]}"
                )
            restored = np.empty_like(gray)
            for rows, env in _band_diffs(reference, gray, env_frame):
                rec_frame(env, gray[rows], restored[rows])
        restored.flags.writeable = False
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
    ``*.partial`` files.  Any error is raised as it was raised, and a write
    the disk refuses raises SinkUnavailable.  Nothing passed in is closed.
    """
    paths = tuple(out_prefix + suffix for suffix in OUTPUT_SUFFIXES)
    with committed(paths) as partials:
        _write_playback(frames, header, records, partials)
    return paths


def _write_playback(
    frames: Iterable[Frame], header: StreamHeader,
    records: Iterable[SidecarRecord], partials: Sequence[str],
) -> None:
    """The writing half of reconstruct_files, which renames nothing: one
    thread reads ``frames`` and rebuilds each position, the other writes
    the three files to ``partials``, in OUTPUT_SUFFIXES order, with one
    position queued between them.  The first error of either is raised as
    it was raised; the files are closed once both are done, or aborted."""
    dl_partial, fgbg_partial, align_partial = partials
    mono_header = replace(header, pixel_format=PixelFormat.GRAY8, extra_tags=())
    with ExitStack() as streams:
        dl_writer = streams.enter_context(Y4MWriter(open(dl_partial, "wb"), header))
        fgbg_writer = streams.enter_context(
            Y4MWriter(open(fgbg_partial, "wb"), mono_header)
        )
        align = streams.enter_context(
            _Sink(open(align_partial, "w", encoding="utf-8", newline=""))
        )
        align._write("position,input_frame\n")

        def emit(position: int, rebuilt: RebuiltFrame) -> None:
            dl_writer.write_frame(rebuilt.color)
            fgbg_writer.write_frame(
                Frame(
                    position,
                    header.width,
                    header.height,
                    PixelFormat.GRAY8,
                    rebuilt.restored,
                )
            )
            align._write(f"{position},{rebuilt.input_index}\n")

        # One queued position, so at most two are held at once: the one
        # being written and the one queued.  Each holds a color frame and a
        # gray one, 5.2 MB at 1080p YUV420, so every deeper slot costs that.
        _run_stages(reconstruct_stream(frames, records), emit, 1)
