"""Command-line front end: compress, reconstruct, stats, bench.

Error contract: every failure prints one line on stderr shaped like
``error: <Category>: <detail>`` and exits 1 for runtime errors or 2 for
argument problems.  An interrupted run prints ``error: Interrupted`` and
exits 130 for Ctrl-C or 143 for SIGTERM.  Success prints a short human
report on stdout.  compress, stats and bench take ``--stats-json PATH|-``:
the JSON report goes to PATH, or with ``-`` stdout carries the JSON alone.
"""

from __future__ import annotations

import argparse
import inspect
import os
import signal
import sys
import tempfile
import threading
from contextlib import ExitStack, contextmanager
from dataclasses import fields
from statistics import fmean, stdev

from .errors import MotionSieveError, SidecarMismatch, ZeroInput
from .frame_io import (
    CodecDecoder,
    CodecEncoder,
    PixelFormat,
    RawReader,
    StreamHeader,
    Y4MReader,
    Y4MWriter,
    check_template,
    count_y4m_frames,
)
from .motion_core import MotionConfig
from .pipeline import PipelineReport, run_pipeline
from .reconstruct import reconstruct_files
from .sidecar import SidecarWriter, read_sidecar
from .stats import (
    CompressionStats,
    pixel_change_series,
    render_json,
    stats_json,
    stats_table,
)

# One row per motion flag: (flag as a config key, MotionConfig field, help
# prose).  Each flag's "(default N)" is read from MotionConfig itself.
_MOTION_FLAGS = (
    ("threshold", "threshold", "luma difference threshold, strict, 1-255"),
    ("downscale", "downscale", "analysis grid block edge; 1 disables"),
    ("buffer", "buffer_radius", "mask dilation radius in grid cells"),
    ("keyframe_interval", "keyframe_interval", "full-frame cadence inside a motion run"),
    ("min_motion_pixels", "min_motion_pixels", "minimum mask population to keep a frame"),
)

_CONFIG_KEYS = {flag for flag, _, _ in _MOTION_FLAGS} | {"decode_cmd", "encode_cmd"}


class _UsageError(Exception):
    """Bad arguments or config; reported with exit status 2."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors keep the one-line error contract
    instead of printing usage and exiting."""

    def error(self, message):
        raise _UsageError(message)


class _Terminated(KeyboardInterrupt):
    """SIGTERM, raised so that it takes the Ctrl-C path: the pipeline
    stages stop and the codec children are killed."""


def _raise_terminated(signum, frame):
    raise _Terminated


def _require_file(path: str) -> None:
    if not os.path.isfile(path):
        raise _UsageError(f"no such file: {path}")


def _to_int(name: str, value) -> int:
    if isinstance(value, int):
        return value
    try:
        return int(str(value), 10)
    except ValueError:
        raise _UsageError(f"{name} must be an integer, got {value!r}") from None


def _load_config(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise _UsageError(f"cannot read config file: {exc}") from None
    except UnicodeDecodeError:
        raise _UsageError(f"config file is not UTF-8 text: {path}") from None
    values: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise _UsageError(f"{path}:{lineno}: expected key=value")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if len(value) >= 2 and value[0] == value[-1] and value[0] in "\"'":
            value = value[1:-1]
        if key not in _CONFIG_KEYS:
            raise _UsageError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def _resolve_motion(ns) -> tuple[MotionConfig, str | None, str | None]:
    """Merge flags over config-file values over defaults."""
    file_values = _load_config(ns.config) if getattr(ns, "config", None) else {}

    def pick(name):
        flag = getattr(ns, name, None)
        return flag if flag is not None else file_values.get(name)

    overrides = {}
    for flag, field, _ in _MOTION_FLAGS:
        value = pick(flag)
        if value is not None:
            overrides[field] = _to_int(flag, value)
    try:
        config = MotionConfig(**overrides)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None

    decode_cmd = _checked_template("decode", pick("decode_cmd"))
    encode_cmd = _checked_template("encode", pick("encode_cmd"))
    return config, decode_cmd, encode_cmd


def _checked_template(role: str, template: str | None) -> str | None:
    if template is not None:
        try:
            check_template(role, template)
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
    return template


def _parse_size(text: str) -> tuple[int, int]:
    width, sep, height = text.lower().partition("x")
    if not sep:
        raise _UsageError(f"size must look like WxH, got {text!r}")
    return _to_int("size", width), _to_int("size", height)


def _parse_fps(text: str | None) -> tuple[int, int]:
    if text is None:
        return 30, 1
    num, sep, den = text.partition(":")
    if not sep:
        return _to_int("fps", num), 1
    return _to_int("fps", num), _to_int("fps", den)


def _wrap_stream(stream, ns):
    if getattr(ns, "raw_format", None):
        if not ns.size:
            raise _UsageError("--raw-format requires --size WxH")
        width, height = _parse_size(ns.size)
        fps_num, fps_den = _parse_fps(ns.fps)
        try:
            header = StreamHeader(
                width, height, fps_num, fps_den, PixelFormat(ns.raw_format)
            )
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
        return RawReader(stream, header)
    return Y4MReader(stream)


@contextmanager
def _owned(stream):
    """Close ``stream`` after the block; if the block raised, abort it
    instead (codec children are killed) and keep the block's error."""
    try:
        yield stream
    except BaseException:
        try:
            getattr(stream, "abort", stream.close)()
        except Exception:
            pass
        raise
    stream.close()


def _open_source(ns, decode_cmd, streams: ExitStack):
    """Open the input per flags as a frame source whose streams
    ``streams`` owns; stdin is not ours to close."""
    if decode_cmd and getattr(ns, "raw_format", None):
        raise _UsageError("--raw-format cannot be combined with --decode-cmd")
    if ns.input == "-":
        if decode_cmd:
            raise _UsageError("--decode-cmd needs a real input file, not -")
        return _wrap_stream(sys.stdin.buffer, ns)
    _require_file(ns.input)
    if decode_cmd:
        return streams.enter_context(_owned(CodecDecoder(decode_cmd, ns.input)))
    return _wrap_stream(streams.enter_context(_owned(open(ns.input, "rb"))), ns)


def _then_close(frames, streams: ExitStack):
    """Yield ``frames``, then close ``streams`` before reporting the end,
    so a decoder's nonzero exit fails the consumer before it commits."""
    yield from frames
    streams.close()


def _emit(text: str, payload: str | None, dest: str | None) -> None:
    """Report a command's result: the human ``text`` on stdout and the JSON
    ``payload`` in the file ``dest``, or, when ``dest`` is "-", the JSON
    alone on stdout.  The file is written first, so a report that cannot
    be written fails the command before stdout claims success."""
    if dest not in (None, "-"):
        with open(dest, "w", encoding="utf-8") as handle:
            handle.write(payload)
    sys.stdout.write(payload if dest == "-" else text)


def _compress_once(ns, motion, prefix) -> tuple[PipelineReport, tuple[str, str]]:
    """Compress the input into <prefix>.y4m (or .enc) and <prefix>.csv.

    Both are written as *.partial and renamed into place only after every
    stream closed cleanly; a crashed run leaves the *.partial files behind
    so it is never mistaken for a complete one.  Returns the run's report
    and the two final paths.
    """
    config, decode_cmd, encode_cmd = motion
    paths = prefix + (".enc" if encode_cmd else ".y4m"), prefix + ".csv"
    video_partial, sidecar_partial = (path + ".partial" for path in paths)
    with ExitStack() as streams:
        source = _open_source(ns, decode_cmd, streams)
        if encode_cmd:
            video_sink = CodecEncoder(encode_cmd, video_partial, source.header)
        else:
            video_sink = Y4MWriter(open(video_partial, "wb"), source.header)
        streams.enter_context(_owned(video_sink))
        sidecar_file = open(sidecar_partial, "w", encoding="utf-8", newline="")
        streams.enter_context(_owned(sidecar_file))
        report = run_pipeline(
            source, config, video_sink, SidecarWriter(sidecar_file)
        )
    for path in paths:
        os.replace(path + ".partial", path)
    return report, paths


def cmd_compress(ns) -> int:
    report, (video_final, sidecar_final) = _compress_once(
        ns, _resolve_motion(ns), ns.output
    )
    bytes_in = None if ns.input == "-" else os.path.getsize(ns.input)
    bytes_out = os.path.getsize(video_final) + os.path.getsize(sidecar_final)
    stats = CompressionStats(
        report.frames_in, report.frames_out, bytes_in, bytes_out
    )
    try:
        reduction = f"{stats.frame_reduction_pct:.2f}%"
    except ZeroInput:
        reduction = "n/a"
    text = (
        f"frames in:       {report.frames_in}\n"
        f"frames out:      {report.frames_out}\n"
        f"frame reduction: {reduction}\n"
        f"wall time:       {report.wall_time:.2f} s\n"
        f"speed:           {report.processing_speed:.1f} fps\n"
        f"video:           {video_final} ({os.path.getsize(video_final)} bytes)\n"
        f"sidecar:         {sidecar_final} ({os.path.getsize(sidecar_final)} bytes)\n"
    )
    if stats.size_reduction_pct is not None:
        text += f"size reduction:  {stats.size_reduction_pct:.2f}%\n"
    # An empty input has no frame reduction, so its JSON is only built
    # when asked for.
    _emit(text, stats_json(stats) if ns.stats_json else None, ns.stats_json)
    return 0


def cmd_reconstruct(ns) -> int:
    decode_cmd = _checked_template("decode", ns.decode_cmd)
    _require_file(ns.input)
    _require_file(ns.sidecar)
    with open(ns.sidecar, "r", encoding="utf-8", newline="") as handle:
        records = read_sidecar(handle)
    with ExitStack() as streams:
        source = _open_source(ns, decode_cmd, streams)
        paths = reconstruct_files(
            _then_close(source, streams), source.header, records, ns.output
        )
    for path in paths:
        sys.stdout.write(f"{path}\n")
    return 0


def cmd_stats(ns) -> int:
    if ns.pixel_change:
        if not ns.input:
            raise _UsageError("--pixel-change requires --input")
        _require_file(ns.input)
        if not 0 <= ns.threshold <= 255:
            raise _UsageError("threshold must be in [0, 255]")
        with open(ns.input, "rb") as handle:
            series = pixel_change_series(iter(Y4MReader(handle)), ns.threshold)
        table = (
            f"pixel change mean    {series.mean:.2f}%\n"
            f"pixel change median  {series.median:.2f}%\n"
        )
        payload = render_json({
            "pixel_change_pct": {
                "mean": series.mean,
                "median": series.median,
                "per_frame": series.per_frame,
            }
        })
    else:
        stats = _compression_stats(ns)
        table, payload = stats_table(stats), stats_json(stats)
    # With no --stats-json the JSON follows the table on stdout.
    _emit(table if ns.stats_json else f"{table}\n{payload}", payload, ns.stats_json)
    return 0


def _compression_stats(ns) -> CompressionStats:
    """The counts given as flags, or counted from the files given."""
    if ns.frames_in is not None or ns.frames_out is not None:
        if ns.frames_in is None or ns.frames_out is None:
            raise _UsageError("counts mode needs both --frames-in and --frames-out")
        if (ns.bytes_in is None) != (ns.bytes_out is None):
            raise _UsageError("--bytes-in and --bytes-out must be given together")
        if ns.frames_out < 0 or ns.frames_out > ns.frames_in:
            raise _UsageError("--frames-out must be in [0, --frames-in]")
        return CompressionStats(
            ns.frames_in, ns.frames_out, ns.bytes_in, ns.bytes_out
        )
    if ns.raw or ns.processed:
        if not (ns.raw and ns.processed):
            raise _UsageError("file mode needs both --raw and --processed")
        _require_file(ns.raw)
        _require_file(ns.processed)
        frames_in = count_y4m_frames(ns.raw)
        frames_out = count_y4m_frames(ns.processed)
        bytes_in = os.path.getsize(ns.raw)
        bytes_out = os.path.getsize(ns.processed)
        if ns.sidecar:
            _require_file(ns.sidecar)
            bytes_out += os.path.getsize(ns.sidecar)
            with open(ns.sidecar, "r", encoding="utf-8", newline="") as handle:
                rows = len(read_sidecar(handle))
            if rows != frames_out:
                raise SidecarMismatch(
                    f"sidecar has {rows} rows, video has {frames_out} frames"
                )
        return CompressionStats(frames_in, frames_out, bytes_in, bytes_out)
    raise _UsageError(
        "select a mode: --frames-in/--frames-out, --raw/--processed, "
        "or --pixel-change"
    )


def cmd_bench(ns) -> int:
    motion = _resolve_motion(ns)
    if ns.replicates < 1:
        raise _UsageError("replicates must be >= 1")
    if ns.input == "-":
        raise _UsageError("bench needs a re-readable input file, not -")

    with tempfile.TemporaryDirectory(prefix="motionsieve-bench-") as tmp:
        reports = [
            _compress_once(ns, motion, os.path.join(tmp, f"replicate{index}"))[0]
            for index in range(ns.replicates)
        ]

    times = [report.wall_time for report in reports]
    mean_time = fmean(times)
    sd_time = stdev(times) if len(times) > 1 else 0.0
    frames = reports[0].frames_in
    fps = frames / mean_time
    text = "".join(
        f"replicate {index}: {report.wall_time:.2f} s "
        f"({report.processing_speed:.1f} fps)\n"
        for index, report in enumerate(reports, start=1)
    )
    text += (
        f"time:  {mean_time:.2f} +/- {sd_time:.2f} s "
        f"over {ns.replicates} replicates\n"
        f"speed: {fps:.1f} fps ({frames} frames)\n"
    )
    payload = render_json({
        "replicates": ns.replicates,
        "times_sec": times,
        "mean_sec": mean_time,
        "sd_sec": sd_time,
        "frames": frames,
        "fps": fps,
    })
    _emit(text, payload, ns.stats_json)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="motionsieve",
        description=(
            "Motion-gated video compression with sidecar-indexed "
            "reconstruction"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    # Each flag that several subcommands take is declared once, in a parent.
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument(
        "--input", required=True,
        help="Y4M file (compress also takes - for stdin), "
        "or compressed file with --decode-cmd",
    )
    source.add_argument(
        "--decode-cmd",
        help="decode command template with {input}, emitting Y4M on stdout",
    )

    run = argparse.ArgumentParser(add_help=False)
    group = run.add_argument_group("motion analysis")
    defaults = {field.name: field.default for field in fields(MotionConfig)}
    for flag, field, prose in _MOTION_FLAGS:
        group.add_argument(
            "--" + flag.replace("_", "-"), type=int,
            help=f"{prose} (default {defaults[field]})",
        )
    group.add_argument(
        "--config",
        help="key=value file mirroring these flags; explicit flags win",
    )
    run.add_argument(
        "--encode-cmd",
        help="encode command template with {output}, reading Y4M on stdin",
    )
    run.add_argument(
        "--raw-format", choices=[pf.value for pf in PixelFormat],
        help="treat input as headerless planar frames of this layout",
    )
    run.add_argument("--size", help="WxH, required with --raw-format")
    run.add_argument(
        "--fps", help="frame rate N or N:D for raw input (default 30)"
    )

    report = argparse.ArgumentParser(add_help=False)
    report.add_argument(
        "--stats-json",
        help="write the JSON report to this file; - prints it alone on stdout",
    )

    compress = commands.add_parser(
        "compress", parents=[source, run, report],
        help="drop still frames, mask moving ones",
    )
    compress.add_argument(
        "--output", required=True,
        help="output prefix; writes <prefix>.y4m (or .enc) and <prefix>.csv",
    )
    compress.set_defaults(func=cmd_compress)

    reconstruct = commands.add_parser(
        "reconstruct", parents=[source],
        help="rebuild playback streams from compressed video + sidecar",
    )
    reconstruct.add_argument("--sidecar", required=True)
    reconstruct.add_argument(
        "--output", required=True,
        help="output prefix; writes .dl.y4m, .fgbg.y4m, .align.csv",
    )
    reconstruct.set_defaults(func=cmd_reconstruct)

    stats = commands.add_parser(
        "stats", parents=[report],
        help="reduction percentages and pixel-change statistics",
    )
    stats.add_argument("--frames-in", type=int)
    stats.add_argument("--frames-out", type=int)
    stats.add_argument("--bytes-in", type=float)
    stats.add_argument("--bytes-out", type=float)
    stats.add_argument("--raw", help="original video (Y4M) for file mode")
    stats.add_argument("--processed", help="compressed video (Y4M) for file mode")
    stats.add_argument("--sidecar", help="sidecar CSV, counted into bytes out")
    stats.add_argument(
        "--pixel-change", action="store_true",
        help="per-frame changed-pixel percentages for --input",
    )
    stats.add_argument("--input", help="video for --pixel-change")
    threshold = inspect.signature(pixel_change_series).parameters["threshold"]
    stats.add_argument(
        "--threshold", type=int, default=threshold.default,
        help=f"pixel-change threshold, 0-255 (default {threshold.default})",
    )
    stats.set_defaults(func=cmd_stats)

    bench = commands.add_parser(
        "bench", parents=[source, run, report],
        help="time repeated compression runs of one input",
    )
    bench.add_argument(
        "--replicates", type=int, default=3,
        help="number of timed runs (default 3)",
    )
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
        return ns.func(ns)
    except _UsageError as exc:
        print(f"error: InvalidArgument: {exc}", file=sys.stderr)
        return 2
    except MotionSieveError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: IO: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt as exc:
        print("error: Interrupted", file=sys.stderr)
        return 143 if isinstance(exc, _Terminated) else 130


def run() -> None:
    # Set here, not in main(), so that a program calling main() in-process
    # keeps its own SIGTERM handling.
    signal.signal(signal.SIGTERM, _raise_terminated)
    status = main()
    if any(thread.name.startswith("motionsieve-") and thread.is_alive()
           for thread in threading.enumerate()):
        # A stage stuck in a read nothing can abort, such as a stalled
        # stdin, would hang or crash interpreter shutdown; the outputs are
        # closed by now, so exit without it.
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(status)
    sys.exit(status)


if __name__ == "__main__":
    run()
