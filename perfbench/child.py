"""One motionsieve run in a fresh interpreter, so that set-up time includes
the import and peak RSS belongs to this run alone.

    python3 perfbench/child.py <mode> --src DIR --spawned T [options]

Modes:

* ``compress``: ``run_pipeline`` with the default MotionConfig, fed by a
  CodecDecoder over the load generator, into in-memory sinks that digest
  the video and keep the sidecar text.
* ``reference``: ``reference_compress`` over the same stream, for the
  correctness gate; also timed, as the single-threaded baseline.
* ``inputs``: the ``compress`` run written to files, as the stored video
  and sidecar that ``reconstruct`` rebuilds from, plus the digests that
  rebuilding them must give.
* ``reconstruct``: ``reconstruct_files`` from those files into a
  temporary directory, digested and then deleted.

``--spawned`` is the parent's ``time.monotonic()`` just before it started
this process (the clock is system-wide), so set-up is measured from
interpreter start.  The result is one JSON object on the last line of
stdout.  ``--spans FILE`` traces the run (see tracing.py) and writes the
spans to FILE.  ``--corrupt byte|row`` damages this run's output after
motionsieve produced it; the self-test uses it to prove the gate bites.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import shlex
import shutil
import sys
import tempfile
import time

from tracing import Tracer, install

HERE = os.path.dirname(os.path.abspath(__file__))


class DigestSink:
    """Binary stream that keeps only a SHA-256 of what is written."""

    def __init__(self, corrupt: bool = False):
        self.hash = hashlib.sha256()
        self._corrupt = corrupt
        self._writes = 0

    def write(self, data) -> int:
        self._writes += 1
        if self._corrupt and self._writes == 3:
            # first frame payload (header, marker, payload): flip one byte
            data = bytes([data[0] ^ 1]) + bytes(data[1:])
        self.hash.update(data)
        return len(data)

    def flush(self) -> None:
        pass


class RowSink(io.StringIO):
    """Text stream for the sidecar; may drop the first data row."""

    def __init__(self, drop_row: bool = False):
        super().__init__()
        self._drop = drop_row
        self._writes = 0

    def write(self, text: str) -> int:
        self._writes += 1
        if self._drop and self._writes == 2:
            return len(text)
        return super().write(text)


def decode_template(scene: str, frames: int) -> str:
    """Decode command whose ``{input}`` is the seed."""
    argv = [sys.executable, os.path.join(HERE, "loadgen.py"), scene, str(frames)]
    return " ".join(shlex.quote(a) for a in argv) + " {input}"


def cpu_seconds(who=resource.RUSAGE_SELF) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["compress", "reference", "inputs", "reconstruct"])
    parser.add_argument("--src", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--scene", required=True, choices=["static", "busy"])
    parser.add_argument("--frames", type=int, required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--corrupt", choices=["byte", "row"])
    args = parser.parse_args(argv)

    sys.path.insert(0, args.src)
    import motionsieve

    imported = time.monotonic()
    tracer = None
    if args.spans:
        tracer = Tracer()
        install(tracer)
    run = {"reconstruct": run_reconstruct, "reference": run_reference}.get(
        args.mode, run_compress
    )
    result = run(motionsieve, args, tracer)
    result["import_s"] = imported - args.spawned
    result["open_s"] = result.pop("handover") - imported
    result["setup_s"] = result["import_s"] + result["open_s"]
    result["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


def _timed(fn):
    """(result, wall seconds, cpu seconds) of fn()."""
    cpu = cpu_seconds()
    start = time.monotonic()
    out = fn()
    return out, time.monotonic() - start, cpu_seconds() - cpu


def run_compress(ms, args, tracer) -> dict:
    source = ms.CodecDecoder(decode_template(args.scene, args.frames), args.seed)
    try:
        if args.mode == "inputs":
            video = open(os.path.join(args.workdir, "stored.y4m"), "wb")
            rows = open(os.path.join(args.workdir, "stored.csv"), "w",
                        encoding="utf-8", newline="")
        else:
            video = DigestSink(corrupt=args.corrupt == "byte")
            rows = RowSink(drop_row=args.corrupt == "row")
        video_sink = ms.Y4MWriter(video, source.header)
        sidecar_sink = ms.SidecarWriter(rows)
        feed = source if tracer is None else tracer.source(source)
        handover = time.monotonic()
        report, wall, cpu = _timed(
            lambda: ms.run_pipeline(feed, ms.MotionConfig(), video_sink, sidecar_sink)
        )
        source.close()
    except BaseException:
        source.abort()
        raise
    result = {
        "handover": handover,
        "frames": report.frames_in,
        "wall_s": wall,
        "cpu_s": cpu,
        "generator_cpu_s": cpu_seconds(resource.RUSAGE_CHILDREN),
    }
    if args.mode == "inputs":
        video.close()
        rows.close()
        result.update(stored_digests(os.path.join(args.workdir, "stored.y4m"),
                                     os.path.join(args.workdir, "stored.csv")))
    else:
        result["video_sha256"] = video.hash.hexdigest()
        result["sidecar"] = rows.getvalue()
    return result


def run_reference(ms, args, tracer) -> dict:
    source = ms.CodecDecoder(decode_template(args.scene, args.frames), args.seed)
    handover = time.monotonic()
    counted = [0]

    def frames():
        for frame in source:
            counted[0] += 1
            yield frame

    try:
        (kept, records), wall, _ = _timed(
            lambda: ms.reference_compress(frames(), ms.MotionConfig())
        )
        source.close()
    except BaseException:
        source.abort()
        raise
    video = DigestSink()
    writer = ms.Y4MWriter(video, source.header)
    for frame in kept:
        writer.write_frame(frame)
    rows = io.StringIO()
    ms.write_sidecar(records, rows)
    return {
        "handover": handover,
        "frames": counted[0],
        "reference_fps": counted[0] / wall,
        "video_sha256": video.hash.hexdigest(),
        "sidecar": rows.getvalue(),
    }


def run_reconstruct(ms, args, tracer) -> dict:
    stored_video = os.path.join(args.workdir, "stored.y4m")
    with open(os.path.join(args.workdir, "stored.csv"), encoding="utf-8", newline="") as fh:
        records = ms.read_sidecar(fh)
    reader = ms.Y4MReader(open(stored_video, "rb"))
    out_dir = tempfile.mkdtemp(prefix="rebuild-", dir=args.workdir)
    try:
        feed = reader if tracer is None else tracer.source(reader)
        handover = time.monotonic()
        try:
            paths, wall, cpu = _timed(
                lambda: ms.reconstruct_files(
                    feed, reader.header, records, os.path.join(out_dir, "out")
                )
            )
        finally:
            reader.close()
        dl_path, fgbg_path, align_path = paths
        damage(args.corrupt, dl_path, align_path)
        with open(align_path, encoding="utf-8") as fh:
            align = fh.read()
        result = {
            "handover": handover,
            "frames": len(records),
            "wall_s": wall,
            "cpu_s": cpu,
            "generator_cpu_s": 0.0,
            "dl_sha256": _file_sha256(dl_path),
            "fgbg_sha256": _file_sha256(fgbg_path),
            "fgbg_frames": ms.count_y4m_frames(fgbg_path),
            "align_ok": align.splitlines() == ["position,input_frame"] + [
                f"{pos},{rec.input_frame}" for pos, rec in enumerate(records)
            ],
        }
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return result


def damage(corrupt, dl_path: str, align_path: str) -> None:
    """Flip the last byte of the pass-through stream, or drop the first
    alignment row."""
    if corrupt == "byte":
        with open(dl_path, "r+b") as fh:
            fh.seek(-1, os.SEEK_END)
            last = fh.read(1)
            fh.seek(-1, os.SEEK_END)
            fh.write(bytes([last[0] ^ 1]))
    elif corrupt == "row":
        with open(align_path, encoding="utf-8") as fh:
            lines = fh.readlines()
        with open(align_path, "w", encoding="utf-8") as fh:
            fh.writelines(lines[:1] + lines[2:])


def stored_digests(video_path: str, sidecar_path: str) -> dict:
    """What reconstruct must produce from the stored files, computed here
    without motionsieve: the pass-through stream is the stored video byte
    for byte, and the rebuilt gray stream holds, per stored frame, its luma
    when full, else min(|ref - luma| + luma, 255) against the luma of the
    last full frame."""
    import numpy as np

    with open(sidecar_path, encoding="utf-8") as fh:
        full = [line.rstrip("\n").endswith(",1") for line in fh.readlines()[1:]]
    fgbg = hashlib.sha256()
    with open(video_path, "rb") as fh:
        header = fh.readline()
        tags = dict((t[:1], t[1:]) for t in header.decode("ascii").split()[1:])
        width, height = int(tags["W"]), int(tags["H"])
        fgbg.update(f"YUV4MPEG2 W{width} H{height} F{tags['F']} Cmono\n".encode("ascii"))
        ref = None
        for is_full in full:
            fh.readline()
            payload = fh.read(width * height * 3 // 2)
            luma = np.frombuffer(payload, np.uint8, width * height).astype(np.int16)
            if is_full:
                ref = luma
                rebuilt = luma
            else:
                rebuilt = np.minimum(np.abs(ref - luma) + luma, 255)
            fgbg.update(b"FRAME\n")
            fgbg.update(rebuilt.astype(np.uint8).tobytes())
    return {"stored_sha256": _file_sha256(video_path), "fgbg_sha256": fgbg.hexdigest()}


def _file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 22):
            digest.update(chunk)
    return digest.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
