"""Minimal external codec: gzip a Y4M stream into a single file.

Speaks the same child-process convention as any real codec command, so it
slots straight into --decode-cmd / --encode-cmd:

    encode:  y4mgz encode OUTPUT    (Y4M on stdin -> gzip file, level 1)
    decode:  y4mgz decode INPUT     (gzip file -> Y4M on stdout)

Useful for tests and for hosts without ffmpeg; a real deployment would
point the templates at an actual video encoder instead.
"""

from __future__ import annotations

import argparse
import gzip
import os
import shutil
import sys

_CHUNK = 1 << 20


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="y4mgz", description="gzip-backed Y4M codec command"
    )
    commands = parser.add_subparsers(dest="command", required=True)
    encode = commands.add_parser("encode", help="Y4M on stdin -> gzip file")
    encode.add_argument("output", help="compressed file to write")
    decode = commands.add_parser("decode", help="gzip file -> Y4M on stdout")
    decode.add_argument("input", help="compressed file to read")
    args = parser.parse_args(argv)

    if args.command == "encode":
        # No file name and a zero mtime in the gzip header, so that one
        # input always encodes to the same bytes.
        with open(args.output, "wb") as raw, gzip.GzipFile(
            filename="", mode="wb", compresslevel=1, fileobj=raw, mtime=0
        ) as sink:
            shutil.copyfileobj(sys.stdin.buffer, sink, _CHUNK)
    else:
        try:
            with gzip.open(args.input, "rb") as source:
                shutil.copyfileobj(source, sys.stdout.buffer, _CHUNK)
            sys.stdout.buffer.flush()
        except BrokenPipeError:
            # Consumer stopped early; not our error to report.  Redirect
            # stdout at the fd level so interpreter shutdown cannot trip
            # over the dead pipe.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 0
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
