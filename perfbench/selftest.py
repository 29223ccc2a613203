"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

At a tiny frame count, every workload must run clean, untraced and traced,
and report every metric BENCHMARK.json lists.  The output check must count
a deliberately damaged output as a failure: one flipped byte in the video
(for reconstruct, in the rebuilt pass-through stream) and one dropped
sidecar row (for reconstruct, alignment row).  The damage is done to the
benchmark's own sinks after motionsieve wrote them; nothing under src/ is
touched.  Last, run.py must refuse, with a non-zero exit and no result, to
run from a directory that holds only the benchmark.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import run

TINY_FRAMES = 8
SEED = 5


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for name in run.WORKLOADS:
        reference, runs = run.measure(name, SEED, 0, True, frames=TINY_FRAMES, min_runs=1)
        errors = [e for r in runs for e in r.errors]
        if errors or [r.traced for r in runs] != [False, True]:
            problems.append(f"{name}: clean runs failed: {errors}")
            continue
        reported = set(run.end_to_end(runs)) | set(run.per_layer(reference, runs))
        listed = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
        if reported != listed:
            problems.append(f"{name}: reports {sorted(reported ^ listed)} unlike BENCHMARK.json")
        layers = runs[1].layers
        if run.WORKLOADS[name].mode == "compress":
            counted = layers["motion_core.dropped"] + layers["motion_core.masked"] + layers["motion_core.full"]
            if counted != TINY_FRAMES:
                problems.append(f"{name}: traced verdicts cover {counted} of {TINY_FRAMES} frames")
        for corrupt in ("byte", "row"):
            _, runs = run.measure(name, SEED, 0, False, frames=TINY_FRAMES,
                                  corrupt=corrupt, min_runs=1)
            if not all(r.errors for r in runs):
                problems.append(f"{name}: damaged output ({corrupt}) passed the check")
        print(f"{name}: ok" if not any(p.startswith(name) for p in problems) else f"{name}: FAILED")

    os.makedirs(os.path.join(run.ROOT, ".bench_work"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(run.ROOT, ".bench_work"))
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "static-1080p",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("run.py without sources did not fail cleanly")
        else:
            print("without sources: refused")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
