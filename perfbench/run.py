"""motionsieve benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``; nothing is installed).  Workloads, metrics and units are listed
in BENCHMARK.json; NOTES.md says why each was chosen and what each
per-layer figure should move.

Each timed run is a fresh interpreter (child.py), so ``setup_s`` includes
the import and ``peak_rss_mb`` belongs to that run.  Timed runs repeat
until ``--seconds`` have passed (at least MIN_RUNS of them) and every
end-to-end figure is the median over them.  Every run's output is checked
(see ``check``); a run that raises or fails the check counts in
``failed``, and its figures are left out.  ``--trace 1`` alternates
untraced runs with traced ones and reports the per-layer figures instead.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  Lines before it
print the same figures, and ``error_rate``, for a reader.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
sys.path.insert(0, HERE)

import loadgen  # noqa: E402
import tracing  # noqa: E402

MIN_RUNS = 3
# Every invocation must end within 180 s; a child gets what is left of this.
BUDGET_S = 170.0
# MotionConfig() default, which the counts below are built around.
KEYFRAME_INTERVAL = 100


@dataclass(frozen=True)
class Workload:
    mode: str  # child.py mode of a timed run
    scene: str  # loadgen scene of the frames
    frames: int  # input frames per timed run (reconstruct: of the stored video)


WORKLOADS = {
    "static-1080p": Workload("compress", "static", 120),
    "busy-1080p": Workload("compress", "busy", 120),
    "reconstruct-1080p": Workload("reconstruct", "busy", 90),
}


def expected_counts(scene: str, frames: int, seed: int) -> dict[str, int]:
    """Outcome counts fixed by how the scene is built.

    The first frame is always full.  A frame that differs from its
    predecessor after a still one opens a motion run and is full; inside a
    run every KEYFRAME_INTERVAL-th stored frame is full and the rest are
    masked.  Static: one run, the burst.  Busy: one run from frame 1 on.
    """
    if scene == "static":
        _, length = loadgen.burst_plan(frames, seed)
        return {"dropped": frames - 1 - length, "masked": length - 1, "full": 2}
    full = 1 + (1 + (frames - 2) // KEYFRAME_INTERVAL if frames > 1 else 0)
    return {"dropped": 0, "masked": frames - full, "full": full}


def sidecar_counts(text: str, frames: int) -> dict[str, int]:
    flags = [line.rsplit(",", 1)[1] for line in text.splitlines()[1:] if line]
    return {
        "dropped": frames - len(flags),
        "masked": flags.count("0"),
        "full": flags.count("1"),
    }


class ChildFailed(Exception):
    pass


def spawn(mode: str, work: Workload, seed: int, workdir: str, deadline: float,
          *extra: str) -> dict:
    """Run child.py once and return its result."""
    argv = [sys.executable, CHILD, mode, "--src", SRC, "--scene", work.scene,
            "--frames", str(work.frames), "--seed", str(seed),
            "--workdir", workdir, *extra, "--spawned"]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(argv + [repr(time.monotonic())], capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} run timed out after {timeout:.0f} s") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise ChildFailed(f"{mode} run exited {proc.returncode}: {tail[0]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(work: Workload, seed: int, reference: dict, result: dict) -> list[str]:
    """What is wrong with one timed run's output (empty when correct)."""
    errors = []
    if work.mode == "reconstruct":
        if result["frames"] != work.frames or result["fgbg_frames"] != work.frames:
            errors.append(f"rebuilt {result['fgbg_frames']} of {work.frames} stored frames")
        if result["dl_sha256"] != reference["stored_sha256"]:
            errors.append("pass-through stream differs from the stored video")
        if result["fgbg_sha256"] != reference["fgbg_sha256"]:
            errors.append("rebuilt gray stream differs from the expected one")
        if not result["align_ok"]:
            errors.append("alignment table does not match the sidecar")
        return errors
    if result["frames"] != work.frames:
        errors.append(f"read {result['frames']} of {work.frames} frames")
    if result["video_sha256"] != reference["video_sha256"]:
        errors.append("video differs from reference_compress")
    if result["sidecar"] != reference["sidecar"]:
        errors.append("sidecar differs from reference_compress")
    counts = sidecar_counts(result["sidecar"], work.frames)
    expected = expected_counts(work.scene, work.frames, seed)
    if counts != expected:
        errors.append(f"counts {counts}, built for {expected}")
    return errors


def prepare(work: Workload, seed: int, workdir: str, deadline: float) -> dict:
    """Untimed set-up: the reference output (compress), or the stored video
    and sidecar that motionsieve makes from the busy scene and the digests
    that rebuilding them must give (reconstruct)."""
    if work.mode == "compress":
        return spawn("reference", work, seed, workdir, deadline)
    inputs = spawn("inputs", work, seed, workdir, deadline)
    with open(os.path.join(workdir, "stored.csv"), encoding="utf-8") as fh:
        counts = sidecar_counts(fh.read(), work.frames)
    if counts != expected_counts(work.scene, work.frames, seed):
        raise ChildFailed(f"stored inputs hold {counts}")
    return inputs


@dataclass
class Run:
    traced: bool
    result: dict | None = None
    layers: dict | None = None
    errors: tuple[str, ...] = ()


def measure(name: str, seed: int, seconds: float, trace: bool, *,
            frames: int | None = None, corrupt: str | None = None,
            min_runs: int = MIN_RUNS) -> tuple[dict, list[Run]]:
    """Set up once, then time runs for ``seconds``.  Returns the set-up's
    result and every run made."""
    work = WORKLOADS[name]
    if frames is not None:
        work = Workload(work.mode, work.scene, frames)
    deadline = time.monotonic() + BUDGET_S
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(ROOT, ".bench_work"))
    runs: list[Run] = []
    try:
        reference = prepare(work, seed, workdir, deadline)
        extra = ("--corrupt", corrupt) if corrupt else ()
        stop = time.monotonic() + seconds
        # In a traced measurement, untraced and traced runs alternate and
        # it ends on a whole pair.
        while (len(runs) < min_runs or time.monotonic() < stop
               or (trace and len(runs) % 2)):
            traced = trace and len(runs) % 2 == 1
            spans = os.path.join(workdir, "spans.json")
            run = Run(traced)
            try:
                run.result = spawn(work.mode, work, seed, workdir, deadline, *extra,
                                   *(("--spans", spans) if traced else ()))
                run.errors = tuple(check(work, seed, reference, run.result))
                if traced:
                    with open(spans, encoding="utf-8") as fh:
                        run.layers = tracing.layer_metrics(json.load(fh))
            except ChildFailed as exc:
                run.errors = (str(exc),)
            runs.append(run)
            if time.monotonic() > deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return reference, runs


def end_to_end(runs: list[Run]) -> dict[str, float]:
    good = [r.result for r in runs if not r.errors and not r.traced]
    return {
        "fps": median(r["frames"] / r["wall_s"] for r in good),
        "cpu_ms_per_frame": median(1e3 * r["cpu_s"] / r["frames"] for r in good),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in good),
        "setup_s": median(r["setup_s"] for r in good),
    }


def per_layer(reference: dict, runs: list[Run]) -> dict[str, float]:
    plain = [r.result for r in runs if not r.errors and not r.traced]
    traced = [r for r in runs if not r.errors and r.traced]
    figures = {
        key: median(r.layers[key] for r in traced) for key in traced[0].layers
    }
    traced_fps = median(r.result["frames"] / r.result["wall_s"] for r in traced)
    figures.update({
        "pipeline.reference_fps": reference.get("reference_fps", 0.0),
        "setup.import_s": median(r["import_s"] for r in plain),
        "setup.open_s": median(r["open_s"] for r in plain),
        "generator.cpu_ms_per_frame": median(
            1e3 * r["generator_cpu_s"] / r["frames"] for r in plain
        ),
        "trace.overhead_pct": 100.0 * (end_to_end(runs)["fps"] / traced_fps - 1.0),
    })
    return figures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "motionsieve", "__init__.py")):
        sys.stderr.write(f"error: no motionsieve sources under {SRC}\n")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    try:
        reference, runs = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ChildFailed as exc:
        sys.stderr.write(f"error: set-up failed: {exc}\n")
        return 1
    failed = [r for r in runs if r.errors]
    for run in failed:
        sys.stderr.write(f"failed run: {'; '.join(run.errors)}\n")
    passed = {r.traced for r in runs if not r.errors}
    if passed != ({False, True} if args.trace else {False}):
        sys.stderr.write("error: no run of a needed kind passed the output check\n")
        return 1
    figures = per_layer(reference, runs) if args.trace else end_to_end(runs)
    if set(figures) != {m["name"] for m in wanted}:
        sys.stderr.write("error: reported metrics differ from BENCHMARK.json\n")
        return 1

    metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"workload {args.workload}, seed {args.seed}, {len(runs)} runs")
    for name, metric in metrics.items():
        print(f"  {name}: {metric['value']:.6g} {metric['unit']}")
    print(f"  error_rate: {len(failed) / len(runs):.6g} ({len(failed)} of {len(runs)} runs)")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
