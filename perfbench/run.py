"""nortonalg benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  It needs only the standard library and
the program's own dependencies, and reads and writes nothing outside the
repository: every run gets fresh cache directories under `.perfbench/`,
which are removed at the end, and leaves its detailed result (and, traced,
its spans) there as `<workload>-seed<N>[-trace].json[l]`.

The set-up (interpreter start, `import nortonalg`, the workload's set-up
builds) is repeated in SETUP_SAMPLES fresh processes; `setup_s` is their
median.  The last of them goes on to the timed phase, which repeats the
workload's pass of operations for about S seconds and reports medians over
passes, scaled to a reference CPU speed (see NOTES.md).  With `--trace 1`
it alternates traced and untraced passes and reports the per-layer metrics
instead of the end-to-end ones.

The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Exit status 0 on a completed run (correct or not), 2 when it cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 3
# Every process of one run ends within this many seconds of its start.
RUN_DEADLINE_S = 170


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def git_commit(root: Path):
    """HEAD commit read from .git, or None outside a git checkout."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = root / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def worker_env(root: Path, home: Path) -> dict:
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("NORTON_CACHE_DIR", "PYTHONOPTIMIZE", "PYTHONPATH")
    }
    env.update(
        PYTHONPATH=str(root / "src"),
        # The program must never fall back to ~/.cache/nortonalg; if it
        # tried, it would land inside this run's own directory.
        HOME=str(home),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_worker(cmd, env, root, deadline):
    """Start one worker; return (seconds to `ready`, remaining stdout lines, code)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=root)
    timer = threading.Timer(max(deadline - time.monotonic(), 0), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if first.strip() != "ready":
        return None, rest, code
    return ready, rest, code


def declared_metrics(root: Path, trace: bool):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="nortonalg benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    # Turn SIGTERM into SystemExit so that run_worker's cleanup kills the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    # SpectralData.validate and the branch pins in verify_classification are
    # asserts: under -O the program would skip its own checks.
    if sys.flags.optimize:
        return fail("refusing to run under python -O: the program's checks are asserts")
    root = Path.cwd()
    if not (root / "src" / "nortonalg" / "__init__.py").is_file():
        return fail(f"no src/nortonalg under {root}; run from the repository root")
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        return fail("--seconds must be positive")

    loadavg = Path("/proc/loadavg")
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(root),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg.read_text().strip() if loadavg.is_file() else None,
    }
    # Compile once so that no set-up sample pays for writing .pyc files.
    compiled = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(root / "src" / "nortonalg"), str(HERE)],
        cwd=root,
        timeout=60,
    )
    if compiled.returncode != 0:
        return fail("compileall failed")

    work = root / ".perfbench"
    work.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    rundir = Path(tempfile.mkdtemp(prefix=f"{stem}-", dir=work))
    try:
        home = rundir / "home"
        home.mkdir()
        env = worker_env(root, home)
        samples = 1 if args.trace else SETUP_SAMPLES
        setup_s = []
        for i in range(samples):
            cmd = [
                sys.executable,
                str(HERE / "worker.py"),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--cache-root", str(rundir / f"cache-{i}"),
                "--spans-out", str(work / f"{stem}.spans.jsonl"),
            ]
            if i < samples - 1:
                cmd.append("--setup-only")
            ready, lines, code = run_worker(cmd, env, root, deadline)
            if ready is None or code != 0:
                return fail(f"worker exited with code {code} before finishing")
            setup_s.append(ready)
        if any(home.iterdir()):
            return fail(f"the program wrote under HOME: {sorted(os.listdir(home))}")
        if not lines:
            return fail("worker printed no result")
        result = json.loads(lines[-1])
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    metrics = result["metrics"]
    if not args.trace:
        scale = result["detail"]["speed_scale"]
        metrics["setup_s"] = {"value": statistics.median(setup_s) * scale, "unit": "s"}
    want = declared_metrics(root, bool(args.trace))
    if sorted(metrics) != sorted(want):
        return fail(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(want)}")
    meta["numpy"] = result["detail"].pop("numpy")
    meta["setup_samples_s"] = setup_s
    detail = {"meta": meta, **result["detail"]}
    summary = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: metrics[name] for name in want},
    }
    (work / f"{stem}.json").write_text(json.dumps({**detail, "result": summary}, indent=1))
    print(json.dumps(detail))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
