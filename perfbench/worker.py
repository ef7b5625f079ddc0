"""One benchmark process: set up a workload, then time passes over its ops.

run.py starts this file once per set-up sample and once for the measured
run, from the repository root, with `src` on PYTHONPATH.  Protocol on
stdout: the line `ready` once set-up is done (run.py times set-up up to
it); then, unless --setup-only, one JSON line with the run's figures.

Every operation goes through `nortonalg.cli.main(argv)` in process, with
stdout and stderr captured and checked, except `spectra`, which uses the
public API because the CLI has no spectrum-only path.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import random
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy

import spans
from workloads import (
    WORKLOADS,
    Build,
    OverBudget,
    Spectrum,
    Verify,
    cli_args,
    expected_counts,
)

ROOT = Path.cwd()
OVER_BUDGET_LIMIT_S = 1.0
BUDGET_EXIT = 3
# Reported times are scaled to a CPU on which one calibration unit takes
# REFERENCE_UNIT_S (about its time on an idle 2 GHz Xeon vCPU); see NOTES.md.
REFERENCE_UNIT_S = 0.006
CALIBRATION_UNITS = 5


# Small ints in an object array: each product goes through Python int code.
CAL_MATRIX = numpy.array(
    [[(7 * i + 3 * j) % 11 - 5 for j in range(48)] for i in range(48)], dtype=object
)


def calibration_unit() -> float:
    """Seconds for a fixed slice of work like the program's own.

    About half pure-Python Fraction arithmetic and half a numpy object-array
    product of Python ints, the two kinds of work the pipeline spends its
    time in.
    """
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 700):
        acc += Fraction(i, i + 1) * Fraction(3, 7)
    (CAL_MATRIX @ CAL_MATRIX) // 7
    return time.perf_counter() - start


class PassTimes(NamedTuple):
    """Raw seconds of one pass (sum over its ops), and its speed factor.

    scale is REFERENCE_UNIT_S over the mean calibration unit time measured
    during the pass: the mean, because an op's time integrates the CPU's
    speed over its duration.
    """

    wall: float
    cpu: float
    scale: float


def op_name(op) -> str:
    return f"{type(op).__name__} {' '.join(cli_args(op))}"


class CheckFailed(Exception):
    pass


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def snapshot(directory: Path) -> dict:
    """File name -> (size, mtime) for every file in a cache directory."""
    if not directory.is_dir():
        return {}
    return {
        p.name: (p.stat().st_size, p.stat().st_mtime_ns)
        for p in sorted(directory.iterdir())
    }


class Runner:
    def __init__(self, workload_name: str, cache_root: Path):
        import nortonalg
        from nortonalg import cli, instances

        src = (ROOT / "src").resolve()
        require(
            Path(nortonalg.__file__).resolve().is_relative_to(src),
            f"nortonalg imported from {nortonalg.__file__}, not from {src}",
        )
        self.nortonalg = nortonalg
        self.cli = cli
        self.inst = instances
        self.families = {
            "johnson": nortonalg.JohnsonFamily,
            "hamming": nortonalg.HammingFamily,
            "grassmann": nortonalg.GrassmannFamily,
            "dualpolar": nortonalg.DualPolarFamily,
        }
        self.workload = WORKLOADS[workload_name]
        self.cache_root = cache_root
        self.setup_dir = cache_root / "setup"
        self.setup_files = {}
        self.setup_snapshot = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.op_walls = {}
        self.calibration = []

    # -- one operation ------------------------------------------------------

    def run_cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def call(self, op, cache_dir: Path):
        """The program call an operation makes; this is what gets timed."""
        if isinstance(op, Build) or (isinstance(op, OverBudget) and op.via_cli):
            return self.run_cli(["build", *cli_args(op), "--cache-dir", str(cache_dir)])
        if isinstance(op, Verify):
            argv = ["verify", *cli_args(op), "--m-max", str(op.m_max)]
            argv += ["--strategy", op.strategy, "--cache-dir", str(cache_dir)]
            return self.run_cli(argv)
        inst = self.inst
        if isinstance(op, OverBudget):
            try:
                inst.build_graph(op.family, op.params)
            except self.nortonalg.BudgetExceededError as exc:
                return exc
            return None
        # The first half of build_instance, in its order, on its objects.
        g = inst.build_graph(op.family, op.params)
        inst.check_distance_regular(g)
        sd = inst.spectral_data(g)
        valid = sd.validate()
        pins = [
            (inst.closed_form_eigenvalue(g.family, i), inst.closed_form_multiplicity(g.family, i))
            for i in range(sd.count)
        ]
        return g.vertex_count, g.diameter, sd.eigenvalues, sd.multiplicities, valid, pins

    def closed_forms(self, op):
        family = self.families[op.family](*op.params)
        cf = self.nortonalg.spectral
        pairs = [
            (cf.closed_form_eigenvalue(family, i), cf.closed_form_multiplicity(family, i))
            for i in range(op.diameter + 1)
        ]
        return [t for t, _ in pairs], [m for _, m in pairs]

    def check(self, op, outcome, seconds, cache_dir, before):
        """Raise CheckFailed unless the operation's answer is right.

        Returns the cache file a build wrote, else None.
        """
        if isinstance(op, OverBudget):
            require(seconds < OVER_BUDGET_LIMIT_S, f"refusal took {seconds:.3f} s")
            if op.via_cli:
                code, _, err = outcome
                require(code == BUDGET_EXIT, f"exit code {code}, expected {BUDGET_EXIT}")
                require("budget" in err, f"stderr does not name the budget: {err!r}")
            else:
                require(
                    isinstance(outcome, self.nortonalg.BudgetExceededError),
                    f"build_graph returned {outcome!r} instead of refusing",
                )
            return
        if isinstance(op, Spectrum):
            vertices, diameter, thetas, mults, valid, pins = outcome
            want_t, want_m = self.closed_forms(op)
            require((vertices, diameter) == (op.vertices, op.diameter), "graph size")
            require(valid is True, "SpectralData.validate did not return True")
            require(list(thetas) == want_t, f"eigenvalues {thetas} != {want_t}")
            require(list(mults) == want_m, f"multiplicities {mults} != {want_m}")
            require(pins == list(zip(want_t, want_m)), "closed-form pins differ")
            return
        code, out, err = outcome
        require(code == 0, f"exit code {code}: {err.strip()}")
        answer = json.loads(out)
        if isinstance(op, Build):
            want_t, want_m = self.closed_forms(op)
            require(answer["vertices"] == op.vertices, "vertex count")
            require(answer["diameter"] == op.diameter, "diameter")
            require(answer["algebra_dimension"] == op.dim, "algebra dimension")
            require(answer["pairs_checked"] == op.pairs, "pairs checked")
            require(answer["branch"] == op.branch, "branch")
            require(answer["eigenvalues"] == want_t, "eigenvalues")
            require(answer["multiplicities"] == want_m, "multiplicities")
            written = Path(answer["cache_file"])
            require(written.parent == cache_dir, f"cache file {written} outside {cache_dir}")
            after = snapshot(cache_dir)
            require(
                set(after) - set(before) <= {written.name} and written.name in after,
                f"build wrote {sorted(set(after) - set(before))}",
            )
            return written
        counts = expected_counts(op.branch, op.m_max)
        require(answer["passed"] is True, f"verify did not pass: {answer['failures']}")
        require(answer["branch"] == op.branch, "branch")
        require(answer["m_values"] == list(range(op.m_max + 1)), "m values")
        require(answer["counts"] == counts, f"counts {answer['counts']} != {counts}")
        require(answer["expected"] == counts, "expected counts")

    def run_op(self, op, cache_dir: Path, tracer=None):
        """Run and check one operation.

        Returns (wall s, cpu s, cache file a build wrote or None).
        """
        self.attempted += 1
        if isinstance(op, Verify):
            cached = self.setup_files.get((op.family, op.params))
            # The set-up build must be there for the verify to be a cache hit.
            if cached is None or not cached.is_file():
                self.problems.append(f"{op_name(op)}: no cached instance from set-up")
        before = snapshot(cache_dir) if isinstance(op, Build) else None
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            if tracer is None:
                outcome = self.call(op, cache_dir)
            else:
                tracer.op += 1
                with tracer.span("op"):
                    outcome = self.call(op, cache_dir)
        except Exception as exc:  # the program raised: a failed op, not a crash
            outcome = exc
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        written = None
        try:
            if isinstance(outcome, Exception) and not isinstance(op, OverBudget):
                raise CheckFailed(f"raised {type(outcome).__name__}: {outcome}")
            written = self.check(op, outcome, wall, cache_dir, before)
        except CheckFailed as exc:
            self.fail(op, str(exc))
        except (KeyError, TypeError, ValueError) as exc:
            self.fail(op, f"malformed output: {exc!r}")
        return wall, cpu, written

    def fail(self, op, message):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{op_name(op)}: {message}")
        print(f"perfbench: FAILED {op_name(op)}: {message}", file=sys.stderr)

    # -- set-up and passes --------------------------------------------------

    def setup(self):
        for op in self.workload.setup:
            self.setup_files[(op.family, op.params)] = self.run_op(op, self.setup_dir)[2]
        self.setup_snapshot = snapshot(self.setup_dir)

    def calibrate(self) -> list:
        """Collect garbage, then time a few calibration units; their times.

        Runs before every op, outside its timing, so that the units sample
        the CPU's speed all through the pass.
        """
        gc.collect()
        units = [calibration_unit() for _ in range(CALIBRATION_UNITS)]
        self.calibration.extend(units)
        return units

    def run_pass(self, ops, index, tracer=None) -> PassTimes:
        if self.workload.fresh_cache_per_pass:
            cache_dir = self.cache_root / f"pass-{index}"
        else:
            cache_dir = self.setup_dir
        wall = cpu = 0.0
        units = []
        for op in ops:
            units += self.calibrate()
            w, c, _ = self.run_op(op, cache_dir, tracer)
            self.op_walls.setdefault(op_name(op), []).append(w)
            wall += w
            cpu += c
        if not self.workload.fresh_cache_per_pass and snapshot(cache_dir) != self.setup_snapshot:
            self.problems.append(f"pass {index} changed the cache directory")
        return PassTimes(wall, cpu, REFERENCE_UNIT_S / statistics.fmean(units))


def check_cache_counts(ops, layer: dict, problems: list):
    """Expected cache traffic: no loads on cold builds, one hit per verify."""
    verifies = sum(isinstance(op, Verify) for op in ops)
    want = (verifies, 0)
    got = (layer["cache.hit"], layer["cache.miss"])
    if got != want:
        problems.append(f"cache hits/misses {got}, expected {want}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cache-root", type=Path, required=True)
    parser.add_argument("--spans-out", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        print("perfbench: refusing to run under python -O", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.cache_root)
    runner.setup()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    workload = runner.workload
    ops = list(workload.ops)
    random.Random(args.seed).shuffle(ops)
    tracer = spans.Tracer() if args.trace else None
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        index = len(plain) + len(traced)
        pass_start = time.perf_counter()
        # Traced and untraced passes alternate as T U U T T U ..., so a drift
        # over the run does not bias the tracing overhead.
        if tracer is not None and index % 4 in (0, 3):
            first = len(tracer.spans)
            with spans.instrument(tracer):
                times = runner.run_pass(ops, index, tracer)
            layer = spans.summarize_pass(tracer.spans, first, workload.dominant)
            check_cache_counts(ops, layer, runner.problems)
            traced.append((layer, times))
        else:
            plain.append(runner.run_pass(ops, index))
        last = time.perf_counter() - pass_start
        elapsed = time.perf_counter() - start
        enough = plain and (traced or tracer is None)
        if enough and elapsed + last > args.seconds:
            break

    # run.py scales the set-up time, measured outside this process, by the
    # speed factor of the whole timed phase.
    scale = REFERENCE_UNIT_S / statistics.fmean(runner.calibration)
    if tracer is not None:
        metrics = spans.combine(
            [layer for layer, _ in traced],
            [t.wall * t.scale for _, t in traced],
            [t.wall * t.scale for t in plain],
        )
        if args.spans_out:
            tracer.write(args.spans_out)
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "wall_s": {"value": statistics.median(t.wall * t.scale for t in plain), "unit": "s"},
            "cpu_s": {"value": statistics.median(t.cpu * t.scale for t in plain), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
            "ok_frac": {
                "value": 1 - runner.failed / runner.attempted,
                "unit": "ratio",
            },
        }
    result = {
        "correct": runner.failed == 0 and not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
        "detail": {
            "numpy": numpy.__version__,
            "op_order": [op_name(op) for op in ops],
            "op_walls_s": runner.op_walls,
            "calibration_s": runner.calibration,
            "speed_scale": scale,
            "pass_walls_s": [t.wall for t in plain],
            "pass_cpus_s": [t.cpu for t in plain],
            "pass_scales": [t.scale for t in plain],
            "traced_pass_walls_s": [t.wall for _, t in traced],
            "problems": runner.problems,
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
