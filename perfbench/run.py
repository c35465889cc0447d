"""grr benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload gen_csv --seed 1 --seconds 20 --trace 0

Run from the root of a grr source tree; the program is imported from
./src. With --trace 0 the run times jobs as a user runs them (the CLI as a
child process, or the training loop in-process) and prints the end-to-end
metrics. With --trace 1 it runs the same jobs in-process, alternating
untraced and traced jobs, and prints per-layer metrics from spans. Every
job's outputs are checked. The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics; the exit code is 0 only when
every check passed. Results, the environment and the spans are also written
under ./.perfbench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from time import perf_counter

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPS = 7      # set-ups per run, at least; setup_s is their median
SETUP_MIN_S = 3.0   # and more set-ups until this many seconds have passed
MIN_JOBS = 3        # timed jobs per run, even when --seconds is short
MIN_TRACED = 2      # traced (and untraced in-process) jobs per traced run
IMPORT_REPS = 3     # fresh-interpreter imports of grr.cli for cli.import_s
JOB_TIMEOUT_S = 120
WARMUP_CALLS = 20   # untimed pipeline_loss_grad calls before the training loop
HELD_OUT_SEED = 7919  # never used while tuning; later claims are checked on it
CALIB_LOOPS = 2000  # iterations of calibration_s(), about 0.1 s
CALIB_REF_S = 0.1   # reference calibration time; gated times are rescaled to it

END_TO_END = {  # name -> unit
    "setup_s": "s", "wall_s": "s", "ok_ratio": "ratio", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {"calls": "count", "self_s": "s", "us_per_call": "us",
                   "csv_bytes_written": "bytes", "csv_bytes_read": "bytes",
                   "degenerate": "count", "near_singular": "count",
                   "ok_ratio": "ratio", "import_s": "s", "overhead_s": "s",
                   "wall_s": "s", "unaccounted_s": "s", "spans": "count"}


class SetupError(RuntimeError):
    pass


@dataclass
class Spawned:
    wall: float
    rss_kb: int
    code: int
    stdout: str
    stderr: str


class Runner:
    """Starts grr in fresh interpreters that import it from src/; `work` is
    the directory for children that need no other."""

    def __init__(self, src: str, work: str):
        self.src = src
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.env["GRR_LOG"] = "warn"

    def python(self, args: list[str], cwd: str) -> Spawned:
        """Run the interpreter with args in cwd; peak RSS from os.wait4."""
        out_path = os.path.join(cwd, ".child.stdout")
        err_path = os.path.join(cwd, ".child.stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                    stdin=subprocess.DEVNULL, cwd=cwd, env=self.env)
            killer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        return Spawned(wall, usage.ru_maxrss, proc.returncode, stdout, stderr)

    def spawn(self, cli_args: list[str], cwd: str) -> Spawned:
        return self.python(["-m", "grr.cli", *cli_args], cwd)

    def import_seconds(self) -> float:
        """Time to import grr.cli in a fresh interpreter, from inside it."""
        code = ("import time; t = time.perf_counter(); import grr.cli, grr; "
                "print(time.perf_counter() - t); print(grr.__file__)")
        res = self.python(["-c", code], self.work)
        lines = res.stdout.split()
        if res.code != 0 or len(lines) != 2:
            raise SetupError(f"importing grr.cli failed: {res.stderr[-500:]}")
        if not os.path.abspath(lines[1]).startswith(self.src + os.sep):
            raise SetupError(f"grr imported from {lines[1]}, not from {self.src}")
        return float(lines[0])


def environment(args, size: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "pinned_to_cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_env": {k: v for k, v in os.environ.items()
                     if k.endswith("_NUM_THREADS")},
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "size": size,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


# ---------------------------------------------------------------- timed run


_CAL_RNG = np.random.default_rng(0)
_CAL_PTS = _CAL_RNG.standard_normal((256, 3))
_CAL_ROT = np.linalg.qr(_CAL_RNG.standard_normal((3, 3)))[0]


def calibration_s() -> float:
    """Seconds for a fixed mix of the work grr does: small numpy products,
    a 3x3 SVD, dict building and %.17g formatting. It is the benchmark's
    own code, so a change to grr cannot move it; only the host's speed does."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(CALIB_LOOPS):
        p = _CAL_PTS @ _CAL_ROT
        q = p - p.mean(axis=0)
        acc += float(np.linalg.svd(q.T @ q, compute_uv=False)[0])
        acc += sum({str(k): 0.5 * k for k in range(30)}.values())
        acc += len(",".join("%.17g" % x for x in p[i % 256]))
    wall = perf_counter() - t0
    if not acc > 0.0:
        raise RuntimeError("calibration loop gave a wrong sum")
    return wall


def timed_run(wl, runner: Runner, seconds: float, in_process: bool):
    """Set up SETUP_REPS times or more, then time jobs for `seconds`.

    A calibration runs before every set-up and job and once at the end, so
    each set-up or job lies between two calibrations. The gated times are the
    medians of each time over the mean of its two calibrations, times
    CALIB_REF_S: what the host would take at the reference speed. Raw times
    are printed and stored too."""
    import workloads

    calibs, setups = [], []
    start = perf_counter()
    while len(setups) < SETUP_REPS or perf_counter() - start < SETUP_MIN_S:
        calibs.append(calibration_s())
        t0 = perf_counter()
        wl.setup(runner)
        setups.append(perf_counter() - t0)

    jobs = []
    if in_process:
        workloads.evaluate(wl.frames[:WARMUP_CALLS])  # warm caches, untimed
    start = perf_counter()
    while len(jobs) < MIN_JOBS or perf_counter() - start < seconds:
        calibs.append(calibration_s())
        if in_process:
            jobs.append(wl.job())
            continue
        wl.fresh_out()
        res = runner.spawn(wl.argv(), wl.work)
        problems = [f"exit code {res.code}: {res.stderr[-300:]}"] if res.code else []
        if not problems:
            problems = wl.check(res.stdout)
        n = wl.frames_per_job
        jobs.append(workloads.Job(res.wall, n, n if problems else 0, problems,
                                  rss_kb=res.rss_kb))
    calibs.append(calibration_s())
    problems = [p for j in jobs for p in j.problems]
    if in_process:
        problems += workloads.check_reference(workloads.reference_results())
        kb, rss_problems = train_rss_kb(runner, wl)
        problems += rss_problems
        rss_kb = [kb]
    else:
        rss_kb = [j.rss_kb for j in jobs]

    walls = [j.wall for j in jobs]

    def rescaled(times, first):
        """CALIB_REF_S x the median of time / mean of the calibrations
        either side of it; times[k] ran between calibs[first + k] and the next."""
        return CALIB_REF_S * statistics.median(
            t / (0.5 * (calibs[g] + calibs[g + 1])) for g, t in enumerate(times, first))

    attempted = sum(j.frames for j in jobs)
    failed = sum(j.failed for j in jobs)
    metrics = {
        "setup_s": rescaled(setups, 0),
        "wall_s": rescaled(walls, len(setups)),
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": statistics.median(rss_kb) / 1024.0,
    }
    note = "each over the calibrations either side, x the reference calibration"
    samples = {"setup_s": f"median of {len(setups)} set-ups, {note}",
               "wall_s": f"median of {len(jobs)} jobs, {note}",
               "ok_ratio": f"{attempted} frames",
               "peak_rss_mb": "one child that builds the frames and runs a pass"
               if in_process else f"median of {len(jobs)} jobs"}
    # Printed and stored, not gated.
    info = {"setup_raw_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
            "wall_raw_s": (statistics.median(walls), "s", f"median of {len(jobs)} jobs"),
            "wall_min_raw_s": (min(walls), "s", f"fastest of {len(jobs)} jobs"),
            "calibration_s": (statistics.median(calibs), "s",
                              f"median of {len(calibs)}; reference {CALIB_REF_S}"),
            "frames_per_s": ((attempted - failed) / sum(walls), "1/s",
                             "frames that succeeded / raw job wall, over all jobs"),
            "fail_ratio": (failed / attempted, "ratio", f"{attempted} frames")}
    if in_process:
        lat_ms = [1e3 * t for j in jobs for t in j.latencies]
        note = f"{len(lat_ms)} pipeline_loss_grad calls that returned"
        info["frame_ms_p50"] = (percentile(lat_ms, 50), "ms", note)
        info["frame_ms_p99"] = (percentile(lat_ms, 99), "ms", note)
    detail = {"setups_s": setups, "walls_s": walls, "calibrations_s": calibs,
              "failed_per_job": [j.failed for j in jobs], "info": info}
    return metrics, samples, attempted, failed, problems, detail


def train_rss_kb(runner: Runner, wl):
    """Peak RSS of a fresh interpreter that builds the training frames and
    runs one pass, so the benchmark's own data is not counted."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
            "wl = workloads.TrainStep('', int(sys.argv[2]), int(sys.argv[3])); "
            "wl.setup(); print(len(wl.job().problems))")
    res = runner.python(["-c", code, HERE, str(wl.seed), str(wl.size)], runner.work)
    problems = []
    if res.code != 0 or res.stdout.strip() != "0":
        problems.append(f"train: the peak RSS child failed: {res.stdout[-200:]!r} "
                        f"{res.stderr[-300:]}")
    return res.rss_kb, problems


# ---------------------------------------------------------------- traced run


def traced_run(wl, runner: Runner, seconds: float, in_process: bool, spans_path: str):
    """Alternate untraced and traced in-process jobs; per-layer metrics from spans."""
    import spans
    import workloads
    import grr.cli

    wl.setup(runner)
    import_s = statistics.median(runner.import_seconds() for _ in range(IMPORT_REPS))
    root = "train.loop" if in_process else f"cli.{wl.command}"
    rec = spans.SpanRecorder()
    problems = []
    frames = [0, 0]  # attempted, failed

    def one_job(tracing: bool) -> float:
        rec.reset()
        if tracing:
            rec.install()
        buf = io.StringIO()
        try:
            if not in_process:
                wl.fresh_out()
            t0 = perf_counter()
            with rec.root(root) if tracing else contextlib.nullcontext():
                if in_process:
                    results = workloads.evaluate(wl.frames)
                else:
                    with contextlib.redirect_stdout(buf):
                        code = grr.cli.main(wl.argv())
            wall = perf_counter() - t0
        finally:
            rec.remove()
        if in_process:
            job_problems = wl.check(results)
        else:
            job_problems = [f"exit code {code}"] if code else wl.check(buf.getvalue())
        if tracing:
            job_problems += call_problems(wl.expected_calls(), rec.summary()["calls"])
        problems.extend(job_problems)
        frames[0] += wl.frames_per_job
        if in_process:
            frames[1] += wl.failed(results, job_problems)
        else:
            frames[1] += wl.frames_per_job if job_problems else 0
        return wall

    one_job(False)  # warms in-process caches; not timed
    plain, traced, layers = [], [], []
    order = (True, False)
    start = perf_counter()
    with open(spans_path, "w", encoding="ascii") as spans_fh:
        while len(traced) < MIN_TRACED or perf_counter() - start < seconds:
            for tracing in order:
                wall = one_job(tracing)
                if tracing:
                    traced.append(wall)
                    layers.append(spans.layer_metrics(rec.summary(), root, wall))
                    rec.dump(spans_fh, len(traced))
                else:
                    plain.append(wall)
            order = order[::-1]
    if in_process:
        problems += workloads.check_reference(workloads.reference_results())

    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    metrics["cli.import_s"] = import_s
    # Fastest against fastest: the host's speed drifts within a run.
    metrics["trace.wall_s"] = min(traced)
    metrics["trace.overhead_s"] = min(traced) - min(plain)
    # Self times of all spans, root included, must add up to the traced wall.
    slack = abs(metrics["trace.overhead_s"]) + 1e-3
    for m in layers:
        if abs(m["trace.unaccounted_s"]) > slack:
            problems.append(f"trace: self times miss the wall by {m['trace.unaccounted_s']:.4g} s")
    samples = {k: f"median of {len(traced)} traced jobs" for k in metrics}
    samples["cli.import_s"] = f"median of {IMPORT_REPS} fresh interpreters"
    samples["trace.wall_s"] = f"fastest of {len(traced)} traced jobs"
    samples["trace.overhead_s"] = f"fastest of {len(traced)} traced vs of {len(plain)} untraced jobs"
    detail = {"traced_walls_s": traced, "untraced_walls_s": plain, "per_job": layers}
    return metrics, samples, frames[0], frames[1], problems, detail


def call_problems(expected: dict, calls) -> list[str]:
    """A traced job must make the expected number of calls to each function.
    Fewer calls mean a wrapper was bypassed and its layer's metrics read low."""
    return [f"trace: {name} was called {calls.get(name, 0)} times, expected {n}"
            for name, n in expected.items() if calls.get(name, 0) != n]


# ---------------------------------------------------------------- main


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    return PER_LAYER_UNITS[name.rsplit(".", 1)[1]]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = p.parse_args(argv)

    # One CPU for the benchmark and every child it starts, so the calibration
    # runs on the CPU the jobs run on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "grr", "cli.py")):
        print(f"error: no grr source tree at {src}", file=sys.stderr)
        return 2
    if src not in sys.path:
        sys.path.insert(0, src)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    os.environ["GRR_LOG"] = "warn"
    try:
        import grr
        import workloads
    except ImportError as exc:
        print(f"error: cannot import grr from {src}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(grr.__file__).startswith(src + os.sep):
        print(f"error: grr imported from {grr.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print("error: --seed must be an unsigned 64-bit integer", file=sys.stderr)
        return 2

    size = (workloads.TINY_SIZES if args.tiny else workloads.SIZES)[args.workload]
    out_root = os.path.join(root, ".perfbench_out")
    work = os.path.join(out_root, f"work-{args.workload}-{os.getpid()}")
    results_dir = os.path.join(out_root, "results")
    os.makedirs(work, exist_ok=True)
    os.makedirs(results_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    wl = workloads.WORKLOADS[args.workload](work, args.seed, size)
    in_process = args.workload == "train_step"
    runner = Runner(src, work)
    env = environment(args, size)
    try:
        if args.trace:
            outcome = traced_run(wl, runner, args.seconds, in_process,
                                 os.path.join(results_dir, f"{tag}.spans.jsonl"))
        else:
            outcome = timed_run(wl, runner, args.seconds, in_process)
    except (RuntimeError, OSError) as exc:  # SetupError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics, samples, attempted, failed, problems, detail = outcome

    with open(os.path.join(results_dir, f"{tag}.json"), "w", encoding="ascii") as fh:
        json.dump({"environment": env, "metrics": metrics, "samples": samples,
                   "attempted": attempted, "failed": failed, "problems": problems,
                   "detail": detail}, fh, indent=1, default=str)
    print("# environment " + json.dumps(env, default=str, sort_keys=True))
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {unit_of(name)} ({samples[name]})")
    for name, (value, unit, note) in detail.get("info", {}).items():
        print(f"# (not gated) {name} = {value:.6g} {unit} ({note})")
    print(f"# attempted {attempted} frames, failed {failed}")
    for prob in problems[:20]:
        print(f"# CHECK FAILED: {prob}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
