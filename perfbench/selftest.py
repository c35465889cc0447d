"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Run from the root of a grr source tree. It runs every workload, untraced
and traced, at tiny sizes and checks the printed metric names against
BENCHMARK.json; it checks that each output checker rejects a deliberately
corrupted output; and it checks that the benchmark fails, printing no
result, in a directory without the grr sources. Exit code 0 means all passed.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import workloads  # noqa: E402

SCRATCH = os.path.join(ROOT, ".perfbench_out", f"selftest-{os.getpid()}")
failures: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        failures.append(what)


def run_bench(args: list[str], cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


def tiny_runs() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        names = {m["name"]: m["unit"] for m in bench[section]}
        for w in bench["workloads"]:
            proc = run_bench(["--workload", w["name"], "--seed", "3", "--seconds", "0",
                              "--trace", str(trace), "--tiny"])
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            result = json.loads(last)
            metrics = result.get("metrics", {})
            expect(proc.returncode == 0 and result.get("correct") is True,
                   f"{w['name']} trace {trace}: runs and passes its checks")
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}
                   and result["attempted"] >= 1,
                   f"{w['name']} trace {trace}: result has the four keys")
            expect({k: v["unit"] for k, v in metrics.items()} == names
                   and all(math.isfinite(v["value"]) for v in metrics.values()),
                   f"{w['name']} trace {trace}: prints every {section} metric with its unit")


def corrupted_outputs() -> None:
    runner = run.Runner(os.path.join(ROOT, "src"), SCRATCH)
    for name, corrupt, what in (
        ("gen_csv", corrupt_world_rays, "an edited world_rays value"),
        ("solve_csv", corrupt_solved_pose, "one edited solved pose"),
        ("ablate_sweep", corrupt_sweep_row, "one edited sweep row"),
    ):
        work = os.path.join(SCRATCH, name)
        wl = workloads.WORKLOADS[name](work, 5, workloads.TINY_SIZES[name])
        wl.setup(runner)
        res = runner.spawn(wl.argv(), work)
        expect(res.code == 0 and wl.check(res.stdout) == [], f"{name}: clean output passes")
        corrupt(wl)
        expect(wl.check(res.stdout) != [], f"{name}: checker rejects {what}")
        # Forget the first job's digest, so the content checks must reject
        # the corruption on their own.
        wl._first_digest = None
        expect(wl.check(res.stdout) != [],
               f"{name}: checker rejects {what} without the byte comparison")

    train = workloads.TrainStep("", 5, workloads.TINY_SIZES["train_step"])
    train.setup()
    clean = workloads.evaluate(train.frames)
    expect(train.check(clean) == [] and train.check(clean) == [], "train_step: clean passes agree")
    shifted = list(clean)
    k = next(i for i, r in enumerate(shifted) if not isinstance(r, str))
    shifted[k] = (shifted[k][0], shifted[k][1] * (1 + 1e-6), shifted[k][2])
    problems = train.check(shifted)
    expect(problems != [] and train.failed(shifted, problems) == len(shifted),
           "train_step: checker rejects a pass that differs, and every frame counts as failed")

    ref = workloads.reference_results()
    expect(workloads.check_reference(ref) == [], "train_step: reference batch matches the stored values")
    k = next(i for i, r in enumerate(ref) if not isinstance(r, str))
    fi = workloads.train_frames(workloads.REFERENCE_SEED, workloads.REFERENCE_FRAMES)[k]
    terms, g_rays, g_pts = workloads.grr.pipeline_loss_grad(fi)
    i = divmod(int(abs(g_rays).argmax()), 3)
    g_rays[i] += 1e-4 * abs(g_rays[i])
    ref[k] = workloads.norms(terms.total, g_rays, g_pts)
    expect(workloads.check_reference(ref) != [], "train_step: checker rejects one shifted gradient")

    for name in ("gen_csv", "solve_csv", "ablate_sweep", "train_step"):
        wl = workloads.WORKLOADS[name](SCRATCH, 5, workloads.TINY_SIZES[name])
        expected = wl.expected_calls()
        short = dict(expected)
        fn = next(iter(short))
        short[fn] -= 1
        expect(run.call_problems(expected, expected) == []
               and run.call_problems(expected, short) != [],
               f"{name}: traced run rejects a bypassed wrapper ({fn} one call short)")


def corrupt_world_rays(wl) -> None:
    path = os.path.join(wl.out, "world_rays_0000.csv")
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    i, x, y, z = lines[1].split(",")
    lines[1] = ",".join([i, repr(float(x) + 1e-12), y, z])
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def corrupt_solved_pose(wl) -> None:
    path = os.path.join(wl.out, "solved_poses.txt")
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    nums = lines[0].split()
    nums[-1] = repr(float(nums[-1]) + 1e-6)
    lines[0] = " ".join(nums)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def corrupt_sweep_row(wl) -> None:
    path = os.path.join(wl.out, "sweep.csv")
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    cells = lines[-1].split(",")
    cells[9] = "0"  # median_rot_err_rays_deg of the noisiest trial
    lines[-1] = ",".join(cells)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def without_sources() -> None:
    bare = os.path.join(SCRATCH, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "gen_csv",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180, check=False)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "without src/: exits nonzero and prints no result")


def main() -> int:
    os.makedirs(SCRATCH, exist_ok=True)
    try:
        tiny_runs()
        corrupted_outputs()
        without_sources()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
