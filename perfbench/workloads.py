"""The benchmark's four workloads: inputs from a seed, one job, output checks.

Every workload uses a 16x16 patch grid on a 256x256 image with
fx = fy = 300 and the principal point at the centre. CLI workloads run
`python -m grr.cli <command>` in a child process (what the `grr` console
script runs), or `grr.cli.main(argv)` in-process for the traced run. The
training workload calls `grr.pipeline_loss_grad` in a loop, in-process.

Each check returns a list of problems; an empty list means the job's output
is correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import shutil
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import grr
from grr import (
    DegenerateConfiguration,
    FrameInputs,
    Intrinsics,
    LossWeights,
    NearSingularJacobian,
    NeighborSet,
    NormSchedule,
    PatchGrid,
    Pose,
    Rotation,
    canonical_points,
    canonical_rays,
    world_points,
    world_rays,
)

GRID = {"fx": 300.0, "fy": 300.0, "cx": 128.0, "cy": 128.0,
        "width": 256, "height": 256, "n": 16}

# Frames per job. gen/solve: frames; ablate: base poses (x2 perturbed
# copies x3 noise specs solves); train: pipeline_loss_grad calls per pass.
SIZES = {"gen_csv": 300, "solve_csv": 400, "ablate_sweep": 250, "train_step": 1200}
TINY_SIZES = {"gen_csv": 3, "solve_csv": 3, "ablate_sweep": 2, "train_step": 40}

# The README's ablate example, with perturb count 2.
ABLATE_PERTURB = {"sigma_t": 0.05, "sigma_r": 0.01, "count": 2}
ABLATE_NOISE = [
    {"ray_sigma": 0.001},
    {"ray_sigma": 0.01},
    {"ray_sigma": 0.05, "point_sigma": 0.02, "point_bias": [0.1, 0.0, 0.0],
     "mode": "per_patch_scaled"},
]

SOLVE_ROT_TOL_DEG = 1e-7
SOLVE_TRANS_TOL = 1e-9
GEN_SAMPLE = 16  # frames whose CSVs are reloaded, besides the first and last

# Training frames: noise level log-uniform over this range, p = 1 for the
# first half (NormSchedule warmup) and p = 2 after, and every
# NEAR_CONVERGED_EVERY-th frame near-converged: rays tilted by ~1e-10 rad,
# so the rotation residual is far below 1e-8 rad.
TRAIN_NOISE = (1e-3, 5e-2)
NEAR_CONVERGED_EVERY = 20
NEAR_CONVERGED_TILT = 1e-10

# Reference batch for the training check, stored from the seed commit.
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference_train.json")
REFERENCE_SEED = 0
REFERENCE_FRAMES = 40
REFERENCE_RTOL = 1e-9


def patch_grid() -> PatchGrid:
    g = dict(GRID)
    return PatchGrid(Intrinsics(g["fx"], g["fy"], g["cx"], g["cy"],
                                g["width"], g["height"]), n=g["n"])


def digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def load_xyz(path) -> np.ndarray:
    """Parse an i,x,y,z CSV without grr's reader."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
    if header != "i,x,y,z":
        raise ValueError(f"{path}: header {header!r}")
    arr = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if arr.shape[1] != 4 or not np.array_equal(arr[:, 0], np.arange(arr.shape[0])):
        raise ValueError(f"{path}: bad shape {arr.shape} or row indices")
    return np.ascontiguousarray(arr[:, 1:])


def bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == np.ascontiguousarray(b).tobytes()


def rotation_errors_deg(ra: np.ndarray, rb: np.ndarray) -> np.ndarray:
    """Geodesic angles between stacks of rotation matrices, in degrees."""
    q = np.einsum("nji,njk->nik", ra, rb)
    c = 0.5 * (np.trace(q, axis1=1, axis2=2) - 1.0)
    s = np.linalg.norm(q - np.transpose(q, (0, 2, 1)), axis=(1, 2)) / math.sqrt(8.0)
    return np.degrees(np.arctan2(s, np.clip(c, -1.0, 1.0)))


@dataclass
class Job:
    """One timed job: wall seconds, frames attempted and failed, problems."""

    wall: float
    frames: int
    failed: int
    problems: list = field(default_factory=list)
    rss_kb: int = 0
    latencies: list = field(default_factory=list)


# ---------------------------------------------------------------- CLI


class CliWorkload:
    """A `grr <command>` batch job; subclasses give config, size and check."""

    command = ""

    def __init__(self, work: str, seed: int, size: int):
        self.work = work
        self.seed = seed
        self.size = size
        self.config = os.path.join(work, f"{self.command}.json")
        self.out = os.path.join(work, "out")
        self._first_digest = None

    @property
    def frames_per_job(self) -> int:
        return self.size

    def config_dict(self) -> dict:
        raise NotImplementedError

    def setup(self, runner) -> None:
        """Write the config and warm the interpreter's bytecode cache."""
        os.makedirs(self.work, exist_ok=True)
        with open(self.config, "w", encoding="ascii") as fh:
            json.dump(self.config_dict(), fh)
        runner.import_seconds()

    def argv(self) -> list[str]:
        return [self.command, "--config", self.config, "--out", self.out]

    def fresh_out(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def check(self, stdout: str) -> list[str]:
        try:
            payload = json.loads(stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return [f"{self.command}: stdout is not a JSON line: {stdout[-200:]!r}"]
        try:
            return self.check_outputs(payload)
        except (OSError, ValueError, KeyError) as exc:
            return [f"{self.command}: unreadable output: {exc}"]

    def check_outputs(self, payload: dict) -> list[str]:
        raise NotImplementedError

    def expected_calls(self) -> dict:
        """Calls of traced functions one job must make; see spans.py."""
        raise NotImplementedError

    def same_as_first(self, paths) -> list[str]:
        """Outputs of every job in a run must be byte-identical."""
        d = digest(paths)
        if self._first_digest is None:
            self._first_digest = d
        elif d != self._first_digest:
            return [f"{self.command}: output bytes differ from the run's first job"]
        return []


class GenCsv(CliWorkload):
    command = "gen"

    def config_dict(self) -> dict:
        return {"grid": GRID, "frames": self.size, "seed": self.seed}

    def expected_calls(self) -> dict:
        n = self.size
        return {"camera.write_xyz_csv": 2 * n + 2, "camera.world_rays": n,
                "camera.world_points": n}

    def check_outputs(self, payload: dict) -> list[str]:
        n = self.size
        problems = []
        if payload != {"frames": n, "patches": GRID["n"] ** 2}:
            problems.append(f"gen: stdout {payload}")
        expected = {"canonical_rays.csv", "canonical_points.csv", "gt_poses.txt"}
        expected |= {f"world_rays_{i:04d}.csv" for i in range(n)}
        expected |= {f"world_points_{i:04d}.csv" for i in range(n)}
        found = set(os.listdir(self.out))
        if found != expected:
            return problems + [f"gen: {len(found)} files written, expected {len(expected)}"]
        rays = canonical_rays(patch_grid())
        pts = canonical_points(rays)
        if not bitwise_equal(load_xyz(os.path.join(self.out, "canonical_rays.csv")), rays.dirs):
            problems.append("gen: canonical_rays.csv does not reload bitwise")
        if not bitwise_equal(load_xyz(os.path.join(self.out, "canonical_points.csv")), pts.pts):
            problems.append("gen: canonical_points.csv does not reload bitwise")
        poses = np.loadtxt(os.path.join(self.out, "gt_poses.txt"), ndmin=2)
        if poses.shape != (n, 12):
            return problems + [f"gen: gt_poses.txt has shape {poses.shape}"]
        rng = np.random.default_rng([self.seed, 1])
        sample = {0, n - 1} | set(rng.choice(n, size=min(n, GEN_SAMPLE), replace=False).tolist())
        files = [os.path.join(self.out, "gt_poses.txt")]
        for i in sorted(sample):
            pose = Pose(Rotation(poses[i, :9].reshape(3, 3)), poses[i, 9:])
            fr = os.path.join(self.out, f"world_rays_{i:04d}.csv")
            fp = os.path.join(self.out, f"world_points_{i:04d}.csv")
            if not bitwise_equal(load_xyz(fr), world_rays(pose, rays).dirs):
                problems.append(f"gen: frame {i} rays differ from world_rays of its pose")
            if not bitwise_equal(load_xyz(fp), world_points(pose, pts).pts):
                problems.append(f"gen: frame {i} points differ from world_points of its pose")
            files += [fr, fp]
        return problems + self.same_as_first(files)


class SolveCsv(CliWorkload):
    command = "solve"

    def __init__(self, work: str, seed: int, size: int):
        super().__init__(work, seed, size)
        self.data = os.path.join(work, "data")

    def config_dict(self) -> dict:
        return {"grid": GRID, "rays": "data/world_rays_*.csv",
                "points": "data/world_points_*.csv", "gt_poses": "data/gt_poses.txt"}

    def setup(self, runner) -> None:
        """Write the config and make the dataset with `grr gen`."""
        super().setup(runner)
        shutil.rmtree(self.data, ignore_errors=True)
        gen_cfg = os.path.join(self.work, "gen.json")
        with open(gen_cfg, "w", encoding="ascii") as fh:
            json.dump({"grid": GRID, "frames": self.size, "seed": self.seed}, fh)
        job = runner.spawn(["gen", "--config", gen_cfg, "--out", self.data], self.work)
        if job.code != 0:
            raise RuntimeError(f"setup: grr gen exited {job.code}: {job.stderr[-500:]}")

    def expected_calls(self) -> dict:
        n = self.size
        return {"camera.read_xyz_csv": 2 * n, "solver.recover_pose": n}

    def check_outputs(self, payload: dict) -> list[str]:
        n = self.size
        problems = []
        if payload.get("frame_count") != n or payload.get("failure_count") != 0:
            problems.append(f"solve: stdout {payload}")
        solved = np.loadtxt(os.path.join(self.out, "solved_poses.txt"), ndmin=2)
        gt = np.loadtxt(os.path.join(self.data, "gt_poses.txt"), ndmin=2)
        if solved.shape != (n, 12) or gt.shape != (n, 12):
            return problems + [f"solve: pose files have shapes {solved.shape}, {gt.shape}"]
        rot = rotation_errors_deg(solved[:, :9].reshape(-1, 3, 3), gt[:, :9].reshape(-1, 3, 3))
        trans = np.linalg.norm(solved[:, 9:] - gt[:, 9:], axis=1)
        bad = np.flatnonzero(~(rot <= SOLVE_ROT_TOL_DEG) | ~(trans <= SOLVE_TRANS_TOL))
        if bad.size:
            problems.append(f"solve: {bad.size} poses off ground truth, first frame {bad[0]} "
                            f"({rot[bad[0]]:.3g} deg, {trans[bad[0]]:.3g})")
        with open(os.path.join(self.out, "frames.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != n or any(r["status"] != "ok" for r in rows):
            problems.append("solve: frames.csv does not list every frame as ok")
        return problems


class AblateSweep(CliWorkload):
    command = "ablate"

    @property
    def frames_per_job(self) -> int:
        return self.size * ABLATE_PERTURB["count"] * len(ABLATE_NOISE)

    def config_dict(self) -> dict:
        return {"grid": GRID, "frames": self.size, "seed": self.seed,
                "perturb": ABLATE_PERTURB, "noise": ABLATE_NOISE}

    def expected_calls(self) -> dict:
        n = self.frames_per_job
        return {"solver.recover_pose": n, "simulator.perturb_representations": n}

    def check_outputs(self, payload: dict) -> list[str]:
        per_trial = self.size * ABLATE_PERTURB["count"]
        problems = []
        if payload != {"frames": per_trial, "trials": len(ABLATE_NOISE)}:
            problems.append(f"ablate: stdout {payload}")
        sweep = os.path.join(self.out, "sweep.csv")
        with open(sweep, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != len(ABLATE_NOISE):
            return problems + [f"ablate: sweep.csv has {len(rows)} rows"]
        if any(int(r["frames"]) != per_trial or int(r["failures"]) != 0 for r in rows):
            problems.append("ablate: sweep.csv frame or failure counts are wrong")
        by_sigma = sorted(rows, key=lambda r: float(r["ray_sigma"]))
        med = [float(r["median_rot_err_rays_deg"]) for r in by_sigma]
        if not all(math.isfinite(m) for m in med) or any(b <= a for a, b in zip(med, med[1:])):
            problems.append(f"ablate: median rotation error does not rise with ray_sigma: {med}")
        files = [sweep]
        for k in range(len(ABLATE_NOISE)):
            path = os.path.join(self.out, f"trial_{k:03d}.csv")
            with open(path, newline="") as fh:
                trial = list(csv.DictReader(fh))
            if len(trial) != per_trial or any(r["status"] != "ok" for r in trial):
                problems.append(f"ablate: {path} does not list every frame as ok")
            files.append(path)
        return problems + self.same_as_first(files)


# ---------------------------------------------------------------- training


def _tilt(d: np.ndarray, angle: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Tilt unit rows of d by angle about the tangent axis at azimuth phi."""
    helper = np.where(np.abs(d[:, 2:3]) < 0.9, [[0.0, 0.0, 1.0]], [[1.0, 0.0, 0.0]])
    u = np.cross(d, helper)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v = np.cross(d, u)
    axis = np.cos(phi)[:, None] * u + np.sin(phi)[:, None] * v
    return d * np.cos(angle)[:, None] + np.cross(axis, d) * np.sin(angle)[:, None]


def train_frames(seed: int, count: int) -> list[FrameInputs]:
    """Training-like FrameInputs built from the core API, seeded.

    Per frame, in a fixed draw order: a Haar-random rotation (normalised
    Gaussian quaternion), a camera centre in U(-2, 2)^3, a log-uniform noise
    level, then per-patch tilt azimuths, tilt sizes and point offsets.
    """
    grid = patch_grid()
    rays = canonical_rays(grid)
    rays_cam = rays.dirs
    pts_cam = canonical_points(rays).pts
    m = rays_cam.shape[0]
    neighbors = NeighborSet.grid(grid.n, connectivity=4)
    weights = LossWeights()
    schedule = NormSchedule(warmup_steps=count // 2)
    rng = np.random.default_rng(seed)
    lo, hi = math.log(TRAIN_NOISE[0]), math.log(TRAIN_NOISE[1])
    frames = []
    for k in range(count):
        q = rng.standard_normal(4)
        gt = Pose(Rotation.from_quaternion(q / np.linalg.norm(q)), rng.uniform(-2.0, 2.0, 3))
        sigma = math.exp(rng.uniform(lo, hi))
        phi = rng.uniform(0.0, 2.0 * math.pi, m)
        tilt = np.abs(rng.standard_normal(m))
        offsets = rng.standard_normal((m, 3))
        near = k % NEAR_CONVERGED_EVERY == NEAR_CONVERGED_EVERY - 1
        d_gt = rays_cam @ gt.r.m.T
        p_gt = pts_cam @ gt.r.m.T + gt.t
        rays_pred = _tilt(d_gt, tilt * (NEAR_CONVERGED_TILT if near else sigma), phi)
        frames.append(FrameInputs(rays_cam, pts_cam, rays_pred, p_gt + sigma * offsets,
                                  gt, neighbors, weights, schedule.at_step(k).p))
    return frames


def evaluate(frames, latencies=None) -> list:
    """pipeline_loss_grad over frames: (total, |grad_rays|, |grad_pts|) or
    the name of the exception a frame raised. The norms are taken as each
    call returns, so no gradient arrays are kept. Looks the function up on
    the package each call, so the traced run sees its wrapper."""
    out = []
    for fi in frames:
        t0 = perf_counter()
        try:
            terms, g_rays, g_pts = grr.pipeline_loss_grad(fi)
        except (NearSingularJacobian, DegenerateConfiguration) as exc:
            out.append(type(exc).__name__)
            continue
        if latencies is not None:
            latencies.append(perf_counter() - t0)
        out.append(norms(terms.total, g_rays, g_pts))
    return out


def norms(total, g_rays, g_pts) -> tuple:
    """A frame's loss total and gradient norms."""
    return (float(total), float(np.linalg.norm(g_rays)), float(np.linalg.norm(g_pts)))


class TrainStep:
    """A pass of pipeline_loss_grad over the frames, in-process."""

    def __init__(self, work: str, seed: int, size: int):
        self.seed = seed
        self.size = size
        self.frames = []
        self._first = None

    @property
    def frames_per_job(self) -> int:
        return self.size

    def setup(self, runner=None) -> None:
        self.frames = []  # drop the previous set-up's frames before building
        self.frames = train_frames(self.seed, self.size)

    def job(self) -> Job:
        lat: list = []
        t0 = perf_counter()
        results = evaluate(self.frames, lat)
        wall = perf_counter() - t0
        problems = self.check(results)
        return Job(wall, len(results), self.failed(results, problems), problems,
                   latencies=lat)

    @staticmethod
    def failed(results, problems) -> int:
        """Frames that raised; every frame when the pass failed a check."""
        return len(results) if problems else sum(isinstance(r, str) for r in results)

    def expected_calls(self) -> dict:
        return {"solver_grad.pipeline_loss_grad": self.size}

    def check(self, results) -> list[str]:
        """Every pass must give the first pass's results exactly."""
        problems = []
        bad = [k for k, r in enumerate(results)
               if not isinstance(r, str) and not all(math.isfinite(x) for x in r)]
        if bad:
            problems.append(f"train: non-finite loss or gradient at frames {bad[:5]}")
        if self._first is None:
            self._first = results
        elif results != self._first:
            problems.append("train: a pass differs from the run's first pass")
        return problems


def reference_results() -> list:
    return evaluate(train_frames(REFERENCE_SEED, REFERENCE_FRAMES))


def write_reference(path: str = REFERENCE_PATH) -> None:
    rows = ",\n  ".join(json.dumps(r) for r in reference_results())
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f'{{"seed": {REFERENCE_SEED}, "frames": {REFERENCE_FRAMES}, '
                 f'"rtol": {REFERENCE_RTOL},\n "results": [\n  {rows}\n ]}}\n')


def check_reference(results, path: str = REFERENCE_PATH) -> list[str]:
    """Loss totals and gradient norms of the reference batch, as evaluate()
    gives them, against the stored values, to REFERENCE_RTOL. A frame stored
    as an exception may raise the same exception or return finite values
    (a later fix)."""
    with open(path, encoding="ascii") as fh:
        ref = json.load(fh)["results"]
    if len(results) != len(ref):
        return [f"train reference: {len(results)} results, stored {len(ref)}"]
    problems = []
    for k, (g, r) in enumerate(zip(results, ref)):
        if isinstance(r, str):
            if g != r and (isinstance(g, str) or not all(math.isfinite(x) for x in g)):
                problems.append(f"train reference: frame {k} gave {g}, stored {r}")
        elif isinstance(g, str) or any(
                abs(a - b) > REFERENCE_RTOL * max(abs(a), abs(b)) for a, b in zip(g, r)):
            problems.append(f"train reference: frame {k} gave {g}, stored {r}")
    return problems


WORKLOADS = {"gen_csv": GenCsv, "solve_csv": SolveCsv,
             "ablate_sweep": AblateSweep, "train_step": TrainStep}
