"""Synthetic perturbation study: corrupt ground-truth representations, re-solve, score.

Determinism contract: every random draw is keyed by an explicit Seed. Trials
derive one child seed per frame from (seed, frame index), so results are
independent of execution order, and two runs with the same seed produce
byte-identical reports. Frames run in the calling thread: the solve is short
numpy calls that hold the interpreter lock, so a thread pool only slowed it.
A sweep runs pose-major on that contract: each pose's ground-truth bundles
and tangent frame are built once and shared by every noise spec, and only
one pose's are held at a time.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .camera import PatchGrid, PointMap, RayBundle, canonical_points, canonical_rays, world_points, world_rays
from .geometry import Pose, Rotation, Seed, _cross_rows, _freeze
from .metrics import FrameRecord, TrialReport, _score_degenerate, _score_solved, summarize_records
from .solver import DegenerateConfiguration, recover_pose

__all__ = [
    "PosePerturbSpec",
    "NoiseSpec",
    "sample_poses",
    "perturb_representations",
    "run_trial",
    "ablation_sweep",
    "write_report_csv",
    "write_sweep_csv",
]

REPORT_COLUMNS = ["frame", "rot_err_rays_deg", "rot_err_points_deg", "trans_err", "status"]


@dataclass(frozen=True)
class PosePerturbSpec:
    """Gaussian pose jitter: translation sigma, rotation angle sigma (radians),
    and the number of samples drawn per base pose."""

    sigma_t: float
    sigma_r: float
    count: int
    seed: Seed

    def __post_init__(self):
        if self.sigma_t < 0.0 or self.sigma_r < 0.0:
            raise ValueError("perturbation sigmas must be nonnegative")
        if self.count < 1:
            raise ValueError("count must be >= 1")


@dataclass(frozen=True)
class NoiseSpec:
    """Representation noise model.

    ray_sigma: each ray is tilted about a random axis orthogonal to it by
    |N(0, ray_sigma^2)| radians. point_sigma: iid Gaussian offsets on every
    point. point_bias: constant offset added to every point. mode
    "iid_gaussian" applies the sigmas uniformly; "per_patch_scaled"
    multiplies both sigmas by a deterministic per-patch ramp 0.5 + i/(m-1)
    over patch index i, modelling prediction quality that degrades across
    the grid.
    """

    ray_sigma: float
    point_sigma: float
    point_bias: np.ndarray
    mode: str
    seed: Seed

    def __post_init__(self):
        if self.ray_sigma < 0.0 or self.point_sigma < 0.0:
            raise ValueError("noise sigmas must be nonnegative")
        if self.mode not in ("iid_gaussian", "per_patch_scaled"):
            raise ValueError(f"unknown noise mode {self.mode!r}")
        bias = np.asarray(self.point_bias, dtype=np.float64)
        if bias.shape != (3,) or not np.isfinite(bias).all():
            raise ValueError("point_bias must be a finite 3-vector")
        _freeze(self, "point_bias", bias)


def sample_poses(base: Sequence[Pose], spec: PosePerturbSpec) -> list[Pose]:
    """spec.count jittered copies of each base pose, in base-major order.

    Per sample, in a fixed draw order: translation offset N(0, sigma_t^2 I),
    a uniform random axis, and an angle |N(0, sigma_r^2)|. The rotation is
    composed on the right (a camera-frame jiggle): R_new = R_base @ dR.
    With both sigmas zero the outputs equal the bases exactly.
    """
    rng = spec.seed.rng()
    out: list[Pose] = []
    for pose in base:
        for _ in range(spec.count):
            offset = spec.sigma_t * rng.standard_normal(3)
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            angle = abs(spec.sigma_r * rng.standard_normal())
            delta = Rotation.from_axis_angle(axis, angle)
            out.append(Pose(pose.r @ delta, pose.t + offset))
    return out


def _tilt_rays(d: np.ndarray, phi: np.ndarray, theta: np.ndarray, basis: tuple) -> np.ndarray:
    """Tilt each unit row of d by theta[i] about the axis at angle phi[i] in its tangent basis (u, v)."""
    u, v = basis
    axis = np.cos(phi)[:, np.newaxis] * u + np.sin(phi)[:, np.newaxis] * v
    # Rodrigues with axis orthogonal to d: d' = d cos(theta) + (axis x d) sin(theta)
    return d * np.cos(theta)[:, np.newaxis] + _cross_rows(axis, d) * np.sin(theta)[:, np.newaxis]


def perturb_representations(
    rays: RayBundle, pts: PointMap, spec: NoiseSpec, seed: Seed | None = None
) -> tuple[RayBundle, PointMap]:
    """Apply the noise model. Pure function of (rays, pts, spec, seed).

    seed, when given, replaces spec.seed: the result equals that of
    perturb_representations(rays, pts, dataclasses.replace(spec, seed=seed)).

    Draw order per call: tangent direction angles (m), tilt magnitudes (m),
    then point offsets (m, 3). Tilting a unit ray about an orthogonal axis
    keeps it unit to machine precision, so no renormalization happens and
    the zero-noise case returns the inputs bit-identically.
    """
    if len(rays) != len(pts):
        raise ValueError("ray bundle and pointmap lengths differ")
    m = len(rays)
    rng = (spec.seed if seed is None else seed).rng()
    phi = rng.uniform(0.0, 2.0 * math.pi, m)
    theta = np.abs(rng.standard_normal(m)) * spec.ray_sigma
    offsets = rng.standard_normal((m, 3)) * spec.point_sigma
    if spec.mode == "per_patch_scaled" and m > 1:  # else every scale is 1 and x * 1.0 == x
        scale = 0.5 + np.arange(m) / (m - 1)
        theta *= scale
        offsets *= scale[:, np.newaxis]
    return (RayBundle(_tilt_rays(rays.dirs, phi, theta, rays.tangents)),
            PointMap(pts.pts + offsets + spec.point_bias))


def _score_frame(
    idx: int,
    pose: Pose,
    rays_cam: RayBundle,
    pts_cam: PointMap,
    gt: tuple[RayBundle, PointMap],
    noise: NoiseSpec,
) -> FrameRecord:
    d_pred, p_pred = perturb_representations(*gt, noise, seed=noise.seed.derive(idx))
    try:
        rec = recover_pose(rays_cam, pts_cam, d_pred, p_pred)
    except DegenerateConfiguration as exc:
        return _score_degenerate(idx, exc)
    return _score_solved(idx, rec, pose)


def run_trial(grid: PatchGrid, poses: Sequence[Pose], noise: NoiseSpec) -> TrialReport:
    """One trial: for every pose, corrupt the ground-truth representations
    with per-frame-seeded noise, re-solve, and score against the pose.

    Degenerate frames are recorded with a status tag and NaN errors, never
    raised.
    """
    return ablation_sweep(grid, poses, [noise])[0]


def ablation_sweep(
    grid: PatchGrid, poses: Sequence[Pose], specs: Sequence[NoiseSpec]
) -> list[TrialReport]:
    """run_trial once per noise spec, in order, computed pose-major (module docstring)."""
    rays_cam = canonical_rays(grid)
    pts_cam = canonical_points(rays_cam)
    records: list[list[FrameRecord]] = [[] for _ in specs]
    for idx, pose in enumerate(poses):
        gt = world_rays(pose, rays_cam), world_points(pose, pts_cam)
        for noise, out in zip(specs, records):
            out.append(_score_frame(idx, pose, rays_cam, pts_cam, gt, noise))
    return [summarize_records(r) for r in records]


def _fmt(x: float) -> str:
    return format(x, ".17g")


def write_report_csv(records: Sequence[FrameRecord], path, have_gt: bool = True) -> None:
    """Per-frame CSV: frame, rot_err_rays_deg, rot_err_points_deg, trans_err, status.

    have_gt=False leaves the three error columns empty, for frames solved
    without ground-truth poses.
    """
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for r in records:
            if have_gt:
                errors = [_fmt(r.rot_err_rays_deg), _fmt(r.rot_err_points_deg), _fmt(r.trans_err)]
            else:
                errors = ["", "", ""]
            writer.writerow([r.frame, *errors, r.status])


def write_sweep_csv(specs: Sequence[NoiseSpec], reports: Sequence[TrialReport], path) -> None:
    """One row per noise spec with its trial medians."""
    if len(specs) != len(reports):
        raise ValueError("specs and reports differ in length")
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["trial", "ray_sigma", "point_sigma", "bias_x", "bias_y", "bias_z", "mode",
             "frames", "failures", "median_rot_err_rays_deg",
             "median_rot_err_points_deg", "median_trans_err"]
        )
        for k, (spec, rep) in enumerate(zip(specs, reports)):
            writer.writerow(
                [k, _fmt(spec.ray_sigma), _fmt(spec.point_sigma),
                 _fmt(float(spec.point_bias[0])), _fmt(float(spec.point_bias[1])),
                 _fmt(float(spec.point_bias[2])), spec.mode,
                 rep.frame_count, rep.failure_count,
                 _fmt(rep.median_rot_err_rays_deg),
                 _fmt(rep.median_rot_err_points_deg),
                 _fmt(rep.median_trans_err)]
            )
