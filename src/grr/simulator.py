"""Synthetic perturbation study: corrupt ground-truth representations, re-solve, score.

Determinism contract: every random draw is keyed by an explicit Seed. Trials
derive one child seed per frame from (seed, frame index), so results are
independent of execution order, and two runs with the same seed produce
byte-identical reports. Frames run in the calling thread: the solve is short
numpy calls that hold the interpreter lock, so a thread pool only slowed it.
A sweep runs pose-major on that contract. Each frame's noise stream is computed
in bulk (geometry._streams) but equals Seed.derive(idx).rng(); NumPy does not
promise SeedSequence is stable, so tests pin the two together. Ground-truth
bundles and tangent frames are built 16 poses at a time, shared by every spec,
and each such chunk's solved frames are scored in one call.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _EXPORTS
from .camera import PatchGrid, PointMap, RayBundle, _world_frames, canonical_points, canonical_rays
from .geometry import (Pose, Seed, _axis_angle_matrices, _cross_rows, _freeze, _read_only, _rotations, _streams,
                       _vector_norms)
from .metrics import FrameRecord, TrialReport, _fmt, _score_frames, summarize_records
from .solver import DegenerateConfiguration, recover_pose

__all__ = _EXPORTS["simulator"]

_CHUNK = 16  # poses per stacked ground-truth build in ablation_sweep


def _check_sigmas(spec, *names: str) -> None:
    for name in names:
        if not 0.0 <= getattr(spec, name) < math.inf:  # NaN fails too
            raise ValueError(f"{name} must be finite and nonnegative, got {getattr(spec, name)!r}")


@dataclass(frozen=True)
class PosePerturbSpec:
    """Gaussian pose jitter: translation sigma, rotation angle sigma (radians),
    and the number of samples drawn per base pose."""

    sigma_t: float
    sigma_r: float
    count: int
    seed: Seed

    def __post_init__(self):
        _check_sigmas(self, "sigma_t", "sigma_r")
        if isinstance(self.count, bool) or not isinstance(self.count, int) or self.count < 1:
            raise ValueError(f"count must be an int >= 1, got {self.count!r}")


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
        _check_sigmas(self, "ray_sigma", "point_sigma")
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
    With both sigmas zero the outputs equal the bases exactly. Drawn as one (n, 7) block.
    A sigma whose draw overflows raises ValueError naming the first such sample.
    """
    g = spec.seed.rng().standard_normal((len(base) * spec.count, 7))
    if not len(g):
        return []
    ts = np.repeat([pose.t for pose in base], spec.count, axis=0) + spec.sigma_t * g[:, :3]
    # Sample k's axis and angle are checked before its translation, so check through the first bad one.
    bad_t = np.flatnonzero(~np.isfinite(ts).all(axis=1))
    end = int(bad_t[0]) + 1 if bad_t.size else len(g)
    axes = g[:end, 3:6] / _vector_norms(g[:end, 3:6])
    deltas = _axis_angle_matrices(axes, [abs(spec.sigma_r * z) for z in g[:end, 6].tolist()], "perturb sample {}: ")
    if bad_t.size:
        raise ValueError(f"perturb sample {end - 1}: translation contains non-finite entries")
    rots = _rotations(np.repeat([pose.r.m for pose in base], spec.count, axis=0) @ deltas)
    return [Pose(r, t) for r, t in zip(rots, ts)]


def _tilt_rays(d: np.ndarray, phi: np.ndarray, theta: np.ndarray, basis: tuple) -> np.ndarray:
    """Tilt each unit row of d by theta[i] about the axis at angle phi[i] in its tangent basis (u, v)."""
    u, v = basis
    axis = np.cos(phi)[:, np.newaxis] * u + np.sin(phi)[:, np.newaxis] * v
    # Rodrigues with axis orthogonal to d: d' = d cos(theta) + (axis x d) sin(theta)
    return d * np.cos(theta)[:, np.newaxis] + _cross_rows(axis, d) * np.sin(theta)[:, np.newaxis]


@functools.lru_cache(maxsize=8)
def _ramp(m: int) -> np.ndarray:
    """The read-only per-patch noise scale 0.5 + i/(m-1) of "per_patch_scaled", for m > 1."""
    return _read_only(0.5 + np.arange(m) / (m - 1))


def perturb_representations(
    rays: RayBundle, pts: PointMap, spec: NoiseSpec, seed: Seed | np.random.Generator | None = None
) -> tuple[RayBundle, PointMap]:
    """Apply the noise model. Pure function of (rays, pts, spec, seed).

    seed, when given, replaces spec.seed: the result equals that of
    perturb_representations(rays, pts, dataclasses.replace(spec, seed=seed)).
    A Generator is drawn from as it stands (seed.rng() gives seed's result).

    Draw order per call: tangent direction angles (m), tilt magnitudes (m),
    then point offsets (m, 3). Tilting a unit ray about an orthogonal axis
    keeps it unit to machine precision, so no renormalization happens and
    the zero-noise case returns the inputs bit-identically.
    """
    if len(rays) != len(pts):
        raise ValueError("ray bundle and pointmap lengths differ")
    m = len(rays)
    rng = seed if isinstance(seed, np.random.Generator) else (spec.seed if seed is None else seed).rng()
    phi = rng.uniform(0.0, 2.0 * math.pi, m)
    g = rng.standard_normal(4 * m)  # the two normal draws' values, in one call
    theta = np.abs(g[:m]) * spec.ray_sigma
    offsets = g[m:].reshape(m, 3) * spec.point_sigma
    if spec.mode == "per_patch_scaled" and m > 1:  # else every scale is 1 and x * 1.0 == x
        scale = _ramp(m)
        theta *= scale
        offsets *= scale[:, np.newaxis]
    return (RayBundle(_tilt_rays(rays.dirs, phi, theta, rays.tangents)),
            PointMap(pts.pts + offsets + spec.point_bias))


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
    streams = [_streams(noise.seed, range(len(poses))) for noise in specs]
    rng = np.random.default_rng(0)  # re-seated on each frame's stream
    records: list[list[FrameRecord]] = [[] for _ in specs]
    for start in range(0, len(poses), _CHUNK):
        chunk = poses[start:start + _CHUNK]
        frames = []  # (frame, outcome, pose), pose-major: the chunk's specs interleaved
        for idx, pose, gt in zip(range(start, len(poses)), chunk, _world_frames(chunk, rays_cam, pts_cam)):
            for k, (noise, (state, inc)) in enumerate(zip(specs, (s[idx] for s in streams))):
                rng.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                                           "has_uint32": 0, "uinteger": 0}
                try:
                    outcome = recover_pose(rays_cam, pts_cam, *perturb_representations(*gt, noise, seed=rng))
                except DegenerateConfiguration as exc:
                    outcome = exc
                except ValueError as exc:  # noise past the float range: name the spec and the frame
                    raise ValueError(f"noise[{k}] frame {idx}: {exc}") from exc
                frames.append((idx, outcome, pose))
        scored = _score_frames(frames)
        for k, out in enumerate(records):
            out.extend(scored[k::len(specs)])
    return [summarize_records(r) for r in records]


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
