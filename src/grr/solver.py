"""Closed-form pose recovery from predicted rays and points.

Two differentiable sub-solvers and their decoupled combination:

    kabsch_rotation   best rotation aligning weighted vector correspondences
    rigid_align       best rotation + translation for point correspondences
    recover_pose      rotation from the ray branch, translation from the
                      point branch; the point-branch rotation is kept only
                      for diagnostics/ablation

Both solvers reduce to a 3x3 SVD of the weighted cross-covariance
H = sum_i w_i target_i source_i^T with the usual determinant correction
R = U diag(1, 1, det(UV^T)) V^T, which restricts the orthogonal Procrustes
optimum to proper rotations (no reflections, no scale).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .camera import PointMap, RayBundle
from .geometry import Pose, Rotation, _normalized_rows

__all__ = _EXPORTS["solver"]

# Relative gate on the cross-covariance spectrum: sigma_2 / sigma_1 below
# this means the correspondences are collinear to working precision and the
# rotation about that axis is unobservable.
DEGENERACY_RTOL = 1e-9
_FLIP_LAST = np.array([1.0, 1.0, -1.0])


class DegenerateConfiguration(RuntimeError):
    """Raised when the aligned vectors/points do not pin down a rotation."""

    def __init__(self, message: str, branch: str | None = None):
        super().__init__(message)
        self.branch = branch


@dataclass(frozen=True)
class AlignmentProblem:
    """Weighted correspondences source_i -> target_i, rows of (m, 3) arrays.

    weights=None means uniform. Weights must be nonnegative with a positive
    sum; m must be at least 3 so the cross-covariance can have rank > 1.
    """

    source: np.ndarray
    target: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self):
        src = np.asarray(self.source, dtype=np.float64)
        tgt = np.asarray(self.target, dtype=np.float64)
        if src.ndim != 2 or src.shape[1] != 3:
            raise ValueError(f"source must be (m, 3), got {src.shape}")
        if tgt.shape != src.shape:
            raise ValueError(
                f"target shape {tgt.shape} does not match source shape {src.shape}"
            )
        if src.shape[0] < 3:
            raise ValueError("need at least 3 correspondences")
        if not (np.isfinite(src).all() and np.isfinite(tgt).all()):
            raise ValueError("correspondences contain non-finite entries")
        object.__setattr__(self, "source", src)
        object.__setattr__(self, "target", tgt)
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=np.float64)
            if w.shape != (src.shape[0],):
                raise ValueError(f"weights must be ({src.shape[0]},), got {w.shape}")
            if not np.isfinite(w).all() or (w < 0.0).any():
                raise ValueError("weights must be finite and nonnegative")
            if w.sum() <= 0.0:
                raise ValueError("weights must have a positive sum")
            object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return self.source.shape[0]

    def effective_weights(self) -> np.ndarray:
        if self.weights is None:
            return np.ones(self.size)
        return self.weights


@dataclass(frozen=True)
class SolveDiagnostics:
    """Spectrum and correction flags from one Procrustes solve.

    singular_values are the descending singular values of the weighted
    cross-covariance; condition is sigma_1 / sigma_3 (inf when sigma_3 = 0);
    reflection_corrected records whether the determinant sign flip fired.
    """

    singular_values: tuple[float, float, float]
    reflection_corrected: bool
    condition: float


@dataclass(frozen=True)
class PoseRecovery:
    """recover_pose output: the decoupled pose plus per-branch diagnostics."""

    pose: Pose
    rotation_from_points: Rotation
    ray_diagnostics: SolveDiagnostics
    point_diagnostics: SolveDiagnostics


# The rows H was built from, their weights and, if renormalized, their (m, 1) norms.
_CrossCovariance = namedtuple("_CrossCovariance", "src tgt w src_norms tgt_norms")


def _svd_rotation(h: np.ndarray):
    """SVD of H plus the det-corrected rotation and diagnostics.

    Returns (rotation_matrix, diagnostics, (u, s, vt, sign)); the raw factors
    feed the analytic gradient code, which must reuse the exact same
    decomposition as the forward pass.
    """
    if not np.isfinite(h).all():  # rows past ~1e154 overflow the products
        raise ValueError("cross-covariance overflows: correspondences too large")
    u, s, vt = np.linalg.svd(h)
    if s[0] <= 0.0 or s[1] < DEGENERACY_RTOL * s[0]:
        raise DegenerateConfiguration(
            "correspondences are collinear to working precision "
            f"(singular values {s[0]:.3e}, {s[1]:.3e}, {s[2]:.3e})"
        )
    det_u, det_vt = np.linalg.det((u, vt))
    sign = 1.0 if float(det_u * det_vt) > 0.0 else -1.0
    r = (u * _FLIP_LAST) @ vt if sign < 0.0 else u @ vt  # the flip negates u's third column
    diag = SolveDiagnostics(
        singular_values=tuple(s.tolist()),
        reflection_corrected=sign < 0.0,
        condition=float(s[0] / s[2]) if s[2] > 0.0 else math.inf,
    )
    return r, diag, (u, s, vt, sign)


# A solve plus what the gradient code reuses: the cross-covariance rows and the
# SVD factors (u, s, vt, sign); for rigid_align, the Kabsch solve on the
# centered sets, the source centroid and the weight sum.
_KabschSolve = namedtuple("_KabschSolve", "rotation diag cov svd")
_RigidSolve = namedtuple("_RigidSolve", "pose kabsch c_src wsum")


def _kabsch_core(src, tgt, weights, src_norms=None, tgt_norms=None) -> _KabschSolve:
    """The solve on checked rows; for rays, unit rows and the norms they were divided by."""
    w = np.ones(src.shape[0]) if weights is None else weights
    h = (tgt if weights is None else weights[:, np.newaxis] * tgt).T @ src  # x * 1.0 == x
    r, diag, svd = _svd_rotation(h)
    cov = _CrossCovariance(src, tgt, w, src_norms, tgt_norms)
    return _KabschSolve(Rotation(r), diag, cov, svd)


def _rigid_core(src, tgt, weights, wsum: float) -> _RigidSolve:
    """The solve on the (centroid, centred rows) pairs of source and target."""
    (c_src, src_c), (c_tgt, tgt_c) = src, tgt
    if not (np.isfinite(src_c).all() and np.isfinite(tgt_c).all()):  # centring can overflow
        raise ValueError("correspondences contain non-finite entries")
    kabsch = _kabsch_core(src_c, tgt_c, weights)
    t = c_tgt - kabsch.rotation.m @ c_src
    return _RigidSolve(Pose(kabsch.rotation, t), kabsch, c_src, wsum)


def _kabsch_solve(problem: AlignmentProblem, normalize: bool) -> _KabschSolve:
    if not normalize:
        return _kabsch_core(problem.source, problem.target, problem.weights)
    src, src_norms = _normalized_rows(problem.source, "source")
    tgt, tgt_norms = _normalized_rows(problem.target, "target")
    return _kabsch_core(src, tgt, problem.weights, src_norms, tgt_norms)


def _rigid_solve(problem: AlignmentProblem) -> _RigidSolve:
    w = problem.effective_weights()
    wsum = float(w.sum())
    c_src, c_tgt = (w @ problem.source) / wsum, (w @ problem.target) / wsum
    return _rigid_core((c_src, problem.source - c_src), (c_tgt, problem.target - c_tgt),
                       problem.weights, wsum)


def _solve_frame(rays_cam: RayBundle, pts_cam: PointMap, pred_unit: np.ndarray,
                 pred_norms: np.ndarray, pts_pred: PointMap) -> tuple[_KabschSolve, _RigidSolve]:
    """Both branches of one frame on cached factors: the ray solve on unit rows
    (pred_unit = predicted rows / pred_norms), then the rigid solve on centred
    points. DegenerateConfiguration from either is re-raised with `branch` set
    to "rays" or "points" and the branch named in the message."""
    if min(len(rays_cam), len(pts_cam)) < 3:
        raise ValueError("need at least 3 correspondences")
    try:
        rays = _kabsch_core(rays_cam.unit, pred_unit, None, rays_cam.norms, pred_norms)
    except DegenerateConfiguration as exc:
        raise DegenerateConfiguration(f"ray branch: {exc}", branch="rays") from exc
    try:
        pts = _rigid_core((pts_cam.centroid, pts_cam.centred),
                          (pts_pred.centroid, pts_pred.centred), None, float(len(pts_cam)))
    except DegenerateConfiguration as exc:
        raise DegenerateConfiguration(f"point branch: {exc}", branch="points") from exc
    return rays, pts


def kabsch_rotation(
    problem: AlignmentProblem, normalize: bool = True
) -> tuple[Rotation, SolveDiagnostics]:
    """Rotation minimizing sum_i w_i ||R source_i - target_i||^2 over SO(3).

    normalize=True renormalizes rows first (the ray use-case: predicted
    directions may drift off the unit sphere, and direction alignment should
    not reward magnitude). Pass normalize=False to solve on raw vectors,
    e.g. for centered point sets.

    Raises DegenerateConfiguration when the inputs are collinear
    (sigma_2 / sigma_1 < DEGENERACY_RTOL): the component of the rotation
    about the common axis is unobservable. Raises ValueError when the
    cross-covariance overflows (every solve checks it before the SVD).
    """
    solve = _kabsch_solve(problem, normalize)
    return solve.rotation, solve.diag


def rigid_align(problem: AlignmentProblem) -> tuple[Pose, SolveDiagnostics]:
    """Rotation and translation minimizing sum_i w_i ||R s_i + t - t_i||^2.

    Classic closed form: subtract weighted centroids, solve the rotation on
    the centered sets (without renormalizing: magnitudes carry information
    here), then t = centroid(target) - R centroid(source). Scale is fixed
    to 1 by construction.
    """
    solve = _rigid_solve(problem)
    return solve.pose, solve.kabsch.diag


def recover_pose(
    rays_cam: RayBundle,
    pts_cam: PointMap,
    rays_pred: RayBundle,
    pts_pred: PointMap,
) -> PoseRecovery:
    """Decoupled pose recovery from predicted world-frame representations.

    The returned pose takes its rotation from the ray-bundle alignment and
    its translation from the rigid point registration. The rotation the
    point branch produced as a side effect is returned separately so
    ablations can compare the two. Every patch weighs the same; a weighted
    solve goes through an AlignmentProblem.

    DegenerateConfiguration from either branch propagates with its `branch`
    attribute set to "rays" or "points".
    """
    if len(rays_cam) != len(rays_pred):
        raise ValueError("canonical and predicted ray bundles differ in length")
    if len(pts_cam) != len(pts_pred):
        raise ValueError("canonical and predicted pointmaps differ in length")
    # The value types checked shapes, finiteness and unit ray norms.
    rays, pts = _solve_frame(rays_cam, pts_cam, rays_pred.unit, rays_pred.norms, pts_pred)
    return PoseRecovery(
        pose=Pose(rays.rotation, pts.pose.t),
        rotation_from_points=pts.pose.r,
        ray_diagnostics=rays.diag,
        point_diagnostics=pts.kabsch.diag,
    )
