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
optimum to proper rotations (no reflections, no scale). One core,
_svd_rotation, runs that on an (F, 3, 3) stack: a frame's ray and point
solves are one stack of two, and the public solvers stacks of one.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .camera import PointMap, RayBundle
from .geometry import _EYE3, Pose, Rotation, _check_rotations, _det3, _freeze, _normalized_rows, _rotations, _trusted

__all__ = _EXPORTS["solver"]

# Relative gate on the cross-covariance spectrum: sigma_2 / sigma_1 below
# this means the correspondences are collinear to working precision and the
# rotation about that axis is unobservable.
DEGENERACY_RTOL = 1e-9


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
        _freeze(self, "source", src)
        _freeze(self, "target", tgt)
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=np.float64)
            if w.shape != (src.shape[0],):
                raise ValueError(f"weights must be ({src.shape[0]},), got {w.shape}")
            if not np.isfinite(w).all() or (w < 0.0).any():
                raise ValueError("weights must be finite and nonnegative")
            if w.sum() <= 0.0:
                raise ValueError("weights must have a positive sum")
            _freeze(self, "weights", w)

    @property
    def size(self) -> int:
        return self.source.shape[0]


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


# A solve and the rows H = sum_i w_i tgt_i src_i^T was built from, with their
# weights (None: uniform) and, if renormalized, (m, 1) norms; for rigid_align,
# the translation, the solve on the centred sets, the source centroid and the weight sum; and a
# stack's SVD factors and (F,) determinant signs, which the gradient code reuses.
_KabschSolve = namedtuple("_KabschSolve", "rotation diag src tgt w src_norms tgt_norms")
_RigidSolve = namedtuple("_RigidSolve", "t kabsch c_src wsum")
_Factors = namedtuple("_Factors", "u s vt sign")


def _svd_rotation(hs: np.ndarray, branches: tuple[str, ...] | None = None):
    """One SVD, sign and rotation check for an (F, 3, 3) stack of cross-covariances.

    Returns (rotations, diagnostics, factors), one rotation and diagnostics
    per entry. Entry i is checked as a lone solve is (finite, not collinear,
    a proper rotation), and the first entry to fail raises. branches[i], if
    given, names entry i's branch ("rays", "points") in DegenerateConfiguration.

    Per-entry scalars are Python floats (numpy's IEEE operations, without an
    array call each). U and V^T are orthogonal (det +-1), so cofactor
    determinants give each the sign numpy's det gives; only the sign is used.
    """
    finite = np.logical_and.reduce(np.isfinite(hs), axis=(1, 2)).tolist()  # rows past ~1e154 overflow H
    u, s, vt = np.linalg.svd(hs if all(finite) else np.where(np.array(finite)[:, None, None], hs, _EYE3))
    svals = s.tolist()
    signs = [1.0 if _det3(du) * _det3(dv) > 0.0 else -1.0 for du, dv in zip(u.tolist(), vt.tolist())]
    # A sign -1 negates u's third column; with none, U V^T is that product bit for bit.
    r = (u * np.array([[(1.0, 1.0, sg)] for sg in signs])) @ vt if -1.0 in signs else u @ vt
    for i, (s0, s1, s2) in enumerate(svals):
        if finite[i] and s0 < math.inf and not (s0 <= 0.0 or s1 < DEGENERACY_RTOL * s0):
            continue
        _check_rotations(r[:i])  # the earlier entries' rotation checks come first
        if not (finite[i] and s0 < math.inf):  # a finite H whose spectrum overflows counts as one that overflows
            raise ValueError("cross-covariance overflows: correspondences too large")
        branch = branches[i] if branches else None
        raise DegenerateConfiguration(
            f"{branch[:-1] + ' branch: ' if branch else ''}correspondences are collinear to "
            f"working precision (singular values {s0:.3e}, {s1:.3e}, {s2:.3e})", branch)
    diags = [SolveDiagnostics((s0, s1, s2), sg < 0.0, s0 / s2 if s2 > 0.0 else math.inf)
             for (s0, s1, s2), sg in zip(svals, signs)]
    return _rotations(r), diags, _Factors(u, s, vt, np.array(signs))


def _kabsch_stack(rows, branches=None) -> tuple[list[_KabschSolve], _Factors]:
    """The solves of (src, tgt, w, src_norms, tgt_norms) row sets as one stack;
    weights None are uniform, norms None means the rows were used as given."""
    hs = np.array([(tgt if w is None else w[:, np.newaxis] * tgt).T @ src  # x * 1.0 == x
                   for src, tgt, w, _, _ in rows])
    rots, diags, svd = _svd_rotation(hs, branches)
    return [_KabschSolve(r, d, *row) for r, d, row in zip(rots, diags, rows)], svd


def _rigid_record(kabsch: _KabschSolve, c_src, c_tgt, wsum: float) -> _RigidSolve:
    t = [a - b for a, b in zip(c_tgt.tolist(), (kabsch.rotation.m @ c_src).tolist())]
    if not all(map(math.isfinite, t)):  # Python floats: numpy's bits, and an overflow emits no RuntimeWarning
        raise ValueError("translation contains non-finite entries")
    return _RigidSolve(np.array(t), kabsch, c_src, wsum)


def _kabsch_solve(problem: AlignmentProblem, normalize: bool) -> tuple[_KabschSolve, _Factors]:
    src, tgt, src_norms, tgt_norms = problem.source, problem.target, None, None
    if normalize:
        src, src_norms = _normalized_rows(src, "source")
        tgt, tgt_norms = _normalized_rows(tgt, "target")
    (solve,), svd = _kabsch_stack([(src, tgt, problem.weights, src_norms, tgt_norms)])
    return solve, svd


def _rigid_solve(problem: AlignmentProblem) -> tuple[_RigidSolve, _Factors]:
    w = np.ones(problem.size) if problem.weights is None else problem.weights
    wsum = float(w.sum())
    c_src, c_tgt = (w @ problem.source) / wsum, (w @ problem.target) / wsum
    src_c, tgt_c = problem.source - c_src, problem.target - c_tgt
    if not (np.isfinite(src_c).all() and np.isfinite(tgt_c).all()):  # centring can overflow
        raise ValueError("correspondences contain non-finite entries")
    (kabsch,), svd = _kabsch_stack([(src_c, tgt_c, problem.weights, None, None)])
    return _rigid_record(kabsch, c_src, c_tgt, wsum), svd


def _solve_frame(rays_cam: RayBundle, pts_cam: PointMap, pred_unit: np.ndarray, pred_norms: np.ndarray,
                 pts_pred: PointMap) -> tuple[_KabschSolve, _RigidSolve, _Factors]:
    """Both branches of one frame on cached factors, as one stack of two: the
    ray solve on unit rows (pred_unit = predicted rows / pred_norms) and the
    rigid solve on centred points. Every check of the ray branch runs before
    any of the point branch; DegenerateConfiguration carries `branch` "rays"
    or "points" and names the branch in its message."""
    if min(len(rays_cam), len(pts_cam)) < 3:
        raise ValueError("need at least 3 correspondences")
    rays = (rays_cam.unit, pred_unit, None, rays_cam.norms, pred_norms)
    pts = (pts_cam.centred, pts_pred.centred, None, None, None)
    if not (pts_cam._centred_finite and pts_pred._centred_finite):
        _kabsch_stack([rays], ("rays",))  # the ray branch's checks come first
        raise ValueError("correspondences contain non-finite entries")
    (rays, pts), svd = _kabsch_stack([rays, pts], ("rays", "points"))
    return rays, _rigid_record(pts, pts_cam.centroid, pts_pred.centroid, float(len(pts_cam))), svd


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
    solve, _ = _kabsch_solve(problem, normalize)
    return solve.rotation, solve.diag


def rigid_align(problem: AlignmentProblem) -> tuple[Pose, SolveDiagnostics]:
    """Rotation and translation minimizing sum_i w_i ||R s_i + t - t_i||^2.

    Classic closed form: subtract weighted centroids, solve the rotation on
    the centered sets (without renormalizing: magnitudes carry information
    here), then t = centroid(target) - R centroid(source). Scale is fixed
    to 1 by construction.
    """
    solve, _ = _rigid_solve(problem)
    return _trusted(Pose, r=solve.kabsch.rotation, t=solve.t), solve.kabsch.diag


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
    rays, pts, _ = _solve_frame(rays_cam, pts_cam, rays_pred.unit, rays_pred.norms, pts_pred)
    return PoseRecovery(
        pose=_trusted(Pose, r=rays.rotation, t=pts.t),  # each checked by _rigid_record or _rotations
        rotation_from_points=pts.kabsch.rotation,
        ray_diagnostics=rays.diag,
        point_diagnostics=pts.kabsch.diag,
    )
