"""Analytic gradients for the closed-form solvers, plus a finite-difference harness.

The rotation returned by the solvers is R = U diag(1, 1, d) V^T with
H = U S V^T and d = det(U V^T). Differentiating through the SVD, the
(sigma_i - sigma_j) cross terms of the general SVD differential cancel for
the polar factor: with K = U^T Gbar V (Gbar the upstream cotangent dL/dR),
the cotangent of H is Hbar = U Pbar V^T where, writing s = diag(S),

    d = +1:  Pbar_ab = (K - K^T)_ab / (s_a + s_b)          (a != b)
    d = -1:  Pbar_01 = -Pbar_10 = (K_01 - K_10) / (s_0 + s_1)
             Pbar_02 =  Pbar_20 = (K_02 + K_20) / (s_0 - s_2)
             Pbar_12 =  Pbar_21 = (K_12 + K_21) / (s_1 - s_2)

and Pbar_aa = 0 (the singular values do not enter R; the determinant sign
is locally constant). In the proper case only sum denominators appear; the
reflective case reintroduces differences against the flipped axis, which is
exactly where the solution stops being differentiable as sigma_2 approaches
sigma_3. Denominators below NEAR_SINGULAR_TOL are rejected, never clamped:
a clamped gradient would pass checks while pointing somewhere arbitrary.

From Hbar, with H = sum_i w_i t_i s_i^T:
    dL/dtarget_i = w_i Hbar   s_i,      dL/dsource_i = w_i Hbar^T t_i.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .camera import Intrinsics, PatchGrid, canonical_points, canonical_rays
from .geometry import Pose, Seed, _read_only, _row_sums, _tangent_basis, geodesic_distance, random_rotation
from .losses import (
    LossWeights,
    NeighborSet,
    _check_p,
    _geometry_terms,
    _pair_grads,
    _pair_terms,
    _pose_value,
)
from .simulator import _tilt_rays
from .solver import (
    AlignmentProblem,
    kabsch_rotation,
    rigid_align,
    _kabsch_solve,
    _KabschSolve,
    _rigid_solve,
    _RigidSolve,
    _solve_frame,
)

__all__ = [
    "NEAR_SINGULAR_TOL",
    "NearSingularJacobian",
    "VjpRequest",
    "VjpResult",
    "GradReport",
    "FrameInputs",
    "FrameLossTerms",
    "kabsch_rotation_vjp",
    "rigid_align_vjp",
    "pipeline_loss",
    "pipeline_loss_grad",
    "finite_diff_check",
    "random_alignment_problem",
    "random_rigid_problem",
    "random_frame_inputs",
    "near_collinear_problem",
]

# Denominator floor for the SVD-differential cross terms.
NEAR_SINGULAR_TOL = 1e-8

_FD_H_MIN = 1e-8
_FD_H_MAX = 1e-3


class NearSingularJacobian(RuntimeError):
    """The solver output is not reliably differentiable at this input."""


@dataclass(frozen=True)
class VjpRequest:
    """Upstream cotangents for one solve.

    rotation_grad is dL/dR (3x3). translation_grad (3,) applies to
    rigid_align_vjp only and may be combined with a rotation cotangent.
    """

    problem: AlignmentProblem
    rotation_grad: np.ndarray
    translation_grad: np.ndarray | None = None

    def __post_init__(self):
        g = np.asarray(self.rotation_grad, dtype=np.float64)
        if g.shape != (3, 3) or not np.isfinite(g).all():
            raise ValueError("rotation_grad must be a finite 3x3 array")
        object.__setattr__(self, "rotation_grad", g)
        if self.translation_grad is not None:
            t = np.asarray(self.translation_grad, dtype=np.float64)
            if t.shape != (3,) or not np.isfinite(t).all():
                raise ValueError("translation_grad must be a finite 3-vector")
            object.__setattr__(self, "translation_grad", t)


@dataclass(frozen=True)
class VjpResult:
    """Gradients with respect to the problem rows."""

    target: np.ndarray
    source: np.ndarray


def _polar_h_cotangent(k: np.ndarray, s: np.ndarray, sign: float) -> np.ndarray:
    """Pbar from K = U^T Gbar V; see the module docstring for the formulas."""
    if sign > 0.0:
        denominators = (s[0] + s[1], s[0] + s[2], s[1] + s[2])
    else:
        denominators = (s[0] + s[1], s[0] - s[2], s[1] - s[2])
    if min(denominators) < NEAR_SINGULAR_TOL:
        raise NearSingularJacobian(
            "SVD cross-term denominator below "
            f"{NEAR_SINGULAR_TOL:g} (singular values {s[0]:.3e}, {s[1]:.3e}, {s[2]:.3e}); "
            "gradient unreliable near degenerate or reflective configurations"
        )
    pbar = np.zeros((3, 3))
    if sign > 0.0:
        anti = k - k.T
        pbar[0, 1] = anti[0, 1] / denominators[0]
        pbar[0, 2] = anti[0, 2] / denominators[1]
        pbar[1, 2] = anti[1, 2] / denominators[2]
        pbar[1, 0] = -pbar[0, 1]
        pbar[2, 0] = -pbar[0, 2]
        pbar[2, 1] = -pbar[1, 2]
    else:
        pbar[0, 1] = (k[0, 1] - k[1, 0]) / denominators[0]
        pbar[1, 0] = -pbar[0, 1]
        pbar[0, 2] = pbar[2, 0] = (k[0, 2] + k[2, 0]) / denominators[1]
        pbar[1, 2] = pbar[2, 1] = (k[1, 2] + k[2, 1]) / denominators[2]
    return pbar


def _normalization_chain(unit: np.ndarray, norms: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """Pull gradients w.r.t. unit rows back to the raw rows they were divided from."""
    radial = _row_sums(grads * unit)[:, np.newaxis]
    return (grads - radial * unit) / norms


def _h_cotangent(fwd: _KabschSolve, rotation_grad: np.ndarray) -> np.ndarray:
    """Hbar = U Pbar V^T on the forward solve's own SVD factors."""
    u, s, vt, sign = fwd.svd
    return u @ _polar_h_cotangent(u.T @ rotation_grad @ vt.T, s, sign) @ vt


def _side_grad(rows, norms, other, w, hbar) -> np.ndarray:
    """w_i hbar other_i for each row of one side, through its normalization if any."""
    grad = w[:, np.newaxis] * (other @ hbar.T)
    return grad if norms is None else _normalization_chain(rows, norms, grad)


def _target_grad(fwd: _KabschSolve, hbar: np.ndarray) -> np.ndarray:
    cov = fwd.cov
    return _side_grad(cov.tgt, cov.tgt_norms, cov.src, cov.w, hbar)


def _source_grad(fwd: _KabschSolve, hbar: np.ndarray) -> np.ndarray:
    cov = fwd.cov
    return _side_grad(cov.src, cov.src_norms, cov.tgt, cov.w, hbar.T)


def _kabsch_backward(fwd: _KabschSolve, rotation_grad: np.ndarray) -> VjpResult:
    hbar = _h_cotangent(fwd, rotation_grad)
    return VjpResult(target=_target_grad(fwd, hbar), source=_source_grad(fwd, hbar))


def _rigid_parts(fwd: _RigidSolve, req: VjpRequest):
    """Hbar of the centered solve, the translation cotangent and each row's
    share w_i / sum(w) of the centroids."""
    g_t = req.translation_grad if req.translation_grad is not None else np.zeros(3)
    hbar = _h_cotangent(fwd.kabsch, req.rotation_grad - np.outer(g_t, fwd.c_src))
    return hbar, g_t, fwd.kabsch.cov.w[:, np.newaxis] / fwd.wsum


def _rigid_target_grad(fwd: _RigidSolve, req: VjpRequest) -> np.ndarray:
    """_rigid_backward(fwd, req).target, without building the source rows."""
    hbar, g_t, share = _rigid_parts(fwd, req)
    return _target_grad(fwd.kabsch, hbar) + share * g_t


def _rigid_backward(fwd: _RigidSolve, req: VjpRequest) -> VjpResult:
    hbar, g_t, share = _rigid_parts(fwd, req)
    return VjpResult(target=_target_grad(fwd.kabsch, hbar) + share * g_t,
                     source=_source_grad(fwd.kabsch, hbar) - share * (fwd.pose.r.m.T @ g_t))


def kabsch_rotation_vjp(req: VjpRequest, normalize: bool = True) -> VjpResult:
    """Gradients of <rotation_grad, kabsch_rotation(problem)> w.r.t. the rows.

    normalize must match the forward call; with normalize=True the chain
    through the row renormalization is included, so the returned gradients
    are with respect to the raw stored vectors.

    Raises NearSingularJacobian when a required cross-term denominator is
    below NEAR_SINGULAR_TOL, and what kabsch_rotation raises on the problem
    (DegenerateConfiguration when it is degenerate).
    """
    return _kabsch_backward(_kabsch_solve(req.problem, normalize), req.rotation_grad)


def rigid_align_vjp(req: VjpRequest) -> VjpResult:
    """Gradients of <rotation_grad, R> + <translation_grad, t> for rigid_align.

    The translation cotangent feeds back into the rotation through
    t = c_tgt - R c_src, and directly into every target point through the
    centroid; the centered-set terms need no centroid correction because the
    centered rows sum to zero.
    """
    return _rigid_backward(_rigid_solve(req.problem), req)


@dataclass(frozen=True)
class FrameLossTerms:
    """Per-frame loss breakdown for the composed training objective."""

    pose: float
    geometry: float
    regularization: float

    @property
    def total(self) -> float:
        return self.pose + self.geometry + self.regularization


@dataclass(frozen=True)
class FrameInputs:
    """Everything needed to evaluate the composed per-frame loss.

    rays_pred / pts_pred are the free variables the gradient is taken with
    respect to; the canonical sets, ground-truth pose, neighbor pairs,
    weights, and norm order are constants of the frame.
    """

    rays_cam: np.ndarray
    pts_cam: np.ndarray
    rays_pred: np.ndarray
    pts_pred: np.ndarray
    gt: Pose
    neighbors: NeighborSet
    weights: LossWeights
    p: int

    def __post_init__(self):
        for name in ("rays_cam", "pts_cam", "rays_pred", "pts_pred"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.ndim != 2 or arr.shape[1] != 3:
                raise ValueError(f"{name} must be (m, 3), got {arr.shape}")
            object.__setattr__(self, name, arr)
        m = self.rays_cam.shape[0]
        if not (self.pts_cam.shape[0] == self.rays_pred.shape[0] == self.pts_pred.shape[0] == m):
            raise ValueError("frame arrays disagree in length")
        if self.p not in (1, 2):
            raise ValueError("p must be 1 or 2")

    def with_predictions(self, rays_pred: np.ndarray, pts_pred: np.ndarray) -> "FrameInputs":
        return FrameInputs(
            self.rays_cam, self.pts_cam, rays_pred, pts_pred,
            self.gt, self.neighbors, self.weights, self.p,
        )


# One frame's forward pass: both solves and every loss intermediate the gradient reuses.
_FramePass = namedtuple(
    "_FramePass", "terms ray_problem pt_problem rays pts d_gt dist t_resid geo pairs"
)


def _frame_forward(fi: FrameInputs) -> _FramePass:
    ray_problem = AlignmentProblem(fi.rays_cam, fi.rays_pred)
    pt_problem = AlignmentProblem(fi.pts_cam, fi.pts_pred)
    rays, pts = _solve_frame(
        lambda: _kabsch_solve(ray_problem, normalize=True), lambda: _rigid_solve(pt_problem)
    )
    d_gt = fi.rays_cam @ fi.gt.r.m.T
    p_gt = fi.pts_cam @ fi.gt.r.m.T + fi.gt.t
    w, p = fi.weights, _check_p(fi.p)
    dist = geodesic_distance(rays.rotation, fi.gt.r)
    t_resid = pts.pose.t - fi.gt.t
    geo = _geometry_terms(fi.rays_pred, d_gt, fi.pts_pred, p_gt, w, p)
    pairs = _pair_terms(fi.rays_pred, fi.pts_pred, fi.rays_cam, p_gt, fi.neighbors, w, p)
    terms = FrameLossTerms(_pose_value(dist, t_resid, w, p), geo[0], pairs.value)
    return _FramePass(terms, ray_problem, pt_problem, rays, pts, d_gt, dist, t_resid, geo, pairs)


def pipeline_loss(fi: FrameInputs) -> FrameLossTerms:
    """Composed per-frame loss: solve the pose, then pose + geometry + pairwise terms."""
    return _frame_forward(fi).terms


def _dpow(x: np.ndarray, p: int) -> np.ndarray:
    # derivative of |x|^p
    return np.sign(x) if p == 1 else 2.0 * x


def _d_over_sin(d: float) -> float:
    """d / sin d, by its series 1 + d^2/6 + 7 d^4/360 near 0 (exact to
    rounding below 1e-4, and finite at d = 0)."""
    if d < 1e-4:
        d2 = d * d
        return 1.0 + d2 / 6.0 + 7.0 * d2 * d2 / 360.0
    return d / math.sin(d)


def pipeline_loss_grad(fi: FrameInputs) -> tuple[FrameLossTerms, np.ndarray, np.ndarray]:
    """Composed loss and its analytic gradient w.r.t. (rays_pred, pts_pred).

    The forward pass is pipeline_loss's; the pose term backpropagates
    through the VJPs above on the solves' own SVD factors, and the geometry
    and pairwise terms contribute directly. Raises
    NearSingularJacobian at non-differentiable points (zero geodesic at
    p = 1, geodesic near pi, or coincident points) rather than returning a
    clamped direction.
    """
    f = _frame_forward(fi)
    m, w, p = fi.rays_cam.shape[0], fi.weights, fi.p

    # Pose term: d/dR of d_g^p and d/dt of ||t - t_gt||_p, then through the solvers.
    # d(d_g)/dR = -R_gt / (2 sin d_g) has no limit at 0 or pi; d(d_g^2)/dR =
    # -R_gt d_g / sin d_g tends to -R_gt at 0, so only p = 1 fails at convergence.
    sin_dist = math.sin(f.dist)
    if abs(sin_dist) < NEAR_SINGULAR_TOL and (p == 1 or f.dist > 0.5 * math.pi):
        raise NearSingularJacobian(
            f"geodesic distance {f.dist:.3e} too close to 0 or pi for a stable gradient"
        )
    if p == 1:
        rot_grad = w.w_pose_r * (-fi.gt.r.m / (2.0 * sin_dist))
        trans_dir = np.sign(f.t_resid)
    else:
        rot_grad = -w.w_pose_r * _d_over_sin(f.dist) * fi.gt.r.m
        nrm = float(np.linalg.norm(f.t_resid))
        if nrm < 1e-12:
            raise NearSingularJacobian("translation residual too small for an L2 gradient")
        trans_dir = f.t_resid / nrm

    # The VjpRequests check the cotangents as the public VJPs do.
    # Only the predicted (target) rows are free, so no source gradient is built.
    ray_req = VjpRequest(f.ray_problem, rot_grad)
    grad_rays = _target_grad(f.rays, _h_cotangent(f.rays, ray_req.rotation_grad))
    grad_pts = _rigid_target_grad(
        f.pts, VjpRequest(f.pt_problem, np.zeros((3, 3)), w.w_pose_p * trans_dir)
    )

    # Geometry term, direct paths. The cosine clip only binds at round-off.
    _, cos_dev, point_resid, point_norms = f.geo
    active = ((cos_dev > 0.0) & (cos_dev < 2.0)).astype(np.float64)
    grad_rays += -(w.w_geo_r / m) * active[:, np.newaxis] * f.d_gt
    if p == 1:
        point_dir = np.sign(point_resid)
    else:
        if (point_norms < 1e-12).any():
            raise NearSingularJacobian("point residual too small for an L2 gradient")
        point_dir = point_resid / point_norms[:, np.newaxis]
    grad_pts += (w.w_geo_p / m) * point_dir

    # Pairwise term: pair (i, j) adds to rows i and j of both gradients.
    pr = f.pairs
    k_pairs = len(fi.neighbors)
    coef = ((w.w_reg_r / k_pairs) * _dpow(pr.ray_dev, p))[:, np.newaxis]
    if (pr.dist_hat < 1e-12).any():
        raise NearSingularJacobian("coincident neighbor points; pair distance gradient undefined")
    pull = ((w.w_reg_p / k_pairs) * _dpow(pr.dist_dev, p) / pr.dist_hat)[:, np.newaxis]
    pair_rays, pair_pts = _pair_grads(fi.neighbors, coef, pr.d_ij, pull, pr.delta)
    grad_rays += pair_rays
    grad_pts += pair_pts

    return f.terms, grad_rays, grad_pts


@dataclass(frozen=True)
class GradReport:
    """Analytic-vs-numeric comparison from finite_diff_check.

    max_rel_err uses |a - n| / max(|a|, |n|) per entry, with entries where
    both magnitudes are below 1e-12 counted as zero error.
    """

    op: str
    analytic: np.ndarray
    numeric: np.ndarray
    max_abs_err: float
    max_rel_err: float

    @property
    def n_params(self) -> int:
        return int(self.analytic.size)


def _central_diff(fn: Callable[[Sequence[np.ndarray]], float], arrays: list[np.ndarray], h: float) -> list[np.ndarray]:
    grads = []
    for idx, base in enumerate(arrays):
        g = np.zeros_like(base)
        flat = g.reshape(-1)
        for k in range(base.size):
            plus = [a.copy() for a in arrays]
            minus = [a.copy() for a in arrays]
            plus[idx].reshape(-1)[k] += h
            minus[idx].reshape(-1)[k] -= h
            flat[k] = (fn(plus) - fn(minus)) / (2.0 * h)
        grads.append(g)
    return grads


def _compare(op: str, analytic: np.ndarray, numeric: np.ndarray) -> GradReport:
    abs_err = np.abs(analytic - numeric)
    denom = np.maximum(np.abs(analytic), np.abs(numeric))
    rel = np.where(denom > 1e-12, abs_err / np.where(denom > 1e-12, denom, 1.0), 0.0)
    return GradReport(
        op=op,
        analytic=_read_only(analytic.copy()),
        numeric=_read_only(numeric.copy()),
        max_abs_err=float(abs_err.max()),
        max_rel_err=float(rel.max()),
    )


def finite_diff_check(op_id: str, instance, h: float = 1e-5, seed: Seed = Seed(0)) -> GradReport:
    """Check an analytic VJP against central finite differences.

    op_id "rotation" or "rigid" takes an AlignmentProblem; the probe scalar
    is <G, R> (+ <g, t> for rigid) with cotangents G, g drawn once from
    `seed`, and the comparison covers gradients w.r.t. both target and
    source rows. op_id "loss_total" takes FrameInputs and probes the
    composed scalar loss w.r.t. the predicted rays and points.

    The numeric side re-runs the full forward solve at every perturbed
    input; it shares no code with the analytic backward pass.
    """
    if not _FD_H_MIN <= h <= _FD_H_MAX:
        raise ValueError(f"step h must lie in [{_FD_H_MIN:g}, {_FD_H_MAX:g}], got {h:g}")

    if op_id == "rotation":
        problem: AlignmentProblem = instance
        g_rot = seed.rng().standard_normal((3, 3))
        res = kabsch_rotation_vjp(VjpRequest(problem, g_rot), normalize=True)
        analytic, base = (res.target, res.source), (problem.target, problem.source)

        def probe(arrays: Sequence[np.ndarray]) -> float:
            rot, _ = kabsch_rotation(
                AlignmentProblem(arrays[1], arrays[0], problem.weights), normalize=True
            )
            return float((g_rot * rot.m).sum())

    elif op_id == "rigid":
        problem = instance
        rng = seed.rng()
        g_rot = rng.standard_normal((3, 3))
        g_t = rng.standard_normal(3)
        res = rigid_align_vjp(VjpRequest(problem, g_rot, g_t))
        analytic, base = (res.target, res.source), (problem.target, problem.source)

        def probe(arrays: Sequence[np.ndarray]) -> float:
            pose, _ = rigid_align(AlignmentProblem(arrays[1], arrays[0], problem.weights))
            return float((g_rot * pose.r.m).sum() + g_t @ pose.t)

    elif op_id == "loss_total":
        fi: FrameInputs = instance
        _, grad_rays, grad_pts = pipeline_loss_grad(fi)
        analytic, base = (grad_rays, grad_pts), (fi.rays_pred, fi.pts_pred)

        def probe(arrays: Sequence[np.ndarray]) -> float:
            return pipeline_loss(fi.with_predictions(arrays[0], arrays[1])).total

    else:
        raise ValueError(f"unknown op_id {op_id!r}; expected rotation, rigid, or loss_total")
    numeric = _central_diff(probe, [a.copy() for a in base], h)
    return _compare(op_id, np.concatenate([a.reshape(-1) for a in analytic]),
                    np.concatenate([g.reshape(-1) for g in numeric]))


def random_alignment_problem(seed: Seed, m: int = 12, noise: float = 0.05) -> AlignmentProblem:
    """Generic unit-vector correspondences: rotated sources plus tangent noise."""
    rng = seed.rng()
    src = rng.standard_normal((m, 3))
    src /= np.linalg.norm(src, axis=1, keepdims=True)
    rot = random_rotation(seed.derive(1))
    tgt = src @ rot.m.T + noise * rng.standard_normal((m, 3))
    tgt /= np.linalg.norm(tgt, axis=1, keepdims=True)
    return AlignmentProblem(src, tgt)


def random_rigid_problem(seed: Seed, m: int = 16, noise: float = 0.05) -> AlignmentProblem:
    """Generic point correspondences under a random rigid motion plus noise."""
    rng = seed.rng()
    src = rng.standard_normal((m, 3))
    rot = random_rotation(seed.derive(1))
    t = rng.uniform(-2.0, 2.0, 3)
    tgt = src @ rot.m.T + t + noise * rng.standard_normal((m, 3))
    return AlignmentProblem(src, tgt)


def random_frame_inputs(seed: Seed, n: int = 4, p: int = 2, noise: float = 0.02) -> FrameInputs:
    """Random composed-loss instance on an n x n grid with noisy predictions.

    Perturbation magnitudes are floored at 0.75 * noise (per ray tilt, per
    point coordinate) and the points get a constant extra offset. The floors
    keep every kink argument of the loss (cosine clip boundary, L1 signs,
    vector-norm zeros) well clear of the finite-difference step, so a
    central-difference probe never straddles a non-smooth point. noise = 0
    degenerates to the exact ground-truth representations.
    """
    side = 8 * n
    grid = PatchGrid(Intrinsics(fx=0.75 * side, fy=0.75 * side, cx=side / 2, cy=side / 2,
                                width=side, height=side), n=n)
    rays_cam = canonical_rays(grid).dirs
    pts_cam = canonical_points(canonical_rays(grid)).pts
    m = rays_cam.shape[0]
    rng = seed.rng()
    gt = Pose(random_rotation(seed.derive(1)), rng.uniform(-2.0, 2.0, 3))
    d_gt = rays_cam @ gt.r.m.T
    p_gt = pts_cam @ gt.r.m.T + gt.t

    # Tilt each ground-truth ray about a random tangent axis.
    phi = rng.uniform(0.0, 2.0 * math.pi, m)
    tilt = noise * (0.75 + np.abs(rng.standard_normal(m)))
    rays_pred = _tilt_rays(d_gt, phi, tilt, _tangent_basis(d_gt))

    mag = noise * (0.75 + np.abs(rng.standard_normal((m, 3))))
    sgn = np.where(rng.standard_normal((m, 3)) >= 0.0, 1.0, -1.0)
    pts_pred = p_gt + mag * sgn + noise * np.array([3.0, -2.5, 3.5])
    return FrameInputs(
        rays_cam, pts_cam, rays_pred, pts_pred, gt,
        NeighborSet.grid(n), LossWeights(), p,
    )


def near_collinear_problem(m: int = 12) -> AlignmentProblem:
    """Deterministic instance that passes the forward degeneracy gate but
    trips the NearSingularJacobian guard.

    Unit vectors fanned around +z with spread eps: the normalized
    cross-covariance spectrum is (1, eps^2/2, eps^2/2) up to rounding, so
    with eps^2 = 5e-9 the forward gate sigma_2/sigma_1 >= 1e-9 passes while
    sigma_2 + sigma_3 = 5e-9 sits below the 1e-8 cross-term floor.
    """
    eps = math.sqrt(5e-9)
    angles = 2.0 * math.pi * np.arange(m) / m
    src = np.stack(
        [eps * np.cos(angles), eps * np.sin(angles), np.ones(m)], axis=1
    )
    src /= np.linalg.norm(src, axis=1, keepdims=True)
    return AlignmentProblem(src, src.copy(), np.full(m, 1.0 / m))
