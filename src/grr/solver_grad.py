"""Analytic gradients for the closed-form solvers, plus a finite-difference harness.

The rotation returned by the solvers is R = U diag(1, 1, d) V^T with
H = U S V^T and d = det(U V^T). Differentiating through the SVD, the
(sigma_i - sigma_j) cross terms of the general SVD differential cancel for
the polar factor: with K = U^T Gbar V (Gbar the upstream cotangent dL/dR),
the cotangent of H is Hbar = U Pbar V^T where, writing s = diag(S),

    Pbar_01 = -Pbar_10 = (K_01 - K_10) / (s_0 + s_1)
    Pbar_a2 = (K_a2 - d K_2a) / (s_a + d s_2),  Pbar_2a = -d Pbar_a2   (a = 0, 1)

and Pbar_aa = 0 (the singular values do not enter R; the determinant sign
is locally constant). In the proper case (d = +1) Pbar is antisymmetric
with sum denominators; the reflective case makes the pairs with the flipped
axis symmetric, with differences s_a - s_2, which is exactly where the
solution stops being differentiable as sigma_2 approaches sigma_3.
Denominators below NEAR_SINGULAR_TOL are rejected, never clamped: a clamped
gradient would pass checks while pointing somewhere arbitrary.

From Hbar, with H = sum_i w_i t_i s_i^T:
    dL/dtarget_i = w_i Hbar   s_i,      dL/dsource_i = w_i Hbar^T t_i.
The backward runs on the forward's (F, 3, 3) stacks (Ionescu et al. 2015,
"Matrix backpropagation"): a training frame's two solves share one Hbar stack.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import _EXPORTS
from .camera import Intrinsics, PatchGrid, PointMap, RayBundle, canonical_points, canonical_rays
from .geometry import (Pose, Seed, _normalized_rows, _read_only, _row_sums, _tangent_basis, _trusted,
                       geodesic_distance, random_rotation)
from .losses import (
    LossWeights,
    NeighborSet,
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
    _Factors,
    _kabsch_solve,
    _rigid_solve,
    _RigidSolve,
    _solve_frame,
)

__all__ = _EXPORTS["solver_grad"]

# Denominator floor for the SVD-differential cross terms.
NEAR_SINGULAR_TOL = 1e-8
# Geodesic floor of the p = 1 pose gradient -R_gt / (2 sin d). On exact rays turned by d its
# relative rounding error is about 5e-16 / d: 3.7e-4 at d = 1.1e-12, up to 2e-3 at 1e-13, 0.3 at 1e-15.
P1_GEODESIC_FLOOR = 1e-12

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
        g = _cotangent(self.rotation_grad, "rotation_grad")
        object.__setattr__(self, "rotation_grad", g)
        if self.translation_grad is not None:
            t = _cotangent(self.translation_grad, "translation_grad")
            object.__setattr__(self, "translation_grad", t)


def _cotangent(value, name: str) -> np.ndarray:
    shape, kind = ((3, 3), "3x3 array") if name == "rotation_grad" else ((3,), "3-vector")
    g = np.asarray(value, dtype=np.float64)
    if g.shape != shape or not all(map(math.isfinite, g.ravel().tolist())):
        raise ValueError(f"{name} must be a finite {kind}")
    return g


@dataclass(frozen=True)
class VjpResult:
    """Gradients with respect to the problem rows."""

    target: np.ndarray
    source: np.ndarray


def _polar_h_cotangent(k: np.ndarray, s: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """Pbar from an (F, 3, 3) stack K = U^T Gbar V, s (F, 3) and sign (F,); the first
    entry with a small denominator raises. Entries run as Python floats (numpy's
    IEEE operations), cheaper than array calls for the two entries of a frame."""
    out = []
    for (s0, s1, s2), d, ((_, k01, k02), (k10, _, k12), (k20, k21, _)) in zip(
            s.tolist(), sign.tolist(), k.tolist()):
        den01, den02, den12 = s0 + s1, s0 + d * s2, s1 + d * s2
        if min(den01, den02, den12) < NEAR_SINGULAR_TOL:
            raise NearSingularJacobian(
                "SVD cross-term denominator below "
                f"{NEAR_SINGULAR_TOL:g} (singular values {s0:.3e}, {s1:.3e}, {s2:.3e}); "
                "gradient unreliable near degenerate or reflective configurations")
        p01, p02, p12 = (k01 - k10) / den01, (k02 - d * k20) / den02, (k12 - d * k21) / den12
        out += (0.0, p01, p02, -p01, 0.0, p12, -d * p02, -d * p12, 0.0)
    return np.array(out).reshape(-1, 3, 3)


def _h_cotangents(svd: _Factors, rotation_grads: np.ndarray) -> np.ndarray:
    """Hbar = U Pbar V^T for each entry of a stacked solve, from its dL/dR stack."""
    u, s, vt, sign = svd
    k = u.transpose(0, 2, 1) @ rotation_grads @ vt.transpose(0, 2, 1)
    return u @ _polar_h_cotangent(k, s, sign) @ vt


def _side_grad(rows, norms, other, w, hbar) -> np.ndarray:
    """w_i hbar other_i per row of one side, pulled back through rows = raw / norms if normalized."""
    grad = other @ hbar.T if w is None else w[:, np.newaxis] * (other @ hbar.T)
    if norms is None:
        return grad
    return (grad - _row_sums(grad * rows)[:, np.newaxis] * rows) / norms


def _centroid_share(fwd: _RigidSolve):
    """Each row's share w_i / sum(w) of a cotangent through the centroids."""
    return (1.0 if fwd.kabsch.w is None else fwd.kabsch.w[:, np.newaxis]) / fwd.wsum


def _rigid_target(fwd: _RigidSolve, hbar, g_t) -> np.ndarray:
    """The centred solve's target-row gradient, from the Hbar of its dL/dR less
    g_t c_src^T (t = c_tgt - R c_src), plus each row's share of the
    translation cotangent g_t through the target centroid."""
    k = fwd.kabsch
    return _side_grad(k.tgt, k.tgt_norms, k.src, k.w, hbar) + _centroid_share(fwd) * g_t


def kabsch_rotation_vjp(req: VjpRequest, normalize: bool = True) -> VjpResult:
    """Gradients of <rotation_grad, kabsch_rotation(problem)> w.r.t. the rows.

    normalize must match the forward call; with normalize=True the chain
    through the row renormalization is included, so the returned gradients
    are with respect to the raw stored vectors.

    Raises NearSingularJacobian when a required cross-term denominator is
    below NEAR_SINGULAR_TOL, and what kabsch_rotation raises on the problem
    (DegenerateConfiguration when it is degenerate).
    """
    fwd, svd = _kabsch_solve(req.problem, normalize)
    hbar = _h_cotangents(svd, req.rotation_grad[np.newaxis])[0]
    return VjpResult(target=_side_grad(fwd.tgt, fwd.tgt_norms, fwd.src, fwd.w, hbar),
                     source=_side_grad(fwd.src, fwd.src_norms, fwd.tgt, fwd.w, hbar.T))


def rigid_align_vjp(req: VjpRequest) -> VjpResult:
    """Gradients of <rotation_grad, R> + <translation_grad, t> for rigid_align.

    The translation cotangent feeds back into the rotation through
    t = c_tgt - R c_src, and directly into every target point through the
    centroid; the centered-set terms need no centroid correction because the
    centered rows sum to zero.
    """
    fwd, svd = _rigid_solve(req.problem)
    g_t = req.translation_grad if req.translation_grad is not None else np.zeros(3)
    g_rot = req.rotation_grad - g_t[:, np.newaxis] * fwd.c_src  # np.outer's products
    hbar, k = _h_cotangents(svd, g_rot[np.newaxis])[0], fwd.kabsch
    source = _side_grad(k.src, k.src_norms, k.tgt, k.w, hbar.T) - _centroid_share(fwd) * (k.rotation.m.T @ g_t)
    return VjpResult(_rigid_target(fwd, hbar, g_t), source)


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
    weights, and norm order are constants of the frame. rays_cam must be unit
    rows, as canonical_rays gives them.
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


# One frame's forward pass: both solves and every loss intermediate the gradient reuses.
_FramePass = namedtuple("_FramePass", "terms rays pts svd d_gt dist t_resid geo pairs")


# The canonical pair the last frame used, and what was built from it, as one tuple
# replaced whole so that threads never mix two pairs: (rays_cam bytes, pts_cam bytes,
# RayBundle, PointMap, NeighborSet, its pair dots). Equal bytes give bitwise-equal
# factors; a pair that fails validation is never stored.
_memo = (None,) * 6


def _frame_forward(fi: FrameInputs) -> _FramePass:
    global _memo
    if not np.isfinite(fi.rays_pred).all():  # a NaN row would pass the near-zero check
        raise ValueError("rays_pred contains non-finite entries")
    rays_cam, pts_cam, canon = fi.rays_cam, fi.pts_cam, _memo
    rays_key, pts_key = rays_cam.tobytes(), pts_cam.tobytes()
    if not (canon[0] == rays_key and canon[1] == pts_key):
        canon = _memo = (rays_key, pts_key, RayBundle(rays_cam), PointMap(pts_cam), None, None)
    unit, norms = _normalized_rows(fi.rays_pred, "target")
    if not np.isfinite(fi.pts_pred).all():  # PointMap's check; the view below never leaves the frame
        raise ValueError("pts contains non-finite entries")
    rays, pts, svd = _solve_frame(canon[2], canon[3], unit, norms, _trusted(PointMap, pts=fi.pts_pred.view()))
    r_t = fi.gt.r.m.T
    d_gt = rays_cam @ r_t
    p_gt = pts_cam @ r_t + fi.gt.t
    w, p = fi.weights, fi.p
    dist = geodesic_distance(rays.rotation, fi.gt.r)
    t_resid = pts.t - fi.gt.t
    geo = _geometry_terms(fi.rays_pred, d_gt, fi.pts_pred, p_gt, w, p)
    known = canon[4] is fi.neighbors
    pairs = _pair_terms(fi.rays_pred, fi.pts_pred, rays_cam, p_gt, fi.neighbors, w, p,
                        canon[5] if known else None)
    if not known:
        _memo = canon[:4] + (fi.neighbors, _read_only(pairs.cam_dots))
    terms = FrameLossTerms(_pose_value(dist, t_resid, w, p), geo[0], pairs.value)
    if not math.isfinite(terms.total):  # a term overflowed, and its gradient would not show it
        raise ValueError("loss components must be finite")
    return _FramePass(terms, rays, pts, svd, d_gt, dist, t_resid, geo, pairs)


def pipeline_loss(fi: FrameInputs) -> FrameLossTerms:
    """Composed per-frame loss: solve the pose, then pose + geometry + pairwise terms.
    Raises ValueError when the terms do not sum to a finite total."""
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
    NearSingularJacobian at non-differentiable points (a geodesic below
    P1_GEODESIC_FLOOR at p = 1, a geodesic near pi, or coincident points)
    rather than returning a clamped direction, and ValueError as pipeline_loss does.
    """
    f = _frame_forward(fi)
    m, w, p = fi.rays_cam.shape[0], fi.weights, fi.p

    # Pose term: d/dR of d_g^p and d/dt of ||t - t_gt||_p, then through the solvers.
    # d(d_g)/dR = -R_gt / (2 sin d_g) has no limit at 0 or pi; d(d_g^2)/dR =
    # -R_gt d_g / sin d_g tends to -R_gt at 0, so only p = 1 fails at convergence.
    sin_dist = math.sin(f.dist)
    if abs(sin_dist) < NEAR_SINGULAR_TOL and f.dist > 0.5 * math.pi or p == 1 and f.dist < P1_GEODESIC_FLOOR:
        raise NearSingularJacobian(
            f"geodesic distance {f.dist:.3e} too close to 0 or pi for a stable gradient"
        )
    if p == 1:
        rot_grad = w.w_pose_r * (-fi.gt.r.m / (2.0 * sin_dist))
        trans_dir = np.sign(f.t_resid)
    else:
        rot_grad = -w.w_pose_r * _d_over_sin(f.dist) * fi.gt.r.m
        nrm = math.sqrt(f.t_resid.dot(f.t_resid))  # np.linalg.norm's 1-D path
        if nrm < 1e-12:
            raise NearSingularJacobian("translation residual too small for an L2 gradient")
        trans_dir = f.t_resid / nrm

    # dL/dR is checked as VjpRequest checks it. dL/dt needs no check: its entries are at
    # most w_pose_p in size, since a finite loss has a finite translation residual.
    # Both Hbar come from one stack; only the predicted (target) rows are free, so no
    # source gradient is built.
    g_rays, g_t = _cotangent(rot_grad, "rotation_grad"), w.w_pose_p * trans_dir
    hbar = _h_cotangents(f.svd, np.array((g_rays, 0.0 - g_t[:, np.newaxis] * f.pts.c_src)))
    rays = f.rays
    grad_rays = _side_grad(rays.tgt, rays.tgt_norms, rays.src, rays.w, hbar[0])
    grad_pts = _rigid_target(f.pts, hbar[1], g_t)

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
    coef = (w.w_reg_r / k_pairs) * _dpow(pr.ray_dev, p)
    if (pr.dist_hat < 1e-12).any():
        raise NearSingularJacobian("coincident neighbor points; pair distance gradient undefined")
    pull = (w.w_reg_p / k_pairs) * _dpow(pr.dist_dev, p) / pr.dist_hat
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
    if op_id not in _GRADCHECK_OPS:
        raise ValueError("unknown op_id {!r}; expected {}, {}, or {}".format(op_id, *_GRADCHECK_OPS))

    if op_id != "loss_total":
        problem: AlignmentProblem = instance
        rng = seed.rng()
        g_rot = rng.standard_normal((3, 3))
        g_t = rng.standard_normal(3) if op_id == "rigid" else None
        res = (rigid_align_vjp(VjpRequest(problem, g_rot, g_t)) if g_t is not None
               else kabsch_rotation_vjp(VjpRequest(problem, g_rot), normalize=True))
        analytic, base = (res.target, res.source), (problem.target, problem.source)

        def probe(arrays: Sequence[np.ndarray]) -> float:
            moved = AlignmentProblem(arrays[1], arrays[0], problem.weights)
            if g_t is None:
                return float((g_rot * kabsch_rotation(moved, normalize=True)[0].m).sum())
            pose, _ = rigid_align(moved)
            return float((g_rot * pose.r.m).sum() + g_t @ pose.t)

    else:
        fi: FrameInputs = instance
        _, grad_rays, grad_pts = pipeline_loss_grad(fi)
        analytic, base = (grad_rays, grad_pts), (fi.rays_pred, fi.pts_pred)

        def probe(arrays: Sequence[np.ndarray]) -> float:
            return pipeline_loss(replace(fi, rays_pred=arrays[0], pts_pred=arrays[1])).total

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
    rays = canonical_rays(grid)
    rays_cam, pts_cam = rays.dirs, canonical_points(rays).pts
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


# `grr gradcheck`'s ops: op -> (default size, random instance (seed, size), near-collinear instance (size) or None)
_GRADCHECK_OPS = {
    "rotation": (12, random_alignment_problem, near_collinear_problem),
    "rigid": (16, random_rigid_problem, near_collinear_problem),
    "loss_total": (4, random_frame_inputs, None),
}
