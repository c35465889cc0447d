"""Plain reference forms, exact outcome helpers and one seeded case table.

Every fast path in grr must give the bits of the plain per-frame NumPy form
it replaced: the same values and, on bad input, the same exception type,
message and `branch`. Each plain form is defined here once, with the helpers
that compare outcomes exactly and the seeded cases the parity tests draw
from. A form here uses NumPy and grr's public value types, never the fast path
it gates (tests/test_layering.py checks this module's imports), so no parity
test compares a fast path with itself.
"""

import dataclasses
import hashlib
import io
import itertools
import math
import platform
import warnings
from dataclasses import replace

import numpy as np

from grr import (AlignmentProblem, DegenerateConfiguration, FrameInputs, FrameRecord, LossWeights,
                 NearSingularJacobian, NeighborSet, PointMap, Pose, RayBundle, Rotation, Seed, TrialReport, VjpRequest,
                 canonical_points, canonical_rays, geodesic_distance, geometry_loss, kabsch_rotation,
                 kabsch_rotation_vjp, perturb_representations, pose_loss, random_alignment_problem,
                 random_frame_inputs, random_rigid_problem, random_rotation, random_rotation_matrices, recover_pose,
                 regularization_loss, rigid_align, rigid_align_vjp, world_points, world_rays)
from grr.geometry import ORTHONORMALITY_TOL, UNIT_TOL
from grr.solver import DEGENERACY_RTOL, SolveDiagnostics
from grr.solver_grad import NEAR_SINGULAR_TOL

# The build the golden hashes were recorded on: NumPy 2.4.6 with its OpenBLAS 0.3.31,
# x86-64, AVX512_SPR dispatch. Another NumPy, BLAS kernel or SIMD target may
# round the SVDs, sums or sines differently in the last bit, which a hash shows.
GOLDEN_BUILD = ("2.4.6", "x86_64", True)


def numpy_build() -> tuple[str, str, bool]:
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as cpu
    except ImportError:  # NumPy 1.x
        from numpy.core._multiarray_umath import __cpu_features__ as cpu
    return np.__version__, platform.machine(), bool(cpu.get("AVX512_SPR"))


# -- outcome helpers --


def bits(value):
    """value as exact, comparable bits: arrays by shape, dtype and bytes (so -0.0
    differs from 0.0 and NaN equals itself), scalars by type and bytes, a
    Rotation by its matrix, dataclasses and sequences entry by entry."""
    if isinstance(value, np.ndarray):
        return value.shape, value.dtype.str, value.tobytes()
    if isinstance(value, (float, np.floating)):
        return type(value).__name__, np.float64(value).tobytes()
    if isinstance(value, Rotation):
        return bits(value.m)
    if dataclasses.is_dataclass(value):
        return type(value).__name__, tuple(bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return tuple(bits(v) for v in value)
    return value


def outcome(fn, *args, **kwargs):
    """The bits of fn(*args, **kwargs), or the (type, message, branch) of what it raises."""
    try:
        return bits(fn(*args, **kwargs))
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "branch", None)


def raised(fn, *args, **kwargs):
    """The (type, message, branch) of what fn(*args, **kwargs) raises; it must raise."""
    got = outcome(fn, *args, **kwargs)
    assert isinstance(got[0], type) and issubclass(got[0], Exception), f"{fn.__name__} returned"
    return got


def assert_same(fast, plain, *args, **kwargs):
    """fast and plain give the same bits on the same arguments, or raise the same."""
    got = outcome(fast, *args, **kwargs)
    assert got == outcome(plain, *args, **kwargs)
    return got


# -- plain forms --

def row_sums(x):
    return x.sum(axis=-1)


def row_norms(x, keepdims=False):
    return np.linalg.norm(x, axis=-1, keepdims=keepdims)


def median(values) -> float:
    """np.median of the values as a float64 array (NaN, without its warning, if there are none)."""
    if not len(values):
        return math.nan
    with np.errstate(over="ignore", invalid="ignore"):  # 1.7e308 + 1e308, inf + -inf
        return float(np.median(np.array(values, dtype=np.float64)))


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """(k, 4) quaternions (w, x, y, z) to (k, 3, 3) matrices, one ufunc per operator."""
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    out = np.empty((q.shape[0], 3, 3))
    out[:, 0, 0] = 1.0 - 2.0 * (y * y + z * z)
    out[:, 0, 1] = 2.0 * (x * y - w * z)
    out[:, 0, 2] = 2.0 * (x * z + w * y)
    out[:, 1, 0] = 2.0 * (x * y + w * z)
    out[:, 1, 1] = 1.0 - 2.0 * (x * x + z * z)
    out[:, 1, 2] = 2.0 * (y * z - w * x)
    out[:, 2, 0] = 2.0 * (x * z - w * y)
    out[:, 2, 1] = 2.0 * (y * z + w * x)
    out[:, 2, 2] = 1.0 - 2.0 * (x * x + y * y)
    return out


def check_rotations(ms: np.ndarray) -> None:
    """The stacked rotation check as NumPy expressions: the first entry that is
    not orthonormal with det +1 raises."""
    errs = np.abs(np.swapaxes(ms, 1, 2) @ ms - np.eye(3)).max(axis=(1, 2))
    for err, det in zip(errs.tolist(), np.linalg.det(ms).tolist()):
        if err > ORTHONORMALITY_TOL:
            raise ValueError(f"matrix is not orthonormal (max residual {err:.3e})")
        if abs(det - 1.0) > ORTHONORMALITY_TOL:
            raise ValueError(f"matrix determinant {det:.17g} is not +1")


def svd_rotation(hs, branches=None):
    """The stacked solve's tail with numpy's det and a diag(1, 1, sign) product on
    every entry: (rotations, diagnostics, (u, s, vt, sign)), or it raises for the
    first failing entry after checking the rotations before it."""
    finite = np.isfinite(hs).all(axis=(1, 2)).tolist()
    u, s, vt = np.linalg.svd(np.where(np.array(finite)[:, None, None], hs, np.eye(3)))
    dets = np.linalg.det(np.concatenate((u, vt))).tolist()
    sign = np.array([1.0 if du * dv > 0.0 else -1.0 for du, dv in zip(dets[:len(hs)], dets[len(hs):])])
    r = (u * np.stack([np.ones_like(sign), np.ones_like(sign), sign], axis=1)[:, np.newaxis]) @ vt
    for i, (s0, s1, s2) in enumerate(s.tolist()):
        overflows = not (finite[i] and math.isfinite(s0))  # H or its spectrum
        if not (overflows or s0 <= 0.0 or s1 < DEGENERACY_RTOL * s0):
            continue
        check_rotations(r[:i])
        if overflows:
            raise ValueError("cross-covariance overflows: correspondences too large")
        branch = branches[i] if branches else None
        raise DegenerateConfiguration(
            f"{branch[:-1] + ' branch: ' if branch else ''}correspondences are collinear to "
            f"working precision (singular values {s0:.3e}, {s1:.3e}, {s2:.3e})", branch)
    diags = [SolveDiagnostics((s0, s1, s2), sg < 0.0, s0 / s2 if s2 > 0.0 else math.inf)
             for (s0, s1, s2), sg in zip(s.tolist(), sign.tolist())]
    check_rotations(r)
    return list(r), diags, (u, s, vt, sign)


def kabsch(src, tgt, normalize: bool):
    """A unit-weight Kabsch solve, (rotation, diagnostics): svd_rotation on the
    stack of one H = tgt^T src, with the rows normalized first if asked."""
    if normalize:
        src = src / np.linalg.norm(src, axis=1, keepdims=True)
        tgt = tgt / np.linalg.norm(tgt, axis=1, keepdims=True)
    (r,), (diag,), _ = svd_rotation((tgt.T @ src)[np.newaxis])
    return r, diag


def tangent_basis(d):
    """The per-ray tangent pair (u, v) of (..., 3) rows the ray tilt turns in, helper axis z or x."""
    u = np.cross(d, np.where(np.abs(d[..., 2:3]) < 0.9, [[0.0, 0.0, 1.0]], [[1.0, 0.0, 0.0]]))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    return u, np.cross(d, u)


def perturb(rays, pts, noise):
    """perturb_representations as first written, on arrays: an all-ones scale
    unless per-patch, and the tilt d cos(theta) + (axis x d) sin(theta)."""
    m = len(rays)
    rng = noise.seed.rng()
    phi = rng.uniform(0.0, 2.0 * math.pi, m)
    theta = np.abs(rng.standard_normal(m)) * noise.ray_sigma
    offsets = rng.standard_normal((m, 3)) * noise.point_sigma
    scale = 0.5 + np.arange(m) / (m - 1) if noise.mode == "per_patch_scaled" and m > 1 else np.ones(m)
    theta, offsets, d = theta * scale, offsets * scale[:, np.newaxis], rays.dirs
    u, v = tangent_basis(d)
    axis = np.cos(phi)[:, np.newaxis] * u + np.sin(phi)[:, np.newaxis] * v
    tilted = d * np.cos(theta)[:, np.newaxis] + np.cross(axis, d) * np.sin(theta)[:, np.newaxis]
    return tilted, pts.pts + offsets + noise.point_bias


def world_frames(poses, rays, pts):
    """Per pose, world_rays then world_points, validated as RayBundle and PointMap
    validate: (dirs, norms, unit, tangents, pts, centred) per pose."""
    out = []
    for pose in poses:
        d = rays.dirs @ pose.r.m.T
        if not np.isfinite(d).all():
            raise ValueError("dirs contains non-finite entries")
        norms = np.linalg.norm(d, axis=1, keepdims=True)
        worst = float(np.abs(norms - 1.0).max()) if len(d) else 0.0
        if worst > UNIT_TOL:
            raise ValueError(f"ray norms deviate from 1 by up to {worst:.3e}")
        p = pts.pts @ pose.r.m.T + pose.t
        if not np.isfinite(p).all():
            raise ValueError("pts contains non-finite entries")
        out.append((d, norms, d / norms, tangent_basis(d), p, p - (np.ones(len(p)) @ p) / len(p)))
    return out


def ray_bundle(arr):
    """RayBundle.from_array as the constructor over rows normalized with np.linalg.norm:
    the bundle's (dirs, norms, unit)."""
    d = np.asarray(arr, dtype=np.float64)
    if d.ndim != 2 or d.shape[1] != 3:
        raise ValueError(f"expected (m, 3) array, got {d.shape}")
    if not np.isfinite(d).all():
        raise ValueError("dirs contains non-finite entries")
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(d, axis=1, keepdims=True)
    if not np.isfinite(norms).all():
        raise ValueError("cannot normalize ray rows: their norms overflow")
    if (norms < 1e-12).any():
        raise ValueError("cannot normalize near-zero ray rows")
    rb = RayBundle(d / norms)
    return rb.dirs, rb.norms, rb.unit


XYZ_ROW = np.dtype([("i", np.int64), ("xyz", np.float64, (3,))])


def read_xyz(path) -> np.ndarray:
    """read_xyz_csv as first written: a header readline, blank lines found by string
    scans, the body parsed through io.StringIO; an index out of order names its file line,
    and a byte that is not ASCII its file."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            header = fh.readline().rstrip("\n")
            body = fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if header != "i,x,y,z":
        raise ValueError(f"{path}: expected header i,x,y,z, got {header!r}")
    if not body:
        return np.empty((0, 3))
    if body.startswith("\n") or "\n\n" in body:
        raise ValueError(f"{path}: blank line in the body, expected 4 fields per row")
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            data = np.loadtxt(io.StringIO(body), delimiter=",", dtype=XYZ_ROW, comments=None, ndmin=1)
        except (ValueError, DeprecationWarning) as exc:
            raise ValueError(f"{path}: expected 4 fields i,x,y,z per row: {exc}") from None
    misplaced = np.flatnonzero(data["i"] != np.arange(len(data)))
    if misplaced.size:
        k = int(misplaced[0])
        raise ValueError(f"{path}: row index {data['i'][k]} out of order at line {k + 2}")
    out = np.ascontiguousarray(data["xyz"])
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{path}: non-finite values")
    return out


def write_poses(poses, path) -> None:
    """save_poses as first written: one format(x, ".17g") per NumPy scalar, one write per pose."""
    with open(path, "w", encoding="ascii") as fh:
        for pose in poses:
            nums = list(pose.r.m.reshape(-1)) + list(pose.t)
            fh.write(" ".join(format(x, ".17g") for x in nums) + "\n")


def axis_angle_matrix(axis, angle):
    """Rotation.from_axis_angle's matrix as first written: Rodrigues' formula on one axis,
    normalized with np.linalg.norm, before the orthonormality check."""
    a = np.asarray(axis, dtype=np.float64)
    if a.shape != (3,):
        raise ValueError(f"axis must have shape (3,), got {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("axis contains non-finite entries")
    n = float(np.linalg.norm(a))
    if n < 1e-12:
        raise ValueError("rotation axis has near-zero norm")
    a = a / n
    k = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def sample_poses(base, spec):
    """sample_poses as first written: base-major, three draws and checked
    rotations per sample; a failing sample raises its error, naming it."""
    rng, out = spec.seed.rng(), []
    for k in range(len(base) * spec.count):
        ref = base[k // spec.count]
        offset, axis, z = spec.sigma_t * rng.standard_normal(3), rng.standard_normal(3), rng.standard_normal()
        try:
            delta = Rotation(axis_angle_matrix(axis / np.linalg.norm(axis), abs(spec.sigma_r * z)))
            out.append(Pose(ref.r @ delta, ref.t + offset))
        except ValueError as exc:
            raise ValueError(f"perturb sample {k}: {exc}") from None
    return out


def trans_err(est_t, gt_t) -> float:
    """The distance between camera centres: np.linalg.norm while every axis of the
    difference is below 1e150, so its squares cannot overflow; math.hypot past it."""
    diff = [a - b for a, b in zip(est_t.tolist(), gt_t.tolist())]
    if all(abs(x) < 1e150 for x in diff):
        return float(np.linalg.norm(est_t - gt_t))
    return math.hypot(*diff)


def score_solved(idx, rec, gt) -> FrameRecord:
    """The per-frame scorer as first written: an "ok" record with the two rotations'
    geodesic_distance to the ground truth in degrees and the translation error, or
    NaN errors without a ground-truth pose."""
    if gt is None:
        return FrameRecord(idx, math.nan, math.nan, math.nan, "ok")
    return FrameRecord(idx, math.degrees(geodesic_distance(rec.pose.r, gt.r)),
                       math.degrees(geodesic_distance(rec.rotation_from_points, gt.r)),
                       trans_err(rec.pose.t, gt.t), "ok")


def score_frames(frames):
    """The stacked scorer's records, frame by frame: score_solved for each (index, recovery,
    ground truth), or a "degenerate:<branch>" record with NaN errors for an exception."""
    return [FrameRecord(idx, math.nan, math.nan, math.nan, f"degenerate:{rec.branch or 'unknown'}")
            if isinstance(rec, DegenerateConfiguration) else score_solved(idx, rec, gt) for idx, rec, gt in frames]


def sweep(grid, poses, specs):
    """ablation_sweep as first written: spec-major, each frame's bundles built from
    its pose and its noise drawn from seed.derive(frame), scored and summarized
    with the plain forms above."""
    rays_cam = canonical_rays(grid)
    pts_cam = canonical_points(rays_cam)
    reports = []
    for noise in specs:
        records = []
        for idx, pose in enumerate(poses):
            gt = world_rays(pose, rays_cam), world_points(pose, pts_cam)
            try:
                rec = recover_pose(rays_cam, pts_cam, *perturb_representations(*gt, noise, seed=noise.seed.derive(idx)))
            except DegenerateConfiguration as exc:
                rec = exc
            records.extend(score_frames([(idx, rec, pose)]))
        ok = [r for r in records if r.status == "ok"]
        reports.append(TrialReport(tuple(records), median([r.rot_err_rays_deg for r in ok]),
                                   median([r.rot_err_points_deg for r in ok]),
                                   median([r.trans_err for r in ok]), len(records) - len(ok)))
    return reports


def loss_grad(fi: FrameInputs):
    """pipeline_loss_grad before the fused forward pass, from public pieces: two
    solves for the loss terms, the public VJPs (which solve again) for the pose
    gradient, and np.add.at for the pair scatters."""
    m = fi.rays_cam.shape[0]
    w, p = fi.weights, fi.p
    ray_problem = AlignmentProblem(fi.rays_cam, fi.rays_pred)
    pt_problem = AlignmentProblem(fi.pts_cam, fi.pts_pred)
    r_hat, _ = kabsch_rotation(ray_problem, normalize=True)
    point_pose, _ = rigid_align(pt_problem)
    d_gt = fi.rays_cam @ fi.gt.r.m.T
    p_gt = fi.pts_cam @ fi.gt.r.m.T + fi.gt.t
    terms = (
        pose_loss(r_hat, point_pose.t, fi.gt, w, p),
        geometry_loss(fi.rays_pred, d_gt, fi.pts_pred, p_gt, w, p),
        regularization_loss(fi.rays_pred, fi.pts_pred, fi.rays_cam, p_gt, fi.neighbors, w, p),
    )

    dist = geodesic_distance(r_hat, fi.gt.r)
    diff = point_pose.t - fi.gt.t
    if p == 1:
        rot_grad = w.w_pose_r * (-fi.gt.r.m / (2.0 * math.sin(dist)))
        trans_dir = np.sign(diff)
    else:
        rot_grad = -w.w_pose_r * (dist / math.sin(dist)) * fi.gt.r.m
        trans_dir = diff / np.linalg.norm(diff)
    grad_rays = kabsch_rotation_vjp(VjpRequest(ray_problem, rot_grad), normalize=True).target
    grad_pts = rigid_align_vjp(
        VjpRequest(pt_problem, np.zeros((3, 3)), w.w_pose_p * trans_dir)
    ).target

    cos_dev = 1.0 - (fi.rays_pred * d_gt).sum(axis=1)
    active = ((cos_dev > 0.0) & (cos_dev < 2.0)).astype(np.float64)
    grad_rays += -(w.w_geo_r / m) * active[:, np.newaxis] * d_gt
    resid = fi.pts_pred - p_gt
    if p == 1:
        point_dir = np.sign(resid)
    else:
        point_dir = resid / np.linalg.norm(resid, axis=1, keepdims=True)
    grad_pts += (w.w_geo_p / m) * point_dir

    def dpow(x):
        return np.sign(x) if p == 1 else 2.0 * x

    i, j = fi.neighbors.pairs[:, 0], fi.neighbors.pairs[:, 1]
    k = len(fi.neighbors)
    d = fi.rays_pred
    ray_dev = (d[i] * d[j]).sum(axis=1) - (fi.rays_cam[i] * fi.rays_cam[j]).sum(axis=1)
    coef = (w.w_reg_r / k) * dpow(ray_dev)
    np.add.at(grad_rays, i, coef[:, np.newaxis] * d[j])
    np.add.at(grad_rays, j, coef[:, np.newaxis] * d[i])
    delta = fi.pts_pred[i] - fi.pts_pred[j]
    dist_hat = np.linalg.norm(delta, axis=1)
    dist_gt = np.linalg.norm(p_gt[i] - p_gt[j], axis=1)
    dcoef = (w.w_reg_p / k) * dpow(dist_hat - dist_gt)
    unit = delta / dist_hat[:, np.newaxis]
    np.add.at(grad_pts, i, dcoef[:, np.newaxis] * unit)
    np.add.at(grad_pts, j, -dcoef[:, np.newaxis] * unit)
    return terms, grad_rays, grad_pts


def polar_h_cotangent(k, s, sign):
    """Pbar of one 3x3 K as the per-matrix backward computed it, one branch per sign."""
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


def kabsch_backward(fwd, svd, rotation_grad):
    """(target, source) gradients as the per-matrix backward pass computed them
    before the target-only split: both sides always, sum(axis=1) for the
    radial part, on the one entry of a stack-of-one solve's factors."""
    u, s, vt, sign = (a[0] for a in svd)
    hbar = u @ polar_h_cotangent(u.T @ rotation_grad @ vt.T, s, float(sign)) @ vt
    w = np.ones(len(fwd.src)) if fwd.w is None else fwd.w
    grad_target = w[:, np.newaxis] * (fwd.src @ hbar.T)
    grad_source = w[:, np.newaxis] * (fwd.tgt @ hbar)
    if fwd.src_norms is not None:
        def chain(unit, norms, grads):
            return (grads - (grads * unit).sum(axis=1, keepdims=True) * unit) / norms

        grad_target = chain(fwd.tgt, fwd.tgt_norms, grad_target)
        grad_source = chain(fwd.src, fwd.src_norms, grad_source)
    return grad_target, grad_source


def rigid_backward(fwd, svd, rotation_grad, translation_grad):
    target, source = kabsch_backward(fwd.kabsch, svd, rotation_grad - np.outer(translation_grad, fwd.c_src))
    w = np.ones(len(fwd.kabsch.src)) if fwd.kabsch.w is None else fwd.kabsch.w
    share = w[:, np.newaxis] / fwd.wsum
    return (target + share * translation_grad,
            source - share * (fwd.kabsch.rotation.m.T @ translation_grad))


def pair_scatter(neighbors, coef, pull, delta, rays):
    """The pair gradient as one np.bincount per gradient column, over the
    concatenated (i, j) indices with (ray, point) rows at i, then at j."""
    i, j = neighbors.pairs[:, 0], neighbors.pairs[:, 1]
    rows = np.concatenate([
        np.concatenate([coef * rays[j], pull * delta], axis=1),
        np.concatenate([coef * rays[i], -(pull * delta)], axis=1),
    ])
    idx = neighbors.pairs.T.ravel()
    return np.stack([np.bincount(idx, weights=c, minlength=neighbors.n_items)
                     for c in rows.T], axis=1)


# -- the case table: every case is drawn from a Seed --

def posed_frame(grid, seed: int, mirror: bool = False):
    """(pose, canonical rays and points, world rays and points) for a seeded pose; mirror
    flips the canonical points' z first, so the point solve must correct a reflection."""
    pose = Pose(random_rotation(Seed(seed)), Seed(seed).rng(1).normal(size=3))
    rays = canonical_rays(grid)
    pts = canonical_points(rays)
    cam = PointMap(pts.pts * np.array([1.0, 1.0, -1.0])) if mirror else pts
    return pose, rays, pts, world_rays(pose, rays), world_points(pose, cam)


REGIMES = ["generic", "m3", "zero_weights", "planar_mirrored", "offset_1e3", "near_pi",
           "offset_huge"]


def unit_rows(a: np.ndarray) -> np.ndarray:
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def wahba_problem(rng, regime: str):
    """(source, target, weights): noisy rotated copies of a random point set."""
    m = 3 if regime == "m3" else int(rng.integers(4, 300))
    r = random_rotation_matrices(Seed(int(rng.integers(2**63))), 1)[0]
    if regime == "near_pi":
        # A half turn, or within 1e-12..1e-3 rad of one, about a random axis.
        gap = 0.0 if rng.random() < 0.25 else 10.0 ** rng.uniform(-12, -3)
        r = Rotation.from_axis_angle(rng.normal(size=3), math.pi - gap).m
    w = rng.uniform(0.1, 2.0, m)
    if regime == "zero_weights":
        w[3:][rng.random(m - 3) < 0.5] = 0.0
    src = rng.normal(size=(m, 3))
    if regime == "planar_mirrored":
        # A thin slab mirrored through its plane: the best orthogonal map is
        # a reflection, so the determinant correction must fire.
        src[:, 2] *= 1e-3
        tgt = (src * np.array([1.0, 1.0, -1.0])) @ r.T + 1e-5 * rng.normal(size=(m, 3))
    else:
        tgt = src @ r.T + 0.05 * rng.normal(size=(m, 3))
    if regime in ("offset_1e3", "offset_huge"):
        src += 1e3 * rng.normal(size=3)
        tgt += 1e3 * rng.normal(size=3)
    if regime == "offset_huge":
        # Offset sets scaled by up to 1e150. The products in H overflow near
        # 1e154, long before centring can (~1e306); past that edge the solvers
        # raise ValueError (test_solver's TestFailureParity).
        scale = 10.0 ** rng.uniform(100.0, 150.0)
        src, tgt = scale * src, scale * tgt
    return src, tgt, w


def wahba_covariances(rng, regime: str):
    """One wahba_problem's ray (unit rows) and rigid (centred rows) cross-covariance,
    each as (H, target rows, source rows, weights)."""
    src, tgt, w = wahba_problem(rng, regime)
    centred = tgt - (w @ tgt) / w.sum(), src - (w @ src) / w.sum()
    return [((w[:, np.newaxis] * t).T @ s, t, s, w) for t, s in ((unit_rows(tgt), unit_rows(src)), centred)]


COLLINEAR = np.outer([1.0, 2.0, 3.0], [0.5, -1.0, 0.25])  # rank one


def covariance_stacks(seed: int) -> dict[str, np.ndarray]:
    """Seeded (F, 3, 3) cross-covariance stacks: Gaussian entries (about half
    reflected), the same with signed zeros and exact +-1 patterns, rank-2
    entries, mirrored near-planar ones, stacks of one and two, every Wahba
    regime's ray and rigid H (near-pi, offsets up to 1e150), and those with a
    collinear entry last."""
    rng = Seed(seed).rng()
    g = rng.standard_normal((12, 3, 3))
    special = np.array([0.0, -0.0, 1.0, -1.0])[rng.integers(0, 4, size=(12, 3, 3))]
    zeros = np.where(rng.random((12, 3, 3)) < 0.3, -0.0, g)
    rank2 = g.copy()
    rank2[:, :, 2] = 0.0
    regimes = np.array([h for regime in REGIMES for h, *_ in wahba_covariances(rng, regime)])
    return {"gaussian": g, "special": special + np.diag([3.0, 2.0, -1.0]), "signed zeros": zeros, "rank 2": rank2,
            "mirrored near-planar": g * np.array([1.0, 1.0, 1e-7]) * np.array([[1.0], [-1.0], [1.0]]),
            "one": g[:1], "two": g[:2], "regimes": regimes, "collinear last": np.concatenate([regimes, [COLLINEAR]])}


def near_rotations(seed: int) -> np.ndarray:
    """Rotations stretched by a symmetric I + S (residual ~2 max|S|) or scaled
    by 1 + c (residual ~2c, det ~1 + 3c), both around the 1e-9 gate; and rotations
    stretched along one axis by s (largest residual ~2s, residuals summing to ~3s)
    or one axis pair (~2s, summing to ~2s), with s in 0.3..1.5 times the gate, so
    the summed residual of those the gate rejects lies between half the gate and
    three times it."""
    rng = Seed(seed).rng()
    rots = random_rotation_matrices(Seed(seed), 48)
    sym = rng.uniform(-1.0, 1.0, (48, 3, 3))
    sym = (sym + np.swapaxes(sym, 1, 2)) / 2.0
    sym /= np.abs(sym).max(axis=(1, 2), keepdims=True)
    size = ORTHONORMALITY_TOL * rng.uniform(0.1, 0.7, 48)[:, None, None]
    stretched = rots @ (np.eye(3) + size * sym)
    scaled = rots * (1.0 + size * np.where(rng.random((48, 1, 1)) < 0.5, 1.0, -1.0))
    lone = np.zeros((48, 3, 3))
    a, b = rng.integers(0, 3, (2, 48))
    lone[np.arange(48), a, b] = lone[np.arange(48), b, a] = 1.0
    lone_size = ORTHONORMALITY_TOL * rng.uniform(0.3, 1.5, 48)[:, None, None]
    return np.concatenate([stretched, scaled, rots @ (np.eye(3) + lone_size * lone)])


def unit_quaternions(seed: int, k: int) -> np.ndarray:
    g = np.random.default_rng(seed).standard_normal((k, 4))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def signed_zero_quaternions() -> np.ndarray:
    """Every sign pattern of four quaternions with zero parts, with more zeros, keeping signs."""
    signs = np.array(list(itertools.product([1.0, -1.0], repeat=4)))
    q = np.concatenate([signs * [1.0, 0.0, 0.0, 0.0], signs * [0.0, 0.0, 1.0, 0.0],
                        signs * [0.0, 0.6, 0.0, 0.8], signs * unit_quaternions(3, 1)])
    q[np.random.default_rng(4).random(q.shape) < 0.3] *= 0.0
    return q


def switch_rows() -> np.ndarray:
    """Unit rows with |z| on both sides of the 0.9 helper-axis switch, and on it, in three axis orders."""
    z = np.array([1.0, 0.95, 0.9, 0.8999999999999999, 0.5, 0.0])
    z = np.concatenate([z, -z])
    rows = np.stack([np.zeros_like(z), np.sqrt(1.0 - z * z), z], axis=1)
    return np.concatenate([rows, rows[:, [2, 0, 1]], rows[:, [1, 2, 0]]])


def rows(seed: int) -> np.ndarray:
    """Random rows, rows of signed zeros and ones, rows on both sides of the
    helper-axis switch and tiny rows."""
    rng = Seed(seed).rng()
    picks = np.array([0.0, -0.0, 1.0, -1.0])[rng.integers(0, 4, size=(64, 3))]
    return np.concatenate([rng.standard_normal((200, 3)), picks, switch_rows(),
                           rng.standard_normal((8, 3)) * 1e-160])


def row_cases() -> dict[str, np.ndarray]:
    """Row sets for the row-sum and row-norm gates, special values included."""
    rng = Seed(7).rng()
    spread = rng.standard_normal((256, 3)) * 10.0 ** rng.uniform(-30.0, 30.0, (256, 3))
    pairs = rng.standard_normal((40, 2, 3)) * 10.0 ** rng.uniform(-30.0, 30.0, (40, 2, 3))
    # Products of these rows are all -0.0, all +0.0, or mixed zeros.
    a = np.array([[-0.0, 1.0, -2.0], [0.0, -0.0, 3.0], [-0.0, -0.0, -0.0], [1.0, 0.0, -0.0]])
    b = np.array([[1.0, -0.0, 0.0], [-1.0, -2.0, -0.0], [0.0, 0.0, 0.0], [-0.0, -0.0, -0.0]])
    return {
        "spread": spread,
        "strided": pairs[:, 0],
        "zero-rows": np.zeros((0, 3)),
        "one-row": spread[:1],
        "signed-zero-products": a * b,
        # Rows of -0.0 alone, whose sums NumPy's +0.0 identity makes +0.0, flat and stacked.
        "negative-zero-rows": np.full((5, 3), -0.0),
        "negative-zero-stack": np.array([[[-0.0, -0.0, -0.0], [0.0, -0.0, -0.0], [-0.0, -0.0, -0.0], [1.0, -0.0, -0.0]],
                                         [[-0.0, -0.0, -0.0]] * 4]),
        "overflow": np.array([[1e200, 1e200, 0.0], [1e308, 1e308, -1e308], [-1e308, -1e308, 1.0]]),
        "inf": np.array([[np.inf, 1.0, 2.0], [np.inf, -np.inf, 0.0], [-np.inf, -np.inf, 5e-324]]),
        "nan": np.array([[np.nan, 1.0, 2.0], [0.0, np.nan, -0.0], [1.0, 2.0, np.nan]]),
    }


def xyz_files() -> dict[str, bytes]:
    """Whole files for the xyz reader's parity gate: every row end, blank and
    whitespace lines, the characters str.splitlines would end a row at, headers,
    indices and fields that loadtxt treats specially, and seeded valid files."""
    rows = ["0,1,-2.5,3e-3", "1,0.25,4,-7", "2,5e-324,1e308,-1e-308"]
    files = {}
    for name, end in [("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")]:
        files[name] = "i,x,y,z" + end + end.join(rows) + end
        files[name + "-unterminated"] = "i,x,y,z" + end + end.join(rows)
    files["mixed"] = "i,x,y,z\r\n" + rows[0] + "\n" + rows[1] + "\r" + rows[2] + "\r\n"
    files["mixed-unterminated"] = "i,x,y,z\r" + rows[0] + "\r\n" + rows[1] + "\n" + rows[2]
    body = "\n".join(rows)
    files.update({
        "blank-first": "i,x,y,z\n\n" + body + "\n",
        "blank-middle": "i,x,y,z\n" + rows[0] + "\n\n" + "\n".join(rows[1:]) + "\n",
        "blank-last": "i,x,y,z\n" + body + "\n\n",
        "blank-last-crlf": "i,x,y,z\r\n" + body.replace("\n", "\r\n") + "\r\n\r\n",
        "blank-middle-cr": "i,x,y,z\r" + rows[0] + "\r\r" + rows[1] + "\r",
        "whitespace-line": "i,x,y,z\n" + rows[0] + "\n \n" + rows[1] + "\n",
        "whitespace-last": "i,x,y,z\n" + body + "\n\t\n",
        "header-leading-space": " i,x,y,z\n" + body + "\n",
        "header-trailing-space": "i,x,y,z \n" + body + "\n",
        "header-bom": "\ufeffi,x,y,z\n" + body + "\n",
        "empty": "",
        "header-only": "i,x,y,z",
        "header-only-lf": "i,x,y,z\n",
        "header-only-crlf": "i,x,y,z\r\n",
        "3-fields": "i,x,y,z\n0,1,2\n",
        "5-fields": "i,x,y,z\n0,1,2,3,4\n",
        "comment-line": "i,x,y,z\n# note\n" + body + "\n",
        "comment-trailing": "i,x,y,z\n" + rows[0] + " # note\n",
        "out-of-order": "i,x,y,z\n" + rows[0] + "\n" + rows[2] + "\n" + rows[1] + "\n",
        "index-from-1": "i,x,y,z\n1,0,0,1\n",
    })
    for c in "\x0b\x0c\x1c\x1d\x1e":
        files[f"between-{ord(c):02x}"] = "i,x,y,z\n" + rows[0] + c + rows[1] + "\n"
        files[f"trailing-{ord(c):02x}"] = "i,x,y,z\n" + rows[0] + c + "\n" + rows[1] + c + "\n"
    for index in ["1.0", "+1", "01"]:
        files[f"index-{index}"] = f"i,x,y,z\n0,0,0,1\n{index},0,0,1\n"
    for field in ["1_0", "0x1p3", "+1", "\t1", " 1 ", "nan", "1e999", "-0", "inf", ""]:
        files[f"field-{field!r}"] = f"i,x,y,z\n0,1,2,3\n1,{field},0,1\n"
    rng = Seed(11).rng()
    for m in [1, 2, 17, 256]:
        arr = rng.standard_normal((m, 3)) * 10.0 ** rng.uniform(-300.0, 300.0, (m, 3))
        files[f"seeded-{m}"] = "i,x,y,z\r\n" + "".join(
            f"{i},{x:.17g},{y:.17g},{z:.17g}\r\n" for i, (x, y, z) in enumerate(arr.tolist()))
    return {name: text.encode("utf-8") for name, text in files.items()}

# The NumPy calls the training frame replaced, each a plain form its replacement
# must match bit for bit, and the rows they are gated on.

def take_pairs(a, idx):
    return np.take(a, idx, axis=0)


def swapped_product(u, g, vt):
    return np.swapaxes(u, 1, 2) @ g @ np.swapaxes(vt, 1, 2)


def minus_outer(g, c):
    return np.zeros((3, 3)) - np.outer(g, c)


def vector_norm(v) -> float:
    return float(np.linalg.norm(v))


def vector_abs_sum(v) -> float:
    return float(np.abs(v).sum())


def finite_entries(hs):
    return np.isfinite(hs).all(axis=(1, 2))


def clipped_cosines(x):
    return np.clip(x, 0.0, 2.0)


SPECIAL_VALUES = [0.0, -0.0, np.nan, np.inf, -np.inf, 1e300, -1e300, 1e-300, -1e-300, 5e-324, 1.0, -2.5]


def special_vectors(seed: int) -> np.ndarray:
    """Every 3-vector over SPECIAL_VALUES (signed zeros, NaN, +-inf, 1e+-300, a subnormal),
    then seeded Gaussian vectors over 60 decades."""
    rng = Seed(seed).rng()
    grid = np.array(list(itertools.product(SPECIAL_VALUES, repeat=3)))
    return np.concatenate([grid, rng.standard_normal((200, 3)) * 10.0 ** rng.uniform(-30.0, 30.0, (200, 3))])


def special_stacks(seed: int) -> np.ndarray:
    """(64, 3, 3) stacks: seeded Gaussian entries with a fifth of them replaced by SPECIAL_VALUES."""
    rng = Seed(seed).rng()
    g = rng.standard_normal((64, 3, 3))
    picks = np.array(SPECIAL_VALUES)[rng.integers(0, len(SPECIAL_VALUES), g.shape)]
    return np.where(rng.random(g.shape) < 0.2, picks, g)


def translation_errors(seed: int, count: int = 1000) -> dict[str, list[tuple[np.ndarray, np.ndarray]]]:
    """(estimated, ground-truth) centre pairs whose differences lie on either side of
    the scorer's 1e150 switch: each axis at 1e100..1e149, or at 1e150..1e300."""
    rng = Seed(seed).rng()
    out = {}
    for name, low, high in (("below-1e150", 100.0, 149.9), ("past-1e150", 150.0, 300.0)):
        gt, scale = rng.normal(size=(count, 3)), 10.0 ** rng.uniform(low, high, (count, 1))
        diff = rng.uniform(-1.0, 1.0, (count, 3)) * scale
        if low >= 150.0:  # one axis at least 1e150
            diff[:, :1] = scale
        out[name] = list(zip(gt + diff, gt))
    return out


def mirrored_slab_problem(seed: int) -> AlignmentProblem:
    """Anisotropic point cloud whose targets are mirrored across the xz
    plane: the unconstrained Procrustes optimum has det -1, forcing the
    correction branch, while the squashed z keeps all sigma gaps wide."""
    rng = Seed(seed).rng()
    src = rng.standard_normal((14, 3)) * np.array([2.0, 1.0, 0.25])
    return AlignmentProblem(src, src * np.array([1.0, -1.0, 1.0]))


def weighted(problem: AlignmentProblem, s: int) -> AlignmentProblem:
    w = Seed(s).rng().uniform(0.0, 2.0, problem.size)
    w[1] = 0.0
    return AlignmentProblem(problem.source, problem.target, w)


BACKWARD_PROBLEMS = {
    **{f"rays-seed{s}": (lambda s=s: random_alignment_problem(Seed(s))) for s in range(3)},
    **{f"points-seed{s}": (lambda s=s: random_rigid_problem(Seed(s))) for s in range(3)},
    "weighted-rays": lambda: weighted(random_alignment_problem(Seed(5)), 5),
    "weighted-points": lambda: weighted(random_rigid_problem(Seed(6)), 6),
    "reflective": lambda: mirrored_slab_problem(7),
}


def three_patch_frame(s: int, p: int) -> FrameInputs:
    """m = 3: the first three patches of a 2x2 frame, chained by hand."""
    fi = random_frame_inputs(Seed(s), n=2, p=p)
    return FrameInputs(fi.rays_cam[:3], fi.pts_cam[:3], fi.rays_pred[:3], fi.pts_pred[:3],
                       fi.gt, NeighborSet(3, [[0, 1], [1, 2]]), fi.weights, p)


def mirrored_points_frame(s: int, p: int) -> FrameInputs:
    """Predicted points mirrored through the ground-truth centroid along y,
    so the point branch's unconstrained optimum is a reflection."""
    fi = random_frame_inputs(Seed(s), p=p)
    centroid = fi.pts_pred.mean(axis=0)
    return replace(fi, pts_pred=(fi.pts_pred - centroid) * [1.0, -1.0, 1.0] + centroid)


UNEVEN_WEIGHTS = LossWeights(w_pose_r=0.5, w_pose_p=2.0, w_geo_r=0.0, w_geo_p=1.5,
                             w_reg_r=3.0, w_reg_p=0.25)

AGREEMENT_CASES = {
    **{f"default-p{p}-seed{s}": (lambda s=s, p=p: random_frame_inputs(Seed(s), p=p))
       for p in (1, 2) for s in (100, 101, 102)},
    **{f"8-connected-p{p}": (lambda p=p: replace(
        random_frame_inputs(Seed(110), p=p), neighbors=NeighborSet.grid(4, connectivity=8)))
       for p in (1, 2)},
    **{f"uneven-weights-p{p}": (lambda p=p: replace(
        random_frame_inputs(Seed(120), p=p), weights=UNEVEN_WEIGHTS))
       for p in (1, 2)},
    **{f"2x2-grid-p{p}": (lambda p=p: random_frame_inputs(Seed(130), n=2, p=p)) for p in (1, 2)},
    **{f"m3-p{p}": (lambda p=p: three_patch_frame(140, p)) for p in (1, 2)},
    **{f"reflective-points-p{p}": (lambda p=p: mirrored_points_frame(150, p)) for p in (1, 2)},
}


def training_batch() -> list[FrameInputs]:
    """A seeded 16x16 training batch: p = 1 and p = 2 frames on one frozen canonical
    pair and one neighbor set (so the per-batch memo is hit), one on a writable copy of
    that pair and one with 8-connected pairs, a near-converged frame at each p (geodesic
    1.7e-11, above the p = 1 floor), a frame whose predicted rays all point one way
    (DegenerateConfiguration) and one whose points are scaled by 1e155 (its pair term
    overflows, so the loss raises ValueError)."""
    frames = [random_frame_inputs(Seed(200 + s), n=16, p=1 + s % 2) for s in range(8)]
    first = frames[0]
    frames = [replace(fi, rays_cam=first.rays_cam, pts_cam=first.pts_cam, neighbors=first.neighbors)
              for fi in frames]
    near = [replace(random_frame_inputs(Seed(210), n=16, p=p, noise=1e-10),
                    rays_cam=first.rays_cam, pts_cam=first.pts_cam) for p in (1, 2)]
    writable = replace(frames[1], rays_cam=first.rays_cam.copy(), pts_cam=first.pts_cam.copy())
    return frames + near + [
        writable,
        replace(frames[2], neighbors=NeighborSet.grid(16, connectivity=8)),
        replace(frames[3], rays_pred=np.tile(frames[3].rays_pred[:1], (len(first.rays_cam), 1))),
        replace(frames[4], pts_pred=frames[4].pts_pred * 1e155),
        frames[5],  # the memo again, after the writable pair
    ]


def training_digest(loss_grad_fn, frames) -> str:
    """SHA-256 over each frame's loss terms and gradient bytes, or the type and
    message of what loss_grad_fn raised on it, with overflow ignored as grr loss ignores it."""
    h = hashlib.sha256()
    for fi in frames:
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                terms, grad_rays, grad_pts = loss_grad_fn(fi)
        except Exception as exc:
            h.update(f"{type(exc).__name__}: {exc}".encode())
            continue
        h.update(np.array([terms.pose, terms.geometry, terms.regularization]).tobytes())
        h.update(grad_rays.tobytes() + grad_pts.tobytes())
    return h.hexdigest()
