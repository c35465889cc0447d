"""Closed-form solvers: recovery accuracy, optimality, degeneracy, invariances."""

import math

import numpy as np
import pytest

from grr import (
    AlignmentProblem,
    DegenerateConfiguration,
    FrameInputs,
    LossWeights,
    NeighborSet,
    NoiseSpec,
    PointMap,
    Pose,
    RayBundle,
    Rotation,
    Seed,
    VjpRequest,
    canonical_rays,
    geodesic_distance,
    kabsch_rotation,
    perturb_representations,
    pipeline_loss,
    pipeline_loss_grad,
    random_rotation,
    random_rotation_matrices,
    recover_pose,
    rigid_align,
    rigid_align_vjp,
    world_rays,
)
from grr.geometry import _rotations
from grr.solver import _svd_rotation
from reference import COLLINEAR, assert_same, bits, covariance_stacks, posed_frame, raised, svd_rotation


def alignment_cost(problem: AlignmentProblem, r: np.ndarray) -> float:
    """sum_i w_i ||R s_i - t_i||^2, straight from the definition."""
    w = np.ones(problem.size) if problem.weights is None else problem.weights
    resid = problem.source @ r.T - problem.target
    return float((w * (resid * resid).sum(axis=1)).sum())


def random_vector_problem(seed: int, m: int = 12) -> AlignmentProblem:
    rng = Seed(seed).rng()
    src = rng.normal(size=(m, 3))
    src /= np.linalg.norm(src, axis=1, keepdims=True)
    rot = random_rotation(Seed(seed).derive(1)).m
    tgt = src @ rot.T + 0.01 * rng.normal(size=(m, 3))
    tgt /= np.linalg.norm(tgt, axis=1, keepdims=True)
    return AlignmentProblem(src, tgt)


class TestAlignmentProblem:
    def test_rejects_too_few_rows(self):
        with pytest.raises(ValueError, match="at least 3"):
            AlignmentProblem(np.eye(3)[:2], np.eye(3)[:2])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            AlignmentProblem(np.zeros((3, 3)), np.zeros((4, 3)))

    def test_rejects_source_that_is_not_rows_of_three(self):
        with pytest.raises(ValueError) as info:
            AlignmentProblem(np.zeros((3, 2)), np.zeros((3, 2)))
        assert str(info.value) == "source must be (m, 3), got (3, 2)"

    def test_rejects_weights_of_wrong_length(self):
        with pytest.raises(ValueError, match=r"weights must be \(3,\), got \(2,\)"):
            AlignmentProblem(np.eye(3), np.eye(3), weights=np.ones(2))

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError, match="nonnegative"):
            AlignmentProblem(np.eye(3), np.eye(3), weights=np.array([1.0, -1.0, 1.0]))

    def test_rejects_nan_weights(self):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            AlignmentProblem(np.eye(3), np.eye(3), weights=np.array([1.0, np.nan, 1.0]))

    def test_rejects_zero_weight_sum(self):
        with pytest.raises(ValueError, match="positive sum"):
            AlignmentProblem(np.eye(3), np.eye(3), weights=np.zeros(3))

    def test_rejects_nan(self):
        src = np.eye(3).copy()
        src[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            AlignmentProblem(src, np.eye(3))


class TestKabschRotation:
    def test_identity_on_matching_sets(self):
        src = np.eye(3)
        r, diag = kabsch_rotation(AlignmentProblem(src, src))
        np.testing.assert_allclose(r.m, np.eye(3), atol=1e-15)
        assert not diag.reflection_corrected

    def test_recovers_quarter_turn(self, grid16):
        rays = canonical_rays(grid16)
        rot = Rotation.from_axis_angle([0, 0, 1], math.pi / 2)
        problem = AlignmentProblem(rays.dirs, rays.dirs @ rot.m.T)
        r, _ = kabsch_rotation(problem)
        assert geodesic_distance(r, rot) < 1e-9

    def test_exact_recovery_random(self):
        for s in range(10):
            rng = Seed(s).rng()
            src = rng.normal(size=(20, 3))
            src /= np.linalg.norm(src, axis=1, keepdims=True)
            rot = random_rotation(Seed(s).derive(9))
            r, _ = kabsch_rotation(AlignmentProblem(src, src @ rot.m.T))
            assert geodesic_distance(r, rot) < 1e-9

    def test_beats_sampled_rotations(self):
        # Optimality oracle: the closed form must not lose to any of a
        # large batch of uniformly sampled rotations.
        problem = random_vector_problem(100)
        r, _ = kabsch_rotation(problem, normalize=False)
        best = alignment_cost(problem, r.m)
        samples = random_rotation_matrices(Seed(101), 20000)
        costs = [alignment_cost(problem, m) for m in samples]
        assert best <= min(costs) + 1e-12

    def test_weight_scaling_invariance(self):
        problem = random_vector_problem(7)
        w = Seed(8).rng().uniform(0.1, 2.0, size=problem.size)
        r1, _ = kabsch_rotation(
            AlignmentProblem(problem.source, problem.target, weights=w)
        )
        r2, _ = kabsch_rotation(
            AlignmentProblem(problem.source, problem.target, weights=10.0 * w)
        )
        assert geodesic_distance(r1, r2) < 1e-12

    def test_zero_weight_drops_a_correspondence(self):
        problem = random_vector_problem(9, m=8)
        corrupt_tgt = problem.target.copy()
        corrupt_tgt[3] = np.array([0.0, 0.0, 1.0])  # wrong on purpose
        w = np.ones(8)
        w[3] = 0.0
        r_masked, _ = kabsch_rotation(
            AlignmentProblem(problem.source, corrupt_tgt, weights=w)
        )
        keep = np.arange(8) != 3
        r_dropped, _ = kabsch_rotation(
            AlignmentProblem(problem.source[keep], problem.target[keep])
        )
        assert geodesic_distance(r_masked, r_dropped) < 1e-12

    def test_permutation_invariance(self):
        problem = random_vector_problem(10)
        perm = Seed(11).rng().permutation(problem.size)
        r1, _ = kabsch_rotation(problem)
        r2, _ = kabsch_rotation(
            AlignmentProblem(problem.source[perm], problem.target[perm])
        )
        assert geodesic_distance(r1, r2) < 1e-12

    def test_left_equivariance(self):
        problem = random_vector_problem(12)
        q = random_rotation(Seed(13))
        r1, _ = kabsch_rotation(problem)
        r2, _ = kabsch_rotation(
            AlignmentProblem(problem.source, problem.target @ q.m.T)
        )
        assert geodesic_distance(q @ r1, r2) < 1e-9

    def test_normalize_flag_rescales_rows(self):
        problem = random_vector_problem(14)
        scales = Seed(15).rng().uniform(0.5, 3.0, size=(problem.size, 1))
        r1, _ = kabsch_rotation(problem, normalize=True)
        r2, _ = kabsch_rotation(
            AlignmentProblem(problem.source * scales, problem.target), normalize=True
        )
        assert geodesic_distance(r1, r2) < 1e-12

    def test_collinear_raises(self):
        z = np.array([0.0, 0.0, 1.0])
        src = np.stack([z, z, z])
        with pytest.raises(DegenerateConfiguration, match="collinear"):
            kabsch_rotation(AlignmentProblem(src, src))

    def test_singular_values_descend(self):
        _, diag = kabsch_rotation(random_vector_problem(16))
        s = diag.singular_values
        assert s[0] >= s[1] >= s[2] >= 0.0
        assert diag.condition >= 1.0


class TestReflectionCorrection:
    def planar_problem(self, seed: int) -> AlignmentProblem:
        """Coplanar unit vectors whose target set is mirrored: the raw
        Procrustes optimum is a reflection and the det fix must fire."""
        rng = Seed(seed).rng()
        src = rng.normal(size=(10, 3))
        src[:, 2] = 0.0  # flatten into the z = 0 plane
        src /= np.linalg.norm(src, axis=1, keepdims=True)
        tgt = src * np.array([1.0, -1.0, 1.0])  # mirror across the xz plane
        return AlignmentProblem(src, tgt)

    def test_det_is_plus_one_and_flag_set(self):
        problem = self.planar_problem(17)
        r, diag = kabsch_rotation(problem)
        assert abs(np.linalg.det(r.m) - 1.0) < 1e-12
        assert diag.reflection_corrected

    def test_corrected_solution_still_optimal(self):
        problem = self.planar_problem(18)
        r, _ = kabsch_rotation(problem, normalize=False)
        best = alignment_cost(problem, r.m)
        samples = random_rotation_matrices(Seed(19), 20000)
        assert best <= min(alignment_cost(problem, m) for m in samples) + 1e-12


class TestRigidAlign:
    def test_exact_recovery(self):
        for s in range(10):
            rng = Seed(s).rng(5)
            src = rng.normal(size=(15, 3))
            pose = Pose(random_rotation(Seed(s).derive(2)), rng.normal(size=3))
            tgt = src @ pose.r.m.T + pose.t
            est, diag = rigid_align(AlignmentProblem(src, tgt))
            assert geodesic_distance(est.r, pose.r) < 1e-7 * math.pi / 180.0
            assert np.linalg.norm(est.t - pose.t) < 1e-9
            assert not diag.reflection_corrected

    def test_translation_only(self):
        src = Seed(20).rng().normal(size=(8, 3))
        tgt = src + np.array([1.0, -2.0, 3.0])
        est, _ = rigid_align(AlignmentProblem(src, tgt))
        assert geodesic_distance(est.r, Rotation.identity()) < 1e-9
        np.testing.assert_allclose(est.t, [1.0, -2.0, 3.0], atol=1e-12)

    def test_weighted_centroid_respected(self):
        # With one dominant weight the fit must be exact at that point.
        src = Seed(21).rng().normal(size=(6, 3))
        pose = Pose(random_rotation(Seed(22)), np.array([0.1, 0.2, 0.3]))
        tgt = src @ pose.r.m.T + pose.t
        tgt[1:] += 0.05  # corrupt everything except row 0
        w = np.full(6, 1e-9)
        w[0] = 1.0
        est, _ = rigid_align(AlignmentProblem(src, tgt, weights=w))
        np.testing.assert_allclose(est.r.m @ src[0] + est.t, tgt[0], atol=1e-6)

    def test_collinear_points_raise(self):
        src = np.outer(np.arange(5, dtype=float), np.array([1.0, 1.0, 0.0]))
        tgt = src + 1.0
        with pytest.raises(DegenerateConfiguration):
            rigid_align(AlignmentProblem(src, tgt))


class TestRecoverPose:
    def test_exact_inversion_single_frame(self, grid16):
        pose, rays, pts, wr, wp = posed_frame(grid16, 30)
        rec = recover_pose(rays, pts, wr, wp)
        assert geodesic_distance(rec.pose.r, pose.r) < math.radians(1e-7)
        assert np.linalg.norm(rec.pose.t - pose.t) < 1e-9
        # The point branch sees the same rotation in the exact case.
        assert geodesic_distance(rec.rotation_from_points, pose.r) < math.radians(1e-6)

    def test_point_offset_moves_translation_only(self, grid16):
        pose, rays, pts, wr, wp = posed_frame(grid16, 31)
        delta = np.array([0.25, -1.5, 0.75])
        base = recover_pose(rays, pts, wr, wp)
        moved = recover_pose(rays, pts, wr, PointMap(wp.pts + delta))
        assert np.array_equal(base.pose.r.m, moved.pose.r.m)
        np.testing.assert_allclose(moved.pose.t - base.pose.t, delta, atol=1e-12)

    def test_ray_corruption_leaves_translation_alone(self, grid16):
        pose, rays, pts, wr, wp = posed_frame(grid16, 32)
        spun = world_rays(
            Pose(Rotation.from_axis_angle([0, 1, 0], 0.2) @ pose.r, np.zeros(3)), rays
        )
        base = recover_pose(rays, pts, wr, wp)
        moved = recover_pose(rays, pts, spun, wp)
        assert np.array_equal(base.pose.t, moved.pose.t)
        assert geodesic_distance(base.pose.r, moved.pose.r) > 0.1

    def test_conjugation_equivariance(self, grid16):
        pose, rays, pts, wr, wp = posed_frame(grid16, 33)
        q = random_rotation(Seed(34))
        wr2 = RayBundle(wr.dirs @ q.m.T)
        wp2 = PointMap(wp.pts @ q.m.T)
        rec = recover_pose(rays, pts, wr2, wp2)
        assert geodesic_distance(rec.pose.r, q @ pose.r) < 1e-9
        np.testing.assert_allclose(rec.pose.t, q.m @ pose.t, atol=1e-9)

    def test_degeneracy_reports_branch(self, grid16):
        pose, rays, pts, wr, wp = posed_frame(grid16, 35)
        z = np.tile(np.array([0.0, 0.0, 1.0]), (len(rays), 1))
        with pytest.raises(DegenerateConfiguration) as exc_info:
            recover_pose(rays, pts, RayBundle(z), wp)
        assert exc_info.value.branch == "rays"
        line = np.outer(np.linspace(0.0, 1.0, len(pts)), np.array([1.0, 0.0, 0.0]))
        with pytest.raises(DegenerateConfiguration) as exc_info:
            recover_pose(rays, pts, wr, PointMap(line))
        assert exc_info.value.branch == "points"

    def test_length_mismatch_rejected(self, grid16, grid4):
        _, rays16, pts16, wr16, wp16 = posed_frame(grid16, 36)
        rays4 = canonical_rays(grid4)
        with pytest.raises(ValueError, match="length"):
            recover_pose(rays4, pts16, wr16, wp16)
        with pytest.raises(ValueError) as info:
            recover_pose(rays16, PointMap(rays4.dirs), wr16, wp16)
        assert str(info.value) == "canonical and predicted pointmaps differ in length"


def _collinear_message(prefix: str, h: np.ndarray) -> str:
    s = np.linalg.svd(h, compute_uv=False)
    return (f"{prefix}correspondences are collinear to working precision "
            f"(singular values {s[0]:.3e}, {s[1]:.3e}, {s[2]:.3e})")


class TestFailureParity:
    """Every check on the solve path fires on the same input with the same
    exception type, message and branch; the expected messages are built here
    from the definitions, not read back from the code under test."""

    @staticmethod
    def frame(grid):
        return posed_frame(grid, 60)[1:]

    @staticmethod
    def training_raised_on(rays_cam, pts_cam, rays_pred, pts_pred):
        """What pipeline_loss and pipeline_loss_grad raise on the frame's arrays,
        which the value types may reject. Every case fails before the pair
        terms, so one neighbor pair serves any length."""
        fi = FrameInputs(rays_cam, pts_cam, rays_pred, pts_pred, Pose.identity(),
                         NeighborSet(len(rays_cam), [(0, 1)]), LossWeights(), 2)
        return raised(pipeline_loss, fi), raised(pipeline_loss_grad, fi)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rays(self, grid4, bad):
        rays, _, wr, _ = self.frame(grid4)
        d = wr.dirs.copy()
        d[3, 1] = bad
        nonfinite = (ValueError, "dirs contains non-finite entries", None)
        assert raised(RayBundle, d) == nonfinite
        with np.errstate(invalid="ignore"):  # inf / inf while normalizing
            assert raised(RayBundle.from_array, d) == nonfinite
        assert raised(AlignmentProblem, rays.dirs, d) == (
            ValueError, "correspondences contain non-finite entries", None)

    def test_zero_norm_ray_row(self, grid4):
        rays, _, wr, _ = self.frame(grid4)
        d = wr.dirs.copy()
        d[2] = 0.0
        assert raised(RayBundle.from_array, d) == (
            ValueError, "cannot normalize near-zero ray rows", None)
        assert raised(RayBundle, d) == (
            ValueError, f"ray norms deviate from 1 by up to {1.0:.3e}", None)
        assert raised(kabsch_rotation, AlignmentProblem(rays.dirs, d)) == (
            ValueError, "cannot normalize near-zero target rows", None)
        assert raised(kabsch_rotation, AlignmentProblem(d, rays.dirs)) == (
            ValueError, "cannot normalize near-zero source rows", None)

    def test_two_correspondences(self, grid4):
        rays, pts, wr, wp = self.frame(grid4)
        few = (ValueError, "need at least 3 correspondences", None)
        assert raised(AlignmentProblem, rays.dirs[:2], wr.dirs[:2]) == few
        assert raised(recover_pose, RayBundle(rays.dirs[:2]), PointMap(pts.pts[:2]),
                      RayBundle(wr.dirs[:2]), PointMap(wp.pts[:2])) == few

    def test_points_that_overflow_when_centered(self, grid4):
        rays, pts, wr, _ = self.frame(grid4)
        huge = np.zeros((len(pts), 3))
        huge[0, 0] = 1.7e308
        huge[1:, 0] = -1.7e308
        overflow = (ValueError, "correspondences contain non-finite entries", None)
        with np.errstate(over="ignore", invalid="ignore"):
            assert raised(rigid_align, AlignmentProblem(pts.pts, huge)) == overflow
            assert raised(recover_pose, rays, pts, wr, PointMap(huge)) == overflow

    def test_translation_that_overflows(self):
        """Centroids at x = +-1.7e308 (weights 1/m keep the sums finite) with equal yz
        rows: R fixes the x axis, so t = c_tgt - R c_src overflows. The suite runs
        RuntimeWarning as an error, so the named error must come without one."""
        rows = Seed(64).rng().normal(size=(8, 3))
        src, tgt = rows.copy(), rows.copy()
        src[:, 0], tgt[:, 0] = 1.7e308, -1.7e308
        problem = AlignmentProblem(src, tgt, np.full(8, 0.125))
        overflow = (ValueError, "translation contains non-finite entries", None)
        assert raised(rigid_align, problem) == overflow
        assert raised(rigid_align_vjp, VjpRequest(problem, np.eye(3), np.ones(3))) == overflow

    def test_cross_covariance_whose_spectrum_overflows(self):
        """A finite H whose largest singular value overflows raises the overflow
        error, not "collinear" and not a rotation with infinite diagnostics."""
        overflow = (ValueError, "cross-covariance overflows: correspondences too large", None)
        lone = AlignmentProblem(np.eye(3), [[1.3e308, 0.0, 0.0], [1.3e308, 0.0, 1.0], [0.0, 1.0, 0.0]])
        a = 1.2e154  # a^2 is finite; sigma_1 of H (sqrt(2) a^2 before centring) is not
        pair = AlignmentProblem([[a, a, 0.0], [-a, a, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]],
                                [[a, 0.0, 0.0], [0.0, a, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
        assert raised(kabsch_rotation, lone, False) == overflow
        assert raised(kabsch_rotation, pair, False) == overflow
        assert raised(rigid_align, pair) == overflow

    def test_cross_covariance_that_overflows(self, grid4):
        """Rows near 1e155 overflow the products in H (centring stays finite)."""
        rays, _, wr, _ = self.frame(grid4)
        src = 1e155 * Seed(62).rng().normal(size=(len(rays), 3))
        problem = AlignmentProblem(src, src + 1.0)
        overflow = (ValueError, "cross-covariance overflows: correspondences too large", None)
        with np.errstate(over="ignore", invalid="ignore"):
            assert raised(rigid_align, problem) == overflow
            assert raised(kabsch_rotation, problem, False) == overflow
            assert raised(rigid_align_vjp, VjpRequest(problem, np.eye(3), np.ones(3))) == overflow
            assert raised(recover_pose, rays, PointMap(src), wr, PointMap(src + 1.0)) == overflow
            assert self.training_raised_on(rays.dirs, src, wr.dirs, src + 1.0) == (overflow,) * 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_training_rejects_non_finite_predictions(self, grid4, bad):
        rays, pts, wr, wp = self.frame(grid4)
        d, p = wr.dirs.copy(), wp.pts.copy()
        d[3, 1] = p[5, 2] = bad
        ray_want = (ValueError, "rays_pred contains non-finite entries", None)
        assert self.training_raised_on(rays.dirs, pts.pts, d, wp.pts) == (ray_want,) * 2
        pt_want = (ValueError, "pts contains non-finite entries", None)
        assert raised(PointMap, p) == pt_want
        assert self.training_raised_on(rays.dirs, pts.pts, wr.dirs, p) == (pt_want,) * 2

    def test_training_rejects_a_zero_norm_ray_row(self, grid4):
        rays, pts, wr, wp = self.frame(grid4)
        d = wr.dirs.copy()
        d[2] = 0.0
        want = (ValueError, "cannot normalize near-zero target rows", None)
        assert raised(kabsch_rotation, AlignmentProblem(rays.dirs, d)) == want
        assert self.training_raised_on(rays.dirs, pts.pts, d, wp.pts) == (want,) * 2

    def test_rows_whose_norms_overflow(self, grid4):
        """Rows near 1e155 square to infinite norms, which would divide to zero rows."""
        rays, pts, _, wp = self.frame(grid4)
        huge = 1e155 * Seed(63).rng().normal(size=(len(rays), 3))

        def want(what):
            return ValueError, f"cannot normalize {what} rows: their norms overflow", None

        with np.errstate(over="ignore"):
            assert raised(kabsch_rotation, AlignmentProblem(huge, huge + 1.0)) == want("source")
            assert raised(kabsch_rotation, AlignmentProblem(rays.dirs, huge)) == want("target")
            assert raised(RayBundle.from_array, huge) == want("ray")
            assert self.training_raised_on(rays.dirs, pts.pts, huge, wp.pts) == (
                want("target"),) * 2

    def test_training_rejects_two_correspondences(self, grid4):
        rays, pts, wr, wp = self.frame(grid4)
        few = (ValueError, "need at least 3 correspondences", None)
        assert self.training_raised_on(rays.dirs[:2], pts.pts[:2],
                                       wr.dirs[:2], wp.pts[:2]) == (few,) * 2

    def test_training_rejects_points_that_overflow_when_centered(self, grid4):
        rays, pts, wr, _ = self.frame(grid4)
        huge = np.zeros((len(pts), 3))
        huge[0, 0] = 1.7e308
        huge[1:, 0] = -1.7e308
        overflow = (ValueError, "correspondences contain non-finite entries", None)
        with np.errstate(over="ignore", invalid="ignore"):
            assert self.training_raised_on(rays.dirs, pts.pts, wr.dirs, huge) == (overflow,) * 2

    def test_training_rejects_non_unit_canonical_rays(self, grid4):
        """The canonical rays are a RayBundle for training as for recover_pose."""
        rays, pts, wr, wp = self.frame(grid4)
        doubled = 2.0 * rays.dirs
        dev = float(np.abs(np.linalg.norm(doubled, axis=1) - 1.0).max())
        want = (ValueError, f"ray norms deviate from 1 by up to {dev:.3e}", None)
        assert raised(RayBundle, doubled) == want
        assert self.training_raised_on(doubled, pts.pts, wr.dirs, wp.pts) == (want,) * 2

    def test_collinear_rays_report_the_ray_branch(self, grid4):
        rays, pts, _, wp = self.frame(grid4)
        z = np.tile(np.array([0.0, 0.6, 0.8]), (len(rays), 1))
        src = rays.dirs / np.linalg.norm(rays.dirs, axis=1, keepdims=True)
        want = (DegenerateConfiguration, _collinear_message("ray branch: ", z.T @ src), "rays")
        assert raised(recover_pose, rays, pts, RayBundle(z), wp) == want
        assert self.training_raised_on(rays.dirs, pts.pts, z, wp.pts) == (want, want)

    def test_collinear_points_report_the_point_branch(self, grid4):
        rays, pts, wr, _ = self.frame(grid4)
        line = np.outer(np.linspace(-1.0, 2.0, len(pts)), np.array([0.3, -0.4, 0.5]))
        w = np.ones(len(pts))
        h = (line - (w @ line) / w.sum()).T @ (pts.pts - (w @ pts.pts) / w.sum())
        want = (DegenerateConfiguration, _collinear_message("point branch: ", h), "points")
        assert raised(recover_pose, rays, pts, wr, PointMap(line)) == want
        assert self.training_raised_on(rays.dirs, pts.pts, wr.dirs, line) == (want, want)

    @pytest.mark.parametrize("overflow", ["centring", "cross-covariance"])
    def test_collinear_rays_come_before_points_that_overflow(self, grid4, overflow):
        """The ray branch is checked first: its DegenerateConfiguration wins
        over a point branch whose centring (1.7e308) or cross-covariance
        (1e155) overflows."""
        rays, pts, _, _ = self.frame(grid4)
        if overflow == "centring":
            pts_cam, pts_pred = pts.pts, np.zeros((len(pts), 3))
            pts_pred[0, 0], pts_pred[1:, 0] = 1.7e308, -1.7e308
        else:
            pts_cam = 1e155 * Seed(62).rng().normal(size=(len(pts), 3))
            pts_pred = pts_cam + 1.0
        z = np.tile(np.array([0.0, 0.6, 0.8]), (len(rays), 1))
        src = rays.dirs / np.linalg.norm(rays.dirs, axis=1, keepdims=True)
        want = (DegenerateConfiguration, _collinear_message("ray branch: ", z.T @ src), "rays")
        with np.errstate(over="ignore", invalid="ignore"):
            assert raised(recover_pose, rays, PointMap(pts_cam), RayBundle(z),
                          PointMap(pts_pred)) == want
            assert self.training_raised_on(rays.dirs, pts_cam, z, pts_pred) == (want, want)

    def test_non_orthonormal_rotation(self):
        m = np.eye(3) + 1e-3
        err = float(np.abs(m.T @ m - np.eye(3)).max())
        assert raised(Rotation, m) == (
            ValueError, f"matrix is not orthonormal (max residual {err:.3e})", None)
        flip = np.diag([1.0, 1.0, -1.0])
        assert raised(Rotation, flip) == (
            ValueError, f"matrix determinant {np.linalg.det(flip):.17g} is not +1", None)

    def test_stacked_rotation_check_names_the_first_failing_entry(self):
        """The solver checks its rotations as one stack: the first entry that
        fails raises what Rotation raises on that entry alone."""
        good = random_rotation(Seed(64)).m
        skew, flip = np.eye(3) + 1e-3, np.diag([1.0, 1.0, -1.0])
        for stack, first in (([good, skew, flip], skew), ([good, flip, skew], flip)):
            assert raised(_rotations, np.array(stack)) == raised(Rotation, first)
        rots = _rotations(np.array([good, good.T]))
        assert [r.m.tobytes() for r in rots] == [good.tobytes(), good.T.tobytes()]
        assert not rots[0].m.flags.writeable


class TestCachedPathParity:
    """recover_pose solves from the value types' cached factors (unit rays,
    centred points); the results are bitwise those of kabsch_rotation and
    rigid_align on AlignmentProblems built from the same arrays."""

    @staticmethod
    def noisy_frame(grid, seed):
        _, rays, pts, wr, wp = posed_frame(grid, seed)
        noise = NoiseSpec(0.01, 0.02, np.array([0.1, 0.0, -0.05]), "iid_gaussian", Seed(seed))
        return (rays, pts) + perturb_representations(wr, wp, noise)

    @staticmethod
    def assert_parity(rays, pts, rays_pred, pts_pred):
        rec = recover_pose(rays, pts, rays_pred, pts_pred)
        r, r_diag = kabsch_rotation(AlignmentProblem(rays.dirs, rays_pred.dirs))
        pose, p_diag = rigid_align(AlignmentProblem(pts.pts, pts_pred.pts))
        assert bits((rec.pose, rec.rotation_from_points, rec.ray_diagnostics, rec.point_diagnostics)) \
            == bits((Pose(r, pose.t), pose.r, r_diag, p_diag))
        return rec

    def test_unweighted(self, grid16):
        for seed in range(5):
            self.assert_parity(*self.noisy_frame(grid16, 70 + seed))

    def test_reflection_corrected_near_planar(self, grid4):
        rays = canonical_rays(grid4)
        rng = Seed(77).rng()
        flat = rng.normal(size=(len(rays), 3)) * np.array([1.0, 1.0, 1e-6])
        mirror = np.array([1.0, -1.0, 1.0])
        rec = self.assert_parity(rays, PointMap(flat), RayBundle(rays.dirs * mirror),
                                 PointMap(flat * mirror + 0.5))
        assert rec.ray_diagnostics.reflection_corrected
        assert rec.point_diagnostics.reflection_corrected

    def test_degenerate_ray_frame(self, grid16):
        rays, pts, _, pp = self.noisy_frame(grid16, 78)
        z = RayBundle(np.tile(np.array([0.0, 0.6, 0.8]), (len(rays), 1)))
        kind, msg, _ = raised(kabsch_rotation, AlignmentProblem(rays.dirs, z.dirs))
        assert kind is DegenerateConfiguration
        assert raised(recover_pose, rays, pts, z, pp) == (
            DegenerateConfiguration, f"ray branch: {msg}", "rays")

    def test_degenerate_point_frame(self, grid16):
        rays, pts, rp, _ = self.noisy_frame(grid16, 79)
        line = PointMap(np.outer(np.linspace(-1.0, 2.0, len(pts)), np.array([0.3, -0.4, 0.5])))
        kind, msg, _ = raised(rigid_align, AlignmentProblem(pts.pts, line.pts))
        assert kind is DegenerateConfiguration
        assert raised(recover_pose, rays, pts, rp, line) == (
            DegenerateConfiguration, f"point branch: {msg}", "points")


class TestSvdTailParity:
    """_svd_rotation takes its reflection signs from Python-float cofactor
    determinants and skips the diag(1, 1, 1) product: its rotations, signs,
    singular values and diagnostics are bitwise those of numpy's det and the
    full product, and it raises the same on the same entry."""

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_stacks(self, seed):
        stacks = covariance_stacks(seed)
        for hs in stacks.values():
            assert_same(_svd_rotation, svd_rotation, hs)
        signs = np.concatenate([_svd_rotation(hs)[2].sign for name, hs in stacks.items() if name != "collinear last"])
        assert (signs < 0.0).any() and (signs > 0.0).any()  # both branches of the product ran

    @pytest.mark.parametrize("seed", range(3))
    def test_raising_entries(self, seed):
        g = Seed(seed).rng().standard_normal((4, 3, 3))
        collinear = np.outer([0.3, -0.4, 0.5], [1.0, 2.0, -0.0])
        for k in range(4):
            for bad in (np.full((3, 3), np.inf), np.where(np.eye(3) > 0, np.nan, g[k]), collinear,
                        np.zeros((3, 3))):
                hs = g.copy()
                hs[k] = bad
                assert_same(_svd_rotation, svd_rotation, hs)
                assert_same(_svd_rotation, svd_rotation, hs, ("rays", "points", "rays", "points"))

    def test_finite_entry_whose_spectrum_overflows(self):
        """An entry with a finite H and an infinite sigma_1 raises the overflow
        error in entry order: after an earlier entry's error, before a later one's."""
        big = np.array([[1.3e308, 1.3e308, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        assert np.isfinite(big).all()
        g = Seed(9).rng().standard_normal((3, 3))
        overflow = (ValueError, "cross-covariance overflows: correspondences too large", None)
        for hs in ([big], [g, big], [big, COLLINEAR], [big, g]):
            assert assert_same(_svd_rotation, svd_rotation, np.array(hs), ("rays", "points")[:len(hs)]) == overflow
        first = assert_same(_svd_rotation, svd_rotation, np.array([COLLINEAR, big]), ("rays", "points"))
        assert first[0] is DegenerateConfiguration and first[2] == "rays"
