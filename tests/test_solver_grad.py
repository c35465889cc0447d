"""Analytic VJPs vs central finite differences, guard behavior, pipeline grads."""

import math

import numpy as np
import pytest

from grr import (
    AlignmentProblem,
    NearSingularJacobian,
    Seed,
    VjpRequest,
    finite_diff_check,
    geodesic_distance,
    kabsch_rotation,
    kabsch_rotation_vjp,
    near_collinear_problem,
    pipeline_loss,
    pipeline_loss_grad,
    random_alignment_problem,
    random_frame_inputs,
    random_rigid_problem,
    rigid_align,
    rigid_align_vjp,
)

FD_TOL = 1e-4


class TestFiniteDiffAgreement:
    @pytest.mark.parametrize("s", range(10))
    def test_rotation(self, s):
        report = finite_diff_check("rotation", random_alignment_problem(Seed(s)), seed=Seed(s))
        assert report.max_rel_err < FD_TOL

    @pytest.mark.parametrize("s", range(10))
    def test_rigid(self, s):
        report = finite_diff_check("rigid", random_rigid_problem(Seed(s)), seed=Seed(s))
        assert report.max_rel_err < FD_TOL

    @pytest.mark.parametrize("s", range(4))
    def test_composed_loss(self, s):
        report = finite_diff_check("loss_total", random_frame_inputs(Seed(s)), seed=Seed(s))
        assert report.max_rel_err < FD_TOL

    def test_composed_loss_l1_phase(self):
        # p = 1 is differentiable wherever residuals are nonzero, which
        # noisy predictions guarantee.
        fi = random_frame_inputs(Seed(77), p=1)
        report = finite_diff_check("loss_total", fi, seed=Seed(77))
        assert report.max_rel_err < FD_TOL

    def test_weighted_rotation(self):
        base = random_alignment_problem(Seed(55))
        w = Seed(56).rng().uniform(0.2, 2.0, size=base.size)
        problem = AlignmentProblem(base.source, base.target, weights=w)
        report = finite_diff_check("rotation", problem, seed=Seed(55))
        assert report.max_rel_err < FD_TOL

    def test_report_shape(self):
        problem = random_alignment_problem(Seed(1), m=5)
        report = finite_diff_check("rotation", problem, seed=Seed(1))
        assert report.op == "rotation"
        assert report.n_params == 2 * 5 * 3
        assert report.analytic.shape == report.numeric.shape
        assert report.max_abs_err >= 0.0


def mirrored_slab_problem(seed: int) -> AlignmentProblem:
    """Anisotropic point cloud whose targets are mirrored across the xz
    plane: the unconstrained Procrustes optimum has det -1, forcing the
    correction branch, while the squashed z keeps all sigma gaps wide."""
    rng = Seed(seed).rng()
    src = rng.standard_normal((14, 3)) * np.array([2.0, 1.0, 0.25])
    tgt = src * np.array([1.0, -1.0, 1.0])
    return AlignmentProblem(src, tgt)


class TestReflectiveBranch:
    def test_instance_actually_reflects(self):
        problem = mirrored_slab_problem(60)
        _, diag = kabsch_rotation(problem, normalize=False)
        assert diag.reflection_corrected

    @pytest.mark.parametrize("s", [60, 61, 62])
    def test_finite_diff_agreement(self, s):
        # normalize=True also exercises the row-normalization chain rule on
        # the reflective branch.
        report = finite_diff_check("rotation", mirrored_slab_problem(s), seed=Seed(s))
        assert report.max_rel_err < FD_TOL

    def test_rigid_reflective_agreement(self):
        problem = mirrored_slab_problem(63)
        shifted = AlignmentProblem(problem.source, problem.target + np.array([1.0, 2.0, 3.0]))
        _, diag = rigid_align(shifted)
        assert diag.reflection_corrected
        report = finite_diff_check("rigid", shifted, seed=Seed(63))
        assert report.max_rel_err < FD_TOL


class TestVjpStructure:
    def test_zero_cotangent_gives_zero_gradients(self):
        problem = random_alignment_problem(Seed(2))
        res = kabsch_rotation_vjp(VjpRequest(problem, np.zeros((3, 3))))
        assert np.array_equal(res.target, np.zeros_like(problem.target))
        assert np.array_equal(res.source, np.zeros_like(problem.source))
        rigid = random_rigid_problem(Seed(3))
        res = rigid_align_vjp(VjpRequest(rigid, np.zeros((3, 3)), np.zeros(3)))
        assert np.array_equal(res.target, np.zeros_like(rigid.target))
        assert np.array_equal(res.source, np.zeros_like(rigid.source))

    def test_linearity_in_cotangent(self):
        problem = random_alignment_problem(Seed(4))
        g1 = Seed(5).rng().standard_normal((3, 3))
        g2 = Seed(6).rng().standard_normal((3, 3))
        r1 = kabsch_rotation_vjp(VjpRequest(problem, g1))
        r2 = kabsch_rotation_vjp(VjpRequest(problem, g2))
        r12 = kabsch_rotation_vjp(VjpRequest(problem, g1 + 2.0 * g2))
        np.testing.assert_allclose(r12.target, r1.target + 2.0 * r2.target, atol=1e-12)
        np.testing.assert_allclose(r12.source, r1.source + 2.0 * r2.source, atol=1e-12)

    def test_rotation_equivariance(self):
        # Rotating the targets by Q and the cotangent to match rotates the
        # target gradients by Q and leaves the source gradients alone.
        from grr import random_rotation

        problem = random_alignment_problem(Seed(7))
        q = random_rotation(Seed(8)).m
        g = Seed(9).rng().standard_normal((3, 3))
        base = kabsch_rotation_vjp(VjpRequest(problem, g))
        rotated = kabsch_rotation_vjp(
            VjpRequest(
                AlignmentProblem(problem.source, problem.target @ q.T, problem.weights),
                q @ g,
            )
        )
        np.testing.assert_allclose(rotated.target, base.target @ q.T, atol=1e-8)
        np.testing.assert_allclose(rotated.source, base.source, atol=1e-8)

    def test_rigid_translation_cotangent_splits_by_weight(self):
        # Gradient of <g, t> w.r.t. a uniform shift of all targets is g
        # itself, split across points in proportion to their weight. The
        # per-row split is exact only when the source centroid sits at the
        # origin (otherwise t depends on the rotation too), so center first.
        problem = random_rigid_problem(Seed(10))
        w = Seed(11).rng().uniform(0.5, 1.5, size=problem.size)
        src = problem.source - (w @ problem.source) / w.sum()
        weighted = AlignmentProblem(src, problem.target, weights=w)
        g_t = np.array([0.3, -0.7, 1.1])
        res = rigid_align_vjp(VjpRequest(weighted, np.zeros((3, 3)), g_t))
        np.testing.assert_allclose(res.target.sum(axis=0), g_t, atol=1e-12)
        expected = np.outer(w / w.sum(), g_t)
        np.testing.assert_allclose(res.target, expected, atol=1e-12)

    def test_request_validation(self):
        problem = random_alignment_problem(Seed(12))
        with pytest.raises(ValueError, match="3x3"):
            VjpRequest(problem, np.zeros(3))
        with pytest.raises(ValueError, match="3-vector"):
            VjpRequest(problem, np.zeros((3, 3)), np.zeros((3, 3)))


class TestNoiselessOptimum:
    def test_cost_is_first_order_flat_along_solved_motions(self):
        """Perturbing the targets by a small rigid motion is absorbed by the
        re-solved pose, so the registration cost changes only at second
        order. Checked by central differences on the true cost."""
        rng = Seed(20).rng()
        src = rng.standard_normal((12, 3))
        from grr import random_rotation

        rot = random_rotation(Seed(21))
        t = np.array([0.4, -0.2, 0.9])
        tgt = src @ rot.m.T + t

        w_skew = np.array([[0.0, -0.3, 0.1], [0.3, 0.0, -0.5], [-0.1, 0.5, 0.0]])
        shift = np.array([0.2, 0.1, -0.4])

        def cost(eps: float) -> float:
            moved = tgt + eps * (tgt @ w_skew.T + shift)
            pose, _ = rigid_align(AlignmentProblem(src, moved))
            resid = src @ pose.r.m.T + pose.t - moved
            return float((resid * resid).sum())

        h = 1e-6
        directional = (cost(h) - cost(-h)) / (2.0 * h)
        assert abs(directional) < 1e-7


class TestGuards:
    def test_near_collinear_passes_forward_gate(self):
        problem = near_collinear_problem()
        rot, diag = kabsch_rotation(problem)
        assert diag.singular_values[1] / diag.singular_values[0] >= 1e-9

    def test_near_collinear_trips_vjp_guard(self):
        problem = near_collinear_problem()
        g = Seed(30).rng().standard_normal((3, 3))
        with pytest.raises(NearSingularJacobian, match="denominator"):
            kabsch_rotation_vjp(VjpRequest(problem, g))

    def test_finite_diff_check_propagates_guard(self):
        with pytest.raises(NearSingularJacobian):
            finite_diff_check("rotation", near_collinear_problem(), seed=Seed(31))

    @pytest.mark.parametrize("h", [1e-9, 1e-2, 0.0])
    def test_step_size_range_enforced(self, h):
        problem = random_alignment_problem(Seed(32))
        with pytest.raises(ValueError, match="step h"):
            finite_diff_check("rotation", problem, h=h)

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="op_id"):
            finite_diff_check("hessian", random_alignment_problem(Seed(33)))


class TestPipelineLoss:
    def test_terms_nonnegative_and_total_sums(self):
        fi = random_frame_inputs(Seed(40))
        terms = pipeline_loss(fi)
        assert terms.pose >= 0.0
        assert terms.geometry >= 0.0
        assert terms.regularization >= 0.0
        assert terms.total == terms.pose + terms.geometry + terms.regularization

    def test_loss_small_at_ground_truth(self):
        fi = random_frame_inputs(Seed(41), noise=0.0)
        terms = pipeline_loss(fi)
        assert terms.total < 1e-12

    def test_grad_matches_loss_value(self):
        fi = random_frame_inputs(Seed(42))
        terms_fwd = pipeline_loss(fi)
        terms_grad, grad_rays, grad_pts = pipeline_loss_grad(fi)
        assert terms_fwd.total == terms_grad.total
        assert grad_rays.shape == fi.rays_pred.shape
        assert grad_pts.shape == fi.pts_pred.shape

    @staticmethod
    def converged_frame(p: int):
        """Exact ray directions, so the ray solve returns the ground-truth
        rotation, and noisy points. The rays are shortened to 0.98 so the
        geometry term's cosine clip is not at its kink under a probe step."""
        fi = random_frame_inputs(Seed(44), p=p)
        d_gt = fi.rays_cam @ fi.gt.r.m.T
        return fi.with_predictions(0.98 * d_gt, fi.pts_pred)

    def test_converged_p2_gradient_is_finite_and_matches_fd(self):
        fi = self.converged_frame(p=2)
        r_hat, _ = kabsch_rotation(AlignmentProblem(fi.rays_cam, fi.rays_pred))
        assert geodesic_distance(r_hat, fi.gt.r) < 1e-8
        _, grad_rays, grad_pts = pipeline_loss_grad(fi)
        assert np.all(np.isfinite(grad_rays)) and np.all(np.isfinite(grad_pts))
        report = finite_diff_check("loss_total", fi, seed=Seed(44))
        assert report.max_rel_err < FD_TOL

    def test_converged_p1_still_raises(self):
        with pytest.raises(NearSingularJacobian, match="geodesic"):
            pipeline_loss_grad(self.converged_frame(p=1))

    def test_instance_generation_is_deterministic(self):
        a = random_frame_inputs(Seed(43))
        b = random_frame_inputs(Seed(43))
        assert np.array_equal(a.rays_pred, b.rays_pred)
        assert np.array_equal(a.pts_pred, b.pts_pred)
