"""Analytic VJPs vs central finite differences, guard behavior, pipeline grads."""

import math
import sys
import threading
from dataclasses import fields, replace

import numpy as np
import pytest

from grr import (
    AlignmentProblem,
    DegenerateConfiguration,
    EmptyNeighborSet,
    FrameInputs,
    LossWeights,
    NearSingularJacobian,
    NeighborSet,
    Pose,
    Rotation,
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
    random_rotation,
    rigid_align,
    rigid_align_vjp,
)
from grr import solver_grad
from grr.losses import _pair_grads
from grr.solver import _kabsch_solve, _rigid_solve
from grr.solver_grad import (
    NEAR_SINGULAR_TOL,
    P1_GEODESIC_FLOOR,
    _dpow,
    _frame_forward,
    _h_cotangents,
    _polar_h_cotangent,
    _rigid_target,
    _side_grad,
)
from reference import (AGREEMENT_CASES, BACKWARD_PROBLEMS, GOLDEN_BUILD, UNEVEN_WEIGHTS, bits, kabsch_backward,
                       loss_grad, mirrored_points_frame, mirrored_slab_problem, numpy_build, outcome, pair_scatter,
                       polar_h_cotangent, raised, rigid_backward, training_batch, training_digest)
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
        assert raised(finite_diff_check, "hessian", random_alignment_problem(Seed(33))) == (
            ValueError, "unknown op_id 'hessian'; expected rotation, rigid, or loss_total", None)

    def test_pose_weight_that_overflows_the_rotation_cotangent(self):
        """The training pass checks its cotangents as VjpRequest does: at p = 1
        a pose weight near the float maximum leaves a finite loss but an
        infinite dL/dR = -w R_gt / (2 sin d)."""
        fi = replace(random_frame_inputs(Seed(34), p=1), weights=LossWeights(w_pose_r=1e308))
        assert math.isfinite(pipeline_loss(fi).total)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="^rotation_grad must be a finite 3x3 array$"):
                pipeline_loss_grad(fi)

    @staticmethod
    def translation_overflow_frame():
        """Predicted points at x = 2^1019, so the rigid solve's t is ~5.6e306, against a
        ground truth at x = -1.79e308: t - t_gt overflows, and at p = 2 the unit residual
        direction, so the translation cotangent, would be NaN. The loss is finite only in
        its pairwise term."""
        fi = random_frame_inputs(Seed(170))  # a grid symmetric in x and y
        pts_pred = fi.pts_pred.copy()
        pts_pred[:, 0] = 2.0 ** 1019  # every partial sum exact: the centred x column is 0
        return replace(fi, pts_pred=pts_pred, gt=Pose(fi.gt.r, np.array([-1.79e308, 0.0, 0.0])))

    def test_translation_cotangent_that_overflows(self):
        """The pose term is infinite, so the forward pass rejects the frame before any
        cotangent is formed: the loss and its gradient raise alike."""
        with np.errstate(over="ignore", invalid="ignore"):
            for fn in (pipeline_loss, pipeline_loss_grad):
                assert raised(fn, self.translation_overflow_frame()) == (
                    ValueError, "loss components must be finite", None)

    def test_infinite_loss_is_reported_before_near_singular_rays(self):
        """A mirrored ray branch whose two smallest singular values are equal makes the
        backward raise NearSingularJacobian; with an infinite pose term as well, the
        forward pass's finite-loss check comes first."""
        fi = random_frame_inputs(Seed(170))
        mirrored = fi.rays_cam * np.array([1.0, -1.0, 1.0])
        alone = raised(pipeline_loss_grad, replace(fi, rays_pred=mirrored))
        assert alone[0] is NearSingularJacobian and alone[1].startswith("SVD cross-term denominator below")
        frame = replace(self.translation_overflow_frame(), rays_pred=mirrored)
        with np.errstate(over="ignore", invalid="ignore"):
            assert raised(pipeline_loss_grad, frame) == (ValueError, "loss components must be finite", None)

    @staticmethod
    def l2_guard_frames():
        """p = 2 frames on which one of pipeline_loss_grad's L2 or pair guards trips."""
        exact = random_frame_inputs(Seed(300), p=2, noise=0.0)
        fi = random_frame_inputs(Seed(301), p=2)
        one_exact, coincident = fi.pts_pred.copy(), fi.pts_pred.copy()
        one_exact[0] = (fi.pts_cam @ fi.gt.r.m.T + fi.gt.t)[0]  # p_gt's row, as the forward builds it
        coincident[1] = coincident[0]  # patches 0 and 1 are grid neighbours
        return {
            "translation residual": (exact, "translation residual too small for an L2 gradient"),
            "point residual": (replace(fi, pts_pred=one_exact), "point residual too small for an L2 gradient"),
            "coincident pair": (replace(fi, pts_pred=coincident),
                                "coincident neighbor points; pair distance gradient undefined"),
        }

    @pytest.mark.parametrize("case", ["translation residual", "point residual", "coincident pair"])
    def test_l2_and_pair_guards(self, case):
        """Each guard rejects only the gradient: the loss itself is finite."""
        fi, message = self.l2_guard_frames()[case]
        assert math.isfinite(pipeline_loss(fi).total)
        assert raised(pipeline_loss_grad, fi) == (NearSingularJacobian, message, None)

    @pytest.mark.parametrize("change, message", [
        ({"rays_pred": np.zeros((16, 2))}, "rays_pred must be (m, 3), got (16, 2)"),
        ({"pts_cam": np.zeros(48)}, "pts_cam must be (m, 3), got (48,)"),
        ({"pts_pred": np.zeros((15, 3))}, "frame arrays disagree in length"),
        ({"p": 3}, "p must be 1 or 2"),
    ], ids=["rays_pred-2-columns", "pts_cam-flat", "pts_pred-short", "p3"])
    def test_frame_inputs_validation(self, change, message):
        with pytest.raises(ValueError) as info:
            replace(random_frame_inputs(Seed(35)), **change)
        assert str(info.value) == message


class TestPipelineLoss:
    def test_predicted_arrays_stay_writable(self):
        """The frame wraps the predictions without copying them, through read-only views."""
        fi = random_frame_inputs(Seed(41))
        before = frame_outcome(fi)
        assert fi.rays_pred.flags.writeable and fi.pts_pred.flags.writeable
        fi.pts_pred[0] += 1.0  # the caller may still change its arrays between frames
        assert frame_outcome(fi) != before

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
        return replace(fi, rays_pred=0.98 * d_gt)

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

    def test_loss_that_overflows_raises(self):
        """training_batch's frame 13, its predicted points scaled by 1e155: the pair
        term overflows, so neither call returns its infinite loss."""
        fi = training_batch()[13]
        with np.errstate(over="ignore", invalid="ignore"):
            for fn in (pipeline_loss, pipeline_loss_grad):
                assert raised(fn, fi) == (ValueError, "loss components must be finite", None)

    def test_instance_generation_is_deterministic(self):
        a = random_frame_inputs(Seed(43))
        b = random_frame_inputs(Seed(43))
        assert np.array_equal(a.rays_pred, b.rays_pred)
        assert np.array_equal(a.pts_pred, b.pts_pred)


class TestP1NearConvergence:
    """At p = 1 the pose gradient -R_gt / (2 sin d) is finite and accurate down to
    d = P1_GEODESIC_FLOOR: exact rays turned by d, with only the rotation term weighted."""

    POSE_R_ONLY = LossWeights(w_pose_r=1.0, w_pose_p=0.0, w_geo_r=0.0, w_geo_p=0.0, w_reg_r=0.0, w_reg_p=0.0)

    @classmethod
    def turned_frame(cls, seed: int, d: float):
        fi = random_frame_inputs(Seed(seed), n=8, p=1)
        turned = fi.gt.r.m @ Rotation.from_axis_angle([0.3, -0.5, 0.8], d).m
        return replace(fi, rays_pred=fi.rays_cam @ turned.T, weights=cls.POSE_R_ONLY)

    @pytest.mark.parametrize("seed", range(40, 48))
    def test_gradient_is_continuous_down_to_the_floor(self, seed):
        """Against the gradient at d = 1e-6, the relative deviation is its O(1e-6) change
        plus rounding that grows as 1/d. Measured over seeds 40 to 59: at most 1.3e-6 at
        d = 1e-8 and 1e-9, 3.0e-6 at 1e-10, 4.8e-5 at 1e-11 and 3.7e-4 at 1.1e-12; the
        bound is 1.6 to 4 times that."""
        _, want, _ = pipeline_loss_grad(self.turned_frame(seed, 1e-6))
        for d in (1e-8, 1e-9, 1e-10, 1e-11, 1.1e-12):
            fi = self.turned_frame(seed, d)
            assert P1_GEODESIC_FLOOR < _frame_forward(fi).dist < 1.01 * d
            _, got, _ = pipeline_loss_grad(fi)
            assert np.abs(got - want).max() <= (2e-6 + 1e-15 / d) * np.abs(want).max()

    @pytest.mark.parametrize("d", [1e-3, 1e-2, 0.1])
    def test_gradient_matches_finite_differences(self, d):
        """Where central differences of step 1e-5 stay away from d = 0."""
        report = finite_diff_check("loss_total", self.turned_frame(44, d), seed=Seed(44))
        assert report.max_rel_err < FD_TOL

    @pytest.mark.parametrize("d", [0.0, 1e-13, 0.9e-12])
    def test_raises_below_the_floor(self, d):
        fi = self.turned_frame(44, d)
        dist = _frame_forward(fi).dist
        assert dist < P1_GEODESIC_FLOOR
        assert raised(pipeline_loss_grad, fi) == (
            NearSingularJacobian, f"geodesic distance {dist:.3e} too close to 0 or pi for a stable gradient", None)
        assert math.isfinite(pipeline_loss(fi).total)


class TestFusedPassAgreement:
    """The single forward pass shared by pipeline_loss and pipeline_loss_grad
    against the two-solve reference: loss terms bitwise, gradients to 1e-12
    of their largest entry (only the order of the pair sums changed)."""

    @pytest.mark.parametrize("case", sorted(AGREEMENT_CASES))
    def test_matches_reference(self, case):
        fi = AGREEMENT_CASES[case]()
        terms, grad_rays, grad_pts = pipeline_loss_grad(fi)
        ref_terms, ref_rays, ref_pts = loss_grad(fi)
        assert (terms.pose, terms.geometry, terms.regularization) == ref_terms
        for got, want in ((grad_rays, ref_rays), (grad_pts, ref_pts)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert pipeline_loss(fi) == terms

    def test_reflective_case_takes_the_reflection_branch(self):
        fi = mirrored_points_frame(150, 2)
        _, diag = rigid_align(AlignmentProblem(fi.pts_cam, fi.pts_pred))
        assert diag.reflection_corrected

    def test_uneven_weights_change_the_gradient(self):
        # The zero geometry-ray weight must reach the fused gradient.
        fi = random_frame_inputs(Seed(120), p=2)
        _, base, _ = pipeline_loss_grad(fi)
        _, uneven, _ = pipeline_loss_grad(replace(fi, weights=UNEVEN_WEIGHTS))
        assert not np.allclose(base, uneven)


class TestFailureParity:
    """pipeline_loss and pipeline_loss_grad fail the same way on bad frames."""

    @staticmethod
    def bad_frames():
        fi = random_frame_inputs(Seed(160))
        nan_pts = fi.pts_pred.copy()
        nan_pts[5, 1] = np.nan
        collinear = np.tile(fi.rays_pred[:1], (fi.rays_pred.shape[0], 1))
        return {
            "empty-neighbors": (replace(fi, neighbors=NeighborSet(16, np.zeros((0, 2)))),
                                EmptyNeighborSet),
            "wrong-item-count": (replace(fi, neighbors=NeighborSet.grid(3)), ValueError),
            "nan-point": (replace(fi, pts_pred=nan_pts), ValueError),
            "collinear-rays": (replace(fi, rays_pred=collinear), DegenerateConfiguration),
        }

    @pytest.mark.parametrize(
        "case", ["empty-neighbors", "wrong-item-count", "nan-point", "collinear-rays"]
    )
    def test_same_exception(self, case):
        fi, expected = self.bad_frames()[case]
        from_loss = raised(pipeline_loss, fi)
        assert from_loss == raised(pipeline_loss_grad, fi)
        assert issubclass(from_loss[0], expected)

    def test_predicted_rays_are_checked_before_the_points(self):
        """A zero predicted ray is named before a NaN predicted point: the rays are
        normalized before the points are checked."""
        fi, _ = self.bad_frames()["nan-point"]
        rays = fi.rays_pred.copy()
        rays[3] = 0.0
        for fn in (pipeline_loss, pipeline_loss_grad):
            assert raised(fn, replace(fi, rays_pred=rays)) == (
                ValueError, "cannot normalize near-zero target rows", None)
            assert raised(fn, fi) == (ValueError, "pts contains non-finite entries", None)

    @pytest.mark.parametrize("near_singular", ["points", "both"])
    def test_near_singular_rays_are_reported_first(self, near_singular):
        """A mirrored branch whose two smallest singular values are equal makes
        its reflective backward divide by s_1 - s_2 ~ 0. With both branches
        so, the ray branch's message comes first, as its backward ran first."""
        fi = random_frame_inputs(Seed(170))  # a grid symmetric in x and y
        mirror = np.array([1.0, -1.0, 1.0])
        pts_cam = fi.rays_cam * np.array([1.0, 1.0, 100.0])  # z spread the largest
        rays_pred = fi.rays_cam * mirror if near_singular == "both" else fi.rays_pred
        frame = replace(fi, pts_cam=pts_cam, rays_pred=rays_pred, pts_pred=pts_cam * mirror + 0.5)
        unit = rays_pred / np.linalg.norm(rays_pred, axis=1, keepdims=True)
        h = {"both": unit.T @ fi.rays_cam,
             "points": (frame.pts_pred - frame.pts_pred.mean(axis=0)).T @ (pts_cam - pts_cam.mean(axis=0))}
        s = np.linalg.svd(h[near_singular], compute_uv=False)
        want = ("SVD cross-term denominator below "
                f"{NEAR_SINGULAR_TOL:g} (singular values {s[0]:.3e}, {s[1]:.3e}, {s[2]:.3e}); "
                "gradient unreliable near degenerate or reflective configurations")
        assert math.isfinite(pipeline_loss(frame).total)
        with pytest.raises(NearSingularJacobian) as info:
            pipeline_loss_grad(frame)
        assert str(info.value) == want

    def test_only_the_gradient_rejects_a_converged_p1_frame(self):
        fi = TestPipelineLoss.converged_frame(p=1)
        assert math.isfinite(pipeline_loss(fi).total)
        with pytest.raises(NearSingularJacobian):
            pipeline_loss_grad(fi)


SCATTER_CASES = ["default-p1-seed100", "default-p2-seed100", "8-connected-p1",
                 "8-connected-p2", "2x2-grid-p1", "2x2-grid-p2", "m3-p1", "m3-p2"]


class TestBackwardParity:
    """The target sides alone (_side_grad and _rigid_target, as
    pipeline_loss_grad builds them) and the single-bincount pair scatter give
    the bytes the full backward and the per-column scatter give."""

    @pytest.mark.parametrize("case", sorted(BACKWARD_PROBLEMS))
    def test_target_only_matches_full_backward(self, case):
        problem = BACKWARD_PROBLEMS[case]()
        rng = Seed(11).rng()
        g_rot, g_t = rng.standard_normal((3, 3)), rng.standard_normal(3)

        rays, svd = _kabsch_solve(problem, normalize=True)
        want_target, want_source = kabsch_backward(rays, svd, g_rot)
        hbar = _h_cotangents(svd, g_rot[np.newaxis])[0]
        target_only = _side_grad(rays.tgt, rays.tgt_norms, rays.src, rays.w, hbar)
        full = kabsch_rotation_vjp(VjpRequest(problem, g_rot), normalize=True)
        assert bits((target_only, full.target, full.source)) == bits((want_target, want_target, want_source))

        points, svd = _rigid_solve(problem)
        for req in (VjpRequest(problem, g_rot, g_t), VjpRequest(problem, np.zeros((3, 3)), g_t)):
            want_target, want_source = rigid_backward(
                points, svd, req.rotation_grad, req.translation_grad)
            g_centred = req.rotation_grad - np.outer(req.translation_grad, points.c_src)
            hbar = _h_cotangents(svd, g_centred[np.newaxis])[0]
            target_only = _rigid_target(points, hbar, req.translation_grad)
            full = rigid_align_vjp(req)
            assert bits((target_only, full.target, full.source)) == bits((want_target, want_target, want_source))

    def test_stacked_pbar_matches_per_matrix_formula(self):
        """Each entry of a stacked Pbar is the per-matrix formula's bytes, on
        stacks that mix both determinant signs and hold signed zeros in K."""
        rng = Seed(13).rng()
        for _ in range(50):
            n = int(rng.integers(2, 9))
            k = rng.standard_normal((n, 3, 3))
            k[rng.random(k.shape) < 0.15] = 0.0
            k[rng.random(k.shape) < 0.15] = -0.0
            s = -np.sort(-rng.uniform(0.1, 3.0, (n, 3)), axis=1)
            sign = np.where(rng.random(n) < 0.5, 1.0, -1.0)
            sign[:2] = 1.0, -1.0
            got = _polar_h_cotangent(k, s, sign)
            for i in range(n):
                assert bits(got[i]) == bits(polar_h_cotangent(k[i], s[i], float(sign[i])))

    def test_stacked_pbar_raises_for_the_first_near_singular_entry(self):
        """A stack raises what the per-matrix formula raises on its first
        near-singular entry, wherever that entry sits."""
        s = np.array([[2.0, 1.0, 0.5], [1.0, 0.7, 0.7], [1.0, 3e-9, 3e-9], [3.0, 1.0, 1.0 - 5e-9]])
        sign = np.array([1.0, -1.0, 1.0, -1.0])
        k = Seed(14).rng().standard_normal((4, 3, 3))
        for shift in range(4):
            order = np.roll(np.arange(4), shift)  # entry 0 is the only regular one
            first = int(order[order != 0][0])
            with pytest.raises(NearSingularJacobian) as want:
                polar_h_cotangent(k[first], s[first], float(sign[first]))
            with pytest.raises(NearSingularJacobian) as got:
                _polar_h_cotangent(k[order], s[order], sign[order])
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("case", SCATTER_CASES)
    def test_single_bincount_matches_per_column_scatter(self, case):
        fi = AGREEMENT_CASES[case]()
        pr, k, w = _frame_forward(fi).pairs, len(fi.neighbors), fi.weights
        i, j = fi.neighbors.pairs[:, 0], fi.neighbors.pairs[:, 1]
        assert bits((pr.d_ij[0], pr.d_ij[1], pr.delta)) == bits((fi.rays_pred[i], fi.rays_pred[j], fi.pts_pred[i] - fi.pts_pred[j]))
        coef = (w.w_reg_r / k) * _dpow(pr.ray_dev, fi.p)
        pull = (w.w_reg_p / k) * _dpow(pr.dist_dev, fi.p) / pr.dist_hat
        got = _pair_grads(fi.neighbors, coef, pr.d_ij, pull, pr.delta)
        want = pair_scatter(fi.neighbors, coef[:, np.newaxis], pull[:, np.newaxis], pr.delta, fi.rays_pred)
        assert bits(np.concatenate(got, axis=1)) == bits(want)

    def test_scatter_keeps_the_summation_order(self):
        # Coefficients over 60 decades: a bin summed in another order rounds differently.
        neighbors = NeighborSet.grid(4, connectivity=8)
        k, rng = len(neighbors), Seed(12).rng()
        coef, pull = (rng.standard_normal((k, 1)) * 10.0 ** rng.uniform(-30, 30, (k, 1))
                      for _ in range(2))
        rays, delta = rng.standard_normal((16, 3)), rng.standard_normal((k, 3))
        i, j = neighbors.pairs[:, 0], neighbors.pairs[:, 1]
        got = _pair_grads(neighbors, coef[:, 0], np.stack([rays[i], rays[j]]), pull[:, 0], delta)
        assert bits(np.concatenate(got, axis=1)) == bits(pair_scatter(neighbors, coef, pull, delta, rays))

    def test_cached_scatter_index_is_read_only(self):
        neighbors = NeighborSet.grid(3, connectivity=8)
        assert neighbors._scatter_index is neighbors._scatter_index
        assert not neighbors._scatter_index.flags.writeable
        with pytest.raises(ValueError):
            neighbors._scatter_index[0] = 1
        assert not neighbors.pairs.flags.writeable

    def test_neighbor_set_value_semantics_unchanged(self):
        a = NeighborSet(3, [[0, 1], [1, 2]])
        fresh_repr = repr(a)
        a._scatter_index  # fill the cache
        assert repr(a) == fresh_repr
        assert repr(a) == "NeighborSet(n_items=3, pairs=array([[0, 1],\n       [1, 2]]))"
        assert [f.name for f in fields(a)] == ["n_items", "pairs"]
        assert a == a
        assert a != NeighborSet(2, [[0, 1]])
        # Bins (part * n_items + item) * 3 + column, column by column; a replaced set builds its own.
        rays_part = [0, 3, 3, 6, 1, 4, 4, 7, 2, 5, 5, 8]
        assert a._scatter_index.tolist() == rays_part + [b + 9 for b in rays_part]
        b = replace(a, n_items=4)
        assert b._scatter_index.tolist() == rays_part + [b + 12 for b in rays_part]


def frame_outcome(fi):
    """The outcomes of pipeline_loss and pipeline_loss_grad on a frame."""
    return [outcome(pipeline_loss, fi), outcome(pipeline_loss_grad, fi)]


def _refreeze(*arrays: np.ndarray) -> None:
    for arr in arrays:
        arr.flags.writeable = False


class TestCanonicalMemo:
    """Frames whose canonical pair has the bytes of the last one are served its
    factors; every other pair is validated and factored again. The results are
    bitwise those of a fresh pair, and nothing stale or unvalidated is served."""

    @staticmethod
    def batch() -> list[FrameInputs]:
        """A training-like 4x4 batch: p = 1 and p = 2 frames, a near-converged
        p = 1 frame (NearSingularJacobian), a collinear one (DegenerateConfiguration),
        and a switch from 4- to 8-connectivity after the fifth frame."""
        frames = [random_frame_inputs(Seed(200 + k), p=1 + k % 2) for k in range(7)]
        frames.insert(2, TestPipelineLoss.converged_frame(p=1))
        frames.insert(4, replace(frames[1], rays_pred=np.tile(frames[1].rays_pred[:1], (16, 1))))
        four, eight = NeighborSet.grid(4), NeighborSet.grid(4, connectivity=8)
        return [replace(f, neighbors=four if k < 5 else eight) for k, f in enumerate(frames)]

    def test_shared_pair_gives_the_bits_of_per_frame_copies(self, canonical_work):
        frames = self.batch()
        rays_cam, pts_cam = frames[0].rays_cam.copy(), frames[0].pts_cam.copy()
        shared = [frame_outcome(replace(f, rays_cam=rays_cam, pts_cam=pts_cam)) for f in frames]
        assert canonical_work == ["rays", "dots", "dots"]  # one pair, two neighbour sets
        del canonical_work[:]
        copies = [frame_outcome(replace(f, rays_cam=rays_cam.copy(), pts_cam=pts_cam.copy()))
                  for f in frames]
        assert canonical_work == ["dots", "dots"]  # equal bytes are served from the cache
        fresh = []
        for f in frames:
            solver_grad._memo = (None,) * 6  # forget the pair: this frame builds its own
            fresh.append(frame_outcome(replace(f, rays_cam=rays_cam.copy(), pts_cam=pts_cam.copy())))
        assert canonical_work.count("rays") == len(frames)
        assert shared == copies == fresh
        grad_kinds = [out[1][0] if isinstance(out[1][0], type) else "ok" for out in shared]
        assert grad_kinds.count("ok") == len(frames) - 2
        assert grad_kinds[2] is NearSingularJacobian  # only the gradient rejects it
        assert shared[2][0][0] == "FrameLossTerms"
        assert shared[4][0] == shared[4][1] and shared[4][1][::2] == (DegenerateConfiguration, "rays")
        assert {f.p for f in frames} == {1, 2}

    def test_twenty_frame_batch_builds_the_canonical_side_once(self, canonical_work):
        first = random_frame_inputs(Seed(240))
        frames = [replace(random_frame_inputs(Seed(240 + k), p=2), rays_cam=first.rays_cam,
                          pts_cam=first.pts_cam, neighbors=first.neighbors) for k in range(20)]
        for fi in frames:
            pipeline_loss_grad(fi)
        assert canonical_work == ["rays", "dots"]

    def test_two_threads_on_two_pairs_get_the_bits_of_one_thread(self):
        """Two threads train on different canonical pairs that share one NeighborSet,
        switching as often as the interpreter allows. A frame reads the cache once and
        replaces it whole, so none is served the other pair's factors or pair dots."""
        fi = random_frame_inputs(Seed(1), n=4)
        q = random_rotation(Seed(2)).m
        frames = (fi, replace(fi, rays_cam=fi.rays_cam @ q.T, pts_cam=fi.pts_cam @ q.T + 0.5))
        want = [outcome(pipeline_loss_grad, f) for f in frames]
        assert want[0] != want[1] and all(out[0][0] == "FrameLossTerms" for out in want)
        start, mismatches = threading.Barrier(2), [None, None]

        def train(k):
            start.wait()
            mismatches[k] = sum(outcome(pipeline_loss_grad, frames[k]) != want[k] for _ in range(1000))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=train, args=(k,)) for k in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        assert mismatches == [0, 0]

    def test_mutated_writable_pair_is_revalidated(self):
        fi = random_frame_inputs(Seed(210))
        rays_cam, pts_cam = fi.rays_cam.copy(), fi.pts_cam.copy()
        frame = replace(fi, rays_cam=rays_cam, pts_cam=pts_cam)
        before = frame_outcome(frame)
        rot = random_rotation(Seed(211)).m
        rays_cam[:], pts_cam[:] = rays_cam @ rot.T, pts_cam @ rot.T + 0.5
        after = frame_outcome(frame)
        assert after != before
        assert after == frame_outcome(replace(fi, rays_cam=rays_cam.copy(), pts_cam=pts_cam.copy()))
        rays_cam *= 1.01
        with pytest.raises(ValueError, match="ray norms deviate from 1"):
            pipeline_loss_grad(frame)

    def test_refrozen_pair_gives_the_bits_of_a_fresh_pair(self):
        """A read-only pair made writable, changed in place and made read-only again."""
        fi = random_frame_inputs(Seed(5))
        rays_cam, pts_cam = fi.rays_cam.copy(), fi.pts_cam.copy()
        _refreeze(rays_cam, pts_cam)
        frame = replace(fi, rays_cam=rays_cam, pts_cam=pts_cam)
        before = frame_outcome(frame)
        rays_cam.flags.writeable = pts_cam.flags.writeable = True
        rot = random_rotation(Seed(6)).m
        rays_cam[:], pts_cam[:] = rays_cam @ rot.T, pts_cam @ rot.T + 0.5
        _refreeze(rays_cam, pts_cam)
        after = frame_outcome(frame)
        assert after == frame_outcome(replace(fi, rays_cam=rays_cam.copy(), pts_cam=pts_cam.copy())) != before

    def test_read_only_view_of_a_writable_base_is_not_kept(self, canonical_work):
        fi = random_frame_inputs(Seed(220))
        base = fi.rays_cam.copy()
        view = base[:]
        view.flags.writeable = False
        frame = replace(fi, rays_cam=view)
        assert frame.rays_cam is view
        first = frame_outcome(frame)
        assert canonical_work.count("rays") == 1
        base[:] = base @ random_rotation(Seed(221)).m.T
        assert frame_outcome(frame) == frame_outcome(replace(fi, rays_cam=base.copy())) != first
        assert canonical_work.count("rays") == 2  # rebuilt once after the change

    def test_non_unit_rays_raise_on_every_call(self, canonical_work):
        fi = random_frame_inputs(Seed(230))
        frame = replace(fi, rays_cam=1.01 * fi.rays_cam)
        messages = set()
        for fn in (pipeline_loss, pipeline_loss_grad, pipeline_loss):
            with pytest.raises(ValueError) as info:
                fn(frame)
            messages.add(str(info.value))
        assert len(messages) == 1 and messages.pop().startswith("ray norms deviate from 1 by up to")
        assert canonical_work == ["rays"] * 3  # a pair that fails validation is never stored

    @pytest.mark.parametrize("neighbors,error,message", [
        (NeighborSet.grid(5), ValueError, "neighbor set is over 25 items, bundles have 16"),
        (NeighborSet(16, np.zeros((0, 2))), EmptyNeighborSet, "neighbor set has no pairs"),
    ])
    def test_bad_neighbor_set_raises_as_before(self, canonical_work, neighbors, error, message):
        """Out-of-range pairs (a 5x5 set on a 4x4 frame) and an empty set are
        rejected before any canonical pair dot is gathered, on every call."""
        fi = random_frame_inputs(Seed(250))
        for fn in (pipeline_loss, pipeline_loss_grad, pipeline_loss):
            with pytest.raises(error) as info:
                fn(replace(fi, neighbors=neighbors))
            assert str(info.value) == message
        assert canonical_work == ["rays"]
        assert frame_outcome(fi) == frame_outcome(replace(fi, rays_cam=fi.rays_cam.copy()))


# SHA-256 of reference.training_batch()'s pass through pipeline_loss_grad, recorded on GOLDEN_BUILD.
TRAINING_PASS_SHA256 = "8774ff2a788ad405b37d9fd8f396c699a2e926f2dc25aadf6964348a102e27f9"


@pytest.mark.skipif(numpy_build() != GOLDEN_BUILD,
                    reason=f"golden bytes are recorded for the build {GOLDEN_BUILD}")
def test_training_pass_matches_recorded_bytes():
    """Every frame's loss terms and gradient bytes, or its exception, are the recorded
    ones: the parity gates allow gradients to differ by 1e-12, this pins the last bit."""
    assert training_digest(pipeline_loss_grad, training_batch()) == TRAINING_PASS_SHA256
