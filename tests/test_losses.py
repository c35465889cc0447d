"""Loss stack: frozen values, invariances, linearity, and validation.

Hand-derived expected numbers are written as exact decimal literals next to
the arithmetic that produced them.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest

from grr import (
    EmptyNeighborSet,
    FrameInputs,
    LossWeights,
    NeighborSet,
    NormSchedule,
    Pose,
    RayBundle,
    Rotation,
    Seed,
    domain_bce,
    geometry_loss,
    pipeline_loss,
    pose_loss,
    random_frame_inputs,
    random_rotation,
    regularization_loss,
    total_loss,
)
from grr.losses import _vec_pnorm
from reference import (assert_same, clipped_cosines, finite_entries, minus_outer, special_stacks, special_vectors,
                       swapped_product, take_pairs, vector_abs_sum, vector_norm)


def half_turn_z() -> Rotation:
    return Rotation(np.diag([-1.0, -1.0, 1.0]))


class TestDomainBce:
    def test_uninformative_logit_is_ln2(self):
        # max(0,0) - 0 + log1p(exp(0)) = log 2 for either label
        assert domain_bce(0.0, 0) == pytest.approx(0.6931471805599453, abs=1e-16)
        assert domain_bce(0.0, 1) == pytest.approx(0.6931471805599453, abs=1e-16)

    def test_wrong_confident_logit(self):
        # label 1, logit -3: 0 - (-3) + log1p(exp(-3)) = 3 + 0.04858735157374206
        assert domain_bce(-3.0, 1) == pytest.approx(3.0485873515737421, abs=1e-15)

    def test_right_confident_logit_is_tiny(self):
        v = domain_bce(20.0, 1)
        assert 0.0 < v < 1e-8

    def test_extreme_logits_never_overflow(self):
        # the softplus form underflows to exactly 0.0 when the logit is
        # confidently correct, and stays linear when it is confidently wrong
        assert domain_bce(800.0, 1) == 0.0
        assert domain_bce(-800.0, 0) == 0.0
        assert domain_bce(-800.0, 1) == 800.0
        assert domain_bce(800.0, 0) == 800.0

    def test_label_flip_mirrors_logit(self):
        for x in (0.3, -1.7, 5.0, -12.5):
            assert domain_bce(x, 1) == domain_bce(-x, 0)

    def test_rejects_bad_label_and_nonfinite_logit(self):
        with pytest.raises(ValueError, match="label"):
            domain_bce(0.0, 2)
        with pytest.raises(ValueError, match="finite"):
            domain_bce(math.inf, 0)
        with pytest.raises(ValueError, match="finite"):
            domain_bce(math.nan, 1)


class TestPoseLoss:
    def test_exact_pose_is_exactly_zero(self):
        r = random_rotation(Seed(3))
        gt = Pose(r, np.array([0.2, -1.0, 3.0]))
        assert pose_loss(r, gt.t, gt, LossWeights(), 2) == 0.0
        assert pose_loss(r, gt.t, gt, LossWeights(), 1) == 0.0

    def test_translation_norms(self):
        r = random_rotation(Seed(4))
        gt = Pose(r, np.zeros(3))
        t_hat = np.array([3.0, 4.0, 0.0])
        # rotation term is exactly 0, so the loss is the bare p-norm
        assert pose_loss(r, t_hat, gt, LossWeights(), 2) == pytest.approx(5.0, abs=1e-12)
        assert pose_loss(r, t_hat, gt, LossWeights(), 1) == pytest.approx(7.0, abs=1e-12)

    def test_half_turn_rotation_term(self):
        gt = Pose(Rotation.identity(), np.zeros(3))
        assert pose_loss(half_turn_z(), np.zeros(3), gt, LossWeights(), 1) == math.pi
        assert pose_loss(half_turn_z(), np.zeros(3), gt, LossWeights(), 2) == pytest.approx(
            math.pi**2, rel=1e-15
        )

    def test_weights_scale_terms_independently(self):
        gt = Pose(Rotation.identity(), np.zeros(3))
        t_hat = np.array([1.0, 2.0, -2.0])
        base_rot = pose_loss(half_turn_z(), np.zeros(3), gt, LossWeights(w_pose_p=0.0), 1)
        base_tr = pose_loss(Rotation.identity(), t_hat, gt, LossWeights(w_pose_r=0.0), 1)
        both = pose_loss(
            half_turn_z(), t_hat, gt, LossWeights(w_pose_r=2.0, w_pose_p=0.5), 1
        )
        assert both == pytest.approx(2.0 * base_rot + 0.5 * base_tr, rel=1e-15)

    def test_rotation_term_survives_shared_conjugation(self):
        # rotating both the estimate and the target by the same q changes
        # neither the geodesic nor the translation residual
        q = random_rotation(Seed(6))
        r_hat = random_rotation(Seed(7))
        r_gt = random_rotation(Seed(8))
        t = np.array([0.4, 0.0, -0.9])
        a = pose_loss(r_hat, t, Pose(r_gt, t * 0.5), LossWeights(), 2)
        b = pose_loss(q @ r_hat, t, Pose(q @ r_gt, t * 0.5), LossWeights(), 2)
        assert a == pytest.approx(b, rel=0, abs=1e-12)

    def test_rejects_bad_p(self):
        gt = Pose(Rotation.identity(), np.zeros(3))
        with pytest.raises(ValueError, match="p must be 1 or 2"):
            pose_loss(Rotation.identity(), np.zeros(3), gt, LossWeights(), 3)


class TestGeometryLoss:
    def axes(self):
        return np.eye(3)

    def test_identical_inputs_vanish(self):
        d = self.axes()
        pts = np.array([[0.0, 0.0, 1.0], [1.0, 2.0, 3.0], [-1.0, 0.5, 2.0]])
        assert geometry_loss(d, d, pts, pts, LossWeights(), 2) == 0.0

    def test_orthogonal_rays_cost_one(self):
        d_hat = self.axes()
        d_gt = self.axes()[[1, 2, 0]]
        pts = np.zeros((3, 3)) + np.array([0.0, 0.0, 1.0])
        v = geometry_loss(d_hat, d_gt, pts, pts, LossWeights(), 2)
        assert v == 1.0

    def test_antipodal_rays_cost_two(self):
        d = self.axes()
        pts = np.zeros((3, 3))
        assert geometry_loss(d, -d, pts, pts, LossWeights(), 2) == 2.0

    def test_point_offset_norms(self):
        d = self.axes()
        pts = np.array([[0.0, 0.0, 1.0], [1.0, 2.0, 3.0], [-1.0, 0.5, 2.0]])
        shifted = pts + np.array([1.0, 1.0, 1.0])
        assert geometry_loss(d, d, shifted, pts, LossWeights(), 1) == pytest.approx(
            3.0, abs=1e-14
        )
        assert geometry_loss(d, d, shifted, pts, LossWeights(), 2) == pytest.approx(
            math.sqrt(3.0), rel=1e-15
        )

    def test_weights_select_terms(self):
        d_hat = self.axes()
        d_gt = self.axes()[[1, 2, 0]]
        pts = np.array([[0.0, 0.0, 1.0], [1.0, 2.0, 3.0], [-1.0, 0.5, 2.0]])
        shifted = pts + np.array([1.0, 1.0, 1.0])
        only_rays = geometry_loss(d_hat, d_gt, shifted, pts, LossWeights(w_geo_p=0.0), 1)
        only_pts = geometry_loss(d_hat, d_gt, shifted, pts, LossWeights(w_geo_r=0.0), 1)
        assert only_rays == 1.0
        assert only_pts == pytest.approx(3.0, abs=1e-14)

    def test_accepts_bundle_objects(self):
        d = self.axes()
        pts = np.array([[0.0, 0.0, 2.0], [1.0, 2.0, 3.0], [-1.0, 0.5, 2.0]])
        v = geometry_loss(
            RayBundle(d), RayBundle(d), pts, pts, LossWeights(), 2
        )
        assert v == 0.0

    def test_rejects_shape_mismatch(self):
        d = self.axes()
        pts = np.zeros((3, 3))
        with pytest.raises(ValueError, match="shapes differ"):
            geometry_loss(d, d[:2], pts, pts, LossWeights(), 2)

    def test_rejects_rows_that_are_not_3_wide(self):
        d = self.axes()
        with pytest.raises(ValueError) as info:
            geometry_loss(d, d, d[:, :2], d, LossWeights(), 2)
        assert str(info.value) == "pts_hat must be (m, 3), got (3, 2)"


class TestRegularizationLoss:
    def single_pair_rays(self):
        # predicted pair dot 0.5, canonical pair dot 0.8, both exact
        d_hat = np.array([[0.0, 0.0, 1.0], [math.sqrt(0.75), 0.0, 0.5]])
        d_cam = np.array([[0.0, 0.0, 1.0], [0.6, 0.0, 0.8]])
        return d_hat, d_cam

    def test_single_pair_ray_deviation(self):
        d_hat, d_cam = self.single_pair_rays()
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        nb = NeighborSet(2, np.array([[0, 1]]))
        v1 = regularization_loss(d_hat, pts, d_cam, pts, nb, LossWeights(), 1)
        v2 = regularization_loss(d_hat, pts, d_cam, pts, nb, LossWeights(), 2)
        assert v1 == pytest.approx(0.3, abs=1e-15)
        assert v2 == pytest.approx(0.09, abs=1e-15)

    def test_single_pair_distance_deviation(self):
        d = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        p_hat = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        p_gt = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        nb = NeighborSet(2, np.array([[0, 1]]))
        assert regularization_loss(d, p_hat, d, p_gt, nb, LossWeights(), 1) == 1.0
        assert regularization_loss(d, p_hat, d, p_gt, nb, LossWeights(), 2) == 1.0

    def test_term_weights_are_linear(self):
        d_hat, d_cam = self.single_pair_rays()
        p_hat = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        p_gt = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        nb = NeighborSet(2, np.array([[0, 1]]))
        base = regularization_loss(d_hat, p_hat, d_cam, p_gt, nb, LossWeights(), 1)
        doubled = regularization_loss(
            d_hat, p_hat, d_cam, p_gt, nb, LossWeights(w_reg_r=2.0, w_reg_p=2.0), 1
        )
        assert doubled == pytest.approx(2.0 * base, rel=1e-15)

    def test_sees_only_relative_geometry(self):
        # rotating all predicted rays together and moving the predicted
        # points rigidly leaves every pairwise dot and distance unchanged
        rng = Seed(30).rng()
        m = 9
        d_hat = rng.standard_normal((m, 3))
        d_hat /= np.linalg.norm(d_hat, axis=1, keepdims=True)
        p_hat = rng.standard_normal((m, 3))
        d_cam = rng.standard_normal((m, 3))
        d_cam /= np.linalg.norm(d_cam, axis=1, keepdims=True)
        p_gt = rng.standard_normal((m, 3))
        nb = NeighborSet.grid(3, connectivity=8)
        q = random_rotation(Seed(31))
        t = np.array([5.0, -2.0, 0.7])
        before = regularization_loss(d_hat, p_hat, d_cam, p_gt, nb, LossWeights(), 2)
        after = regularization_loss(
            d_hat @ q.m.T, p_hat @ q.m.T + t, d_cam, p_gt, nb, LossWeights(), 2
        )
        assert after == pytest.approx(before, rel=0, abs=1e-9)

    def test_empty_neighbor_set_rejected(self):
        d = np.eye(3)
        pts = np.zeros((3, 3))
        nb = NeighborSet(3, np.zeros((0, 2), dtype=np.int64))
        with pytest.raises(EmptyNeighborSet):
            regularization_loss(d, pts, d, pts, nb, LossWeights(), 2)
        with pytest.raises(EmptyNeighborSet):
            NeighborSet.grid(1)

    def test_item_count_mismatch_rejected(self):
        d = np.eye(3)
        pts = np.zeros((3, 3))
        nb = NeighborSet(4, np.array([[0, 1]]))
        with pytest.raises(ValueError, match="neighbor set is over 4 items"):
            regularization_loss(d, pts, d, pts, nb, LossWeights(), 2)

    @pytest.mark.parametrize("short", ["pts_hat", "rays_cam", "pts_gt"])
    def test_short_array_rejected_by_name(self, short):
        nb = NeighborSet.grid(4)
        arrays = {name: np.tile(np.eye(3)[2], (16, 1))
                  for name in ("rays_hat", "pts_hat", "rays_cam", "pts_gt")}
        arrays[short] = arrays[short][:4]
        with pytest.raises(ValueError, match=f"neighbor set is over 16 items, {short} has 4"):
            regularization_loss(*arrays.values(), nb, LossWeights(), 2)


class TestNeighborSet:
    def test_validation(self):
        with pytest.raises(ValueError, match="out of range"):
            NeighborSet(3, np.array([[0, 3]]))
        with pytest.raises(ValueError, match="self-pair"):
            NeighborSet(3, np.array([[1, 1]]))
        with pytest.raises(ValueError, match="duplicate"):
            NeighborSet(3, np.array([[0, 1], [1, 0]]))
        with pytest.raises(ValueError, match="n_items"):
            NeighborSet(0, np.zeros((0, 2), dtype=np.int64))

    def test_pairs_are_read_only(self):
        nb = NeighborSet(3, np.array([[0, 1]]))
        with pytest.raises(ValueError):
            nb.pairs[0, 0] = 2

    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    def test_grid_pair_counts(self, n):
        # 4-connectivity: 2n(n-1) edges; 8 adds the 2(n-1)^2 diagonals
        g4 = NeighborSet.grid(n, connectivity=4)
        g8 = NeighborSet.grid(n, connectivity=8)
        assert g4.n_items == g8.n_items == n * n
        assert len(g4) == 2 * n * (n - 1)
        assert len(g8) == 2 * n * (n - 1) + 2 * (n - 1) ** 2

    def test_grid_rejects_bad_connectivity(self):
        with pytest.raises(ValueError, match="connectivity"):
            NeighborSet.grid(4, connectivity=5)


class TestNormSchedule:
    def test_switch_at_warmup_boundary(self):
        sched = NormSchedule(warmup_steps=100)
        assert sched.at_step(0).p == 1
        assert sched.at_step(99).p == 1
        assert sched.at_step(100).p == 2
        assert sched.at_step(10**9).p == 2

    def test_no_warmup_is_always_quadratic(self):
        assert NormSchedule().p == 2
        assert NormSchedule(warmup_steps=0, current_step=0).p == 2

    def test_rejects_negative_steps(self):
        with pytest.raises(ValueError, match="nonnegative"):
            NormSchedule(warmup_steps=-1)
        with pytest.raises(ValueError, match="nonnegative"):
            NormSchedule(warmup_steps=5, current_step=-2)


class TestTotalLoss:
    def test_frozen_combination(self):
        v = total_loss(1.0, 2.0, (0.5, 0.5), LossWeights(w_domain=0.1))
        assert v == pytest.approx(3.1, abs=1e-15)

    def test_zero_domain_weight_drops_the_head(self):
        v = total_loss(1.0, 2.0, (123.0, 456.0), LossWeights(w_domain=0.0))
        assert v == 3.0

    def test_additive_in_weights(self):
        terms = (0.7, 1.3, (0.2, 0.9))
        wa = LossWeights(w_syn=0.5, w_real=2.0, w_domain=0.3)
        wb = LossWeights(w_syn=1.5, w_real=0.25, w_domain=0.05)
        wsum = LossWeights(w_syn=2.0, w_real=2.25, w_domain=0.35)
        a = total_loss(terms[0], terms[1], terms[2], wa)
        b = total_loss(terms[0], terms[1], terms[2], wb)
        s = total_loss(terms[0], terms[1], terms[2], wsum)
        assert s == pytest.approx(a + b, rel=1e-15)

    def test_rejects_nonfinite_terms(self):
        with pytest.raises(ValueError, match="finite"):
            total_loss(math.nan, 0.0, (0.0, 0.0), LossWeights())
        with pytest.raises(ValueError, match="finite"):
            total_loss(0.0, 0.0, (math.inf, 0.0), LossWeights())


class TestLossWeights:
    def test_rejects_negative_or_nonfinite(self):
        with pytest.raises(ValueError, match="w_geo_r"):
            LossWeights(w_geo_r=-0.1)
        with pytest.raises(ValueError, match="w_domain"):
            LossWeights(w_domain=math.nan)

    def test_frozen(self):
        w = LossWeights()
        with pytest.raises(dataclasses.FrozenInstanceError):
            w.w_syn = 2.0


class TestComposedLossStructure:
    def test_linear_in_every_weight(self):
        """The composed per-frame loss is affine in each term weight, so a
        central difference over any weight matches the endpoint slope."""
        fi = random_frame_inputs(Seed(40))
        h = 1e-3

        def total_with(**kw) -> float:
            fields = {f: getattr(fi.weights, f) for f in fi.weights.__dataclass_fields__}
            fields.update(kw)
            return pipeline_loss(
                FrameInputs(
                    fi.rays_cam, fi.pts_cam, fi.rays_pred, fi.pts_pred,
                    fi.gt, fi.neighbors, LossWeights(**fields), fi.p,
                )
            ).total

        for name in ("w_pose_r", "w_pose_p", "w_geo_r", "w_geo_p", "w_reg_r", "w_reg_p"):
            slope = total_with(**{name: 1.0}) - total_with(**{name: 0.0})
            fd = (total_with(**{name: 0.7 + h}) - total_with(**{name: 0.7 - h})) / (2 * h)
            assert fd == pytest.approx(slope, abs=1e-10), name

    def test_zero_noise_frame_is_at_the_optimum(self):
        fi = random_frame_inputs(Seed(41), noise=0.0)
        terms = pipeline_loss(fi)
        assert terms.pose == pytest.approx(0.0, abs=1e-12)
        assert terms.geometry == pytest.approx(0.0, abs=1e-12)
        assert terms.regularization == pytest.approx(0.0, abs=1e-12)

    def test_norm_schedule_feeds_the_frame_loss(self):
        fi2 = random_frame_inputs(Seed(42), p=NormSchedule(warmup_steps=5, current_step=9).p)
        fi1 = random_frame_inputs(Seed(42), p=NormSchedule(warmup_steps=5, current_step=2).p)
        assert fi2.p == 2 and fi1.p == 1
        assert pipeline_loss(fi1).total != pipeline_loss(fi2).total


class TestWrapperForms:
    """The method and ufunc forms on the training frame's path give the bits of the
    NumPy wrapper calls they replaced, on signed zeros, NaN, +-inf and 1e+-300."""

    @pytest.mark.parametrize("p, plain", [(1, vector_abs_sum), (2, vector_norm)])
    def test_vector_pnorm(self, p, plain):
        """_vec_pnorm: np.add.reduce for the L1 sum, sqrt(v . v) for the L2 norm
        (pipeline_loss_grad's translation residual norm too)."""
        with np.errstate(all="ignore"):
            for v in special_vectors(31):
                assert_same(functools.partial(_vec_pnorm, p=p), plain, v)

    def test_take(self):
        rows = special_vectors(32)
        for idx in (NeighborSet.grid(16).pairs.T, Seed(32).rng().integers(0, len(rows), (2, 500))):
            assert_same(lambda a, i: a.take(i, axis=0), take_pairs, rows, idx)

    def test_transposed_products(self):
        with np.errstate(all="ignore"):
            assert_same(lambda u, g, vt: u.transpose(0, 2, 1) @ g @ vt.transpose(0, 2, 1), swapped_product,
                        *(special_stacks(s) for s in (33, 34, 35)))

    def test_outer_products(self):
        """The translation cotangent's share of the rigid solve's dL/dR, from zero and from a rotation cotangent."""
        vs, gs = special_vectors(36), special_stacks(36)
        with np.errstate(all="ignore"):
            for k, (g, c) in enumerate(zip(vs, vs[::-1])):
                assert_same(lambda g, c: 0.0 - g[:, np.newaxis] * c, minus_outer, g, c)
                rot = gs[k % len(gs)]
                assert_same(lambda g, c: rot - g[:, np.newaxis] * c, lambda g, c: rot - np.outer(g, c), g, c)

    def test_finite_entries(self):
        hs = special_stacks(37)
        assert_same(lambda h: np.logical_and.reduce(np.isfinite(h), axis=(1, 2)), finite_entries, hs)
        assert_same(lambda h: np.logical_and.reduce(np.isfinite(h), axis=(1, 2)), finite_entries, hs[:0])

    def test_clip(self):
        x = np.concatenate([special_vectors(38).ravel(), [2.0, np.nextafter(2.0, 3.0), np.nextafter(0.0, -1.0)]])
        assert_same(lambda x: x.clip(0.0, 2.0), clipped_cosines, x)
        assert np.signbit(clipped_cosines(np.array([-0.0]))).all()  # the sign a min/max pair would lose
