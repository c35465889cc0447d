"""Evaluation metrics: median convention, frame scoring and its pose errors, record summaries."""

import inspect
import math

import numpy as np
import pytest

from grr import (
    FrameRecord,
    Pose,
    PoseRecovery,
    Rotation,
    Seed,
    median,
    random_rotation,
    summarize_records,
)
from grr.metrics import _score_frames
from grr.solver import DegenerateConfiguration
from reference import assert_same, bits, median as np_median, score_frames, trans_err, translation_errors


class TestMedian:
    def test_odd_count_picks_middle(self):
        assert median([9.0, 1.0, 2.0]) == 2.0

    def test_even_count_averages_middle_two(self):
        assert median([4.0, 1.0, 3.0, 2.0]) == 2.5

    def test_single_value(self):
        assert median([7.5]) == 7.5

    def test_empty_is_nan(self):
        assert math.isnan(median([]))

    @staticmethod
    def assert_matches_np_median(values):
        got, want = median(values), np_median(values)
        assert type(got) is float
        assert bits(got) == bits(want) or math.isnan(got) and math.isnan(want), values  # -0.0 against +0.0 too

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_np_median_bit_for_bit(self, seed):
        """Odd and even counts of signed zeros, infinities, huge values and a
        NaN now and then; np.median's NaN check imports numpy.ma, this does not."""
        rng = Seed(seed).rng()
        pool = np.array([-math.inf, -1.5, -0.0, 0.0, 5e-324, 0.1, 0.2, 1e308, 1.7e308, math.inf])
        for count in range(1, 10):
            for _ in range(40):
                vals = pool[rng.integers(0, len(pool), count)].tolist()
                if rng.random() < 0.1:
                    vals[rng.integers(count)] = math.nan
                self.assert_matches_np_median(vals)
            self.assert_matches_np_median(rng.standard_normal(count).tolist())
            self.assert_matches_np_median([-0.0] * count)
        for count in (1000, 1001):
            self.assert_matches_np_median((rng.standard_normal(count) * 1e-3).tolist())


class TestSummarizeRecords:
    """The one report type: `grr solve`'s summary and the simulator's trial reports."""

    def ok(self, i, rot, trans):
        return FrameRecord(i, rot, rot + 1.0, trans, "ok")

    def failed(self, i):
        return FrameRecord(i, math.nan, math.nan, math.nan, "degenerate:rays")

    def test_median_odd_count(self):
        recs = [FrameRecord(0, 1.0, 9.0, 2.0, "ok"), FrameRecord(1, 2.0, 1.0, 9.0, "ok"),
                FrameRecord(2, 9.0, 2.0, 1.0, "ok")]
        rep = summarize_records(recs)
        assert rep.median_rot_err_rays_deg == 2.0
        assert rep.median_rot_err_points_deg == 2.0
        assert rep.median_trans_err == 2.0
        assert rep.failure_count == 0

    def test_median_even_count_averages(self):
        rep = summarize_records([self.ok(i, v, v) for i, v in enumerate([4.0, 1.0, 3.0, 2.0])])
        assert rep.median_rot_err_rays_deg == 2.5
        assert rep.median_rot_err_points_deg == 3.5
        assert rep.median_trans_err == 2.5

    def test_medians_over_solved_frames_only(self):
        recs = [self.ok(0, 1.0, 0.1), self.failed(1), self.ok(2, 3.0, 0.3)]
        rep = summarize_records(recs)
        assert rep.records == tuple(recs)
        assert rep.median_rot_err_rays_deg == 2.0
        assert rep.median_rot_err_points_deg == 3.0
        assert rep.median_trans_err == pytest.approx(0.2, rel=1e-12)
        assert rep.frame_count == 3
        assert rep.failure_count == 1
        d = rep.to_json_dict(1.0)
        assert d["median_rotation_deg"] == 2.0
        assert d["median_translation"] == rep.median_trans_err

    def test_all_failed_gives_none(self):
        rep = summarize_records([self.failed(0), self.failed(1)])
        assert math.isnan(rep.median_rot_err_rays_deg)
        assert math.isnan(rep.median_rot_err_points_deg)
        assert math.isnan(rep.median_trans_err)
        assert rep.failure_count == 2
        d = rep.to_json_dict(2.0)
        assert d["median_rotation_deg"] is None
        assert d["median_translation"] is None
        assert (d["frame_count"], d["failure_count"], d["unit_scale"]) == (2, 2, 2.0)

    def test_no_ground_truth_gives_none(self):
        """The records `grr solve` makes without ground-truth poses: solved
        frames scored against None, one degenerate frame."""
        p = Pose(random_rotation(Seed(5)), np.array([0.5, -1.0, 2.0]))
        rec = PoseRecovery(p, p.r, None, None)
        recs = _score_frames([(0, rec, None), (1, DegenerateConfiguration("collapsed", branch="rays"), None),
                              (2, rec, None)])
        assert [r.status for r in recs] == ["ok", "degenerate:rays", "ok"]
        rep = summarize_records(recs)
        assert math.isnan(rep.median_rot_err_rays_deg)
        assert math.isnan(rep.median_rot_err_points_deg)
        assert math.isnan(rep.median_trans_err)
        assert rep.failure_count == 1
        d = rep.to_json_dict(100.0)
        assert d["median_rotation_deg"] is None
        assert d["median_translation"] is None
        assert (d["frame_count"], d["failure_count"], d["unit_scale"]) == (3, 1, 100.0)

    def test_summary_has_no_unit_scale(self):
        """unit_scale is an argument of the JSON summary, not part of the report."""
        assert list(inspect.signature(summarize_records).parameters) == ["records"]
        rep = summarize_records([self.ok(0, 1.0, 0.5)])
        assert not hasattr(rep, "unit_scale")
        assert rep.median_trans_err == 0.5

    def test_unit_scale_multiplies_translation_only(self):
        rep = summarize_records([self.ok(i, 1.0, 0.1234567890123) for i in range(3)])
        for unit_scale in (1e-3, 0.3, 1.0, 100.0, 1e300):
            d = rep.to_json_dict(unit_scale)
            assert d["median_rotation_deg"] == 1.0
            assert d["median_translation"] == 0.1234567890123 * unit_scale
            assert d["unit_scale"] == unit_scale
        assert rep.median_trans_err == 0.1234567890123

    def test_json_dict_shape(self):
        d = summarize_records([self.ok(0, 1.5, 0.125)] * 4).to_json_dict(2.0)
        assert d == {
            "median_rotation_deg": 1.5,
            "median_translation": 0.25,
            "frame_count": 4,
            "failure_count": 0,
            "unit_scale": 2.0,
        }


class TestScoreSolved:
    """The scorer `grr solve` and the simulator share: the rotation errors are
    SO(3) geodesics in degrees, the translation error the distance between
    camera centres."""

    @staticmethod
    def score(est: Pose, gt: Pose, rotation_from_points=None):
        rec = PoseRecovery(est, rotation_from_points or est.r, None, None)
        return _score_frames([(7, rec, gt)])[0]

    def test_identical_poses(self):
        p = Pose(random_rotation(Seed(1)), np.array([1.0, -2.0, 0.5]))
        rec = self.score(p, p)
        assert (rec.frame, rec.status) == (7, "ok")
        assert (rec.rot_err_rays_deg, rec.rot_err_points_deg, rec.trans_err) == (0.0, 0.0, 0.0)

    def test_known_rotation_angle_in_degrees(self):
        r = Rotation.from_axis_angle(np.array([0.0, 1.0, 0.0]), 0.3)
        gt = Pose(Rotation.identity(), np.zeros(3))
        rec = self.score(Pose(r, np.zeros(3)), gt, rotation_from_points=Rotation.identity())
        assert rec.rot_err_rays_deg == pytest.approx(math.degrees(0.3), rel=1e-12)
        assert rec.rot_err_points_deg == 0.0
        assert rec.trans_err == 0.0

    def test_translation_distance(self):
        r = random_rotation(Seed(2))
        rec = self.score(Pose(r, np.array([3.0, 4.0, 0.0])), Pose(r, np.zeros(3)))
        assert rec.rot_err_rays_deg == 0.0
        assert rec.trans_err == pytest.approx(5.0, rel=1e-15)

    def test_trans_err_bitwise_equals_sqrt_dot_and_linalg_norm(self):
        rng = Seed(90).rng()
        for k in range(200):
            gt = Pose(random_rotation(Seed(91).derive(k)), rng.normal(scale=10.0, size=3))
            est = Pose(random_rotation(Seed(92).derive(k)), gt.t + rng.normal(size=3))
            rec = PoseRecovery(est, est.r, None, None)
            got = _score_frames([(k, rec, gt)])[0].trans_err
            t = est.t - gt.t
            assert got == math.sqrt(t.dot(t))
            assert got == float(np.linalg.norm(t))

    @pytest.mark.parametrize("scale", [1e149, 1e151, 1e155, 1e300])
    def test_trans_err_past_the_square_range_is_finite(self, scale):
        r = random_rotation(Seed(3))
        gt = Pose(r, np.array([1.0, -2.0, 0.5]))
        rec = self.score(Pose(r, gt.t + scale * np.array([3.0, 4.0, 12.0])), gt)
        assert rec.trans_err == pytest.approx(13.0 * scale, rel=1e-15)

    @pytest.mark.parametrize("case", sorted(translation_errors(0)))
    def test_trans_err_keeps_each_side_of_the_switch(self, case):
        """Below 1e150 per axis trans_err is np.linalg.norm's bits, past it math.hypot's;
        the two differ on some of these vectors, so the switch cannot move unseen."""
        r, differ = random_rotation(Seed(3)), 0
        for est, gt in translation_errors(0)[case]:
            rec = self.score(Pose(r, est), Pose(r, gt))
            assert bits(rec.trans_err) == bits(trans_err(est, gt))
            with np.errstate(over="ignore"):  # past ~1e154 the squares overflow
                differ += math.hypot(*(est - gt)) != math.sqrt((est - gt).dot(est - gt))
        assert differ >= 50

    def test_unrepresentable_trans_err_is_inf(self):
        r = random_rotation(Seed(3))
        rec = self.score(Pose(r, np.array([1.7e308, 0.0, 0.0])),
                         Pose(r, np.array([-1.7e308, 0.0, 0.0])))
        assert rec.trans_err == math.inf


class TestScoreFramesParity:
    """The stacked scorer gives the per-frame plain form's records bit for bit, in order."""

    @staticmethod
    def recovery(est: Pose, rotation_from_points: Rotation):
        return PoseRecovery(est, rotation_from_points, None, None)

    @pytest.mark.parametrize("case", sorted(translation_errors(1)))
    def test_translation_error_table(self, case):
        """Both sides of the 1e150 switch, as one chunk and as chunks of one."""
        r = random_rotation(Seed(4))
        frames = [(k, self.recovery(Pose(r, est), r), Pose(r, gt))
                  for k, (est, gt) in enumerate(translation_errors(1)[case][:200])]
        assert_same(_score_frames, score_frames, frames)
        for frame in frames[:20]:
            assert_same(_score_frames, score_frames, [frame])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded_rotation_pairs(self, seed):
        """Random pairs, identical rotations (exactly 0.0), pairs within 1e-9 rad of pi
        and ones near 0, with a degenerate frame and frames without a pose among them."""
        rng = Seed(seed).rng()
        frames = []
        for k in range(96):
            gt = Pose(random_rotation(Seed(seed).derive(k)), rng.normal(size=3))
            kind = k % 4
            if kind == 0:
                rays, points = random_rotation(Seed(seed + 50).derive(k)), random_rotation(Seed(seed + 60).derive(k))
            elif kind == 1:
                rays = points = gt.r
            else:  # within 1e-9 rad of pi, or within 1e-6 rad of 0
                angle = math.pi - rng.uniform(0.0, 1e-9) if kind == 2 else rng.uniform(0.0, 1e-6)
                rays = gt.r @ Rotation.from_axis_angle(rng.normal(size=3), angle)
                points = gt.r @ Rotation.from_axis_angle(rng.normal(size=3), math.pi - rng.uniform(0.0, 1e-9))
            frames.append((k, self.recovery(Pose(rays, gt.t + rng.normal(size=3)), points), gt))
        frames[5] = (5, DegenerateConfiguration("collapsed", branch="points"), frames[5][2])
        frames[9] = (9, frames[9][1], None)
        assert_same(_score_frames, score_frames, frames)
        records = _score_frames(frames)
        assert [r.frame for r in records] == list(range(96))
        assert records[1].rot_err_rays_deg == records[1].rot_err_points_deg == 0.0
        assert records[5].status == "degenerate:points" and math.isnan(records[9].rot_err_rays_deg)
        assert max(r.rot_err_points_deg for r in records if r.frame % 4 >= 2) > 179.9999999
        for frame in frames[:8]:  # chunks of one
            assert_same(_score_frames, score_frames, [frame])

    def test_no_frames(self):
        assert _score_frames([]) == []
