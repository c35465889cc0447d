"""Perturbation study: noise model exactness, determinism, scoring, CSV I/O."""

import csv
import dataclasses
import math

import numpy as np
import pytest

import grr.simulator
from grr import (
    DegenerateConfiguration,
    FrameRecord,
    Intrinsics,
    NoiseSpec,
    PatchGrid,
    PointMap,
    Pose,
    PosePerturbSpec,
    RayBundle,
    Seed,
    TrialReport,
    ablation_sweep,
    canonical_points,
    canonical_rays,
    perturb_representations,
    random_rotation,
    recover_pose,
    run_trial,
    sample_poses,
    summarize_records,
    world_points,
    world_rays,
    write_report_csv,
    write_sweep_csv,
)
from grr.metrics import _score_degenerate, _score_solved


def spec(ray=0.0, pt=0.0, bias=(0.0, 0.0, 0.0), mode="iid_gaussian", seed=0):
    return NoiseSpec(ray, pt, np.array(bias, dtype=np.float64), mode, Seed(seed))


@pytest.fixture(scope="module")
def bundle(grid16):
    rays = canonical_rays(grid16)
    return rays, canonical_points(rays)


@pytest.fixture(scope="module")
def big_bundle():
    side = 400
    grid = PatchGrid(
        Intrinsics(fx=300.0, fy=300.0, cx=200.0, cy=200.0, width=side, height=side), n=50
    )
    rays = canonical_rays(grid)
    return rays, canonical_points(rays)


class TestPerturbRepresentations:
    def test_zero_noise_is_bit_identical(self, bundle):
        rays, pts = bundle
        out_rays, out_pts = perturb_representations(rays, pts, spec())
        assert np.array_equal(out_rays.dirs, rays.dirs)
        assert np.array_equal(out_pts.pts, pts.pts)

    def test_same_seed_reproduces_different_seed_differs(self, bundle):
        rays, pts = bundle
        a = perturb_representations(rays, pts, spec(ray=0.01, pt=0.05, seed=7))
        b = perturb_representations(rays, pts, spec(ray=0.01, pt=0.05, seed=7))
        c = perturb_representations(rays, pts, spec(ray=0.01, pt=0.05, seed=8))
        assert np.array_equal(a[0].dirs, b[0].dirs)
        assert np.array_equal(a[1].pts, b[1].pts)
        assert not np.array_equal(a[0].dirs, c[0].dirs)
        assert not np.array_equal(a[1].pts, c[1].pts)

    def test_pure_bias_shifts_points_exactly(self, bundle):
        rays, pts = bundle
        b = np.array([0.03, -0.5, 0.2])
        out_rays, out_pts = perturb_representations(rays, pts, spec(bias=b))
        assert np.array_equal(out_rays.dirs, rays.dirs)
        assert np.array_equal(out_pts.pts, pts.pts + b)

    def test_tilted_rays_stay_unit(self, bundle):
        rays, pts = bundle
        out_rays, _ = perturb_representations(rays, pts, spec(ray=0.3, seed=5))
        norms = np.linalg.norm(out_rays.dirs, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-14)

    def test_tilt_angles_follow_half_normal(self, big_bundle):
        # |N(0, s^2)| has mean s * sqrt(2/pi)
        rays, pts = big_bundle
        s = 0.01
        out_rays, _ = perturb_representations(rays, pts, spec(ray=s, seed=11))
        cosang = np.clip((out_rays.dirs * rays.dirs).sum(axis=1), -1.0, 1.0)
        angles = np.arccos(cosang)
        assert angles.mean() == pytest.approx(s * math.sqrt(2.0 / math.pi), rel=0.05)
        assert angles.max() < 6.0 * s

    def test_point_offsets_follow_gaussian(self, big_bundle):
        rays, pts = big_bundle
        s = 0.2
        _, out_pts = perturb_representations(rays, pts, spec(pt=s, seed=12))
        offsets = out_pts.pts - pts.pts
        m = offsets.shape[0]
        # sample means per axis sit within a few standard errors of zero
        assert np.all(np.abs(offsets.mean(axis=0)) < 4.0 * s / math.sqrt(m))
        assert offsets.std() == pytest.approx(s, rel=0.05)

    def test_per_patch_ramp_scales_both_channels(self, bundle):
        rays, pts = bundle
        m = len(rays)
        scale = 0.5 + np.arange(m) / (m - 1)
        iid = perturb_representations(rays, pts, spec(ray=0.01, pt=0.1, seed=3))
        ramped = perturb_representations(
            rays, pts, spec(ray=0.01, pt=0.1, mode="per_patch_scaled", seed=3)
        )
        # same seed means the same base draws, so the ramp is the exact ratio
        ang_iid = np.arccos(np.clip((iid[0].dirs * rays.dirs).sum(axis=1), -1, 1))
        ang_ramp = np.arccos(np.clip((ramped[0].dirs * rays.dirs).sum(axis=1), -1, 1))
        keep = ang_iid > 1e-4
        np.testing.assert_allclose(ang_ramp[keep] / ang_iid[keep], scale[keep], rtol=1e-6)
        off_iid = iid[1].pts - pts.pts
        off_ramp = ramped[1].pts - pts.pts
        np.testing.assert_allclose(off_ramp, off_iid * scale[:, np.newaxis], atol=1e-12)
        assert scale[0] == 0.5 and scale[-1] == 1.5

    @pytest.mark.parametrize("mode", ["iid_gaussian", "per_patch_scaled"])
    def test_seed_argument_replaces_spec_seed(self, bundle, mode):
        rays, pts = bundle
        noise = spec(ray=0.01, pt=0.02, bias=(0.1, 0.0, 0.0), mode=mode, seed=3)
        for s in (Seed(0), noise.seed.derive(5), Seed(2**64 - 1)):
            got = perturb_representations(rays, pts, noise, seed=s)
            want = perturb_representations(rays, pts, dataclasses.replace(noise, seed=s))
            assert got[0].dirs.tobytes() == want[0].dirs.tobytes()
            assert got[1].pts.tobytes() == want[1].pts.tobytes()

    def test_length_mismatch_rejected(self, bundle):
        rays, pts = bundle
        from grr import PointMap

        with pytest.raises(ValueError, match="lengths differ"):
            perturb_representations(rays, PointMap(pts.pts[:-1]), spec())


def reference_perturb(rays, pts, noise):
    """perturb_representations as first written: np.cross, np.linalg.norm,
    list-literal helper axes and an explicit all-ones scale."""
    m = len(rays)
    rng = noise.seed.rng()
    phi = rng.uniform(0.0, 2.0 * math.pi, m)
    theta = np.abs(rng.standard_normal(m)) * noise.ray_sigma
    offsets = rng.standard_normal((m, 3)) * noise.point_sigma
    if noise.mode == "per_patch_scaled" and m > 1:
        scale = 0.5 + np.arange(m) / (m - 1)
    else:
        scale = np.ones(m)
    theta = theta * scale
    offsets = offsets * scale[:, np.newaxis]
    d = rays.dirs
    helper = np.where(np.abs(d[:, 2:3]) < 0.9, [[0.0, 0.0, 1.0]], [[1.0, 0.0, 0.0]])
    u = np.cross(d, helper)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v = np.cross(d, u)
    axis = np.cos(phi)[:, np.newaxis] * u + np.sin(phi)[:, np.newaxis] * v
    ct = np.cos(theta)[:, np.newaxis]
    st = np.sin(theta)[:, np.newaxis]
    return d * ct + np.cross(axis, d) * st, pts.pts + offsets + noise.point_bias


def reference_kabsch(src, tgt, normalize):
    """Unit-weight Kabsch with the sign taken from two separate det calls."""
    if normalize:
        src = src / np.linalg.norm(src, axis=1, keepdims=True)
        tgt = tgt / np.linalg.norm(tgt, axis=1, keepdims=True)
    w = np.ones(src.shape[0])
    u, s, vt = np.linalg.svd((w[:, np.newaxis] * tgt).T @ src)
    sign = 1.0 if float(np.linalg.det(u) * np.linalg.det(vt)) > 0.0 else -1.0
    r = (u * np.array([1.0, 1.0, -1.0])) @ vt if sign < 0.0 else u @ vt
    return r, (float(s[0]), float(s[1]), float(s[2])), sign < 0.0, float(s[0] / s[2])


class TestReferenceParity:
    """The lean per-frame path gives the same bits as the reference forms."""

    @staticmethod
    def frame(grid, k, mirror=False):
        rays = canonical_rays(grid)
        pts = canonical_points(rays)
        pose = Pose(random_rotation(Seed(700 + k)), Seed(700 + k).rng(1).normal(size=3))
        wr = RayBundle(rays.dirs @ pose.r.m.T)
        cam = pts.pts * np.array([1.0, 1.0, -1.0]) if mirror else pts.pts
        wp = PointMap(cam @ pose.r.m.T + pose.t)
        return rays, pts, wr, wp

    @staticmethod
    def check_recovery(rays, pts, d_pred, p_pred):
        rec = recover_pose(rays, pts, d_pred, p_pred)
        r_rays, s_rays, refl_rays, cond_rays = reference_kabsch(rays.dirs, d_pred.dirs, True)
        w = np.ones(len(pts))
        c_src = (w @ pts.pts) / float(w.sum())
        c_tgt = (w @ p_pred.pts) / float(w.sum())
        r_pts, s_pts, refl_pts, cond_pts = reference_kabsch(
            pts.pts - c_src, p_pred.pts - c_tgt, False
        )
        assert rec.pose.r.m.tobytes() == r_rays.tobytes()
        assert rec.rotation_from_points.m.tobytes() == r_pts.tobytes()
        assert rec.pose.t.tobytes() == (c_tgt - r_pts @ c_src).tobytes()
        assert rec.ray_diagnostics.singular_values == s_rays
        assert rec.point_diagnostics.singular_values == s_pts
        assert rec.ray_diagnostics.reflection_corrected == refl_rays
        assert rec.point_diagnostics.reflection_corrected == refl_pts
        assert rec.ray_diagnostics.condition == cond_rays
        assert rec.point_diagnostics.condition == cond_pts
        return rec

    @pytest.mark.parametrize("mode", ["iid_gaussian", "per_patch_scaled"])
    @pytest.mark.parametrize("bias", [(0.0, 0.0, 0.0), (0.1, -0.05, 0.2)])
    def test_perturb_and_recover_bitwise(self, grid4, mode, bias):
        both_sides = set()
        for k in range(12):
            rays, pts, wr, wp = self.frame(grid4, k)
            both_sides |= set(np.abs(wr.dirs[:, 2]) < 0.9)
            noise = spec(ray=0.02, pt=0.01, bias=bias, mode=mode, seed=k)
            d_pred, p_pred = perturb_representations(wr, wp, noise)
            d_ref, p_ref = reference_perturb(wr, wp, noise)
            assert d_pred.dirs.tobytes() == d_ref.tobytes()
            assert p_pred.pts.tobytes() == p_ref.tobytes()
            self.check_recovery(rays, pts, d_pred, p_pred)
        assert both_sides == {True, False}  # both helper axes were used

    def test_tilt_on_both_sides_of_the_helper_switch(self):
        z = np.array([1.0, 0.95, 0.9, 0.8999999999999999, 0.5, 0.0])
        z = np.concatenate([z, -z])
        rows = np.stack([np.zeros_like(z), np.sqrt(1.0 - z * z), z], axis=1)
        rays = RayBundle(np.concatenate([rows, rows[:, [2, 0, 1]], rows[:, [1, 2, 0]]]))
        pts = PointMap(rays.dirs)
        for mode in ("iid_gaussian", "per_patch_scaled"):
            noise = spec(ray=0.03, pt=0.01, bias=(0.0, -0.0, 0.5), mode=mode, seed=9)
            d_pred, p_pred = perturb_representations(rays, pts, noise)
            d_ref, p_ref = reference_perturb(rays, pts, noise)
            assert d_pred.dirs.tobytes() == d_ref.tobytes()
            assert p_pred.pts.tobytes() == p_ref.tobytes()

    def test_reflection_corrected_point_set(self, grid4):
        for k in range(4):
            rays, pts, wr, wp = self.frame(grid4, k, mirror=True)
            d_pred, p_pred = perturb_representations(wr, wp, spec(ray=0.01, pt=0.01, seed=k))
            rec = self.check_recovery(rays, pts, d_pred, p_pred)
            assert rec.point_diagnostics.reflection_corrected


class TestNoiseSpecValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError, match="nonnegative"):
            spec(ray=-0.1)
        with pytest.raises(ValueError, match="noise mode"):
            spec(mode="uniform")
        with pytest.raises(ValueError, match="3-vector"):
            NoiseSpec(0.0, 0.0, np.zeros(2), "iid_gaussian", Seed(0))
        with pytest.raises(ValueError, match="3-vector"):
            NoiseSpec(0.0, 0.0, np.array([0.0, 0.0, math.nan]), "iid_gaussian", Seed(0))

    def test_bias_is_read_only(self):
        s = spec(bias=(1.0, 2.0, 3.0))
        with pytest.raises(ValueError):
            s.point_bias[0] = 9.0


class TestSamplePoses:
    def base_poses(self):
        return [
            Pose(random_rotation(Seed(60)), np.array([1.0, 2.0, 3.0])),
            Pose(random_rotation(Seed(61)), np.array([-4.0, 0.0, 0.5])),
        ]

    def test_zero_sigma_returns_bases_exactly(self):
        base = self.base_poses()
        out = sample_poses(base, PosePerturbSpec(0.0, 0.0, count=3, seed=Seed(1)))
        assert len(out) == 6
        for k, pose in enumerate(out):
            assert np.array_equal(pose.r.m, base[k // 3].r.m)
            assert np.array_equal(pose.t, base[k // 3].t)

    def test_base_major_order_and_jitter_scale(self):
        base = self.base_poses()
        out = sample_poses(base, PosePerturbSpec(1e-3, 0.0, count=4, seed=Seed(2)))
        assert len(out) == 8
        for k, pose in enumerate(out):
            ref = base[k // 4]
            assert np.array_equal(pose.r.m, ref.r.m)
            d = np.linalg.norm(pose.t - ref.t)
            assert 0.0 < d < 6e-3

    def test_rotation_jitter_angle_scale(self):
        base = self.base_poses()[:1]
        from grr import geodesic_distance

        out = sample_poses(base, PosePerturbSpec(0.0, 0.02, count=200, seed=Seed(3)))
        angles = [geodesic_distance(p.r, base[0].r) for p in out]
        assert np.mean(angles) == pytest.approx(0.02 * math.sqrt(2 / math.pi), rel=0.15)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="count"):
            PosePerturbSpec(0.0, 0.0, count=0, seed=Seed(0))
        with pytest.raises(ValueError, match="nonnegative"):
            PosePerturbSpec(-1.0, 0.0, count=1, seed=Seed(0))


class TestTrialReport:
    """Trial-report medians as the simulator reads them; the full summary
    contract is in test_metrics.TestSummarizeRecords."""

    def ok(self, i, r1, r2, t):
        return FrameRecord(i, r1, r2, t, "ok")

    def test_failures_excluded_from_medians(self):
        recs = [
            self.ok(0, 1.0, 1.0, 1.0),
            FrameRecord(1, math.nan, math.nan, math.nan, "degenerate:rays"),
            self.ok(2, 3.0, 3.0, 3.0),
        ]
        rep = summarize_records(recs)
        assert isinstance(rep, TrialReport)
        assert rep.median_rot_err_rays_deg == 2.0
        assert rep.failure_count == 1
        assert rep.frame_count == 3

    def test_all_failed_gives_nan_medians(self):
        rep = summarize_records(
            [FrameRecord(0, math.nan, math.nan, math.nan, "degenerate:points")]
        )
        assert math.isnan(rep.median_trans_err)
        assert rep.failure_count == 1


class TestRunTrial:
    def poses(self, count=6):
        rng = Seed(70).rng()
        return [
            Pose(random_rotation(Seed(71).derive(i)), rng.uniform(-2, 2, 3))
            for i in range(count)
        ]

    def test_zero_noise_recovers_every_pose(self, grid16):
        rep = run_trial(grid16, self.poses(), spec())
        assert rep.failure_count == 0
        for r in rep.records:
            assert r.status == "ok"
            assert r.rot_err_rays_deg < 1e-7
            assert r.rot_err_points_deg < 1e-7
            assert r.trans_err < 1e-9

    def test_pure_bias_moves_only_translation(self, grid16):
        b = np.array([0.1, -0.2, 0.05])
        rep = run_trial(grid16, self.poses(), spec(bias=b))
        for r in rep.records:
            assert r.rot_err_rays_deg < 1e-7
            assert r.rot_err_points_deg < 1e-7
            assert r.trans_err == pytest.approx(float(np.linalg.norm(b)), abs=1e-9)

    def test_run_twice_is_identical(self, grid16):
        poses = self.poses(5)
        noisy = spec(ray=0.02, pt=0.02, seed=13)
        assert run_trial(grid16, poses, noisy) == run_trial(grid16, poses, noisy)

    def test_degenerate_frames_recorded_not_raised(self, grid16, monkeypatch):
        calls = {"n": 0}
        real = grr.simulator.recover_pose

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise DegenerateConfiguration("collapsed", branch="rays")
            return real(*args, **kwargs)

        monkeypatch.setattr(grr.simulator, "recover_pose", flaky)
        rep = run_trial(grid16, self.poses(4), spec())
        statuses = [r.status for r in rep.records]
        assert statuses == ["ok", "degenerate:rays", "ok", "ok"]
        assert rep.failure_count == 1
        assert math.isnan(rep.records[1].trans_err)
        # medians come from the three frames that solved
        assert rep.median_trans_err < 1e-9

    def test_noise_monotonicity_in_ray_sigma(self, grid16):
        poses = self.poses(12)
        sigmas = [0.001, 0.01, 0.05]
        reports = ablation_sweep(
            grid16, poses, [spec(ray=s, seed=21) for s in sigmas]
        )
        meds = [r.median_rot_err_rays_deg for r in reports]
        assert meds[0] <= meds[1] <= meds[2]
        assert meds[2] > meds[0]


def spec_major_sweep(grid, poses, specs):
    """ablation_sweep as first written: one trial per spec, each rebuilding
    every pose's ground-truth bundles."""
    rays_cam = canonical_rays(grid)
    pts_cam = canonical_points(rays_cam)
    reports = []
    for noise in specs:
        records = []
        for idx, pose in enumerate(poses):
            d_gt, p_gt = world_rays(pose, rays_cam), world_points(pose, pts_cam)
            d_pred, p_pred = perturb_representations(d_gt, p_gt, noise, seed=noise.seed.derive(idx))
            try:
                rec = recover_pose(rays_cam, pts_cam, d_pred, p_pred)
            except DegenerateConfiguration as exc:
                records.append(_score_degenerate(idx, exc))
                continue
            records.append(_score_solved(idx, rec, pose))
        reports.append(summarize_records(records))
    return reports


def report_bits(rep):
    """A TrialReport as exact bytes: NaN-safe, and -0.0 differs from 0.0."""
    floats = [v for r in rep.records for v in (r.rot_err_rays_deg, r.rot_err_points_deg, r.trans_err)]
    medians = [rep.median_rot_err_rays_deg, rep.median_rot_err_points_deg, rep.median_trans_err]
    return (np.array(floats + medians).tobytes(), [(r.frame, r.status) for r in rep.records],
            rep.failure_count, rep.unit_scale)


class TestSweepParity:
    """The pose-major sweep gives the spec-major loop's reports bit for bit."""

    SPECS = [
        spec(ray=0.001, seed=40),
        spec(ray=0.02, pt=0.01, bias=(0.1, -0.05, 0.2), seed=41),
        spec(ray=0.05, pt=0.02, bias=(0.1, 0.0, 0.0), mode="per_patch_scaled", seed=42),
    ]

    @staticmethod
    def poses(count):
        base = [Pose(random_rotation(Seed(90).derive(i)), Seed(91).rng(i).uniform(-2, 2, 3))
                for i in range(3)]
        return sample_poses(base, PosePerturbSpec(0.05, 0.01, count, Seed(92)))

    @pytest.mark.parametrize("count", [1, 2])
    def test_matches_spec_major_loop(self, grid4, count):
        poses = self.poses(count)
        got = ablation_sweep(grid4, poses, self.SPECS)
        want = spec_major_sweep(grid4, poses, self.SPECS)
        assert len(got) == len(want) == len(self.SPECS)
        assert [report_bits(r) for r in got] == [report_bits(r) for r in want]
        for k, noise in enumerate(self.SPECS):
            assert report_bits(run_trial(grid4, poses, noise)) == report_bits(got[k])

    def test_empty_inputs(self, grid4):
        assert ablation_sweep(grid4, self.poses(1), []) == []
        assert [r.frame_count for r in ablation_sweep(grid4, [], self.SPECS)] == [0, 0, 0]

    def test_calls_per_pose_and_frame(self, grid4, monkeypatch):
        counts = {"recover_pose": 0, "perturb_representations": 0, "world_rays": 0, "world_points": 0}
        for name in counts:
            real = getattr(grr.simulator, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(grr.simulator, name, counted)
        poses = self.poses(2)
        ablation_sweep(grid4, poses, self.SPECS)
        frames = len(poses) * len(self.SPECS)
        assert counts == {"recover_pose": frames, "perturb_representations": frames,
                          "world_rays": len(poses), "world_points": len(poses)}

    def test_degenerate_frame_lands_in_its_own_report(self, grid4, monkeypatch):
        poses = self.poses(1)
        target = self.SPECS[2]
        real_perturb = grr.simulator.perturb_representations
        real_recover = grr.simulator.recover_pose
        current = {}

        def perturb(rays, pts, noise, seed=None):
            current.update(noise=noise, seed=seed)
            return real_perturb(rays, pts, noise, seed=seed)

        def recover(*args):
            if current["noise"] is target and current["seed"] == target.seed.derive(1):
                raise DegenerateConfiguration("collapsed", branch="points")
            return real_recover(*args)

        monkeypatch.setattr(grr.simulator, "perturb_representations", perturb)
        monkeypatch.setattr(grr.simulator, "recover_pose", recover)
        reports = ablation_sweep(grid4, poses, self.SPECS)
        assert [r.failure_count for r in reports] == [0, 0, 1]
        assert [r.status for r in reports[2].records] == ["ok", "degenerate:points", "ok"]
        assert math.isnan(reports[2].records[1].trans_err)
        monkeypatch.undo()
        clean = ablation_sweep(grid4, poses, self.SPECS)
        assert [report_bits(r) for r in reports[:2]] == [report_bits(r) for r in clean[:2]]
        for k in (0, 2):
            assert reports[2].records[k] == clean[2].records[k]


class TestCsvRoundTrip:
    def test_report_csv(self, grid16, tmp_path):
        poses = [Pose(random_rotation(Seed(80)), np.array([0.3, 0.1, -1.0]))] * 3
        rep = run_trial(grid16, poses, spec(ray=0.01, pt=0.01, seed=30))
        path = tmp_path / "report.csv"
        write_report_csv(rep.records, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["frame", "rot_err_rays_deg", "rot_err_points_deg",
                           "trans_err", "status"]
        assert len(rows) == 1 + rep.frame_count
        for row, rec in zip(rows[1:], rep.records):
            assert int(row[0]) == rec.frame
            assert float(row[1]) == rec.rot_err_rays_deg
            assert float(row[2]) == rec.rot_err_points_deg
            assert float(row[3]) == rec.trans_err
            assert row[4] == rec.status

    def test_report_csv_without_ground_truth(self, tmp_path):
        records = [FrameRecord(0, 1.5, 2.5, 0.1, "ok"),
                   FrameRecord(1, math.nan, math.nan, math.nan, "degenerate:rays")]
        path = tmp_path / "frames.csv"
        write_report_csv(records, path, have_gt=False)
        assert path.read_bytes() == (
            b"frame,rot_err_rays_deg,rot_err_points_deg,trans_err,status\r\n"
            b"0,,,,ok\r\n"
            b"1,,,,degenerate:rays\r\n"
        )

    def test_sweep_csv(self, grid16, tmp_path):
        poses = [Pose(random_rotation(Seed(81)), np.zeros(3))] * 2
        specs = [spec(ray=s, seed=31) for s in (0.0, 0.01)]
        reports = ablation_sweep(grid16, poses, specs)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(specs, reports, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 3
        assert rows[0][0] == "trial"
        for k, (row, rep) in enumerate(zip(rows[1:], reports)):
            assert int(row[0]) == k
            assert float(row[9]) == rep.median_rot_err_rays_deg
            assert float(row[11]) == rep.median_trans_err

    def test_sweep_csv_length_mismatch(self, tmp_path):
        with pytest.raises(ValueError, match="differ in length"):
            write_sweep_csv([spec()], [], tmp_path / "x.csv")
