"""Pinhole model, patch grids, canonical representations, CSV I/O.

The canonical-ray reference here is a deliberately naive per-pixel loop;
the library's vectorized reduction must reproduce it.
"""

import csv
import dataclasses
import io
import math
import types
import warnings

import numpy as np
import pytest

from grr import (
    Intrinsics,
    PatchGrid,
    PointMap,
    Pose,
    RayBundle,
    Seed,
    canonical_points,
    canonical_rays,
    random_rotation,
    read_xyz_csv,
    world_points,
    world_rays,
    write_xyz_csv,
)
from grr.camera import _world_frames
from reference import (assert_same, bits, outcome, ray_bundle, read_xyz, row_cases, rows, switch_rows, tangent_basis,
                       world_frames, xyz_files)

XYZ_FILES = xyz_files()


def loop_canonical_rays(grid: PatchGrid) -> np.ndarray:
    """Reference: per-pixel rays, python-loop patch means, renormalized."""
    intr = grid.intrinsics
    per_pixel = np.empty((intr.height, intr.width, 3))
    for v in range(intr.height):
        for u in range(intr.width):
            d = np.array(
                [
                    (u + 0.5 - intr.cx) / intr.fx,
                    (v + 0.5 - intr.cy) / intr.fy,
                    1.0,
                ]
            )
            per_pixel[v, u] = d / np.linalg.norm(d)
    rb = grid.row_bounds()
    cb = grid.col_bounds()
    out = np.empty((grid.patch_count, 3))
    for r in range(grid.n):
        for c in range(grid.n):
            block = per_pixel[rb[r] : rb[r + 1], cb[c] : cb[c + 1]]
            mean = block.reshape(-1, 3).mean(axis=0)
            out[r * grid.n + c] = mean / np.linalg.norm(mean)
    return out


class TestIntrinsics:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(fx=0.0, fy=1.0, cx=0.5, cy=0.5, width=1, height=1),
            dict(fx=1.0, fy=-2.0, cx=0.5, cy=0.5, width=1, height=1),
            dict(fx=1.0, fy=1.0, cx=5.0, cy=0.5, width=1, height=1),
            dict(fx=1.0, fy=1.0, cx=0.5, cy=-0.1, width=1, height=1),
            dict(fx=1.0, fy=1.0, cx=0.5, cy=0.5, width=0, height=1),
        ],
        ids=["fx0", "fyneg", "cx-out", "cy-out", "w0"],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            Intrinsics(**kwargs)

    GOOD = dict(fx=2.0, fy=2.0, cx=2.0, cy=2.0, width=4, height=4)

    @pytest.mark.parametrize("field, value, message", [
        ("fx", math.inf, "fx must be finite, got inf"),
        ("fx", math.nan, "fx must be finite, got nan"),
        ("fy", -math.inf, "fy must be finite, got -inf"),
        ("width", True, "width must be an integer, got True"),
        ("width", 4.0, "width must be an integer, got 4.0"),
        ("height", "4", "height must be an integer, got '4'"),
        ("n", 2.0, "n must be an integer, got 2.0"),
        ("n", True, "n must be an integer, got True"),
        ("n", 0, "grid side n must be >= 1"),
    ], ids=["fx-inf", "fx-nan", "fy-neg-inf", "width-bool", "width-float", "height-str", "n-float", "n-bool",
            "n-zero"])
    def test_construction_names_the_bad_field(self, field, value, message):
        """Non-finite focal lengths and non-integer (or bool) sizes fail when built."""
        intr = {**self.GOOD, field: value} if field != "n" else self.GOOD
        with pytest.raises(ValueError) as exc:
            PatchGrid(Intrinsics(**intr), n=value if field == "n" else 2)
        assert str(exc.value) == message

    @pytest.mark.parametrize("field, value", [
        ("fx", "1"), ("fy", None), ("cx", "1"), ("cy", [2.0]), ("fx", True), ("cy", np.bool_(True)),
    ], ids=["fx-str", "fy-none", "cx-str", "cy-list", "fx-bool", "cy-numpy-bool"])
    def test_focal_length_and_principal_point_must_be_real_numbers(self, field, value):
        """A non-number or bool focal length or principal point fails naming the field,
        not with whatever TypeError a comparison raises."""
        with pytest.raises(ValueError) as exc:
            Intrinsics(**{**self.GOOD, field: value})
        assert str(exc.value) == f"{field} must be a real number, got {value!r}"

    def test_numpy_floats_accepted(self):
        intr = Intrinsics(**{**self.GOOD, "fx": np.float64(2.0), "fy": np.float32(2.0), "cx": np.float64(2.0),
                             "cy": np.int64(2)})
        assert len(canonical_rays(PatchGrid(intr, n=2))) == 4

    def test_numpy_integers_accepted(self):
        grid = PatchGrid(Intrinsics(**{**self.GOOD, "width": np.int64(4), "height": np.int32(4)}), n=np.int64(2))
        assert grid.patch_count == 4 and len(canonical_rays(grid)) == 4


class TestPatchGrid:
    def test_bounds_divisible(self, grid4):
        assert np.array_equal(grid4.col_bounds(), [0, 16, 32, 48, 64])
        assert np.array_equal(grid4.row_bounds(), [0, 16, 32, 48, 64])
        assert grid4.patch_count == 16

    def test_bounds_non_divisible(self):
        intr = Intrinsics(fx=2.0, fy=2.0, cx=2.5, cy=2.5, width=5, height=5)
        grid = PatchGrid(intr, n=2)
        assert np.array_equal(grid.col_bounds(), [0, 2, 5])

    def test_rejects_more_patches_than_pixels(self):
        intr = Intrinsics(fx=2.0, fy=2.0, cx=2.0, cy=2.0, width=4, height=4)
        with pytest.raises(ValueError, match="exceeds"):
            PatchGrid(intr, n=5)

    def test_every_accepted_grid_has_no_empty_patch(self):
        """canonical_rays relies on it: with n <= min(W, H), every bounds step
        floor((k+1)W/n) - floor(kW/n) is at least floor(W/n) >= 1."""
        for w in range(1, 65):
            for h in range(1, 65):
                intr = Intrinsics(fx=1.0, fy=1.0, cx=w / 2, cy=h / 2, width=w, height=h)
                for n in range(1, min(w, h) + 1):
                    grid = PatchGrid(intr, n=n)
                    for bounds, side in ((grid.col_bounds().tolist(), w), (grid.row_bounds().tolist(), h)):
                        assert (bounds[0], bounds[-1]) == (0, side)
                        assert min(b - a for a, b in zip(bounds, bounds[1:])) >= 1, (w, h, n)


class TestCanonicalRays:
    def test_single_pixel_image_looks_straight_ahead(self):
        intr = Intrinsics(fx=1.0, fy=1.0, cx=0.5, cy=0.5, width=1, height=1)
        rays = canonical_rays(PatchGrid(intr, n=1))
        assert np.array_equal(rays.dirs, [[0.0, 0.0, 1.0]])

    def test_matches_pixel_loop_small(self):
        intr = Intrinsics(fx=2.0, fy=2.0, cx=2.0, cy=2.0, width=4, height=4)
        grid = PatchGrid(intr, n=2)
        np.testing.assert_allclose(
            canonical_rays(grid).dirs, loop_canonical_rays(grid), atol=1e-15
        )

    def test_matches_pixel_loop_non_divisible(self):
        intr = Intrinsics(fx=3.0, fy=4.0, cx=2.1, cy=2.9, width=5, height=7)
        grid = PatchGrid(intr, n=3)
        np.testing.assert_allclose(
            canonical_rays(grid).dirs, loop_canonical_rays(grid), atol=1e-14
        )

    def test_matches_pixel_loop_generic(self):
        intr = Intrinsics(fx=40.0, fy=37.5, cx=16.3, cy=15.7, width=32, height=32)
        grid = PatchGrid(intr, n=8)
        np.testing.assert_allclose(
            canonical_rays(grid).dirs, loop_canonical_rays(grid), atol=1e-14
        )

    def test_rows_are_unit(self, grid16):
        dirs = canonical_rays(grid16).dirs
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)

    def test_mirror_symmetry(self):
        # Centered principal point on a divisible grid: flipping the patch
        # column negates x and preserves y, z.
        intr = Intrinsics(fx=100.0, fy=90.0, cx=32.0, cy=32.0, width=64, height=64)
        grid = PatchGrid(intr, n=4)
        d = canonical_rays(grid).dirs.reshape(4, 4, 3)
        flipped = d[:, ::-1, :] * np.array([-1.0, 1.0, 1.0])
        np.testing.assert_allclose(d, flipped, atol=1e-12)

    def test_fov_angles_shrink_toward_center(self, grid16):
        # Corner patches look further off-axis than the central ones.
        dirs = canonical_rays(grid16).dirs.reshape(16, 16, 3)
        corner = math.acos(dirs[0, 0, 2])
        center = math.acos(dirs[8, 8, 2])
        assert corner > center


class TestCanonicalPoints:
    def test_points_sit_on_unit_sphere_along_rays(self, grid16):
        rays = canonical_rays(grid16)
        pts = canonical_points(rays)
        assert np.array_equal(pts.pts, rays.dirs)

    def test_copy_does_not_alias(self, grid4):
        rays = canonical_rays(grid4)
        pts = canonical_points(rays)
        assert pts.pts is not rays.dirs


class TestWorldTransforms:
    def test_world_rays_rotate_only(self, grid4):
        pose = Pose(random_rotation(Seed(2)), np.array([5.0, -3.0, 1.0]))
        rays = canonical_rays(grid4)
        wr = world_rays(pose, rays)
        for i in range(len(rays)):
            np.testing.assert_allclose(wr.dirs[i], pose.r.m @ rays.dirs[i], atol=1e-15)

    def test_world_points_full_transform(self, grid4):
        pose = Pose(random_rotation(Seed(3)), np.array([0.5, 0.25, -2.0]))
        pts = canonical_points(canonical_rays(grid4))
        wp = world_points(pose, pts)
        for i in range(len(pts)):
            np.testing.assert_allclose(
                wp.pts[i], pose.r.m @ pts.pts[i] + pose.t, atol=1e-15
            )

    def test_world_points_stay_unit_distance_from_center(self, grid4):
        pose = Pose(random_rotation(Seed(4)), np.array([1.0, 2.0, 3.0]))
        wp = world_points(pose, canonical_points(canonical_rays(grid4)))
        dist = np.linalg.norm(wp.pts - pose.t, axis=1)
        np.testing.assert_allclose(dist, 1.0, atol=1e-9)


class TestWorldFrames:
    """camera._world_frames: the per-pose world_rays/world_points pair and the
    bundle's tangents, built for a stack of poses at once."""

    @staticmethod
    def arrays(poses, rays, pts):
        """_world_frames' bundles as the reference's (dirs, norms, unit, tangents, pts, centred) per pose."""
        return [(r.dirs, r.norms, r.unit, r.tangents, p.pts, p.centred) for r, p in _world_frames(poses, rays, pts)]

    @staticmethod
    def poses(count, seed=20):
        return [Pose(random_rotation(Seed(seed).derive(k)), Seed(seed).rng(k).uniform(-9, 9, 3))
                for k in range(count)]

    @pytest.mark.parametrize("count", [1, 2, 16, 17])
    def test_bitwise_equal_to_per_pose_builds(self, grid16, count):
        rays = canonical_rays(grid16)
        for pts in (canonical_points(rays), PointMap(rays.dirs * 3.5 + 0.25)):
            poses = self.poses(count)
            frames = assert_same(self.arrays, world_frames, poses, rays, pts)
            assert len(frames) == count
            for ray_bundle, point_map in _world_frames(poses, rays, pts):
                assert isinstance(ray_bundle, RayBundle) and isinstance(point_map, PointMap)
                assert not ray_bundle.norms.flags.writeable
                for arr in (ray_bundle.dirs, *ray_bundle.tangents, point_map.pts):
                    with pytest.raises(ValueError):  # views of read-only stacks
                        arr.flags.writeable = True
                assert ray_bundle.dirs.shape == (len(rays), 3) and len(point_map) == len(pts)

    def test_failing_stack_raises_the_per_pose_error(self, grid4):
        """A stack that fails validation raises what the first failing pose's
        world_rays, then world_points, raises."""
        rays = canonical_rays(grid4)
        pts = canonical_points(rays)
        good = self.poses(4)

        def fake(m, t):  # only .r.m and .t are read; Pose would reject these
            return types.SimpleNamespace(r=types.SimpleNamespace(m=m), t=np.asarray(t, float))

        scaled = fake(2.0 * np.eye(3), np.zeros(3))
        nan_t = fake(np.eye(3), [0.0, math.nan, 0.0])
        nan_r = fake(np.full((3, 3), math.nan), np.zeros(3))
        for poses, message in [
            ([*good[:2], scaled, *good[2:]], "ray norms deviate from 1 by up to 1.000e+00"),
            ([good[0], nan_t, scaled], "pts contains non-finite entries"),
            ([nan_r, nan_t], "dirs contains non-finite entries"),
        ]:
            with pytest.raises(ValueError) as per_pose:
                for pose in poses:
                    world_rays(pose, rays), world_points(pose, pts)
            assert str(per_pose.value) == message
            assert assert_same(self.arrays, world_frames, poses, rays, pts) == (ValueError, message, None)


class TestRayBundle:
    def test_rejects_non_unit_rows(self):
        with pytest.raises(ValueError, match="norms"):
            RayBundle(np.array([[1.0, 1.0, 0.0]]))

    def test_from_array_normalize(self):
        rb = RayBundle.from_array(np.array([[3.0, 0.0, 4.0]]))
        np.testing.assert_allclose(rb.dirs, [[0.6, 0.0, 0.8]], atol=1e-15)

    def test_from_array_rejects_zero_row(self):
        with pytest.raises(ValueError, match="near-zero"):
            RayBundle.from_array(np.zeros((2, 3)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            RayBundle(np.array([[np.nan, 0.0, 1.0]]))

    @pytest.mark.parametrize("arr", [np.zeros((3, 2)), np.ones(3)], ids=["3x2", "vector"])
    def test_rejects_rows_that_are_not_3_wide(self, arr):
        with pytest.raises(ValueError) as info:
            RayBundle(arr)
        assert str(info.value) == f"dirs must have shape (m, 3), got {arr.shape}"

    @staticmethod
    def built(arr):
        rb = RayBundle.from_array(arr)
        return rb.dirs, rb.norms, rb.unit

    @pytest.mark.parametrize("case", sorted(row_cases()))
    def test_from_array_matches_normalizing_then_constructing(self, case):
        assert_same(self.built, ray_bundle, row_cases()[case])

    @pytest.mark.parametrize("scale", [1.0, 1e-6, 1e100, 1e-160, 1e155, 1e300])
    def test_from_array_seeded_rows(self, scale):
        """Rows of norm 1e-160 are near zero, and past 1e154 their norms overflow."""
        got = assert_same(self.built, ray_bundle, rows(5)[:200] * scale)
        assert (got[0] is ValueError) == (scale in (1e-160, 1e155, 1e300))

    @pytest.mark.parametrize("arr", [np.zeros((0, 3)), np.zeros((4, 3)), np.zeros((3, 2)), np.ones(3),
                                     np.array([[1.0, np.inf, 0.0]]), np.array([[np.nan, 1.0, 0.0]])],
                             ids=["empty", "zero-rows", "3x2", "vector", "inf", "nan"])
    def test_from_array_edge_inputs(self, arr):
        assert_same(self.built, ray_bundle, arr)

    def test_from_array_bundle_is_read_only_and_owns_its_rows(self):
        arr = rows(6)[:50]
        rb = RayBundle.from_array(arr)
        assert not (rb.dirs.flags.writeable or rb.norms.flags.writeable) and arr.flags.writeable
        assert not np.shares_memory(rb.dirs, arr)

    def test_frozen(self, grid4):
        rays = canonical_rays(grid4)
        with pytest.raises(ValueError):
            rays.dirs[0, 0] = 7.0


class TestPointMap:
    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            PointMap(np.zeros((3, 2)))

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            PointMap(np.array([[np.inf, 0.0, 0.0]]))


class TestCachedFactors:
    """RayBundle.norms/unit and PointMap.centroid/centred: computed once per
    instance, read-only, and invisible to the dataclass machinery."""

    @staticmethod
    def values(grid4):
        rays = canonical_rays(grid4)
        pts = PointMap(Seed(3).rng().normal(size=(len(rays), 3)))
        return rays, pts

    def test_values(self, grid4):
        rays, pts = self.values(grid4)
        norms = np.linalg.norm(rays.dirs, axis=1, keepdims=True)
        assert np.array_equal(rays.norms, norms)
        assert np.array_equal(rays.unit, rays.dirs / norms)
        centroid = (np.ones(len(pts)) @ pts.pts) / float(len(pts))
        assert np.array_equal(pts.centroid, centroid)
        assert np.array_equal(pts.centred, pts.pts - centroid)

    def test_computed_once_per_instance(self, grid4):
        rays, pts = self.values(grid4)
        assert rays.unit is rays.unit
        assert pts.centroid is pts.centroid and pts.centred is pts.centred
        twin = RayBundle(rays.dirs)
        assert twin.unit is not rays.unit
        assert np.array_equal(twin.unit, rays.unit)
        other = world_rays(Pose(random_rotation(Seed(4)), np.zeros(3)), rays)
        assert not np.array_equal(other.unit, rays.unit)

    @pytest.mark.parametrize("which", ["rays.norms", "rays.unit", "pts.centroid", "pts.centred"])
    def test_read_only(self, grid4, which):
        rays, pts = self.values(grid4)
        owner, attr = {"rays": rays, "pts": pts}[which.split(".")[0]], which.split(".")[1]
        arr = getattr(owner, attr)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 7.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(owner, attr, arr.copy())
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(owner, attr)
        assert getattr(owner, attr) is arr

    def test_dataclass_surface_unchanged(self, grid4):
        rays, pts = self.values(grid4)
        assert [f.name for f in dataclasses.fields(RayBundle)] == ["dirs"]
        assert [f.name for f in dataclasses.fields(PointMap)] == ["pts"]
        before = repr(rays), repr(pts)
        _ = rays.unit, rays.tangents, pts.centred  # fill the caches
        assert (repr(rays), repr(pts)) == before
        assert before[0] == f"RayBundle(dirs={rays.dirs!r})"
        assert before[1] == f"PointMap(pts={pts.pts!r})"
        assert rays == rays and pts == pts
        # Field-wise equality as before: distinct multi-row arrays have no truth value.
        with pytest.raises(ValueError, match="ambiguous"):
            _ = rays == RayBundle(rays.dirs)
        moved = dataclasses.replace(pts, pts=pts.pts + 1.0)
        assert np.array_equal(moved.centred, PointMap(pts.pts + 1.0).centred)


class TestTangents:
    """RayBundle.tangents: the (u, v) pair the ray noise tilts in, cached like unit."""

    @staticmethod
    def bundles(grid4):
        rays = canonical_rays(grid4)
        turned = [world_rays(Pose(random_rotation(Seed(60 + k)), np.zeros(3)), rays)
                  for k in range(8)]
        return [RayBundle(switch_rows()), rays, *turned]

    def test_bitwise_equal_to_inline_basis(self, grid4):
        sides = set()
        for rays in self.bundles(grid4):
            sides |= set(np.abs(rays.dirs[:, 2]) < 0.9)
            assert bits(rays.tangents) == bits(tangent_basis(rays.dirs))
        assert sides == {True, False}

    def test_orthonormal_to_dirs(self, grid4):
        for rays in self.bundles(grid4):
            d = rays.dirs
            u, v = rays.tangents
            for a, b in ((u, d), (v, d), (u, v)):
                assert np.abs((a * b).sum(axis=1)).max() <= 1e-15
            for a in (u, v):
                assert np.abs(np.linalg.norm(a, axis=1) - 1.0).max() <= 1e-15

    def test_computed_once_per_instance(self, grid4):
        rays = canonical_rays(grid4)
        first = rays.tangents
        assert rays.tangents is first
        assert RayBundle(rays.dirs).tangents is not first

    def test_read_only(self, grid4):
        rays = canonical_rays(grid4)
        pair = rays.tangents
        assert isinstance(pair, tuple) and len(pair) == 2
        for arr in pair:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 7.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            rays.tangents = (pair[0].copy(), pair[1].copy())
        with pytest.raises(dataclasses.FrozenInstanceError):
            del rays.tangents
        assert rays.tangents is pair


def csv_writer_bytes(arr: np.ndarray) -> bytes:
    """Reference: the xyz CSV bytes as csv.writer lays them out, value by value."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["i", "x", "y", "z"])
    for i, (x, y, z) in enumerate(arr):
        writer.writerow([i, format(x, ".17g"), format(y, ".17g"), format(z, ".17g")])
    return buf.getvalue().encode("ascii")


class TestXyzCsv:
    def test_golden_bytes(self, tmp_path):
        arr = np.array([[-0.0, 5e-324, 1e308], [1e-8, 1.0 / 3.0, 2.0]])
        path = tmp_path / "golden.csv"
        write_xyz_csv(path, arr)
        assert path.read_bytes() == (
            b"i,x,y,z\r\n"
            b"0,-0,4.9406564584124654e-324,1e+308\r\n"
            b"1,1e-08,0.33333333333333331,2\r\n"
        )
        assert np.array_equal(read_xyz_csv(path).view(np.uint64), arr.view(np.uint64))

    @pytest.mark.parametrize("m", [0, 1, 256])
    def test_bytes_match_csv_writer(self, tmp_path, rng, m):
        arr = rng.normal(size=(m, 3)) * 10.0 ** rng.integers(-300, 300, size=(m, 3))
        path = tmp_path / "rows.csv"
        write_xyz_csv(path, arr)
        assert path.read_bytes() == csv_writer_bytes(arr)

    def test_row_count_follows_each_write(self, tmp_path, rng):
        # Interleaved sizes: a template built for one m must not serve another.
        for k, m in enumerate([3, 2, 3, 0, 5, 2]):
            arr = rng.normal(size=(m, 3))
            path = tmp_path / f"w{k}.csv"
            write_xyz_csv(path, arr)
            assert path.read_bytes() == csv_writer_bytes(arr)
            assert read_xyz_csv(path).shape == (m, 3)

    def test_header_only_reads_empty_without_warning(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_xyz_csv(path, np.zeros((0, 3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = read_xyz_csv(path)
        assert out.shape == (0, 3) and out.dtype == np.float64

    @pytest.mark.parametrize(
        "body, match",
        [
            ("0,0,0,1\n1.0,0,0,1\n", "fields"),
            ("0,0,0,1\n1.5,0,0,1\n", "fields"),
            ("0,0,0,1\n\n1,0,0,1\n", "blank line"),
            ("\n0,0,0,1\n", "blank line"),
            ("0,0,0,1\n\n", "blank line"),
            ("0,0,0,1\n1,0,0\n", "fields"),
            ("0,0,0,1\n1,0,0,1,7\n", "fields"),
            ("0,nan,0,1\n", "non-finite"),
            ("0,0,inf,1\n", "non-finite"),
            ("0,0,0,1 # comment\n", "fields"),
            ("0,0,0,1\n# comment\n", "fields"),
        ],
        ids=["index-1.0", "index-1.5", "blank-inside", "blank-first", "blank-last",
             "3-fields", "5-fields", "nan", "inf", "trailing-comment", "comment-line"],
    )
    def test_rejects_malformed_body(self, tmp_path, body, match):
        path = tmp_path / "bad.csv"
        path.write_text("i,x,y,z\n" + body)
        with pytest.raises(ValueError, match=match):
            read_xyz_csv(path)

    def test_seeded_roundtrips_are_bitwise(self, tmp_path):
        rng = np.random.default_rng(7)
        path = tmp_path / "rt.csv"
        for m in [1, 2, 3, 17, 256, 1000]:
            arr = rng.normal(size=(m, 3)) * 10.0 ** rng.integers(-300, 300, size=(m, 3))
            write_xyz_csv(path, arr)
            out = read_xyz_csv(path)
            assert out.dtype == np.float64 and out.flags.c_contiguous
            assert out.shape == (m, 3)
            assert np.array_equal(out.view(np.uint64), arr.view(np.uint64))

    def test_roundtrip_bitwise(self, tmp_path, rng):
        arr = rng.normal(size=(10, 3)) * np.array([1e-8, 1.0, 1e8])
        path = tmp_path / "pts.csv"
        write_xyz_csv(path, arr)
        assert np.array_equal(read_xyz_csv(path), arr)

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,z\n0.0,0.0,1.0\n")
        with pytest.raises(ValueError, match="header"):
            read_xyz_csv(path)

    def test_rejects_out_of_order_index(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"i,x,y,z\r\n0,0,0,1\r\n1,0,0,1\r\n3,0,0,1\r\n2,0,0,1\r\n")
        with pytest.raises(ValueError) as exc:
            read_xyz_csv(path)
        assert str(exc.value) == f"{path}: row index 3 out of order at line 4"  # the header is line 1

    def test_non_ascii_byte_is_placed_from_the_start_of_the_file(self, tmp_path):
        # Past the first 8 KB chunk too: the file is decoded in one piece. The error names the file.
        text = "i,x,y,z\n" + "".join(f"{i},0.5,0.25,1\n" for i in range(1000))
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode("ascii") + b"1000,\xe9,0,1\n")
        with pytest.raises(ValueError) as exc:
            read_xyz_csv(path)
        assert str(exc.value) == (f"{path}: 'ascii' codec can't decode byte 0xe9 in position {len(text) + 5}: "
                                  "ordinal not in range(128)")

    def test_rejects_wrong_field_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("i,x,y,z\n0,0.0,0.0\n")
        with pytest.raises(ValueError, match="fields"):
            read_xyz_csv(path)

    def test_row_ends_lf_crlf_cr_and_mixed_read_alike(self, tmp_path):
        outs = []
        for name in ["lf", "crlf", "cr", "mixed", "lf-unterminated", "cr-unterminated", "mixed-unterminated"]:
            path = tmp_path / f"{name}.csv"
            path.write_bytes(XYZ_FILES[name])
            outs.append(bits(read_xyz_csv(path)))
        assert len(set(outs)) == 1 and outs[0][0] == (3, 3)

    def test_write_rejects_bad_shape(self, tmp_path):
        with pytest.raises(ValueError):
            write_xyz_csv(tmp_path / "x.csv", np.zeros((2, 4)))


class TestReaderParity:
    """read_xyz_csv gives the plain reader's array bits, or its exception type and
    message, on every file of the corpus, valid or not."""

    @pytest.mark.parametrize("name", sorted(XYZ_FILES))
    def test_corpus(self, tmp_path, name):
        path = tmp_path / "rows.csv"
        path.write_bytes(XYZ_FILES[name])
        assert_same(read_xyz_csv, read_xyz, path)

    def test_corpus_reads_and_fails(self, tmp_path):
        """The plain reader reads some files and rejects others both ways, so parity is not
        met by two readers that reject everything alike."""
        kinds, path = set(), tmp_path / "rows.csv"
        for data in XYZ_FILES.values():
            path.write_bytes(data)
            got = outcome(read_xyz, path)
            kinds.add(got[0].__name__ if isinstance(got[0], type) else "read")
        assert kinds == {"read", "ValueError"}
