"""Pinhole model, patch grids, canonical representations, CSV I/O.

The canonical-ray reference here is a deliberately naive per-pixel loop;
the library's vectorized reduction must reproduce it.
"""

import csv
import dataclasses
import io
import math
import warnings

import numpy as np
import pytest

from grr import (
    Intrinsics,
    PatchGrid,
    PointMap,
    Pose,
    RayBundle,
    Rotation,
    Seed,
    canonical_points,
    canonical_rays,
    random_rotation,
    read_xyz_csv,
    world_points,
    world_rays,
    write_xyz_csv,
)
from grr.geometry import _cross_rows, _row_norms


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

    def test_center_method_hits_patch_center_pixel_ray(self):
        intr = Intrinsics(fx=10.0, fy=10.0, cx=8.0, cy=8.0, width=16, height=16)
        grid = PatchGrid(intr, n=2)
        dirs = canonical_rays(grid, method="center").dirs
        # Patch (0, 0) spans pixels [0, 8); its center is at u = v = 4.
        d = np.array([(4.0 - 8.0) / 10.0, (4.0 - 8.0) / 10.0, 1.0])
        np.testing.assert_allclose(dirs[0], d / np.linalg.norm(d), atol=1e-15)

    def test_unknown_method_rejected(self, grid4):
        with pytest.raises(ValueError, match="method"):
            canonical_rays(grid4, method="median")

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


class TestRayBundle:
    def test_rejects_non_unit_rows(self):
        with pytest.raises(ValueError, match="norms"):
            RayBundle(np.array([[1.0, 1.0, 0.0]]))

    def test_from_array_normalize(self):
        rb = RayBundle.from_array(np.array([[3.0, 0.0, 4.0]]), normalize=True)
        np.testing.assert_allclose(rb.dirs, [[0.6, 0.0, 0.8]], atol=1e-15)

    def test_from_array_rejects_zero_row(self):
        with pytest.raises(ValueError, match="near-zero"):
            RayBundle.from_array(np.zeros((2, 3)), normalize=True)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            RayBundle(np.array([[np.nan, 0.0, 1.0]]))

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


def inline_tangent_basis(d):
    """The per-ray tangent basis as the ray-tilt noise first built it inline."""
    u = _cross_rows(d, np.where(np.abs(d[:, 2:3]) < 0.9, np.array([[0.0, 0.0, 1.0]]),
                                np.array([[1.0, 0.0, 0.0]])))
    u /= _row_norms(u, keepdims=True)
    v = _cross_rows(d, u)
    return u, v


class TestTangents:
    """RayBundle.tangents: the (u, v) pair the ray noise tilts in, cached like unit."""

    @staticmethod
    def switch_rows():
        """Unit rows with |z| on both sides of the 0.9 helper switch, and on it."""
        z = np.array([1.0, 0.95, 0.9, 0.8999999999999999, 0.5, 0.0])
        z = np.concatenate([z, -z])
        rows = np.stack([np.zeros_like(z), np.sqrt(1.0 - z * z), z], axis=1)
        return RayBundle(np.concatenate([rows, rows[:, [2, 0, 1]], rows[:, [1, 2, 0]]]))

    def bundles(self, grid4):
        rays = canonical_rays(grid4)
        turned = [world_rays(Pose(random_rotation(Seed(60 + k)), np.zeros(3)), rays)
                  for k in range(8)]
        return [self.switch_rows(), rays, *turned]

    def test_bitwise_equal_to_inline_basis(self, grid4):
        sides = set()
        for rays in self.bundles(grid4):
            sides |= set(np.abs(rays.dirs[:, 2]) < 0.9)
            u, v = rays.tangents
            ref_u, ref_v = inline_tangent_basis(rays.dirs)
            assert u.tobytes() == ref_u.tobytes()
            assert v.tobytes() == ref_v.tobytes()
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
        path.write_text("i,x,y,z\n1,0.0,0.0,1.0\n")
        with pytest.raises(ValueError, match="order"):
            read_xyz_csv(path)

    def test_rejects_wrong_field_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("i,x,y,z\n0,0.0,0.0\n")
        with pytest.raises(ValueError, match="fields"):
            read_xyz_csv(path)

    def test_write_rejects_bad_shape(self, tmp_path):
        with pytest.raises(ValueError):
            write_xyz_csv(tmp_path / "x.csv", np.zeros((2, 4)))
