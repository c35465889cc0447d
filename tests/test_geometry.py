"""Rotation/pose primitives, geodesic metric, seeds, and pose file I/O."""

import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest

from grr import (
    AlignmentProblem,
    NeighborSet,
    NoiseSpec,
    PointMap,
    Pose,
    RayBundle,
    Rotation,
    Seed,
    geodesic_distance,
    load_poses,
    perturb_representations,
    random_rotation,
    random_rotation_matrices,
    rigid_align,
    save_poses,
    world_points,
)
from grr import camera
from grr.camera import _world_frames
from grr.geometry import (UNIT_TOL, _axis_angle_matrices, _check_rotations, _cross_rows, _mean, _quat_to_matrix,
                          _row_norms, _row_sums, _seed_words, _streams, _tangent_basis, _trusted)
from reference import (assert_same, axis_angle_matrix, bits, check_rotations, near_rotations, outcome, quat_to_matrix,
                       row_cases, row_norms, row_sums, rows, signed_zero_quaternions, switch_rows, tangent_basis,
                       unit_quaternions, write_poses)


class TestRotation:
    def test_identity(self):
        assert np.array_equal(Rotation.identity().m, np.eye(3))

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            Rotation(np.eye(3) + 1e-3)

    def test_rejects_reflection(self):
        with pytest.raises(ValueError, match="determinant"):
            Rotation(np.diag([1.0, 1.0, -1.0]))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            Rotation(np.eye(4))

    def test_matrix_is_frozen(self):
        r = Rotation.identity()
        with pytest.raises(ValueError):
            r.m[0, 0] = 2.0

    def test_axis_angle_zero_is_exact_identity(self):
        r = Rotation.from_axis_angle([0.0, 0.0, 1.0], 0.0)
        assert np.array_equal(r.m, np.eye(3))

    def test_axis_angle_quarter_turn_about_z(self):
        r = Rotation.from_axis_angle([0, 0, 1], math.pi / 2)
        np.testing.assert_allclose(r.m @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(r.m @ [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], atol=1e-15)

    def test_axis_angle_normalizes_axis(self):
        a = Rotation.from_axis_angle([0, 0, 10.0], 0.7)
        b = Rotation.from_axis_angle([0, 0, 1.0], 0.7)
        np.testing.assert_allclose(a.m, b.m, atol=1e-15)

    def test_axis_angle_zero_axis_rejected(self):
        with pytest.raises(ValueError, match="near-zero"):
            Rotation.from_axis_angle([0.0, 0.0, 0.0], 1.0)

    def test_axis_angle_matches_plain_rodrigues(self):
        """The stacked Rodrigues build, on a stack of one, gives the per-axis form's bits,
        and its errors: a bad shape, a non-finite or near-zero axis, an angle math.sin rejects."""
        rng = Seed(13).rng()
        cases = [(rng.normal(size=3) * 10.0 ** rng.uniform(-5, 5), rng.normal() * 10.0 ** rng.uniform(-12, 2))
                 for _ in range(300)]
        cases += [([0.0, 0.0, 1.0], 0.0), ([-0.0, 0.0, -2.0], math.pi), ([1e-13, 0.0, 0.0], 1.0),
                  ([0.0, 0.0, 0.0], 1.0), ([np.nan, 0.0, 1.0], 1.0), ([np.inf, 0.0, 1.0], 1.0),
                  ([0.0, 1.0, 0.0], math.inf), ([0.0, 1.0, 0.0], -math.inf), ([1.0, 2.0], 1.0), (np.eye(3), 1.0)]
        for axis, angle in cases:
            assert_same(Rotation.from_axis_angle, lambda a, t: Rotation(axis_angle_matrix(a, t)), axis, angle)

    def test_axis_angle_huge_axis_is_rescaled_not_zeroed(self):
        """An axis whose squared norm overflows is divided by its largest |entry| before it is
        normalized: for an a whose largest |entry| is 1, a * 1e200 gives a's bits, with no
        RuntimeWarning, alone or in a stack beside an axis whose norm is finite."""
        for a in ([1.0, 0.0, 0.0], [0.3, -1.0, 0.7], [-1.0, 0.123456789, 1e-5], [0.5, 0.5, -1.0]):
            a = np.array(a)
            assert np.array_equal(a * 1e200 / 1e200, a)  # the rescaled axis is a itself
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert bits(Rotation.from_axis_angle(a * 1e200, 1.0)) == bits(Rotation.from_axis_angle(a, 1.0))
                finite = np.array([0.2, 3.0, -0.4])
                assert bits(_axis_angle_matrices(np.stack([a * 1e200, finite]), [1.0, 0.5])) \
                    == bits(_axis_angle_matrices(np.stack([a, finite]), [1.0, 0.5]))

    def test_matmul_composes_rotations(self):
        a = random_rotation(Seed(11))
        b = random_rotation(Seed(12))
        np.testing.assert_allclose((a @ b).m, a.m @ b.m, atol=1e-15)
        with pytest.raises(TypeError):
            a @ 3


class TestQuaternion:
    # A generic rotation plus a half turn about each axis, where the scalar
    # part w vanishes and only the vector part carries the rotation.
    AXIS_ANGLES = [([1, 2, 3], 0.4), ([1, 0, 0], math.pi), ([0, 1, 0], math.pi),
                   ([0, 0, 1], math.pi)]

    @pytest.mark.parametrize("axis, angle", AXIS_ANGLES, ids=["generic", "x180", "y180", "z180"])
    def test_roundtrip(self, axis, angle):
        """Axis-angle to quaternion (half-angle form) to matrix gives back
        the Rodrigues matrix of the same axis-angle."""
        a = np.array(axis, dtype=np.float64) / np.linalg.norm(axis)
        q = np.concatenate([[math.cos(angle / 2)], math.sin(angle / 2) * a])
        r = Rotation.from_quaternion(q)
        np.testing.assert_allclose(r.m, Rotation.from_axis_angle(axis, angle).m, atol=1e-15)

    def test_identity_quaternion(self):
        assert np.array_equal(Rotation.from_quaternion([1.0, 0.0, 0.0, 0.0]).m, np.eye(3))

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError, match="norm"):
            Rotation.from_quaternion([1.0, 1.0, 0.0, 0.0])


class TestQuaternionParity:
    """_quat_to_matrix runs on Python floats; each entry must keep the array
    form's bits, and from_quaternion its errors, for the same inputs."""

    @pytest.mark.parametrize("k", [1, 2, 300])
    @pytest.mark.parametrize("seed", [0, 17])
    def test_seeded_stacks_match_the_array_form(self, seed, k):
        assert_same(_quat_to_matrix, quat_to_matrix, unit_quaternions(seed, k))

    def test_signed_zeros_match_the_array_form(self):
        q = signed_zero_quaternions()
        got = _quat_to_matrix(q)
        assert np.signbit(got).any() and (got == 0.0).any()
        assert_same(_quat_to_matrix, quat_to_matrix, q)

    @pytest.mark.parametrize("off", [1e-10, -1e-10])
    def test_slightly_off_unit_matches_the_array_form(self, off):
        assert_same(_quat_to_matrix, quat_to_matrix, unit_quaternions(5, 300) * (1.0 + off))

    def test_random_rotation_matrices_keep_the_array_form(self):
        for seed, count in [(0, 1), (1, 2), (7, 300)]:
            g = Seed(seed).rng().standard_normal((count, 4))
            q = g / np.linalg.norm(g, axis=1, keepdims=True)
            assert bits(random_rotation_matrices(Seed(seed), count)) == bits(quat_to_matrix(q))

    @pytest.mark.parametrize("q, message", [
        ([1.0, 0.0, 0.0], "quaternion must have shape (4,), got (3,)"),
        ([[1.0, 0.0, 0.0, 0.0]], "quaternion must have shape (4,), got (1, 4)"),
        ([1.0, 0.0, math.nan, 0.0], "quaternion contains non-finite entries"),
        ([1.0, math.inf, 0.0, 0.0], "quaternion contains non-finite entries"),
        ([1.0, 1.0, 0.0, 0.0], f"quaternion norm {float(np.linalg.norm([1.0, 1.0])):.17g} is not 1"),
        ([1.0 + 2e-9, 0.0, 0.0, 0.0], f"quaternion norm {1.0 + 2e-9:.17g} is not 1"),
    ], ids=["short", "2-d", "nan", "inf", "sqrt2", "2e-9 off"])
    def test_errors_keep_their_type_and_message(self, q, message):
        with pytest.raises(ValueError) as exc:
            Rotation.from_quaternion(q)
        assert type(exc.value) is ValueError
        assert str(exc.value) == message

    def test_result_is_read_only(self):
        r = Rotation.from_quaternion(unit_quaternions(6, 1)[0])
        assert not r.m.flags.writeable
        with pytest.raises(ValueError):
            r.m[0, 0] = 0.0

    def test_matrix_that_fails_the_rotation_check_raises_as_rotation_does(self):
        q = unit_quaternions(8, 1)[0] * (1.0 + 0.9e-9)  # within UNIT_TOL of unit, not its matrix
        assert abs(np.linalg.norm(q) - 1.0) <= UNIT_TOL
        with pytest.raises(ValueError) as want:
            Rotation(quat_to_matrix(q[np.newaxis])[0])
        with pytest.raises(ValueError) as got:
            Rotation.from_quaternion(q)
        assert "not orthonormal" in str(want.value)
        assert str(got.value) == str(want.value)


class TestPose:
    def test_accepts_raw_matrix(self):
        p = Pose(np.eye(3), np.zeros(3))
        assert isinstance(p.r, Rotation)

    def test_identity(self):
        p = Pose.identity()
        assert np.array_equal(p.r.m, np.eye(3))
        assert np.array_equal(p.t, np.zeros(3))


class TestTrustedAndCached:
    """_trusted builds a frozen value type over checked values without copying them;
    the value types cache derived arrays with functools.cached_property."""

    def test_trusted_keeps_the_arrays_and_makes_them_read_only(self):
        t = np.array([1.0, 2.0, 3.0])
        rot = Rotation.identity()
        pose = _trusted(Pose, r=rot, t=t)
        assert type(pose) is Pose and pose.r is rot and pose.t is t
        assert not t.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            pose.t = np.zeros(3)

    def test_trusted_runs_no_check(self):
        assert np.isnan(_trusted(Pose, r=Rotation.identity(), t=np.full(3, np.nan)).t).all()

    # Value type -> (a builder of equal instances, its cached attributes in an order that needs no recomputation).
    CACHED = {
        "RayBundle": (lambda: RayBundle(random_rotation(Seed(3)).m), ("unit", "tangents")),
        "PointMap": (lambda: PointMap(np.arange(18.0).reshape(6, 3)), ("centroid", "centred", "_centred_finite")),
        "NeighborSet": (lambda: NeighborSet(4, [[0, 1], [1, 2], [3, 2]]), ("_scatter_index",)),
    }

    @pytest.mark.parametrize("name", CACHED)
    def test_cached_attributes_computed_once_per_instance(self, name, monkeypatch):
        """Each is a cached_property, not a field: computed on first access, once per instance,
        kept in the instance, and left out of equality and repr."""
        build, attrs = self.CACHED[name]
        cls, calls = type(build()), []
        assert not set(attrs) & {f.name for f in dataclasses.fields(cls)}
        for attr in attrs:
            prop = cls.__dict__[attr]
            assert isinstance(prop, functools.cached_property)
            monkeypatch.setattr(prop, "func", lambda obj, fn=prop.func, attr=attr: calls.append(attr) or fn(obj))
        a, b = build(), build()
        twin = _trusted(cls, **{f.name: getattr(a, f.name) for f in dataclasses.fields(cls)})
        before = repr(a)
        for attr in attrs:
            first = getattr(a, attr)
            assert getattr(a, attr) is first and a.__dict__[attr] is first
            assert bits(getattr(b, attr)) == bits(first)
        assert calls == [attr for attr in attrs for _ in "ab"]
        assert repr(a) == before == repr(twin) and a == twin and not twin.__dict__.keys() & set(attrs)

    def test_trusted_tangents_served_without_a_basis_call(self, monkeypatch):
        """_world_frames fills each bundle's tangents from one stacked _tangent_basis call."""
        calls = []
        monkeypatch.setattr(camera, "_tangent_basis", lambda d, fn=camera._tangent_basis: calls.append(d.shape) or fn(d))
        rays = RayBundle(random_rotation(Seed(4)).m)
        poses = [Pose(random_rotation(Seed(5 + k)), np.zeros(3)) for k in range(3)]
        frames = _world_frames(poses, rays, PointMap(rays.dirs))
        assert calls == [(3, 3, 3)]
        for bundle, _ in frames:
            assert bundle.tangents is bundle.__dict__["tangents"]
        assert calls == [(3, 3, 3)]
        assert rays.tangents is rays.tangents and calls == [(3, 3, 3), (3, 3)]


# Value type -> (its writable arrays from a generator, a constructor over them, one result derived from an instance).
OWNED = {
    "Rotation": (lambda rng: [random_rotation(Seed(1)).m.copy()], Rotation, lambda r: r @ r),
    "Pose": (lambda rng: [random_rotation(Seed(1)).m.copy(), rng.standard_normal(3)], Pose,
             lambda pose: world_points(pose, PointMap(np.eye(3)))),
    "RayBundle": (lambda rng: [random_rotation(Seed(3)).m.copy()], RayBundle, lambda rb: rb.unit),
    "PointMap": (lambda rng: [rng.standard_normal((6, 3))], PointMap, lambda pm: pm.centred),
    "NeighborSet": (lambda rng: [np.array([[0, 1], [1, 2], [3, 2]])], lambda pairs: NeighborSet(4, pairs),
                    lambda ns: ns._scatter_index),
    "AlignmentProblem": (lambda rng: [rng.standard_normal((6, 3)), rng.standard_normal((6, 3)), rng.uniform(1, 2, 6)],
                         AlignmentProblem, rigid_align),
    "NoiseSpec": (lambda rng: [rng.standard_normal(3)],
                  lambda bias: NoiseSpec(0.01, 0.02, bias, "iid_gaussian", Seed(2)),
                  lambda spec: perturb_representations(RayBundle(np.eye(3)), PointMap(np.eye(3)), spec)),
}


@pytest.mark.parametrize("name", OWNED)
def test_value_type_keeps_its_bits_when_the_callers_arrays_change(name):
    make, build, derive = OWNED[name]
    arrays = make(np.random.default_rng(9))
    fresh = build(*[a.copy() for a in arrays])
    kept = build(*arrays)
    for a in arrays:
        a[...] = -1
    assert (bits(kept), outcome(derive, kept)) == (bits(fresh), outcome(derive, fresh))


class TestGeodesicDistance:
    def test_identical_rotations_give_exact_zero(self):
        for s in range(10):
            r = random_rotation(Seed(s))
            assert geodesic_distance(r, r) == 0.0

    def test_half_turn_gives_exact_pi(self):
        r = Rotation.from_axis_angle([0, 0, 1], math.pi)
        assert geodesic_distance(Rotation.identity(), r) == math.pi

    def test_recovers_rotation_angle(self):
        r = Rotation.from_axis_angle([1.0, 0.0, 0.0], 0.3)
        assert abs(geodesic_distance(Rotation.identity(), r) - 0.3) < 1e-12

    def test_symmetry_and_bi_invariance(self):
        a, b, q = (random_rotation(Seed(s)) for s in (31, 32, 33))
        d = geodesic_distance(a, b)
        assert abs(d - geodesic_distance(b, a)) < 1e-12
        assert abs(d - geodesic_distance(q @ a, q @ b)) < 1e-9
        assert abs(d - geodesic_distance(a @ q, b @ q)) < 1e-9

    def test_haar_mean_matches_density_integral(self):
        """Mean angle between a fixed and a uniform random rotation.

        The rotation-angle density under the Haar measure is
        (1 - cos(theta)) / pi on [0, pi]; the test integrates it
        independently with scipy and compares the Monte Carlo mean.
        """
        from scipy.integrate import quad

        expected, quad_err = quad(lambda t: t * (1.0 - math.cos(t)) / math.pi, 0.0, math.pi)
        assert quad_err < 1e-10
        assert abs(expected - 2.207416099162478) < 1e-12  # pi/2 + 2/pi

        mats = random_rotation_matrices(Seed(1234), 20000)
        eye = Rotation.identity()
        angles = [geodesic_distance(eye, Rotation(m)) for m in mats]
        assert abs(float(np.mean(angles)) - expected) < 0.02


class TestRandomRotations:
    def test_matrices_are_rotations(self):
        mats = random_rotation_matrices(Seed(5), 50)
        assert mats.shape == (50, 3, 3)
        for m in mats:
            np.testing.assert_allclose(m.T @ m, np.eye(3), atol=1e-12)
            assert abs(np.linalg.det(m) - 1.0) < 1e-12

    def test_deterministic_per_seed(self):
        a = random_rotation_matrices(Seed(6), 4)
        b = random_rotation_matrices(Seed(6), 4)
        assert np.array_equal(a, b)
        c = random_rotation_matrices(Seed(7), 4)
        assert not np.array_equal(a, c)


class TestSeed:
    @pytest.mark.parametrize("bad", [-1, 2**64, True, 1.5, "7"])
    def test_rejects_invalid_values(self, bad):
        with pytest.raises((TypeError, ValueError)):
            Seed(bad)

    def test_derive_is_stable_and_distinct(self):
        s = Seed(42)
        assert s.derive(3) == s.derive(3)
        assert s.derive(3) != s.derive(4)
        assert s.derive(1, 2) != s.derive(2, 1)

    def test_rng_streams_reproducible(self):
        a = Seed(9).rng(1).normal(size=4)
        b = Seed(9).rng(1).normal(size=4)
        assert np.array_equal(a, b)


def pcg64_pair(rng):
    state = rng.bit_generator.state
    assert state["bit_generator"] == "PCG64" and state["has_uint32"] == 0 and state["uinteger"] == 0
    return state["state"]["state"], state["state"]["inc"]


class TestBulkStreams:
    """geometry._streams replays SeedSequence and PCG64 seeding on arrays; it
    must give Seed.derive(i).rng()'s PCG64 (state, inc) for every (seed, i)."""

    EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1]

    def test_matches_seed_sequence_on_many_pairs(self):
        rng = np.random.default_rng(2024)
        seeds = self.EDGE_SEEDS + rng.integers(0, 2**64, 34, dtype=np.uint64).tolist()
        idxs = list(range(130)) + rng.integers(0, 2**32, 120).tolist() + [2**31, 2**32 - 1]
        pairs = 0
        for value in seeds:
            got = _streams(Seed(value), idxs)
            assert len(got) == len(idxs)
            for i, pair in zip(idxs, got):
                assert pair == pcg64_pair(Seed(value).derive(i).rng()), (value, i)
                pairs += 1
        assert pairs >= 10_000

    @pytest.mark.parametrize("child", [0, 1, 7, 2**31, 2**32 - 1, 2**32, 2**64 - 1])
    def test_child_seeds_below_two_to_the_32(self, child, monkeypatch):
        """A child seed below 2**32 is one SeedSequence entropy word, not two.
        Such children are rare, so the fallback's derive is made to return one."""
        words = np.array([child], dtype=np.uint64).view(np.uint32)
        got = _seed_words([words[:1], words[1:]], 4)
        want = np.random.SeedSequence(child).generate_state(4, np.uint64)
        assert [int(w[0]) for w in got] == want.tolist()
        monkeypatch.setattr(Seed, "derive", lambda self, *path: Seed(child))
        assert _streams(Seed(9), [3, 2**32, 2**40]) == [
            _streams(Seed(9), [3])[0], pcg64_pair(Seed(child).rng()), pcg64_pair(Seed(child).rng())]

    def test_two_word_spawn_keys_fall_back(self):
        idxs = [3, 2**32, 2**40 + 9, 2**64 - 1, 2**70, 0]
        for value in (0, 2**64 - 1, 12345):
            want = [pcg64_pair(Seed(value).derive(i).rng()) for i in idxs]
            assert _streams(Seed(value), idxs) == want

    def test_negative_index_raises_as_derive_does(self):
        with pytest.raises(ValueError):
            Seed(1).derive(-1)
        with pytest.raises(ValueError):
            _streams(Seed(1), [0, -1])

    def test_empty(self):
        assert _streams(Seed(1), []) == []

    def test_seated_generator_draws_the_derived_stream(self):
        gen = np.random.default_rng(0)
        for i, (state, inc) in enumerate(_streams(Seed(77), range(5))):
            gen.standard_normal(3)  # whatever was drawn before is replaced
            gen.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                                       "has_uint32": 0, "uinteger": 0}
            assert gen.random(9).tobytes() == Seed(77).derive(i).rng().random(9).tobytes()


class TestPoseFileIO:
    def test_roundtrip_is_exact(self, tmp_path, make_poses):
        poses = make_poses(77, 5)
        path = tmp_path / "poses.txt"
        save_poses(poses, path)
        loaded = load_poses(path)
        assert len(loaded) == 5
        for a, b in zip(poses, loaded):
            assert np.array_equal(a.r.m, b.r.m)
            assert np.array_equal(a.t, b.t)

    # Signed zeros, the smallest subnormal, a near-overflow value and 1/3 in R and t.
    SPECIAL_POSES = [
        (np.array([[1.0, -0.0, 0.0], [0.0, 1.0, -0.0], [-0.0, 5e-324, 1.0]]), [-0.0, 5e-324, 1e308]),
        (np.array([[-1.0, 2.0, 2.0], [2.0, -1.0, 2.0], [2.0, 2.0, -1.0]]) / 3.0, [1.0 / 3.0, -1e308, 0.0]),
    ]

    @pytest.mark.parametrize("which", ["special", "seeded", "empty"])
    def test_bytes_match_the_per_number_writer(self, tmp_path, make_poses, which):
        poses = {"special": [Pose(r, t) for r, t in self.SPECIAL_POSES], "seeded": make_poses(5, 40),
                 "empty": []}[which]
        save_poses(iter(poses), tmp_path / "fast.txt")
        write_poses(poses, tmp_path / "plain.txt")
        assert (tmp_path / "fast.txt").read_bytes() == (tmp_path / "plain.txt").read_bytes()

    def test_golden_bytes(self, tmp_path):
        path = tmp_path / "poses.txt"
        save_poses([Pose(r, t) for r, t in self.SPECIAL_POSES[:1]], path)
        assert path.read_bytes() == b"1 -0 0 0 1 -0 -0 4.9406564584124654e-324 1 -0 4.9406564584124654e-324 1e+308\n"

    def test_rejects_wrong_field_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 0 0 0 1 0 0 0 1 0 0\n")
        with pytest.raises(ValueError):
            load_poses(path)

    def test_rejects_non_rotation_rows(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 0 0 0 1 0 0 0 1 0 0 0\n")
        with pytest.raises(ValueError):
            load_poses(path)

    # case -> (pose line, the message after "path:line: ")
    BAD_LINES = {
        "field count": ("1 0 0 0 1 0 0 0 1 0 0", "expected 12 numbers per pose line, got 11"),
        "non-number": ("1 0 0 0 1 0 0 0 1 abc 0 0", "could not convert string to float: 'abc'"),
        "non-orthonormal": ("2 0 0 0 1 0 0 0 1 0 0 0",
                            "matrix is not orthonormal (max residual 3.000e+00)"),
        "non-finite translation": ("1 0 0 0 1 0 0 0 1 0 inf 0",
                                   "translation contains non-finite entries"),
    }

    @pytest.mark.parametrize("case", sorted(BAD_LINES))
    def test_bad_line_is_named_by_path_and_line(self, tmp_path, case):
        line, message = self.BAD_LINES[case]
        path = tmp_path / "poses.txt"
        path.write_text(f"1 0 0 0 1 0 0 0 1 0 0 0\n\n{line}\n")  # the blank line counts
        with pytest.raises(ValueError) as exc:
            load_poses(path)
        assert str(exc.value) == f"{path}:3: {message}"


class TestRowHelpers:
    """The private row-wise cross product, row sum and row norm agree bit for
    bit with np.cross, sum(axis=-1) and np.linalg.norm(axis=-1), which they
    replace on the solve and training paths."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cross_rows_matches_np_cross(self, seed):
        a, b = rows(seed), rows(seed + 100)
        assert_same(_cross_rows, np.cross, a, b)
        assert_same(_cross_rows, np.cross, b, a)

    @pytest.mark.parametrize("row", [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [-0.0, 0.0, -0.0]])
    def test_cross_rows_broadcasts_one_row(self, row):
        a, b = rows(3), np.array([row])
        assert_same(_cross_rows, np.cross, a, b)
        assert_same(_cross_rows, np.cross, b, a)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_cross_rows_matches_np_cross_on_stacks(self, seed):
        a = np.stack([rows(seed + k) for k in range(4)])  # (F, m, 3), signed zeros included
        b = np.stack([rows(seed + 50 + k) for k in range(4)])
        assert_same(_cross_rows, np.cross, a, b)
        assert_same(_cross_rows, np.cross, b, a)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_tangent_basis_matches_reference(self, seed):
        """On (m, 3) rows and (F, m, 3) stacks: signed zeros, rows on both sides of the
        |z| = 0.9 helper switch and on it, tiny rows; zero rows have no tangent (0/0)."""
        unit = Seed(seed).rng().standard_normal((16, 256, 3))
        unit /= np.linalg.norm(unit, axis=-1, keepdims=True)
        unit[:, :len(switch_rows())] = switch_rows()
        signed = np.array([[-0.0, -0.0, 1.0], [0.0, -0.0, -1.0], [-1.0, 0.0, -0.0], [-0.0, 1.0, 0.0]])
        with np.errstate(invalid="ignore"):
            for d in (rows(seed), np.stack([rows(seed + k) for k in range(4)]), unit, unit[3], signed, signed[None]):
                assert_same(_tangent_basis, tangent_basis, d)

    @pytest.mark.parametrize("keepdims", [False, True])
    def test_row_norms_match_linalg_norm(self, keepdims):
        x = np.concatenate([rows(4), [[1e200, 1e200, 0.0], [5e-324, -0.0, 0.0]]])
        with np.errstate(over="ignore"):  # 1e200 squared overflows on both sides
            assert_same(_row_norms, row_norms, x, keepdims=keepdims)

    @pytest.mark.parametrize("case", sorted(row_cases()))
    def test_row_sums_and_norms_match_numpy(self, case):
        x = row_cases()[case]
        with np.errstate(over="ignore", invalid="ignore"):
            assert_same(_row_sums, row_sums, x)
            for keepdims in (False, True):
                assert_same(_row_norms, row_norms, x, keepdims=keepdims)

    def test_signed_zero_case_has_negative_zero_products(self):
        x = row_cases()["signed-zero-products"]
        assert np.signbit(x[0]).all() and not np.signbit(x[1]).all()
        assert x.sum(axis=-1)[0] == 0.0 and not np.signbit(x.sum(axis=-1)[0])

    @pytest.mark.parametrize("row,expected", [
        ([1e16, 1.0, 1.0], 1e16),  # (1e16 + 1) + 1 rounds twice; 1e16 + (1 + 1) would not
        ([1.0, 1.0, 1e16], 1e16 + 2.0),
        ([1.0, 1e16, 1.0], 1e16),
    ])
    def test_row_sums_add_left_to_right(self, row, expected):
        x = np.array([row] * 5)
        assert (_row_sums(x) == expected).all()
        assert (x.sum(axis=-1) == expected).all()  # the order NumPy's reduction uses

    def test_mean_matches_ndarray_mean_on_random_arrays(self):
        rng = Seed(8).rng()
        for _ in range(2000):
            n = int(rng.integers(1, 601))
            x = rng.standard_normal(n) * 10.0 ** rng.uniform(-5.0, 4.0)
            for arr in (x, np.abs(x)):  # signed, and one-signed as the loss terms are
                got = _mean(arr)
                assert type(got) is np.float64 and got.tobytes() == arr.mean().tobytes()

    @pytest.mark.parametrize("values", [
        [-0.0], [-0.0] * 7, [0.0, -0.0], [np.nan, 1.0], [1.0, -np.nan], [np.inf, 1.0],
        [-np.inf, -np.inf], [np.inf, -np.inf], [1e308, 1e308], [5e-324, 5e-324, 0.0],
    ])
    def test_mean_matches_ndarray_mean_on_special_values(self, values):
        x = np.array(values)
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = _mean(x), x.mean()
        assert type(got) is np.float64 and got.tobytes() == want.tobytes()

    def test_geodesic_distance_matches_the_norm_form(self):
        for k in range(20):
            a, b = random_rotation(Seed(k)), random_rotation(Seed(k + 50))
            q = a.m.T @ b.m
            c = 0.5 * (float(np.trace(q)) - 1.0)
            s = float(np.linalg.norm(q - q.T)) / (2.0 * math.sqrt(2.0))
            assert geodesic_distance(a, b) == math.atan2(s, max(-1.0, min(1.0, c)))


class TestRotationCheckParity:
    """_check_rotations screens entries on Python floats; it passes and raises
    on the same stacks as the NumPy expressions, naming the same entry with the
    same message bytes."""

    @staticmethod
    def assert_same(ms):
        """The message of what both raise, or None."""
        got = assert_same(_check_rotations, check_rotations, ms)
        return got[1] if got else None

    def test_the_rotation_tests_cases(self):
        good = random_rotation(Seed(64)).m
        skew, flip = np.eye(3) + 1e-3, np.diag([1.0, 1.0, -1.0])
        for stack in ([good], [skew], [flip], [good, skew, flip], [good, flip, skew], [good, good.T],
                      [np.eye(3)], [-np.eye(3)], [np.eye(3) * np.array([1.0, -0.0, 1.0])]):
            self.assert_same(np.array(stack))
        assert self.assert_same(np.array([good, skew, flip])).startswith("matrix is not orthonormal")
        assert self.assert_same(np.array([good, flip, skew])).startswith("matrix determinant")

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_stacks_near_the_tolerance(self, seed):
        ms = near_rotations(seed)
        outcomes = [self.assert_same(ms[k:k + 1]) for k in range(len(ms))]
        assert None in outcomes and any(o and "orthonormal" in o for o in outcomes)
        assert any(o and "determinant" in o for o in outcomes)
        for start in range(0, len(ms), 8):  # stacks whose first failing entry varies
            self.assert_same(ms[start:start + 8])
        self.assert_same(ms)

    def test_huge_and_nan_entries(self):
        good = random_rotation(Seed(65)).m
        for bad in (good * 1e200, np.where(np.eye(3) > 0, np.nan, good)):
            with np.errstate(over="ignore", invalid="ignore"):
                self.assert_same(np.array([good, bad, good]))
