"""Independent oracles for the rotation core.

scipy's rotation code checks the quaternion map, the geodesic metric and
both Wahba solvers, also as entries of one stacked solve; central
differences check the Kabsch and rigid VJPs. No reference
here derives from grr's own code, so a defect shared by a fast form and the
form it replaced still fails. Every problem is drawn from a `Seed`.
"""

import math

import numpy as np
import pytest
from scipy.spatial.transform import Rotation as SciRotation

from grr import (
    AlignmentProblem,
    DegenerateConfiguration,
    Rotation,
    Seed,
    VjpRequest,
    geodesic_distance,
    kabsch_rotation,
    kabsch_rotation_vjp,
    random_rotation_matrices,
    rigid_align,
    rigid_align_vjp,
)
from grr.solver import _svd_rotation
from reference import COLLINEAR, REGIMES, unit_rows, wahba_covariances, wahba_problem

EPS = np.finfo(np.float64).eps
# The quaternion map and the geodesic metric read <= 1.1e-15 against scipy.
MAP_TOL = 1e-13
# A solve's rotation moves by about eps * sigma_1 / sigma_2 under rounding;
# 2000 seeded problems per regime below read at most ~20 of those units.
SOLVE_UNITS = 64


def solve_tol(diag) -> float:
    s1, s2, _ = diag.singular_values
    return SOLVE_UNITS * EPS * s1 / s2


class TestQuaternionMap:
    def test_from_quaternion_matches_scipy(self):
        q = Seed(1).rng().normal(size=(2000, 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        for row in q:
            ours = Rotation.from_quaternion(row).m
            # grr is scalar-first (w, x, y, z); scipy is scalar-last.
            ref = SciRotation.from_quat(row[[1, 2, 3, 0]]).as_matrix()
            assert np.abs(ours - ref).max() <= MAP_TOL


class TestGeodesicDistance:
    def test_random_pairs_match_scipy(self):
        mats = random_rotation_matrices(Seed(2), 4000).reshape(2000, 2, 3, 3)
        for a, b in mats:
            ref = (SciRotation.from_matrix(a).inv() * SciRotation.from_matrix(b)).magnitude()
            assert abs(geodesic_distance(Rotation(a), Rotation(b)) - ref) <= MAP_TOL

    @pytest.mark.parametrize("angle", [0.0, 1e-12, 1e-6, 1.0, math.pi - 1e-8, math.pi])
    def test_relative_angle_matches_scipy(self, angle):
        rng = Seed(3).rng()
        for a in random_rotation_matrices(Seed(4), 200):
            b = a @ Rotation.from_axis_angle(rng.normal(size=3), angle).m
            ours = geodesic_distance(Rotation(a), Rotation(b))
            ref = (SciRotation.from_matrix(a).inv() * SciRotation.from_matrix(b)).magnitude()
            assert abs(ours - ref) <= MAP_TOL
            assert abs(ours - angle) <= MAP_TOL


class TestWahbaSolvers:
    @pytest.mark.parametrize("regime", REGIMES)
    def test_kabsch_rotation_matches_align_vectors(self, regime):
        rng = Seed(5).rng(REGIMES.index(regime))
        for _ in range(300):
            src, tgt, w = wahba_problem(rng, regime)
            rot, diag = kabsch_rotation(AlignmentProblem(src, tgt, w))
            ref = SciRotation.align_vectors(unit_rows(tgt), unit_rows(src), weights=w)[0]
            assert np.abs(rot.m - ref.as_matrix()).max() <= solve_tol(diag)
            if regime == "planar_mirrored":
                assert diag.reflection_corrected

    @pytest.mark.parametrize("regime", REGIMES)
    def test_rigid_align_matches_align_vectors(self, regime):
        rng = Seed(6).rng(REGIMES.index(regime))
        for _ in range(300):
            src, tgt, w = wahba_problem(rng, regime)
            pose, diag = rigid_align(AlignmentProblem(src, tgt, w))
            c_src = np.average(src, axis=0, weights=w)
            c_tgt = np.average(tgt, axis=0, weights=w)
            ref = SciRotation.align_vectors(tgt - c_tgt, src - c_src, weights=w)[0].as_matrix()
            tol = solve_tol(diag)
            assert np.abs(pose.r.m - ref).max() <= tol
            # t = c_tgt - R c_src: the rotation's error scales with the offsets.
            scale = 1.0 + np.abs(c_src).max() + np.abs(c_tgt).max()
            assert np.abs(pose.t - (c_tgt - ref @ c_src)).max() <= tol * scale
            if regime == "planar_mirrored":
                assert diag.reflection_corrected


class TestStackedCore:
    """Every solve runs one (F, 3, 3) core. In one shuffled stack of every
    regime's ray and rigid cross-covariances, each entry is solved bitwise
    as its own stack of one is (which is what the public solvers run) and
    matches align_vectors to the bound above."""

    @staticmethod
    def mixed_stack():
        rng = Seed(10).rng()
        hs, refs = [], []
        for _ in range(20):
            for regime in REGIMES:
                for h, tgt, src, w in wahba_covariances(rng, regime):
                    hs.append(h)
                    refs.append(SciRotation.align_vectors(tgt, src, weights=w)[0].as_matrix())
        order = rng.permutation(len(hs))
        return np.stack(hs)[order], [refs[i] for i in order]

    def test_each_entry_is_its_own_solve_and_matches_align_vectors(self):
        hs, refs = self.mixed_stack()
        rots, diags, svd = _svd_rotation(hs)
        for i, h in enumerate(hs):
            (rot,), (diag,), one = _svd_rotation(h[np.newaxis])
            assert rots[i].m.tobytes() == rot.m.tobytes()
            assert diags[i] == diag
            assert all(a[i].tobytes() == b[0].tobytes() for a, b in zip(svd, one))
            assert np.abs(rot.m - refs[i]).max() <= solve_tol(diag)
        flags = {d.reflection_corrected for d in diags}
        assert flags == {False, True}

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_a_degenerate_entry_raises_its_own_error(self, where):
        hs, _ = self.mixed_stack()
        pos = {"first": 0, "middle": len(hs) // 2, "last": len(hs)}[where]
        with pytest.raises(DegenerateConfiguration) as want:
            _svd_rotation(COLLINEAR[np.newaxis])
        with pytest.raises(DegenerateConfiguration) as got:
            _svd_rotation(np.insert(hs, pos, COLLINEAR, axis=0))
        assert str(got.value) == str(want.value)
        assert got.value.branch is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_the_first_failing_entry_wins(self, bad):
        """A non-finite entry stops no earlier entry's check, and is
        reported before a later degenerate one."""
        hs, _ = self.mixed_stack()
        overflow = np.full((3, 3), bad)
        for first, second, kind in ((COLLINEAR, overflow, DegenerateConfiguration),
                                    (overflow, COLLINEAR, ValueError)):
            with pytest.raises(kind):
                _svd_rotation(np.concatenate((hs[:5], [first], hs[5:9], [second], hs[9:])))


def central_differences(f, x: np.ndarray, h: float) -> np.ndarray:
    out = np.empty_like(x)
    for idx in np.ndindex(x.shape):
        step = np.zeros_like(x)
        step[idx] = h
        out[idx] = (f(x + step) - f(x - step)) / (2.0 * h)
    return out


def assert_matches_central_differences(analytic, objective, rows):
    """analytic gradients (one per array in rows) against central differences
    of objective(*rows); truncation (h^2) and rounding (eps / h) read ~2e-8
    relative on these problems."""
    numeric = []
    for k, x in enumerate(rows):
        def along(v, k=k):
            return objective(*(v if i == k else r for i, r in enumerate(rows)))
        numeric.append(central_differences(along, x, 1e-6))
    analytic, numeric = np.concatenate(analytic), np.concatenate(numeric)
    assert np.abs(analytic - numeric).max() <= 1e-6 * np.abs(analytic).max()


VJP_REGIMES = ["generic", "planar_mirrored"]


class TestKabschVjp:
    @pytest.mark.parametrize("regime", VJP_REGIMES)
    def test_raw_rows_match_central_differences(self, regime):
        """normalize=False: the gradient of <G, R> with respect to the raw rows."""
        rng = Seed(7).rng(VJP_REGIMES.index(regime))
        for _ in range(40):
            src, tgt, w = (a[:8] for a in wahba_problem(rng, regime))
            g = rng.normal(size=(3, 3))
            vjp = kabsch_rotation_vjp(VjpRequest(AlignmentProblem(src, tgt, w), g), normalize=False)

            def objective(s, t):
                rot, _ = kabsch_rotation(AlignmentProblem(s, t, w), normalize=False)
                return float(np.sum(g * rot.m))

            assert_matches_central_differences((vjp.source, vjp.target), objective, (src, tgt))

    @pytest.mark.parametrize("regime", VJP_REGIMES)
    def test_normalized_rows_match_central_differences(self, regime):
        """normalize=True: the chain through the row renormalization, with
        respect to the raw rows, whose norms are not 1 here."""
        rng = Seed(8).rng(VJP_REGIMES.index(regime))
        for _ in range(40):
            src, tgt, w = (a[:8] for a in wahba_problem(rng, regime))
            g = rng.normal(size=(3, 3))
            vjp = kabsch_rotation_vjp(VjpRequest(AlignmentProblem(src, tgt, w), g), normalize=True)

            def objective(s, t):
                rot, _ = kabsch_rotation(AlignmentProblem(s, t, w), normalize=True)
                return float(np.sum(g * rot.m))

            assert_matches_central_differences((vjp.source, vjp.target), objective, (src, tgt))


class TestRigidVjp:
    @pytest.mark.parametrize("regime", VJP_REGIMES)
    @pytest.mark.parametrize("cotangents", ["rotation", "translation", "both"])
    def test_rows_match_central_differences(self, regime, cotangents):
        """The gradient of <G, R> + <g, t> for rigid_align, with either
        cotangent zero or both drawn."""
        rng = Seed(9).rng(VJP_REGIMES.index(regime))
        for _ in range(40):
            src, tgt, w = (a[:8] for a in wahba_problem(rng, regime))
            g = rng.normal(size=(3, 3)) if cotangents != "translation" else np.zeros((3, 3))
            g_t = rng.normal(size=3) if cotangents != "rotation" else np.zeros(3)
            vjp = rigid_align_vjp(VjpRequest(AlignmentProblem(src, tgt, w), g, g_t))

            def objective(s, t):
                pose, _ = rigid_align(AlignmentProblem(s, t, w))
                return float(np.sum(g * pose.r.m) + g_t @ pose.t)

            assert_matches_central_differences((vjp.source, vjp.target), objective, (src, tgt))
