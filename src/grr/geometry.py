"""Rotations, camera poses, seeded randomness, and pose file I/O.

Conventions used throughout the package:
    - matrices are row-major numpy float64
    - a Pose maps camera coordinates to world coordinates: x_w = R @ x_c + t,
      so Pose.t is the camera center expressed in world coordinates
    - angles are radians unless a name says otherwise
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "ORTHONORMALITY_TOL",
    "UNIT_TOL",
    "Rotation",
    "Pose",
    "Seed",
    "UnitVec3",
    "geodesic_distance",
    "compose",
    "inverse",
    "random_rotation",
    "random_rotation_matrices",
    "save_poses",
    "load_poses",
]

# Construction gates, not solver accuracy targets. Anything produced by the
# solvers lands around 1e-15; these only reject genuinely broken inputs.
ORTHONORMALITY_TOL = 1e-9
UNIT_TOL = 1e-9

_SQRT8 = 2.0 * math.sqrt(2.0)
_EYE3 = np.eye(3)
# Component k of a x b is a[k+1] b[k+2] - a[k+2] b[k+1], indices mod 3.
_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])
_E_X = np.array([[1.0, 0.0, 0.0]])
_E_Z = np.array([[0.0, 0.0, 1.0]])


def _row_sums(x: np.ndarray) -> np.ndarray:
    """x.sum(axis=-1) of (..., 3) rows bit for bit, without its reduction setup.

    NumPy adds the three columns in order onto its identity +0.0; the trailing
    + 0.0 is that identity, which only turns an all -0.0 row's sum into +0.0.
    """
    return (x[..., 0] + x[..., 1]) + x[..., 2] + 0.0


def _row_norms(x: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """np.linalg.norm(x, axis=-1, keepdims=keepdims) bit for bit, without its dispatch."""
    norms = np.sqrt(_row_sums(x * x))
    return norms[..., np.newaxis] if keepdims else norms


def _normalized_rows(arr: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Rows scaled to unit norm, and the (m, 1) norms they were divided by."""
    norms = _row_norms(arr, keepdims=True)
    if (norms < 1e-12).any():
        raise ValueError(f"cannot normalize near-zero {what} rows")
    return arr / norms, norms


def _cross_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross of (..., 3) rows bit for bit, without its axis handling."""
    return a[..., _NEXT] * b[..., _PREV] - a[..., _PREV] * b[..., _NEXT]


def _tangent_basis(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal tangent pair (u, v) per unit row of d; the helper axis avoids the pole."""
    u = _cross_rows(d, np.where(np.abs(d[:, 2:3]) < 0.9, _E_Z, _E_X))
    u /= _row_norms(u, keepdims=True)
    return u, _cross_rows(d, u)


def _as_float_array(value, shape: tuple[int, ...], name: str) -> np.ndarray:
    out = np.asarray(value, dtype=np.float64)
    if out.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {out.shape}")
    if not np.isfinite(out).all():
        raise ValueError(f"{name} contains non-finite entries")
    return out


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _freeze(obj, field: str, arr: np.ndarray) -> None:
    object.__setattr__(obj, field, _read_only(arr.copy()))


@dataclass(frozen=True)
class Rotation:
    """Proper rotation in SO(3), stored as a 3x3 matrix.

    Construction validates orthonormality and det = +1 within
    ORTHONORMALITY_TOL, so a Rotation instance can be trusted downstream.
    """

    m: np.ndarray

    def __post_init__(self):
        m = _as_float_array(self.m, (3, 3), "rotation matrix")
        err = float(np.abs(m.T @ m - _EYE3).max())
        if err > ORTHONORMALITY_TOL:
            raise ValueError(f"matrix is not orthonormal (max residual {err:.3e})")
        det = float(np.linalg.det(m))
        if abs(det - 1.0) > ORTHONORMALITY_TOL:
            raise ValueError(f"matrix determinant {det:.17g} is not +1")
        _freeze(self, "m", m)

    @classmethod
    def identity(cls) -> "Rotation":
        return cls(np.eye(3))

    @classmethod
    def from_axis_angle(cls, axis, angle: float) -> "Rotation":
        """Rodrigues' formula. axis is normalized here; zero axis is an error."""
        a = _as_float_array(axis, (3,), "axis")
        n = float(np.linalg.norm(a))
        if n < 1e-12:
            raise ValueError("rotation axis has near-zero norm")
        a = a / n
        k = np.array([
            [0.0, -a[2], a[1]],
            [a[2], 0.0, -a[0]],
            [-a[1], a[0], 0.0],
        ])
        m = np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)
        return cls(m)

    @classmethod
    def from_quaternion(cls, q) -> "Rotation":
        """Unit quaternion (w, x, y, z) to matrix. I/O convenience only."""
        arr = _as_float_array(q, (4,), "quaternion")
        n = float(np.linalg.norm(arr))
        if abs(n - 1.0) > UNIT_TOL:
            raise ValueError(f"quaternion norm {n:.17g} is not 1")
        return cls(_quat_to_matrix(arr[np.newaxis, :])[0])

    def to_quaternion(self) -> np.ndarray:
        """Matrix to unit quaternion (w, x, y, z), w >= 0. I/O convenience only."""
        m = self.m
        tr = float(np.trace(m))
        if tr > 0.0:
            s = math.sqrt(tr + 1.0) * 2.0
            q = np.array([
                0.25 * s,
                (m[2, 1] - m[1, 2]) / s,
                (m[0, 2] - m[2, 0]) / s,
                (m[1, 0] - m[0, 1]) / s,
            ])
        elif m[0, 0] >= m[1, 1] and m[0, 0] >= m[2, 2]:
            s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
            q = np.array([
                (m[2, 1] - m[1, 2]) / s,
                0.25 * s,
                (m[0, 1] + m[1, 0]) / s,
                (m[0, 2] + m[2, 0]) / s,
            ])
        elif m[1, 1] >= m[2, 2]:
            s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
            q = np.array([
                (m[0, 2] - m[2, 0]) / s,
                (m[0, 1] + m[1, 0]) / s,
                0.25 * s,
                (m[1, 2] + m[2, 1]) / s,
            ])
        else:
            s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
            q = np.array([
                (m[1, 0] - m[0, 1]) / s,
                (m[0, 2] + m[2, 0]) / s,
                (m[1, 2] + m[2, 1]) / s,
                0.25 * s,
            ])
        if q[0] < 0.0:
            q = -q
        return q / np.linalg.norm(q)

    def apply(self, vectors) -> np.ndarray:
        """Rotate a (3,) vector or (m, 3) row-stack of vectors."""
        v = np.asarray(vectors, dtype=np.float64)
        if v.ndim == 1:
            return self.m @ v
        return v @ self.m.T

    def inverse(self) -> "Rotation":
        return Rotation(self.m.T)

    def __matmul__(self, other: "Rotation") -> "Rotation":
        if not isinstance(other, Rotation):
            return NotImplemented
        return Rotation(self.m @ other.m)


@dataclass(frozen=True)
class Pose:
    """Rigid camera-to-world transform: x_w = r @ x_c + t."""

    r: Rotation
    t: np.ndarray

    def __post_init__(self):
        if not isinstance(self.r, Rotation):
            object.__setattr__(self, "r", Rotation(self.r))
        _freeze(self, "t", _as_float_array(self.t, (3,), "translation"))

    @classmethod
    def identity(cls) -> "Pose":
        return cls(Rotation.identity(), np.zeros(3))

    def matrix(self) -> np.ndarray:
        """4x4 homogeneous matrix."""
        m = np.eye(4)
        m[:3, :3] = self.r.m
        m[:3, 3] = self.t
        return m

    def apply(self, points) -> np.ndarray:
        p = np.asarray(points, dtype=np.float64)
        if p.ndim == 1:
            return self.r.m @ p + self.t
        return p @ self.r.m.T + self.t


@dataclass(frozen=True)
class UnitVec3:
    """Unit-norm 3-vector value type."""

    v: np.ndarray

    def __post_init__(self):
        v = _as_float_array(self.v, (3,), "vector")
        n = float(np.linalg.norm(v))
        if abs(n - 1.0) > UNIT_TOL:
            raise ValueError(f"vector norm {n:.17g} is not 1 within {UNIT_TOL}")
        _freeze(self, "v", v)

    @classmethod
    def normalize(cls, v) -> "UnitVec3":
        arr = _as_float_array(v, (3,), "vector")
        n = float(np.linalg.norm(arr))
        if n < 1e-12:
            raise ValueError("cannot normalize a near-zero vector")
        return cls(arr / n)


@dataclass(frozen=True)
class Seed:
    """64-bit unsigned seed. Every random draw in the package flows through one.

    Child generators are derived with numpy SeedSequence spawn keys, so
    per-frame streams are a pure function of (seed, path) and never depend
    on execution order or thread count.
    """

    value: int

    def __post_init__(self):
        if isinstance(self.value, bool) or not isinstance(self.value, int):
            raise TypeError("seed value must be an int")
        if not 0 <= self.value < 2**64:
            raise ValueError("seed value must fit in an unsigned 64-bit integer")

    def sequence(self, *path: int) -> np.random.SeedSequence:
        return np.random.SeedSequence(entropy=self.value, spawn_key=tuple(path))

    def rng(self, *path: int) -> np.random.Generator:
        return np.random.default_rng(self.sequence(*path))

    def derive(self, *path: int) -> "Seed":
        """Stable child seed for keying sub-streams (e.g. one per frame)."""
        state = self.sequence(*path).generate_state(1, dtype=np.uint64)
        return Seed(int(state[0]))


def geodesic_distance(a: Rotation, b: Rotation) -> float:
    """Geodesic distance on SO(3) between two rotations, in [0, pi] radians.

    Equals arccos(clamp((trace(a^T b) - 1) / 2, -1, 1)). Evaluated through
    atan2 of the (sin, cos) pair of the relative angle: the Frobenius norm of
    the antisymmetric part of a^T b gives sin, the trace gives cos. Unlike
    raw arccos this keeps full precision near 0 and pi (no sqrt(eps) floor),
    and returns exactly 0.0 for identical rotations.
    """
    q = a.m.T @ b.m
    c = 0.5 * (float(q.trace()) - 1.0)
    anti = (q - q.T).ravel(order="K")  # np.linalg.norm's Frobenius path, unwrapped
    s = math.sqrt(anti.dot(anti)) / _SQRT8
    return math.atan2(s, max(-1.0, min(1.0, c)))


def compose(p: Pose, q: Pose) -> Pose:
    """Composition p then-applied-after q: (p . q).apply(x) == p.apply(q.apply(x))."""
    return Pose(p.r @ q.r, p.r.m @ q.t + p.t)


def inverse(p: Pose) -> Pose:
    r_inv = p.r.inverse()
    return Pose(r_inv, -(r_inv.m @ p.t))


def _quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """(k, 4) unit quaternions (w, x, y, z) to (k, 3, 3) matrices."""
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    out = np.empty((q.shape[0], 3, 3))
    out[:, 0, 0] = 1.0 - 2.0 * (y * y + z * z)
    out[:, 0, 1] = 2.0 * (x * y - w * z)
    out[:, 0, 2] = 2.0 * (x * z + w * y)
    out[:, 1, 0] = 2.0 * (x * y + w * z)
    out[:, 1, 1] = 1.0 - 2.0 * (x * x + z * z)
    out[:, 1, 2] = 2.0 * (y * z - w * x)
    out[:, 2, 0] = 2.0 * (x * z - w * y)
    out[:, 2, 1] = 2.0 * (y * z + w * x)
    out[:, 2, 2] = 1.0 - 2.0 * (x * x + y * y)
    return out


def random_rotation_matrices(seed: Seed, count: int) -> np.ndarray:
    """(count, 3, 3) rotations drawn uniformly (Haar) on SO(3).

    A normalized 4D standard Gaussian is uniform on the quaternion sphere,
    which pushes forward to the uniform distribution on SO(3).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    g = seed.rng().standard_normal((count, 4))
    q = g / np.linalg.norm(g, axis=1, keepdims=True)
    return _quat_to_matrix(q)


def random_rotation(seed: Seed) -> Rotation:
    """One uniform random rotation, deterministic per seed."""
    return Rotation(random_rotation_matrices(seed, 1)[0])


def save_poses(poses: Iterable[Pose], path) -> None:
    """Write poses as text: 12 numbers per line, row-major R then t.

    %.17g formatting round-trips float64 exactly, comfortably above the
    15-significant-digit floor the format requires.
    """
    with open(path, "w", encoding="ascii") as fh:
        for pose in poses:
            nums = list(pose.r.m.reshape(-1)) + list(pose.t)
            fh.write(" ".join(format(x, ".17g") for x in nums) + "\n")


def load_poses(path) -> list[Pose]:
    """Read a pose text file written by save_poses. Validates each rotation."""
    poses: list[Pose] = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 12:
                raise ValueError(
                    f"{path}:{lineno}: expected 12 numbers per pose line, got {len(parts)}"
                )
            vals = np.array([float(p) for p in parts])
            poses.append(Pose(Rotation(vals[:9].reshape(3, 3)), vals[9:]))
    return poses
