"""Rotations, camera poses, seeded randomness, and pose file I/O.

Conventions used throughout the package:
    - matrices are row-major numpy float64
    - a Pose maps camera coordinates to world coordinates: x_w = R @ x_c + t,
      so Pose.t is the camera center expressed in world coordinates
    - angles are radians unless a name says otherwise
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import _EXPORTS

__all__ = _EXPORTS["geometry"]

# Construction gates, not solver accuracy targets. Anything produced by the
# solvers lands around 1e-15; these only reject genuinely broken inputs.
ORTHONORMALITY_TOL = 1e-9
UNIT_TOL = 1e-9

_SQRT8 = 2.0 * math.sqrt(2.0)
_EYE3 = np.eye(3)


def _row_sums(x: np.ndarray) -> np.ndarray:
    """x.sum(axis=-1) of (..., 3) rows bit for bit, without its reduction setup.

    NumPy adds the three columns in order onto its identity +0.0; the trailing
    + 0.0 is that identity, which only turns an all -0.0 row's sum into +0.0.
    """
    sums = x[..., 0] + x[..., 1]
    sums += x[..., 2]
    sums += 0.0
    return sums


def _mean(x: np.ndarray) -> np.float64:
    """x.mean() bit for bit for a non-empty 1-D float64 x: its add.reduce and division."""
    return np.add.reduce(x) / x.size


def _row_norms(x: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """np.linalg.norm(x, axis=-1, keepdims=keepdims) bit for bit, without its dispatch."""
    norms = _row_sums(x * x)
    np.sqrt(norms, out=norms)
    return norms[..., np.newaxis] if keepdims else norms


def _normalized_rows(arr: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Rows scaled to unit norm, and the (m, 1) norms they were divided by."""
    with np.errstate(over="ignore"):  # rows past ~1e154 square to inf, named below
        norms = _row_norms(arr, keepdims=True)
    if not np.isfinite(norms).all():
        raise ValueError(f"cannot normalize {what} rows: their norms overflow")
    if (norms < 1e-12).any():
        raise ValueError(f"cannot normalize near-zero {what} rows")
    return arr / norms, norms


def _cross_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross of (..., 3) rows bit for bit, without its axis handling: component k
    is a[k+1] b[k+2] - a[k+2] b[k+1] (indices mod 3), written column by column
    into one output."""
    a0, a1, a2, b0, b1, b2 = a[..., 0], a[..., 1], a[..., 2], b[..., 0], b[..., 1], b[..., 2]
    out = np.empty(np.broadcast(a, b).shape)
    for k, (x, y, z, w) in enumerate(((a1, b2, a2, b1), (a2, b0, a0, b2), (a0, b1, a1, b0))):
        np.multiply(x, y, out=out[..., k])
        out[..., k] -= z * w
    return out


def _tangent_basis(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal tangent pair (u, v) per unit (..., 3) row of d; the helper axis e_z or e_x avoids the pole."""
    u = _cross_rows(d, np.where(np.abs(d[..., 2:]) < 0.9, _EYE3[2], _EYE3[0]))
    u /= _row_norms(u, keepdims=True)
    return u, _cross_rows(d, u)


def _as_float_array(value, shape: tuple[int, ...], name: str) -> np.ndarray:
    out = np.asarray(value, dtype=np.float64)
    if out.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {out.shape}")
    if not np.isfinite(out).all():
        raise ValueError(f"{name} contains non-finite entries")
    return out


def _det3(m) -> float:
    """Cofactor determinant of a 3x3 nested list of Python floats."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _check_rotations(ms: np.ndarray) -> None:
    """Raise for the first entry of a finite (F, 3, 3) stack that is not orthonormal with det +1.

    Entries whose M^T M - I and det M - 1 residuals, on Python floats, sum to at most half the
    tolerance pass: NumPy rounds such unit-sized rows within ~1e-15 of them. Any other stack
    goes to NumPy's check, which picks the failing entry and words its message."""
    for m in ms.tolist():
        (a, b, c), (d, e, f), (g, h, i) = m
        err = (abs(a * a + d * d + g * g - 1.0) + abs(b * b + e * e + h * h - 1.0)
               + abs(c * c + f * f + i * i - 1.0) + abs(a * b + d * e + g * h)
               + abs(a * c + d * f + g * i) + abs(b * c + e * f + h * i) + abs(_det3(m) - 1.0))
        if not err <= 0.5 * ORTHONORMALITY_TOL:
            break
    else:
        return
    errs = np.abs(ms.transpose(0, 2, 1) @ ms - _EYE3).max(axis=(1, 2))
    for err, det in zip(errs.tolist(), np.linalg.det(ms).tolist()):
        if err > ORTHONORMALITY_TOL:
            raise ValueError(f"matrix is not orthonormal (max residual {err:.3e})")
        if abs(det - 1.0) > ORTHONORMALITY_TOL:
            raise ValueError(f"matrix determinant {det:.17g} is not +1")


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _freeze(obj, field: str, arr: np.ndarray) -> None:
    object.__setattr__(obj, field, _read_only(arr.copy()))


def _trusted(cls, **fields):
    """An instance of the frozen dataclass cls over values already checked, without __post_init__.

    Array values are made read-only in place, not copied: pass a fresh array or a view the
    caller never writes through. Names that are not fields (a cached_property value) are filled too."""
    for value in fields.values():
        if isinstance(value, np.ndarray):
            _read_only(value)
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True)
class Rotation:
    """Proper rotation in SO(3), stored as a 3x3 matrix.

    Construction validates orthonormality and det = +1 within
    ORTHONORMALITY_TOL, so a Rotation instance can be trusted downstream.
    """

    m: np.ndarray

    def __post_init__(self):
        m = _as_float_array(self.m, (3, 3), "rotation matrix")
        _check_rotations(m[np.newaxis])
        _freeze(self, "m", m)

    @classmethod
    def identity(cls) -> "Rotation":
        return cls(np.eye(3))

    @classmethod
    def from_axis_angle(cls, axis, angle: float) -> "Rotation":
        """Rodrigues' formula. axis is normalized here; zero axis is an error."""
        return cls(_axis_angle_matrices(_as_float_array(axis, (3,), "axis")[np.newaxis], [angle])[0])

    @classmethod
    def from_quaternion(cls, q) -> "Rotation":
        """Unit quaternion (w, x, y, z) to rotation: the per-frame path for quaternion
        ground truth (Cambridge Landmarks' poses). The matrix is checked once, by _rotations."""
        arr = _as_float_array(q, (4,), "quaternion")
        n = math.sqrt(arr.dot(arr))  # np.linalg.norm's 1-D path, unwrapped
        if abs(n - 1.0) > UNIT_TOL:
            raise ValueError(f"quaternion norm {n:.17g} is not 1")
        return _rotations(_quat_to_matrix(arr[np.newaxis]))[0]

    def __matmul__(self, other: "Rotation") -> "Rotation":
        if not isinstance(other, Rotation):
            return NotImplemented
        return Rotation(self.m @ other.m)


def _vector_norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row of an (F, 3) x bit for bit, as (F, 1): its 1-D path is sqrt(x.dot(x))."""
    return np.sqrt(x[:, np.newaxis] @ x[..., np.newaxis])[:, 0]


def _axis_angle_matrices(axes: np.ndarray, angles: Sequence[float], where: str = "") -> np.ndarray:
    """Rotation.from_axis_angle's matrices for (F, 3) axes, normalized here, and F angles, before
    their orthonormality check. The first entry k whose axis is not finite or has near-zero norm,
    or whose angle math.sin rejects, raises ValueError with where.format(k) before its message."""
    with np.errstate(over="ignore"):  # axes past ~1e154 square to inf; they are rescaled below
        norms = _vector_norms(axes)
    terms = []  # per entry, (sin, 1 - cos) of its angle
    for k, (finite, n, angle) in enumerate(zip(np.isfinite(axes).all(axis=1).tolist(), norms.ravel().tolist(), angles)):
        try:
            if not finite:
                raise ValueError("axis contains non-finite entries")
            if n < 1e-12:
                raise ValueError("rotation axis has near-zero norm")
            terms.append((math.sin(angle), 1.0 - math.cos(angle)))
        except ValueError as exc:
            raise ValueError(f"{where.format(k)}{exc}") from exc
    huge = np.isinf(norms)  # divided by their largest |entry| first; every other axis keeps its bits
    if huge.any():
        axes = np.where(huge, axes / np.abs(axes).max(axis=1, keepdims=True), axes)
        norms = np.where(huge, _vector_norms(axes), norms)
    x, y, z = (axes / norms).T
    zero = np.zeros_like(x)
    k = np.stack([zero, -z, y, z, zero, -x, -y, x, zero], axis=1).reshape(-1, 3, 3)
    s, c = np.array(terms).T[:, :, np.newaxis, np.newaxis]
    return _EYE3 + s * k + c * (k @ k)


def _rotations(ms: np.ndarray) -> list[Rotation]:
    """Rotations viewing an (F, 3, 3) stack, which becomes read-only, under one stacked check."""
    _check_rotations(ms)
    return [_trusted(Rotation, m=m) for m in _read_only(ms)]


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


# NumPy's SeedSequence (a pool of four uint32 words) and PCG64 seeding, replayed on
# arrays for _streams. NumPy does not promise SeedSequence is stable; tests pin this.
_M32, _M128 = 0xFFFFFFFF, (1 << 128) - 1
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _seed_words(words: list[np.ndarray], n: int) -> list[np.ndarray]:
    """SeedSequence(entropy).generate_state(n, np.uint64) for each entry of (N,) uint32
    arrays: the entropy's words, spawn-key padding included."""
    h = 0x43B0D7E5

    def hashmix(v, mult=0x931E8875):
        nonlocal h
        xor, h = h, h * mult & _M32
        v = (v ^ np.uint32(xor)) * np.uint32(h)
        return v ^ (v >> np.uint32(16))

    def mix(x, v):
        r = np.uint32(0xCA01F9DD) * x - np.uint32(0x4973F715) * hashmix(v)
        return r ^ (r >> np.uint32(16))

    pool = [hashmix(words[k] if k < len(words) else np.zeros_like(words[0])) for k in range(4)]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = mix(pool[dst], pool[src])
    for w in words[4:]:
        pool = [mix(p, w) for p in pool]
    h = 0x8B51F9DD  # generate_state's own hash constants
    out = [hashmix(pool[k % 4], 0x58F38DED).astype(np.uint64) for k in range(2 * n)]
    return [lo | hi << np.uint64(32) for lo, hi in zip(out[::2], out[1::2])]


def _streams(seed: Seed, idxs: Sequence[int]) -> list[tuple[int, int]]:
    """The PCG64 (state, inc) of seed.derive(i).rng() for each i in idxs, computed in bulk."""
    low = np.array([i & _M32 for i in idxs], dtype=np.uint32)
    words = [np.full_like(low, w) for w in (seed.value & _M32, seed.value >> 32, 0, 0)]
    children = _seed_words(words + [low], 1)[0]
    for k, i in enumerate(idxs):
        if not 0 <= i <= _M32:  # a spawn key of two words, or one SeedSequence rejects
            children[k] = seed.derive(i).value
    # Seed(c).rng(); SeedSequence hashes a zero for the second word of a child below 2**32.
    lo, hi = children.astype("<u8").view("<u4").reshape(-1, 2).T
    out = []
    for s_hi, s_lo, i_hi, i_lo in zip(*(a.tolist() for a in _seed_words([lo, hi], 4))):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128  # pcg64_set_seed: two LCG steps
        out.append((((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _M128, inc))
    return out


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


def _quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """(k, 4) unit quaternions (w, x, y, z) to (k, 3, 3) matrices, in one pass over Python floats.

    Each Python operator is the single IEEE double operation NumPy's elementwise ufunc would
    make, in the same order, so the entries match the column-wise array form bit for bit."""
    return np.array([
        (1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y),
         2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x),
         2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y))
        for w, x, y, z in q.tolist()]).reshape(-1, 3, 3)


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
    return _rotations(random_rotation_matrices(seed, 1))[0]


def save_poses(poses: Iterable[Pose], path) -> None:
    """Write poses as text: 12 numbers per line, row-major R then t.

    %.17g formatting round-trips float64 exactly, comfortably above the
    15-significant-digit floor the format requires.
    """
    with open(path, "w", encoding="ascii") as fh:
        rows = [pose.r.m.ravel().tolist() + pose.t.tolist() for pose in poses]
        fh.write(("%.17g " * 11 + "%.17g\n") * len(rows) % tuple(itertools.chain.from_iterable(rows)))


def load_poses(path) -> list[Pose]:
    """Read a pose text file written by save_poses. Validates each rotation."""
    poses: list[Pose] = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.split()
            try:
                if len(parts) != 12:
                    raise ValueError(f"expected 12 numbers per pose line, got {len(parts)}")
                vals = np.array([float(p) for p in parts])
                poses.append(Pose(Rotation(vals[:9].reshape(3, 3)), vals[9:]))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return poses
