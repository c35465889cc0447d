"""Pinhole patch-grid camera: canonical ray bundles and unit-distance pointmaps.

Coordinate conventions:
    - camera frame: +z along the optical axis (forward), +x right, +y down
    - pixel (u, v): u indexes columns, v indexes rows; the center of pixel
      (u, v) sits at (u + 0.5, v + 0.5) in pixel coordinates
    - the patch grid is n x n over the full image; patch boundaries along a
      dimension of size W are floor(k * W / n) for k = 0..n, so sizes differ
      by at most one pixel when n does not divide W
    - patches are indexed row-major: i = row * n + col
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _EXPORTS
from .geometry import Pose, UNIT_TOL, _freeze, _normalized_rows, _read_only, _row_norms, _tangent_basis, _trusted

__all__ = _EXPORTS["camera"]


def _check_kind(obj, name: str, real: bool = False) -> None:
    """Reject a field that is not an int or NumPy integer (with real, or a float or NumPy
    float), or is a bool, naming it."""
    value = getattr(obj, name)
    kinds = (int, float, np.integer, np.floating) if real else (int, np.integer)
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ValueError(f"{name} must be {'a real number' if real else 'an integer'}, got {value!r}")


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole intrinsics in pixels. No distortion model."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        for name in ("fx", "fy", "cx", "cy"):
            _check_kind(self, name, real=True)
        for name in ("fx", "fy"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        _check_kind(self, "width")
        _check_kind(self, "height")
        if self.fx <= 0.0 or self.fy <= 0.0:
            raise ValueError("focal lengths must be positive")
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be >= 1 pixel")
        if not (0.0 <= self.cx <= self.width):
            raise ValueError("cx must lie inside [0, width]")
        if not (0.0 <= self.cy <= self.height):
            raise ValueError("cy must lie inside [0, height]")


@dataclass(frozen=True)
class PatchGrid:
    """n x n patch decomposition of an image."""

    intrinsics: Intrinsics
    n: int

    def __post_init__(self):
        _check_kind(self, "n")
        if self.n < 1:
            raise ValueError("grid side n must be >= 1")
        if self.n > min(self.intrinsics.width, self.intrinsics.height):
            raise ValueError(
                f"n = {self.n} exceeds the smaller image dimension; "
                "some patches would contain zero pixels"
            )

    @property
    def patch_count(self) -> int:
        return self.n * self.n

    def col_bounds(self) -> np.ndarray:
        return np.array([(k * self.intrinsics.width) // self.n for k in range(self.n + 1)])

    def row_bounds(self) -> np.ndarray:
        return np.array([(k * self.intrinsics.height) // self.n for k in range(self.n + 1)])


@dataclass(frozen=True)
class RayBundle:
    """Row-stack of unit direction vectors, one per patch, row-major order.

    `norms` (the (m, 1) row norms validation computed), `unit` and `tangents`
    (computed once) are read-only per-instance attributes, not dataclass fields.
    """

    dirs: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.dirs, dtype=np.float64)
        if d.ndim != 2 or d.shape[1] != 3:
            raise ValueError(f"dirs must have shape (m, 3), got {d.shape}")
        if not np.isfinite(d).all():
            raise ValueError("dirs contains non-finite entries")
        norms = _row_norms(d, keepdims=True)
        worst = float(np.abs(norms - 1.0).max()) if d.shape[0] else 0.0
        if worst > UNIT_TOL:
            raise ValueError(f"ray norms deviate from 1 by up to {worst:.3e}")
        _freeze(self, "dirs", d)
        object.__setattr__(self, "norms", _read_only(norms))

    @functools.cached_property
    def unit(self) -> np.ndarray:
        """dirs / norms, the unit rows the ray solve aligns."""
        return _read_only(self.dirs / self.norms)

    @functools.cached_property
    def tangents(self) -> tuple[np.ndarray, np.ndarray]:
        """(u, v): per-row unit tangents orthogonal to dirs, the frame the noise tilts in."""
        return tuple(_read_only(t) for t in _tangent_basis(self.dirs))

    @classmethod
    def from_array(cls, arr) -> "RayBundle":
        """Wrap an (m, 3) array of directions, renormalizing its rows first."""
        d = np.asarray(arr, dtype=np.float64)
        if d.ndim != 2 or d.shape[1] != 3:
            raise ValueError(f"expected (m, 3) array, got {d.shape}")
        if not np.isfinite(d).all():  # before normalizing, which would call it an overflow
            raise ValueError("dirs contains non-finite entries")
        return cls(_normalized_rows(d, "ray")[0])

    def __len__(self) -> int:
        return self.dirs.shape[0]


@dataclass(frozen=True)
class PointMap:
    """Row-stack of 3D points, one per patch, row-major order.

    `centroid`, `centred` and whether centring stayed finite are computed once, like RayBundle.unit.
    """

    pts: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.pts, dtype=np.float64)
        if p.ndim != 2 or p.shape[1] != 3:
            raise ValueError(f"pts must have shape (m, 3), got {p.shape}")
        if not np.isfinite(p).all():
            raise ValueError("pts contains non-finite entries")
        _freeze(self, "pts", p)

    def __len__(self) -> int:
        return self.pts.shape[0]

    @functools.cached_property
    def centroid(self) -> np.ndarray:
        """(1 @ pts) / m: the rigid solve's centroid under uniform weights."""
        return _read_only((np.ones(len(self)) @ self.pts) / len(self))

    @functools.cached_property
    def centred(self) -> np.ndarray:
        """pts - centroid."""
        return _read_only(self.pts - self.centroid)

    @functools.cached_property
    def _centred_finite(self) -> bool:
        """Whether centred is finite: centring can overflow."""
        return bool(np.isfinite(self.centred).all())


def _pixel_rays(intr: Intrinsics) -> np.ndarray:
    """(height, width, 3) normalized rays through every pixel center."""
    x = (np.arange(intr.width) + 0.5 - intr.cx) / intr.fx
    y = (np.arange(intr.height) + 0.5 - intr.cy) / intr.fy
    rays = np.empty((intr.height, intr.width, 3))
    rays[:, :, 0] = x[np.newaxis, :]
    rays[:, :, 1] = y[:, np.newaxis]
    rays[:, :, 2] = 1.0
    rays /= np.linalg.norm(rays, axis=2, keepdims=True)
    return rays


def canonical_rays(grid: PatchGrid) -> RayBundle:
    """Canonical camera-frame ray bundle for a patch grid.

    Each patch direction is the mean of the normalized per-pixel rays inside
    the patch, renormalized.
    """
    rbounds = grid.row_bounds()
    cbounds = grid.col_bounds()
    row_counts = np.diff(rbounds)  # each >= 1: PatchGrid keeps n <= min(width, height)
    col_counts = np.diff(cbounds)
    counts = np.multiply.outer(row_counts, col_counts).astype(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # a tiny fx or fy overflows; RayBundle names it
        rays = _pixel_rays(grid.intrinsics)
        band_sums = np.add.reduceat(rays, rbounds[:-1], axis=0)
        patch_sums = np.add.reduceat(band_sums, cbounds[:-1], axis=1)
        flat = (patch_sums / counts[:, :, np.newaxis]).reshape(grid.patch_count, 3)
        # A pinhole ray bundle always has positive z, so the mean cannot vanish.
        dirs = flat / np.linalg.norm(flat, axis=1, keepdims=True)
    return RayBundle(dirs)


def canonical_points(rays: RayBundle) -> PointMap:
    """Unit-distance canonical pointmap: the point along each ray at distance 1.

    With the camera at the origin this is numerically identical to the ray
    directions themselves.
    """
    return PointMap(rays.dirs)


def world_rays(pose: Pose, rays: RayBundle) -> RayBundle:
    """Rotate a camera-frame bundle into the world frame (no translation)."""
    return RayBundle(rays.dirs @ pose.r.m.T)


def world_points(pose: Pose, pts: PointMap) -> PointMap:
    """Map a camera-frame pointmap into the world frame."""
    return PointMap(pts.pts @ pose.r.m.T + pose.t)


def _world_frames(poses: Sequence[Pose], rays: RayBundle, pts: PointMap) -> list[tuple[RayBundle, PointMap]]:
    """[(world_rays(p, rays), world_points(p, pts)) for p in poses] bit for bit, tangents filled, as
    views of stacks built and checked at once; a failing stack is rebuilt pose by pose to raise."""
    r_t = np.array([pose.r.m for pose in poses]).transpose(0, 2, 1)
    d = rays.dirs @ r_t
    p = pts.pts @ r_t + np.array([pose.t for pose in poses])[:, np.newaxis]
    norms = _row_norms(d, keepdims=True)
    if not (np.isfinite(d).all() and np.isfinite(p).all()
            and np.abs(norms - 1.0).max(initial=0.0) <= UNIT_TOL):
        return [(world_rays(pose, rays), world_points(pose, pts)) for pose in poses]
    return [(_trusted(RayBundle, dirs=dk, norms=nk, tangents=(uk, vk)), _trusted(PointMap, pts=pk))
            for dk, nk, uk, vk, pk in zip(*map(_read_only, (d, norms, *_tangent_basis(d), p)))]


_XYZ_HEADER = "i,x,y,z"
# One parsed body row: the integer index, then the three coordinates.
_XYZ_ROW = np.dtype([("i", np.int64), ("xyz", np.float64, (3,))])


@functools.lru_cache(maxsize=8)
def _xyz_template(m: int) -> str:
    """printf template for an m-row file: the header, then i,%.17g,%.17g,%.17g per row.

    Rows end in \r\n, as csv.writer ends them.
    """
    return _XYZ_HEADER + "\r\n" + "".join(f"{i},%.17g,%.17g,%.17g\r\n" for i in range(m))


def write_xyz_csv(path, rows) -> None:
    """Write an (m, 3) array as CSV with header i,x,y,z and \r\n row ends.

    %.17g round-trips float64 exactly, so a written file reloads bitwise.
    """
    arr = np.asarray(rows, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"expected an (m, 3) array, got {arr.shape}")
    text = _xyz_template(arr.shape[0]) % tuple(arr.ravel().tolist())
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(text)


def read_xyz_csv(path) -> np.ndarray:
    """Read a CSV written by write_xyz_csv back into an (m, 3) array.

    Rejects a wrong header, blank lines, rows without exactly four fields,
    an index column other than the integers 0..m-1 in order, and non-finite
    values.
    """
    # Universal newlines make \r\n and \r row ends \n; str.splitlines would also split at \x0b, \x0c, \x1c-\x1e.
    with open(path, "r", encoding="ascii") as fh:
        header, *rows = fh.read().split("\n")
    if header != _XYZ_HEADER:
        raise ValueError(f"{path}: expected header {_XYZ_HEADER}, got {header!r}")
    if not rows or rows == [""]:
        return np.empty((0, 3))
    # loadtxt skips empty lines; a blank line is a malformed row here. The last "" ends the file.
    if "" in rows[:-1]:
        raise ValueError(f"{path}: blank line in the body, expected 4 fields per row")
    # NumPy 1.x parses an index such as "1.0" as an integer with only a
    # DeprecationWarning; raise it so that index is rejected there too.
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            data = np.loadtxt(rows, delimiter=",", dtype=_XYZ_ROW, comments=None, ndmin=1)
        except (ValueError, DeprecationWarning) as exc:
            raise ValueError(f"{path}: expected 4 fields i,x,y,z per row: {exc}") from None
    misplaced = (data["i"] != np.arange(len(data))).nonzero()[0]
    if misplaced.size:
        k = int(misplaced[0])
        raise ValueError(f"{path}: row index {data['i'][k]} out of order at line {k + 2}")
    out = np.ascontiguousarray(data["xyz"])
    if not np.isfinite(out).all():
        raise ValueError(f"{path}: non-finite values")
    return out
