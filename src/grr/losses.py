"""Training-loss stack: pose, geometry, pairwise-consistency, domain, total.

All losses are plain floats of numpy inputs. The norm order p is 1 during
warmup and 2 afterwards (see NormSchedule); for vectors ||.||_p is the
literal L1/L2 norm of the 3-vector, for scalars |x|_p means |x|^p.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .camera import PointMap, RayBundle
from .geometry import Pose, Rotation, _freeze, _mean, _read_only, _row_norms, _row_sums, geodesic_distance

__all__ = _EXPORTS["losses"]


class EmptyNeighborSet(ValueError):
    """Raised when the pairwise-consistency loss gets no neighbor pairs."""


@dataclass(frozen=True)
class LossWeights:
    """Nonnegative term weights. Defaults: everything 1, domain head 0.1."""

    w_pose_r: float = 1.0
    w_pose_p: float = 1.0
    w_geo_r: float = 1.0
    w_geo_p: float = 1.0
    w_reg_r: float = 1.0
    w_reg_p: float = 1.0
    w_syn: float = 1.0
    w_real: float = 1.0
    w_domain: float = 0.1

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and nonnegative, got {v!r}")


@dataclass(frozen=True)
class NormSchedule:
    """Warmup switch for the norm order: p = 1 before warmup_steps, 2 after.

    L1 is forgiving of the large errors typical early in training; the
    switch to L2 sharpens convergence once predictions are in the basin.
    """

    warmup_steps: int = 0
    current_step: int = 0

    def __post_init__(self):
        if self.warmup_steps < 0 or self.current_step < 0:
            raise ValueError("steps must be nonnegative")

    @property
    def p(self) -> int:
        return 1 if self.current_step < self.warmup_steps else 2

    def at_step(self, step: int) -> "NormSchedule":
        return NormSchedule(self.warmup_steps, step)


@dataclass(frozen=True)
class NeighborSet:
    """Unordered index pairs over m items, used by the pairwise loss.

    pairs is a (k, 2) int array with i != j, indices in [0, m), and no
    duplicate unordered pair.
    """

    n_items: int
    pairs: np.ndarray

    def __post_init__(self):
        pairs = np.asarray(self.pairs, dtype=np.int64).reshape(-1, 2)
        if self.n_items < 1:
            raise ValueError("n_items must be >= 1")
        if pairs.size:
            if pairs.min() < 0 or pairs.max() >= self.n_items:
                raise ValueError("neighbor index out of range")
            if np.any(pairs[:, 0] == pairs[:, 1]):
                raise ValueError("self-pair in neighbor set")
            canon = np.sort(pairs, axis=1)
            if np.unique(canon, axis=0).shape[0] != pairs.shape[0]:
                raise ValueError("duplicate unordered pair in neighbor set")
        _freeze(self, "pairs", pairs)

    def __len__(self) -> int:
        return self.pairs.shape[0]

    @functools.cached_property
    def _scatter_index(self) -> np.ndarray:
        """Read-only flat bins (part * n_items + item) * 3 + column of a
        (2, n_items, 3) array, for (2, 3, 2k) columns that list, in each part
        and column, every pair's i, then every pair's j. Cached once from the
        frozen pairs; not a field, so equality and repr are unchanged."""
        bins = (self.pairs.T.reshape(1, -1) * 3 + np.arange(3)[:, np.newaxis]).ravel()
        return _read_only(np.concatenate([bins, bins + 3 * self.n_items]))

    @classmethod
    def grid(cls, n: int, connectivity: int = 4) -> "NeighborSet":
        """Neighbor pairs of an n x n row-major grid; connectivity 4 or 8."""
        if connectivity not in (4, 8):
            raise ValueError("connectivity must be 4 or 8")
        pairs = []
        for r in range(n):
            for c in range(n):
                i = r * n + c
                if c + 1 < n:
                    pairs.append((i, i + 1))
                if r + 1 < n:
                    pairs.append((i, i + n))
                if connectivity == 8 and r + 1 < n:
                    if c + 1 < n:
                        pairs.append((i, i + n + 1))
                    if c - 1 >= 0:
                        pairs.append((i, i + n - 1))
        if not pairs:
            raise EmptyNeighborSet(f"grid n={n} yields no neighbor pairs")
        return cls(n * n, np.array(pairs, dtype=np.int64))


def _rows(x, what: str) -> np.ndarray:
    if isinstance(x, RayBundle):
        return x.dirs
    if isinstance(x, PointMap):
        return x.pts
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"{what} must be (m, 3), got {arr.shape}")
    return arr


def _check_p(p: int) -> None:
    if p not in (1, 2):
        raise ValueError(f"norm order p must be 1 or 2, got {p!r}")


def _vec_pnorm(v: np.ndarray, p: int) -> float:
    if p == 1:
        return float(np.add.reduce(np.abs(v)))  # ndarray.sum's reduction
    return math.sqrt(v.dot(v))  # np.linalg.norm's 1-D path


def _row_pnorms(a: np.ndarray, p: int) -> np.ndarray:
    return _row_sums(np.abs(a)) if p == 1 else _row_norms(a)


def _scalar_pow(x: np.ndarray, p: int) -> np.ndarray:
    # |x|_p for scalars is |x|^p
    return np.abs(x) if p == 1 else x * x


def pose_loss(r_hat: Rotation, t_hat, gt: Pose, weights: LossWeights, p: int) -> float:
    """Supervision on the recovered pose against the ground-truth pose.

    w_pose_r * d_g(r_hat, gt.r)^p + w_pose_p * ||t_hat - gt.t||_p, with d_g
    the SO(3) geodesic distance. The translation term is the literal vector
    p-norm, not its p-th power.
    """
    _check_p(p)
    t_hat = np.asarray(t_hat, dtype=np.float64).reshape(3)
    return _pose_value(geodesic_distance(r_hat, gt.r), t_hat - gt.t, weights, p)


def _pose_value(dist: float, t_resid, weights: LossWeights, p: int) -> float:
    """pose_loss from the geodesic distance and the translation residual."""
    return weights.w_pose_r * dist ** p + weights.w_pose_p * _vec_pnorm(t_resid, p)


def geometry_loss(rays_hat, rays_gt, pts_hat, pts_gt, weights: LossWeights, p: int) -> float:
    """Direct supervision of the predicted representations.

    Ray term: mean over patches of (1 - d_hat . d_gt), clipped per ray to
    [0, 2] to absorb round-off at the unit-norm boundary (for unit inputs
    the cosine term lives in [0, 2] mathematically). Point term: mean of
    ||p_hat - p_gt||_p over patches.
    """
    _check_p(p)
    d_hat = _rows(rays_hat, "rays_hat")
    d_gt = _rows(rays_gt, "rays_gt")
    p_hat = _rows(pts_hat, "pts_hat")
    p_gt = _rows(pts_gt, "pts_gt")
    return _geometry_terms(d_hat, d_gt, p_hat, p_gt, weights, p)[0]


def _geometry_terms(d_hat, d_gt, p_hat, p_gt, weights: LossWeights, p: int):
    """(geometry_loss, 1 - d_hat . d_gt, p_hat - p_gt, ||p_hat - p_gt||_p), per patch."""
    if d_hat.shape != d_gt.shape or p_hat.shape != p_gt.shape:
        raise ValueError("prediction/ground-truth shapes differ")
    cos_dev = 1.0 - _row_sums(d_hat * d_gt)
    resid = p_hat - p_gt
    point_norms = _row_pnorms(resid, p)
    cos_term = float(_mean(cos_dev.clip(0.0, 2.0)))
    point_term = float(_mean(point_norms))
    return weights.w_geo_r * cos_term + weights.w_geo_p * point_term, cos_dev, resid, point_norms


def regularization_loss(
    rays_hat, pts_hat, rays_cam, pts_gt, neighbors: NeighborSet, weights: LossWeights, p: int
) -> float:
    """Pairwise consistency over neighboring patches.

    For each neighbor pair (i, j): the predicted ray dot product is pulled
    toward the canonical camera-frame dot product (a rotation-invariant
    target, so this term never fights the unknown pose), and the predicted
    pairwise point distance toward the ground-truth pairwise distance.
    Both deviations enter as |x|^p; the sum is averaged over pairs. Every
    array must have one row per neighbor-set item.
    """
    _check_p(p)
    d_hat = _rows(rays_hat, "rays_hat")
    p_hat = _rows(pts_hat, "pts_hat")
    d_cam = _rows(rays_cam, "rays_cam")
    p_gt = _rows(pts_gt, "pts_gt")
    named = (("rays_hat", d_hat), ("pts_hat", p_hat), ("rays_cam", d_cam), ("pts_gt", p_gt))
    for name, arr in named:
        if arr.shape[0] != neighbors.n_items:
            raise ValueError(
                f"neighbor set is over {neighbors.n_items} items, {name} has {arr.shape[0]}"
            )
    return _pair_terms(d_hat, p_hat, d_cam, p_gt, neighbors, weights, p).value


# regularization_loss and the per-pair terms its gradient reuses: d_ij = d_hat at
# every pair's i, then at its j, as (2, k, 3), delta = p_hat[i] - p_hat[j],
# dist_dev = |delta| - dist_gt, cam_dots = d_cam[i] . d_cam[j] (given or gathered).
_PairTerms = namedtuple("_PairTerms", "value d_ij ray_dev delta dist_hat dist_dev cam_dots")


def _pair_terms(d_hat, p_hat, d_cam, p_gt, neighbors: NeighborSet, weights: LossWeights, p: int,
                cam_dots=None):
    if len(neighbors) == 0:
        raise EmptyNeighborSet("neighbor set has no pairs")
    if neighbors.n_items != d_hat.shape[0]:
        raise ValueError(
            f"neighbor set is over {neighbors.n_items} items, bundles have {d_hat.shape[0]}"
        )
    # Rows i and j of the three arrays in one gather, as contiguous halves:
    # rows[a, 0] is array a at every pair's i, rows[a, 1] at its j. Row-wise
    # products on strided (k, 2, 3) halves cost one loop call per pair.
    rows = np.array((d_hat, p_hat, p_gt)).take(neighbors.pairs.T, axis=1)
    if cam_dots is None:
        c_ij = d_cam.take(neighbors.pairs.T, axis=0)
        cam_dots = _row_sums(c_ij[0] * c_ij[1])
    d_ij = rows[0]
    ray_dev = _row_sums(d_ij[0] * d_ij[1]) - cam_dots
    deltas = rows[1:, 0] - rows[1:, 1]  # predicted, then ground-truth, p_i - p_j
    dists = _row_norms(deltas)
    delta, dist_hat = deltas[0], dists[0]
    dist_dev = dist_hat - dists[1]
    per_pair = weights.w_reg_r * _scalar_pow(ray_dev, p) + weights.w_reg_p * _scalar_pow(
        dist_dev, p
    )
    return _PairTerms(float(_mean(per_pair)), d_ij, ray_dev, delta, dist_hat, dist_dev, cam_dots)


def _pair_grads(neighbors: NeighborSet, coef, d_ij, pull, delta) -> np.ndarray:
    """(2, m, 3) pair-term gradients w.r.t. the rays, then the points.

    Pair (i, j) adds coef * d_j to ray i and coef * d_i to ray j, pull * delta
    to point i and its negation to point j (coef and pull are (k,)). One
    np.bincount over the neighbor set's flat bins sums the repeated rows, each
    bin in pair order, i sides first. The terms are laid out column by column,
    so each product runs along the k pairs, not along 3-wide rows.
    """
    k = len(neighbors)
    cols = np.empty((2, 3, 2 * k))
    np.multiply(coef, d_ij[1].T, out=cols[0, :, :k])
    np.multiply(coef, d_ij[0].T, out=cols[0, :, k:])
    np.multiply(pull, delta.T, out=cols[1, :, :k])
    np.negative(cols[1, :, :k], out=cols[1, :, k:])
    summed = np.bincount(neighbors._scatter_index, weights=cols.ravel(),
                         minlength=6 * neighbors.n_items)
    return summed.reshape(2, -1, 3)


def domain_bce(logit: float, label: int) -> float:
    """Numerically stable binary cross-entropy with logits.

    label 0 = synthetic, 1 = real. Uses the softplus form
    max(x, 0) - x*label + log1p(exp(-|x|)), which never overflows and
    underflows to exactly 0.0 for confidently correct logits.
    """
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label!r}")
    x = float(logit)
    if not math.isfinite(x):
        raise ValueError("logit must be finite")
    return max(x, 0.0) - x * label + math.log1p(math.exp(-abs(x)))


def total_loss(
    syn_term: float,
    real_term: float,
    domain_terms: tuple[float, float],
    weights: LossWeights,
) -> float:
    """Weighted batch total.

    w_syn * L_syn + w_real * L_real + w_domain * (L_dom_syn + L_dom_real);
    linear in every weight, which the tests exploit.
    """
    parts = (syn_term, real_term, domain_terms[0], domain_terms[1])
    if not all(math.isfinite(float(v)) for v in parts):
        raise ValueError("loss components must be finite")
    return (
        weights.w_syn * float(syn_term)
        + weights.w_real * float(real_term)
        + weights.w_domain * (float(domain_terms[0]) + float(domain_terms[1]))
    )
