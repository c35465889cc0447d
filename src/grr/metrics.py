"""Per-frame scores, their CSV writer and median summaries, shared by the CLI and the simulator reports."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _EXPORTS
from .geometry import _SQRT8, Pose
from .solver import DegenerateConfiguration, PoseRecovery

__all__ = _EXPORTS["metrics"]

REPORT_COLUMNS = ["frame", "rot_err_rays_deg", "rot_err_points_deg", "trans_err", "status"]


def median(values: Sequence[float]) -> float:
    """np.median bit for bit, without the numpy.ma import of its NaN check: NaN if
    empty or holding a NaN, else the middle value or the mean of the two middle
    ones, which np.mean adds onto +0.0 (so -0.0 becomes +0.0) and divides."""
    vals = sorted(map(float, values))
    n = len(vals)
    if n == 0 or any(math.isnan(v) for v in vals):
        return math.nan
    if n % 2:
        return 0.0 + vals[n // 2]
    return (0.0 + vals[n // 2 - 1] + vals[n // 2]) / 2


@dataclass(frozen=True)
class FrameRecord:
    """One frame's scores. Errors are NaN when status is not "ok"."""

    frame: int
    rot_err_rays_deg: float
    rot_err_points_deg: float
    trans_err: float
    status: str


def _trans_err(t: np.ndarray, gt_t: np.ndarray) -> float:
    """The distance between camera centres. Checked on Python floats, where an overflowing
    difference is inf without a warning; below 1e150 per axis the squares sum without overflow."""
    (x, y, z), (u, v, w) = t.tolist(), gt_t.tolist()
    dx, dy, dz = x - u, y - v, z - w
    if -1e150 < dx < 1e150 and -1e150 < dy < 1e150 and -1e150 < dz < 1e150:
        diff = t - gt_t
        return math.sqrt(diff.dot(diff))  # np.linalg.norm's 1-D path
    return math.hypot(dx, dy, dz)  # finite wherever the error is


def _score_frames(frames: Sequence[tuple[int, PoseRecovery | DegenerateConfiguration, Pose | None]]
                  ) -> list[FrameRecord]:
    """One record per (index, solve outcome, ground-truth pose or None), in order: "ok" for a
    PoseRecovery, with NaN errors without a pose, and "degenerate:<branch>" with NaN errors for
    a DegenerateConfiguration. The rotation errors are geodesic_distance's bits in degrees,
    from one stacked product, trace and antisymmetric norm over every scored rotation."""
    scored = [(rec, gt) for _, rec, gt in frames if gt is not None and isinstance(rec, PoseRecovery)]
    if scored:
        est = np.array([rec.pose.r.m for rec, _ in scored] + [rec.rotation_from_points.m for rec, _ in scored])
        q = np.swapaxes(est, -1, -2) @ np.array([gt.r.m for _, gt in scored] * 2)
        cos = 0.5 * (np.trace(q, axis1=1, axis2=2) - 1.0)
        anti = (q - np.swapaxes(q, -1, -2)).reshape(-1, 1, 9)
        sin = np.sqrt(anti @ anti.reshape(-1, 9, 1)).ravel() / _SQRT8
        degs = [math.degrees(math.atan2(s, max(-1.0, min(1.0, c)))) for s, c in zip(sin.tolist(), cos.tolist())]
        rays_deg, points_deg = iter(degs[:len(scored)]), iter(degs[len(scored):])
    records = []
    for idx, rec, gt in frames:
        if isinstance(rec, DegenerateConfiguration):
            records.append(FrameRecord(idx, math.nan, math.nan, math.nan, f"degenerate:{rec.branch or 'unknown'}"))
        elif gt is None:
            records.append(FrameRecord(idx, math.nan, math.nan, math.nan, "ok"))
        else:
            records.append(FrameRecord(idx, next(rays_deg), next(points_deg), _trans_err(rec.pose.t, gt.t), "ok"))
    return records


@dataclass(frozen=True)
class TrialReport:
    """Per-frame records plus medians over the frames that solved; the
    medians are NaN when none did or the frames had no ground truth."""

    records: tuple[FrameRecord, ...]
    median_rot_err_rays_deg: float
    median_rot_err_points_deg: float
    median_trans_err: float
    failure_count: int

    @property
    def frame_count(self) -> int:
        return len(self.records)

    def to_json_dict(self, unit_scale: float) -> dict:
        """`grr solve`'s summary. median_translation is multiplied by unit_scale
        (e.g. 100 reports centimeters for meter-scale scenes); both medians are
        None when no frame had ground truth or none solved."""
        scored = not math.isnan(self.median_rot_err_rays_deg)
        return {
            "median_rotation_deg": self.median_rot_err_rays_deg if scored else None,
            "median_translation": self.median_trans_err * unit_scale if scored else None,
            "frame_count": self.frame_count,
            "failure_count": self.failure_count,
            "unit_scale": unit_scale,
        }


def summarize_records(records: Sequence[FrameRecord]) -> TrialReport:
    """The report over `records`. Frames scored without a ground-truth pose
    have NaN errors, so their medians are NaN too."""
    ok = [r for r in records if r.status == "ok"]
    return TrialReport(
        records=tuple(records),
        median_rot_err_rays_deg=median([r.rot_err_rays_deg for r in ok]),
        median_rot_err_points_deg=median([r.rot_err_points_deg for r in ok]),
        median_trans_err=median([r.trans_err for r in ok]),
        failure_count=len(records) - len(ok),
    )


def _fmt(x: float) -> str:
    return format(x, ".17g")


def write_report_csv(records: Sequence[FrameRecord], path, have_gt: bool = True) -> None:
    """Per-frame CSV: frame, rot_err_rays_deg, rot_err_points_deg, trans_err, status.

    have_gt=False leaves the three error columns empty, for frames solved
    without ground-truth poses.
    """
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for r in records:
            if have_gt:
                errors = [_fmt(r.rot_err_rays_deg), _fmt(r.rot_err_points_deg), _fmt(r.trans_err)]
            else:
                errors = ["", "", ""]
            writer.writerow([r.frame, *errors, r.status])
