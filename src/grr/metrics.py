"""Evaluation metrics shared by the CLI and the simulator reports."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import Pose, geodesic_distance
from .simulator import FrameRecord, median

__all__ = ["MetricsSummary", "pose_errors", "median", "summarize_records"]


def pose_errors(est: Pose, gt: Pose) -> tuple[float, float]:
    """(rotation error in degrees, translation error in scene units).

    Rotation error is the SO(3) geodesic between the estimates; translation
    error is the Euclidean distance between camera centers.
    """
    rot = math.degrees(geodesic_distance(est.r, gt.r))
    trans = float(np.linalg.norm(est.t - gt.t))
    return rot, trans


@dataclass(frozen=True)
class MetricsSummary:
    """Medians over solved frames. median_translation is pre-multiplied by
    unit_scale (e.g. 100 reports centimeters for meter-scale scenes); None
    when no frame had ground truth or none solved."""

    median_rotation_deg: float | None
    median_translation: float | None
    frame_count: int
    failure_count: int
    unit_scale: float = 1.0

    def to_json_dict(self) -> dict:
        return {
            "median_rotation_deg": self.median_rotation_deg,
            "median_translation": self.median_translation,
            "frame_count": self.frame_count,
            "failure_count": self.failure_count,
            "unit_scale": self.unit_scale,
        }


def summarize_records(
    records: Sequence[FrameRecord], unit_scale: float = 1.0, have_gt: bool = True
) -> MetricsSummary:
    ok = [r for r in records if r.status == "ok"]
    failures = len(records) - len(ok)
    if not have_gt or not ok:
        return MetricsSummary(None, None, len(records), failures, unit_scale)
    return MetricsSummary(
        median_rotation_deg=median([r.rot_err_rays_deg for r in ok]),
        median_translation=median([r.trans_err for r in ok]) * unit_scale,
        frame_count=len(records),
        failure_count=failures,
        unit_scale=unit_scale,
    )
