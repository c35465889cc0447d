"""JSON configuration parsing for the CLI.

Paths inside a config file resolve relative to the file's own directory.
Every malformed field raises ConfigError with the offending key named, and
the CLI maps ConfigError to exit code 3.
"""

from __future__ import annotations

import glob
import json
import math
import os
from typing import TYPE_CHECKING, Any

from . import _EXPORTS
from .camera import Intrinsics, PatchGrid
from .geometry import Seed

if TYPE_CHECKING:  # imported by the builders that use them, so `grr gen` loads neither
    from .losses import LossWeights, NormSchedule
    from .simulator import NoiseSpec, PosePerturbSpec

__all__ = _EXPORTS["config"]


class ConfigError(ValueError):
    """Configuration file missing, unparseable, or with invalid fields."""


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config root in {path} must be a JSON object")
    return data


_REQUIRED = object()


def _get(d: dict, key: str, types, where: str, default=_REQUIRED):
    if key not in d:
        if default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r} in {where}")
        return default
    v = d[key]
    # JSON integers are acceptable wherever a float is expected.
    if types is float and isinstance(v, (int, float)) and not isinstance(v, bool):
        return _finite_float(v, f"key {key!r} in {where}")
    if not isinstance(v, types) or (isinstance(v, bool) and types is not bool):
        raise ConfigError(f"key {key!r} in {where} has wrong type {type(v).__name__}")
    return v


def _finite_float(v: int | float, what: str) -> float:
    """v as a finite float. json parses NaN, Infinity and integers beyond the
    float range; no config value accepts them."""
    try:
        f = float(v)
    except OverflowError:
        f = math.inf
    if not math.isfinite(f):
        raise ConfigError(f"{what} must be a finite number, got {f}")
    return f


def grid_from_config(d: Any) -> PatchGrid:
    if not isinstance(d, dict):
        raise ConfigError("grid section must be an object")
    try:
        intr = Intrinsics(
            fx=_get(d, "fx", float, "grid"),
            fy=_get(d, "fy", float, "grid"),
            cx=_get(d, "cx", float, "grid"),
            cy=_get(d, "cy", float, "grid"),
            width=_get(d, "width", int, "grid"),
            height=_get(d, "height", int, "grid"),
        )
        return PatchGrid(intr, n=_get(d, "n", int, "grid"))
    except ValueError as exc:
        raise ConfigError(f"invalid grid: {exc}") from exc


def weights_from_config(d: Any) -> LossWeights:
    """All keys optional; defaults are the LossWeights defaults."""
    from .losses import LossWeights

    if d is None:
        return LossWeights()
    if not isinstance(d, dict):
        raise ConfigError("weights section must be an object")
    known = set(LossWeights.__dataclass_fields__)
    extra = set(d) - known
    if extra:
        raise ConfigError(f"unknown weight keys: {sorted(extra)}")
    try:
        return LossWeights(**{k: _get(d, k, float, "weights") for k in d})
    except ValueError as exc:
        raise ConfigError(f"invalid weights: {exc}") from exc


def schedule_from_config(d: Any) -> NormSchedule:
    """All keys optional; the default schedule is past warmup (p = 2)."""
    from .losses import NormSchedule

    if d is None:
        return NormSchedule()
    if not isinstance(d, dict):
        raise ConfigError("schedule section must be an object")
    try:
        return NormSchedule(
            warmup_steps=_get(d, "warmup_steps", int, "schedule", default=0),
            current_step=_get(d, "current_step", int, "schedule", default=0),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid schedule: {exc}") from exc


def _seed_from(d: dict, key: str, fallback: Seed, where: str) -> Seed:
    raw = _get(d, key, int, where, default=None)
    if raw is None:
        return fallback
    try:
        return Seed(raw)
    except ValueError as exc:  # _get gave an int that is not a bool
        raise ConfigError(f"invalid seed in {where}: {exc}") from exc


def noise_spec_from_config(d: Any, fallback_seed: Seed, index: int) -> NoiseSpec:
    from .simulator import NoiseSpec

    if not isinstance(d, dict):
        raise ConfigError(f"noise entry {index} must be an object")
    where = f"noise[{index}]"
    bias = _get(d, "point_bias", list, where, default=[0.0, 0.0, 0.0])
    # type(), not isinstance: a JSON true is a bool, and bool is an int.
    # NoiseSpec checks that there are three and that they are finite.
    if any(type(b) not in (int, float) for b in bias):
        raise ConfigError(f"invalid {where}: point_bias entries must be numbers")
    try:
        return NoiseSpec(
            ray_sigma=_get(d, "ray_sigma", float, where, default=0.0),
            point_sigma=_get(d, "point_sigma", float, where, default=0.0),
            point_bias=bias,
            mode=_get(d, "mode", str, where, default="iid_gaussian"),
            seed=_seed_from(d, "seed", fallback_seed.derive(2, index), where),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


def perturb_spec_from_config(d: Any, fallback_seed: Seed) -> PosePerturbSpec:
    from .simulator import PosePerturbSpec

    if not isinstance(d, dict):
        raise ConfigError("perturb section must be an object")
    try:
        return PosePerturbSpec(
            sigma_t=_get(d, "sigma_t", float, "perturb", default=0.0),
            sigma_r=_get(d, "sigma_r", float, "perturb", default=0.0),
            count=_get(d, "count", int, "perturb", default=1),
            seed=_seed_from(d, "seed", fallback_seed.derive(1), "perturb"),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid perturb: {exc}") from exc


def resolve_paths(value: Any, base_dir: str, what: str) -> list[str]:
    """A list of paths, or a single glob pattern string, relative to base_dir."""
    if isinstance(value, str):
        pattern = os.path.join(base_dir, value)
        matches = sorted(glob.glob(pattern))
        if not matches:
            raise ConfigError(f"{what}: glob {value!r} matched no files")
        return matches
    if isinstance(value, list) and all(isinstance(v, str) for v in value):
        if not value:
            raise ConfigError(f"{what}: empty path list")
        return [os.path.join(base_dir, v) for v in value]
    raise ConfigError(f"{what} must be a glob string or a list of paths")
