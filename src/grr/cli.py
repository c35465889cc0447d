"""Command-line entry point.

Subcommands: gen, solve, gradcheck, ablate, loss. Every subcommand takes
--config PATH (JSON) plus the common overrides --seed and --out, and no
other flag. `main` rejects an --out that names a file (gen, solve, ablate),
reads the config and hands the command (args, config, config directory).
Diagnostics go to stderr (level via GRR_LOG); machine-readable results go
to stdout as JSON with sorted keys.

Exit codes: 0 success, 1 check failure, 2 degenerate input, 3 I/O or
config error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

# camera and geometry load with config anyway; every other grr module is
# imported inside the command that runs it, so `grr gen` never loads the
# solver and only `loss` and `gradcheck` load the training stack.
from .camera import (
    PatchGrid,
    PointMap,
    RayBundle,
    canonical_points,
    canonical_rays,
    read_xyz_csv,
    world_points,
    world_rays,
    write_xyz_csv,
)
from .config import (
    ConfigError,
    grid_from_config,
    load_json,
    noise_spec_from_config,
    perturb_spec_from_config,
    resolve_paths,
    schedule_from_config,
    weights_from_config,
    _REQUIRED,
    _finite_float,
    _get,
)
from .geometry import (
    Pose,
    Seed,
    _rotations,
    load_poses,
    random_rotation_matrices,
    save_poses,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_DEGENERATE = 2
EXIT_CONFIG = 3

_LOG_LEVELS = {"error": 40, "warn": 30, "info": 20, "debug": 10}  # the logging module's numbers


class _Log:
    """The logging module's `LEVEL grr: message` stderr lines, without its import cost."""

    level = _LOG_LEVELS["warn"]

    def _write(self, level: int, name: str, msg: str, *args) -> None:
        if level >= self.level:
            sys.stderr.write(f"{name} grr: {msg % args if args else msg}\n")

    error = functools.partialmethod(_write, 40, "ERROR")
    warning = functools.partialmethod(_write, 30, "WARNING")
    info = functools.partialmethod(_write, 20, "INFO")


log = _Log()


def _setup_logging() -> None:
    name = os.environ.get("GRR_LOG", "warn")
    if name not in _LOG_LEVELS:
        raise ConfigError(
            f"GRR_LOG must be one of {sorted(_LOG_LEVELS)}, got {name!r}"
        )
    log.level = _LOG_LEVELS[name]


def _emit(payload: dict) -> None:
    # Sorted keys keep stdout byte-stable across runs.
    print(json.dumps(payload, sort_keys=True))


def _run_seed(args, cfg: dict) -> Seed:
    """--seed beats the config key beats 0."""
    if args.seed is not None:
        return Seed(args.seed)
    raw = _get(cfg, "seed", int, "config", default=0)
    return Seed(raw)


def _out_dir(args) -> str:
    """--out, created on first use: call it only once the config is accepted."""
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _random_poses(seed: Seed, count: int) -> list[Pose]:
    """count Haar-random rotations with U(-2, 2)^3 camera centers."""
    rots = _rotations(random_rotation_matrices(seed, count))
    centers = seed.rng(1).uniform(-2.0, 2.0, size=(count, 3))
    return [Pose(r, c) for r, c in zip(rots, centers)]


def _base_poses(cfg: dict, base_dir: str, seed: Seed) -> list[Pose]:
    """Either a poses file or a frame count for random ground truth."""
    has_file = "poses" in cfg
    frames = _get(cfg, "frames", int, "config", default=None)
    if has_file == (frames is not None):
        raise ConfigError("config needs exactly one of 'poses' or 'frames'")
    if has_file:
        path = _get(cfg, "poses", str, "config")
        return load_poses(os.path.join(base_dir, path))
    if frames < 1:
        raise ConfigError("'frames' must be >= 1")
    return _random_poses(seed.derive(0), frames)


def _grid(cfg: dict) -> PatchGrid:
    """The config's patch grid."""
    grid = grid_from_config(_get(cfg, "grid", dict, "config"))
    # Canonical rays are always patch means; the key stays readable so an old
    # config that asks for anything else fails instead of being ignored.
    method = _get(cfg, "method", str, "config", default="mean")
    if method != "mean":
        raise ConfigError(f"key 'method' in config must be 'mean', got {method!r}")
    return grid


def _canonical(cfg: dict) -> tuple[PatchGrid, RayBundle, PointMap]:
    """The config's patch grid with its canonical rays and unit-distance points."""
    grid = _grid(cfg)
    rays = canonical_rays(grid)
    return grid, rays, canonical_points(rays)


def _dataset(
    cfg: dict, base_dir: str, need_gt: bool
) -> tuple[PatchGrid, RayBundle, PointMap, list[tuple[str, str]], list[Pose] | None]:
    """What `solve` and `loss` read: the grid, its canonical rays and points,
    the (ray file, point file) pair per frame, and the ground-truth poses
    (None when `gt_poses` is optional and absent or empty)."""
    grid, rays, pts = _canonical(cfg)
    ray_files = resolve_paths(_get(cfg, "rays", (str, list), "config"), base_dir, "rays")
    pt_files = resolve_paths(_get(cfg, "points", (str, list), "config"), base_dir, "points")
    if len(ray_files) != len(pt_files):
        raise ConfigError(f"{len(ray_files)} ray files vs {len(pt_files)} point files")
    gt_path = _get(cfg, "gt_poses", str, "config", default=_REQUIRED if need_gt else "")
    gt = load_poses(os.path.join(base_dir, gt_path)) if gt_path or need_gt else None
    if gt is not None and len(gt) != len(ray_files):
        raise ConfigError(f"{len(gt)} GT poses vs {len(ray_files)} frames")
    return grid, rays, pts, list(zip(ray_files, pt_files)), gt


def _in_frame(idx: int, rf: str, pf: str, fn, *args):
    """fn(*args), naming frame idx and its files in a ValueError fn raises (reads passed as args keep theirs)."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise ValueError(f"frame {idx} (rays {rf}, points {pf}): {exc}") from exc


def cmd_gen(args, cfg: dict, base_dir: str) -> int:
    seed = _run_seed(args, cfg)

    grid, rays, pts = _canonical(cfg)
    poses = _base_poses(cfg, base_dir, seed)

    out = _out_dir(args)
    write_xyz_csv(os.path.join(out, "canonical_rays.csv"), rays.dirs)
    write_xyz_csv(os.path.join(out, "canonical_points.csv"), pts.pts)
    save_poses(poses, os.path.join(out, "gt_poses.txt"))
    for idx, pose in enumerate(poses):
        wr = world_rays(pose, rays)
        wp = world_points(pose, pts)
        write_xyz_csv(os.path.join(out, f"world_rays_{idx:04d}.csv"), wr.dirs)
        write_xyz_csv(os.path.join(out, f"world_points_{idx:04d}.csv"), wp.pts)
    log.info("gen: wrote %d frames to %s", len(poses), out)
    _emit({"frames": len(poses), "patches": grid.patch_count})
    return EXIT_OK


def cmd_solve(args, cfg: dict, base_dir: str) -> int:
    from .metrics import _score_frames, summarize_records, write_report_csv
    from .solver import DegenerateConfiguration, recover_pose

    _, rays_cam, pts_cam, files, gt = _dataset(cfg, base_dir, need_gt=False)
    unit_scale = _get(cfg, "unit_scale", float, "config", default=1.0)
    if unit_scale <= 0.0:
        raise ConfigError(f"key 'unit_scale' in config must be positive, got {unit_scale}")

    frames: list[tuple] = []  # (frame, outcome, ground-truth pose or None)
    # Points near the float limit overflow in the centroid, centring or cross-covariance; checks name it.
    with np.errstate(over="ignore", invalid="ignore"):
        for idx, (rf, pf) in enumerate(files):
            rays = _in_frame(idx, rf, pf, RayBundle.from_array, read_xyz_csv(rf))
            pts = _in_frame(idx, rf, pf, PointMap, read_xyz_csv(pf))
            try:
                rec = _in_frame(idx, rf, pf, recover_pose, rays_cam, pts_cam, rays, pts)
            except DegenerateConfiguration as exc:
                log.warning("frame %d degenerate: %s", idx, exc)
                rec = exc
            frames.append((idx, rec, None if gt is None else gt[idx]))
        records = _score_frames(frames)

    out = _out_dir(args)
    # A degenerate frame's placeholder identity pose keeps the output file frame-aligned.
    save_poses((Pose.identity() if isinstance(rec, DegenerateConfiguration) else rec.pose for _, rec, _ in frames),
               os.path.join(out, "solved_poses.txt"))
    write_report_csv(records, os.path.join(out, "frames.csv"), have_gt=gt is not None)
    _emit(summarize_records(records).to_json_dict(unit_scale))
    return EXIT_OK


def cmd_gradcheck(args, cfg: dict, base_dir: str) -> int:
    from .solver import DegenerateConfiguration
    from .solver_grad import _GRADCHECK_OPS, NearSingularJacobian, finite_diff_check

    seed = _run_seed(args, cfg)

    op = _get(cfg, "op", str, "config", default="rotation")
    if op not in _GRADCHECK_OPS:
        raise ConfigError(f"gradcheck op must be one of {sorted(_GRADCHECK_OPS)}")
    default_size, random_instance, collinear_instance = _GRADCHECK_OPS[op]
    size = _get(cfg, "size", int, "config", default=default_size)
    h = _get(cfg, "h", float, "config", default=1e-5)
    threshold = _get(cfg, "threshold", float, "config", default=1e-4)
    kind = _get(cfg, "instance", str, "config", default="random")
    if kind not in ("random", "collinear"):
        raise ConfigError("gradcheck instance must be 'random' or 'collinear'")
    if kind == "collinear" and collinear_instance is None:
        raise ConfigError("collinear instances exist only for the solver ops")
    instance = random_instance(seed, size) if kind == "random" else collinear_instance(size)

    try:
        report = finite_diff_check(op, instance, h=h, seed=seed)
    except (NearSingularJacobian, DegenerateConfiguration) as exc:
        log.warning("gradcheck %s rejected: %s", op, exc)
        _emit({"op": op, "error": type(exc).__name__})
        return EXIT_DEGENERATE

    _emit(
        {
            "op": report.op,
            "max_rel_err": report.max_rel_err,
            "max_abs_err": report.max_abs_err,
            "n_params": report.n_params,
        }
    )
    if report.max_rel_err >= threshold:
        log.error(
            "gradcheck %s: max_rel_err %.3g >= threshold %.3g",
            op, report.max_rel_err, threshold,
        )
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_ablate(args, cfg: dict, base_dir: str) -> int:
    from .metrics import write_report_csv
    from .simulator import ablation_sweep, sample_poses, write_sweep_csv

    seed = _run_seed(args, cfg)

    grid = _grid(cfg)
    poses = _base_poses(cfg, base_dir, seed)
    # Noise near the float limit overflows the draws, tilts or centroids; the value checks name it.
    with np.errstate(over="ignore", invalid="ignore"):
        if "perturb" in cfg:
            poses = sample_poses(poses, perturb_spec_from_config(cfg["perturb"], seed))
        noise_cfgs = _get(cfg, "noise", list, "config")
        if not noise_cfgs:
            raise ConfigError("'noise' must list at least one spec")
        specs = [noise_spec_from_config(d, seed, i) for i, d in enumerate(noise_cfgs)]
        reports = ablation_sweep(grid, poses, specs)
    out = _out_dir(args)
    write_sweep_csv(specs, reports, os.path.join(out, "sweep.csv"))
    for i, report in enumerate(reports):
        write_report_csv(report.records, os.path.join(out, f"trial_{i:03d}.csv"))
    log.info("ablate: %d trials x %d frames", len(specs), len(poses))
    _emit({"frames": len(poses), "trials": len(specs)})
    return EXIT_OK


def cmd_loss(args, cfg: dict, base_dir: str) -> int:
    from .losses import NeighborSet, domain_bce, total_loss
    from .solver import DegenerateConfiguration
    from .solver_grad import FrameInputs, pipeline_loss

    grid, rays_cam, pts_cam, files, gt = _dataset(cfg, base_dir, need_gt=True)

    weights = weights_from_config(cfg.get("weights"))
    schedule = schedule_from_config(cfg.get("schedule"))
    p = schedule.p
    connectivity = _get(cfg, "connectivity", int, "config", default=4)
    domains = _get(cfg, "domains", list, "config", default=[0] * len(gt))
    if len(domains) != len(gt) or any(
        type(d) is not int or d not in (0, 1) for d in domains
    ):
        raise ConfigError("'domains' must give 0 or 1 per frame")
    logits = _get(cfg, "domain_logits", list, "config", default=None)
    if logits is not None:
        if len(logits) != len(gt):
            raise ConfigError("'domain_logits' must give one logit per frame")
        if any(not isinstance(x, (int, float)) or isinstance(x, bool) for x in logits):
            raise ConfigError("'domain_logits' entries must be numbers")
        logits = [_finite_float(x, f"domain_logits[{k}]") for k, x in enumerate(logits)]

    neighbors = NeighborSet.grid(grid.n, connectivity=connectivity)  # a ValueError exits 3 as a ConfigError does

    frames = []
    totals = {0: [], 1: []}
    # Points near the float limit overflow the row norms or the centroid; the checks name the frame.
    with np.errstate(over="ignore", invalid="ignore"):
        for idx, (rf, pf) in enumerate(files):
            fi = _in_frame(idx, rf, pf, FrameInputs, rays_cam.dirs, pts_cam.pts, read_xyz_csv(rf),
                           read_xyz_csv(pf), gt[idx], neighbors, weights, p)
            try:
                terms = _in_frame(idx, rf, pf, pipeline_loss, fi)
            except DegenerateConfiguration as exc:
                # One degenerate frame aborts the batch (exit 2); name it.
                raise DegenerateConfiguration(
                    f"frame {idx} (rays {rf}, points {pf}): {exc}", branch=exc.branch
                ) from exc
            totals[domains[idx]].append(terms.total)
            frames.append({"frame": idx, "domain": domains[idx], "pose": terms.pose, "geometry": terms.geometry,
                           "regularization": terms.regularization, "total": terms.total})

    l_syn = float(np.mean(totals[0])) if totals[0] else 0.0
    l_real = float(np.mean(totals[1])) if totals[1] else 0.0
    if logits is None:
        dom_syn = dom_real = 0.0
    else:
        by_label = {0: [], 1: []}
        for lab, logit in zip(domains, logits):
            by_label[lab].append(domain_bce(logit, lab))
        dom_syn = float(np.mean(by_label[0])) if by_label[0] else 0.0
        dom_real = float(np.mean(by_label[1])) if by_label[1] else 0.0

    grand = total_loss(l_syn, l_real, (dom_syn, dom_real), weights)
    _emit({"domain_real": dom_real, "domain_syn": dom_syn, "frames": frames, "l_real": l_real,
           "l_syn": l_syn, "p": p, "total": grand})
    return EXIT_OK


_COMMANDS = {
    "gen": cmd_gen,
    "solve": cmd_solve,
    "gradcheck": cmd_gradcheck,
    "ablate": cmd_ablate,
    "loss": cmd_loss,
}
_WRITES_OUT = ("gen", "solve", "ablate")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grr",
        description="Patch-grid pose pipeline: generate, solve, check, sweep, score.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv=None) -> int:
    try:
        _setup_logging()
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    args = _build_parser().parse_args(argv)
    try:
        # An --out that names a file is reported before the config is read.
        if args.command in _WRITES_OUT and os.path.exists(args.out) and not os.path.isdir(args.out):
            raise ConfigError(f"--out {args.out!r} exists and is not a directory")
        cfg = load_json(args.config)
        return _COMMANDS[args.command](args, cfg, os.path.dirname(os.path.abspath(args.config)))
    except (ConfigError, OSError, ValueError) as exc:
        log.error("%s", exc)
        return EXIT_CONFIG
    except RuntimeError as exc:
        # Both classes are RuntimeErrors; import them only once one is raised.
        from .solver import DegenerateConfiguration
        from .solver_grad import NearSingularJacobian

        if not isinstance(exc, (DegenerateConfiguration, NearSingularJacobian)):
            raise
        log.error("degenerate input: %s", exc)
        return EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())
