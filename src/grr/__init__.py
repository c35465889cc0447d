"""Patch-grid geometric representations and closed-form pose recovery.

The pipeline: a pinhole camera and an n x n patch grid define canonical
per-patch ray directions and a unit-distance pointmap; predicted world-frame
copies of those representations determine the camera pose in closed form
(rotation from rays by SVD alignment, translation from points by rigid
registration). Everything downstream of that solve - analytic gradients,
the training loss stack, a perturbation simulator, and median-error
metrics - lives here too, behind the `grr` command-line tool.

Public names resolve on first use (PEP 562): `import grr` loads no
submodule, and `grr.X` imports only the module that defines X.
"""

import importlib

# Defining module -> its public names: the only list of them, which the
# package resolves lazily and each module takes as its `__all__`.
_EXPORTS = {
    "camera": (
        "Intrinsics", "PatchGrid", "PointMap", "RayBundle", "canonical_points",
        "canonical_rays", "read_xyz_csv", "world_points", "world_rays",
        "write_xyz_csv",
    ),
    "config": ("ConfigError",),
    "geometry": (
        "Pose", "Rotation", "Seed", "geodesic_distance", "load_poses",
        "random_rotation", "random_rotation_matrices", "save_poses",
    ),
    "losses": (
        "EmptyNeighborSet", "LossWeights", "NeighborSet", "NormSchedule",
        "domain_bce", "geometry_loss", "pose_loss", "regularization_loss",
        "total_loss",
    ),
    "metrics": ("FrameRecord", "TrialReport", "median", "summarize_records", "write_report_csv"),
    "simulator": (
        "NoiseSpec", "PosePerturbSpec", "ablation_sweep", "perturb_representations",
        "run_trial", "sample_poses", "write_sweep_csv",
    ),
    "solver": (
        "AlignmentProblem", "DegenerateConfiguration", "PoseRecovery",
        "SolveDiagnostics", "kabsch_rotation", "recover_pose", "rigid_align",
    ),
    "solver_grad": (
        "FrameInputs", "FrameLossTerms", "GradReport", "NearSingularJacobian",
        "VjpRequest", "VjpResult", "finite_diff_check", "kabsch_rotation_vjp",
        "near_collinear_problem", "pipeline_loss", "pipeline_loss_grad",
        "random_alignment_problem", "random_frame_inputs", "random_rigid_problem",
        "rigid_align_vjp",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Not cached here: a name rebound in its defining module (a tracer, a
    # monkeypatch) is what `grr.X` returns next time too.
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
