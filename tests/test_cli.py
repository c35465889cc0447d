"""CLI behaviour: outputs, exit codes, determinism, config errors.

Subcommands are driven in-process through main(argv); one test covers the
real process boundary via subprocess.
"""

import csv
import hashlib
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import grr
from grr import (ConfigError, FrameInputs, LossWeights, NeighborSet, Seed, canonical_points,
                 canonical_rays, geodesic_distance, load_poses, median, pipeline_loss, read_xyz_csv,
                 write_xyz_csv)
from grr.cli import main
from grr.config import (grid_from_config, noise_spec_from_config, perturb_spec_from_config, schedule_from_config,
                        weights_from_config)
from reference import GOLDEN_BUILD, numpy_build

GRID = {"fx": 48.0, "fy": 48.0, "cx": 32.0, "cy": 32.0, "width": 64, "height": 64, "n": 4}


def write_cfg(path, **cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


def dataset_cfg(directory, name="cfg.json", **extra):
    """A solve or loss config over the dataset files in directory, written there."""
    return write_cfg(directory / name, grid=GRID, rays="world_rays_*.csv", points="world_points_*.csv",
                     gt_poses="gt_poses.txt", **extra)


def changed_copy(dataset, tmp_path, name, change):
    """A copy of the dataset under tmp_path whose file `name` holds change(its rows)."""
    work = tmp_path / "in"
    shutil.copytree(dataset, work)
    write_xyz_csv(work / name, change(read_xyz_csv(work / name)))
    return work


def run_child(argv, warnings_as_errors=False, log="warn"):
    """`python -m grr.cli argv` in a child process, with RuntimeWarning an error if asked."""
    flags = ["-W", "error::RuntimeWarning"] if warnings_as_errors else []
    return subprocess.run([sys.executable, *flags, "-m", "grr.cli", *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(grr.__file__)),
                               "GRR_LOG": log})


@pytest.fixture
def run(capsys):
    def _run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        payload = json.loads(captured.out) if captured.out.strip() else None
        return code, payload, captured.out

    return _run


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """A generated 5-frame dataset, shared read-only by the tests."""
    d = tmp_path_factory.mktemp("data")
    cfg = write_cfg(d / "gen.json", grid=GRID, frames=5, seed=123)
    assert main(["gen", "--config", cfg, "--out", str(d)]) == 0
    return d


def tree_bytes(root):
    out = {}
    for base, _, files in os.walk(root):
        for f in files:
            p = os.path.join(base, f)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, root)] = fh.read()
    return out


class TestGen:
    @pytest.mark.parametrize("n,rows", [(4, 16), (16, 256)])
    def test_row_counts_match_grid(self, run, tmp_path, n, rows):
        grid = dict(GRID, n=n, width=16 * n, height=16 * n, cx=8.0 * n, cy=8.0 * n)
        cfg = write_cfg(tmp_path / "gen.json", grid=grid, frames=2, seed=7)
        code, payload, _ = run(["gen", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0
        assert payload == {"frames": 2, "patches": rows}
        assert read_xyz_csv(tmp_path / "canonical_rays.csv").shape == (rows, 3)
        assert read_xyz_csv(tmp_path / "world_rays_0001.csv").shape == (rows, 3)
        assert len(load_poses(tmp_path / "gt_poses.txt")) == 2

    def test_seed_flag_overrides_config_seed(self, run, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        cfg1 = write_cfg(tmp_path / "g1.json", grid=GRID, frames=3, seed=1)
        cfg2 = write_cfg(tmp_path / "g2.json", grid=GRID, frames=3, seed=2)
        run(["gen", "--config", cfg1, "--seed", "2", "--out", str(a)])
        run(["gen", "--config", cfg2, "--out", str(b)])
        assert (a / "gt_poses.txt").read_bytes() == (b / "gt_poses.txt").read_bytes()


class TestSolve:
    def test_recovers_generated_poses(self, run, dataset, tmp_path):
        cfg = dataset_cfg(dataset)
        code, payload, _ = run(["solve", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0
        assert payload["frame_count"] == 5
        assert payload["failure_count"] == 0
        assert payload["median_rotation_deg"] < 1e-7
        assert payload["median_translation"] < 1e-9
        solved = load_poses(tmp_path / "solved_poses.txt")
        gt = load_poses(dataset / "gt_poses.txt")
        for s, g in zip(solved, gt):
            assert math.degrees(geodesic_distance(s.r, g.r)) < 1e-7
            assert float(np.linalg.norm(s.t - g.t)) < 1e-9

    def test_summary_medians_match_frames_csv(self, run, dataset, tmp_path):
        cfg = dataset_cfg(dataset)
        code, payload, _ = run(["solve", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0
        with open(tmp_path / "frames.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        rot = [float(r["rot_err_rays_deg"]) for r in rows if r["status"] == "ok"]
        trans = [float(r["trans_err"]) for r in rows if r["status"] == "ok"]
        # %.17g output round-trips float64, so the medians agree exactly
        assert payload["median_rotation_deg"] == median(rot)
        assert payload["median_translation"] == median(trans)

    def test_unit_scale_scales_translation(self, run, dataset, tmp_path):
        plain = dataset_cfg(dataset, name="solve_plain.json")
        scaled = dataset_cfg(dataset, name="solve_scaled.json", unit_scale=100.0)
        _, a, _ = run(["solve", "--config", plain, "--out", str(tmp_path / "a")])
        _, b, _ = run(["solve", "--config", scaled, "--out", str(tmp_path / "b")])
        assert b["median_translation"] == a["median_translation"] * 100.0
        assert b["median_rotation_deg"] == a["median_rotation_deg"]

    def test_without_ground_truth(self, run, dataset, tmp_path):
        cfg = write_cfg(
            dataset / "solve_nogt.json",
            grid=GRID,
            rays="world_rays_*.csv",
            points="world_points_*.csv",
        )
        code, payload, _ = run(["solve", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0
        assert payload["median_rotation_deg"] is None
        assert payload["median_translation"] is None
        with open(tmp_path / "frames.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["rot_err_rays_deg"] == "" for r in rows)
        assert all(r["status"] == "ok" for r in rows)

    def test_degenerate_frame_recorded_not_fatal(self, run, dataset, tmp_path):
        # collapse one frame's rays to a single direction: no rotation is
        # recoverable from it, but the run must still finish
        work, _ = TestLoss.degenerate_frame_1(dataset, tmp_path)
        code, payload, _ = run(["solve", "--config", dataset_cfg(work), "--out", str(tmp_path / "out")])
        assert code == 0
        assert payload["failure_count"] == 1
        assert payload["frame_count"] == 5
        with open(tmp_path / "out" / "frames.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[1]["status"] == "degenerate:rays"
        assert len(load_poses(tmp_path / "out" / "solved_poses.txt")) == 5

    def test_bad_pose_line_is_named_by_path_and_line(self, capsys, dataset, tmp_path):
        gt = tmp_path / "gt_poses.txt"
        lines = (dataset / "gt_poses.txt").read_text().splitlines()
        lines[1] = " ".join(lines[1].split()[:9] + ["abc"] + lines[1].split()[10:])
        gt.write_text("\n".join(lines) + "\n")
        cfg = write_cfg(tmp_path / "solve.json", grid=GRID, rays=str(dataset / "world_rays_*.csv"),
                        points=str(dataset / "world_points_*.csv"), gt_poses=str(gt))
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"ERROR grr: {gt}:2: could not convert string to float: 'abc'\n"

    def test_huge_translation_error_is_finite_with_warnings_as_errors(self, dataset, tmp_path):
        """Points scaled by 1e155 solve to a translation whose error squares
        past the float range; the frame is still scored, with a finite error."""
        work = changed_copy(dataset, tmp_path, "world_points_0002.csv", lambda p: 1e155 * p)
        r = run_child(["solve", "--config", dataset_cfg(work), "--out", str(tmp_path / "o")],
                      warnings_as_errors=True)
        assert (r.returncode, r.stderr) == (0, "")
        with open(tmp_path / "o" / "frames.csv", newline="") as fh:
            row = list(csv.DictReader(fh))[2]
        assert row["status"] == "ok"
        assert 1e154 < float(row["trans_err"]) < 1e156


# What gradcheck prints when it rejects an instance or a config: (stdout, stderr).
REJECTED_ROTATION = ('{"error": "NearSingularJacobian", "op": "rotation"}\n',
                     "WARNING grr: gradcheck rotation rejected: SVD cross-term denominator below 1e-08 "
                     "(singular values 1.000e+00, 2.500e-09, 2.500e-09); gradient unreliable near degenerate "
                     "or reflective configurations\n")
REJECTED_RIGID = ('{"error": "NearSingularJacobian", "op": "rigid"}\n',
                  "WARNING grr: gradcheck rigid rejected: SVD cross-term denominator below 1e-08 "
                  "(singular values 2.500e-09, 2.500e-09, 1.233e-32); gradient unreliable near degenerate "
                  "or reflective configurations\n")
NOT_SOLVER_OP = ("", "ERROR grr: collinear instances exist only for the solver ops\n")
UNKNOWN_OP = ("", "ERROR grr: gradcheck op must be one of ['loss_total', 'rigid', 'rotation']\n")
# gradcheck at seed 3: (op, instance, size; None is the op's default) -> (exit code, the
# report's n_params or, for an exit code other than 0, the stdout and stderr).
GRADCHECK_TABLE = {
    ("rotation", "random", None): (0, 72), ("rotation", "random", 5): (0, 30),
    ("rigid", "random", None): (0, 96), ("rigid", "random", 5): (0, 30),
    ("loss_total", "random", None): (0, 96), ("loss_total", "random", 5): (0, 150),
    ("rotation", "collinear", None): (2, REJECTED_ROTATION), ("rotation", "collinear", 5): (2, REJECTED_ROTATION),
    ("rigid", "collinear", None): (2, REJECTED_RIGID), ("rigid", "collinear", 5): (2, REJECTED_RIGID),
    ("loss_total", "collinear", None): (3, NOT_SOLVER_OP), ("loss_total", "collinear", 5): (3, NOT_SOLVER_OP),
    ("hessian", "random", None): (3, UNKNOWN_OP), ("hessian", "random", 5): (3, UNKNOWN_OP),
}
# The reports' stdout on GOLDEN_BUILD: (op, size) -> stdout.
GRADCHECK_GOLDEN_STDOUT = {
    ("rotation", None): ('{"max_abs_err": 1.3021603934015857e-10, "max_rel_err": 2.6607227892333137e-08, '
                         '"n_params": 72, "op": "rotation"}\n'),
    ("rotation", 5): ('{"max_abs_err": 8.326805911451629e-11, "max_rel_err": 6.835647221420127e-10, '
                      '"n_params": 30, "op": "rotation"}\n'),
    ("rigid", None): ('{"max_abs_err": 1.4450522722864179e-10, "max_rel_err": 3.974714407982796e-08, '
                      '"n_params": 96, "op": "rigid"}\n'),
    ("rigid", 5): ('{"max_abs_err": 1.1316747539069638e-10, "max_rel_err": 3.5524103738416575e-09, '
                   '"n_params": 30, "op": "rigid"}\n'),
    ("loss_total", None): ('{"max_abs_err": 3.220928662672762e-10, "max_rel_err": 9.04448033478461e-09, '
                           '"n_params": 96, "op": "loss_total"}\n'),
    ("loss_total", 5): ('{"max_abs_err": 6.185239369294049e-10, "max_rel_err": 2.0558171219922185e-08, '
                        '"n_params": 150, "op": "loss_total"}\n'),
}


class TestGradcheck:
    def test_passes_for_each_op(self, run, tmp_path):
        for op in ("rotation", "rigid", "loss_total"):
            cfg = write_cfg(tmp_path / f"gc_{op}.json", op=op, seed=3)
            code, payload, _ = run(["gradcheck", "--config", cfg])
            assert code == 0, op
            assert payload["op"] == op
            assert payload["max_rel_err"] < 1e-4

    @pytest.mark.parametrize("op, instance, size", list(GRADCHECK_TABLE),
                             ids=[f"{op}-{kind}-{size or 'default'}" for op, kind, size in GRADCHECK_TABLE])
    def test_op_instance_size_table(self, capsys, tmp_path, op, instance, size):
        """Each op's default size and instance builders: the exit code and the
        whole output, or the report's n_params (its float bytes on GOLDEN_BUILD)."""
        extra = {} if size is None else {"size": size}
        cfg = write_cfg(tmp_path / "gc.json", op=op, instance=instance, seed=3, **extra)
        code = main(["gradcheck", "--config", cfg])
        out, err = capsys.readouterr()
        want_code, want = GRADCHECK_TABLE[op, instance, size]
        assert code == want_code
        if code:
            # The smallest singular value is rounding noise, so other builds may print it differently.
            assert out == want[0] and err.count("\n") == 1 and err.startswith(want[1].split("(singular")[0])
            if numpy_build() == GOLDEN_BUILD:
                assert err == want[1]
            return
        payload = json.loads(out)
        assert (payload["op"], payload["n_params"], err) == (op, want, "")
        assert payload["max_rel_err"] < 1e-4
        if numpy_build() == GOLDEN_BUILD:
            assert out == GRADCHECK_GOLDEN_STDOUT[op, size]

    def test_unreachable_threshold_fails(self, run, tmp_path):
        cfg = write_cfg(tmp_path / "gc.json", op="rotation", threshold=1e-13, seed=3)
        code, payload, _ = run(["gradcheck", "--config", cfg])
        assert code == 1
        assert payload["max_rel_err"] >= 1e-13

    def test_collinear_instance_exits_degenerate(self, run, tmp_path):
        cfg = write_cfg(tmp_path / "gc.json", op="rotation", instance="collinear")
        code, payload, _ = run(["gradcheck", "--config", cfg])
        assert code == 2
        assert payload == {"error": "NearSingularJacobian", "op": "rotation"}

    def test_config_errors(self, run, tmp_path):
        bad_op = write_cfg(tmp_path / "a.json", op="hessian")
        assert run(["gradcheck", "--config", bad_op])[0] == 3
        bad_combo = write_cfg(tmp_path / "b.json", op="loss_total", instance="collinear")
        assert run(["gradcheck", "--config", bad_combo])[0] == 3
        bad_h = write_cfg(tmp_path / "c.json", op="rotation", h=1.0)
        assert run(["gradcheck", "--config", bad_h])[0] == 3

    def test_seed_changes_the_instance(self, run, tmp_path):
        cfg = write_cfg(tmp_path / "gc.json", op="rigid")
        _, a, _ = run(["gradcheck", "--config", cfg, "--seed", "1"])
        _, b, _ = run(["gradcheck", "--config", cfg, "--seed", "2"])
        assert a["max_rel_err"] != b["max_rel_err"]


class TestAblate:
    def ablate_cfg(self, tmp_path, **extra):
        return write_cfg(
            tmp_path / "ablate.json",
            grid=GRID,
            frames=6,
            seed=11,
            noise=[{"ray_sigma": s} for s in (0.001, 0.01, 0.05)],
            **extra,
        )

    def test_sweep_outputs_and_monotonicity(self, run, tmp_path):
        cfg = self.ablate_cfg(tmp_path)
        code, payload, _ = run(["ablate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 0
        assert payload == {"frames": 6, "trials": 3}
        with open(tmp_path / "o" / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        meds = [float(r["median_rot_err_rays_deg"]) for r in rows]
        assert meds == sorted(meds)
        assert meds[-1] > meds[0]
        for i in range(3):
            assert (tmp_path / "o" / f"trial_{i:03d}.csv").exists()

    def test_perturb_multiplies_frames(self, run, tmp_path):
        cfg = self.ablate_cfg(tmp_path, perturb={"sigma_t": 0.01, "count": 3})
        code, payload, _ = run(["ablate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 0
        assert payload["frames"] == 18

    def test_poses_file_without_perturb(self, run, dataset, tmp_path):
        """The sweep over a given poses file: one frame per pose, no sampling, each
        trial the simulator's report on those poses."""
        noise = [{"ray_sigma": 0.01}, {"ray_sigma": 0.05, "point_sigma": 0.02, "mode": "per_patch_scaled"}]
        cfg = write_cfg(tmp_path / "ablate.json", grid=GRID, poses=str(dataset / "gt_poses.txt"), seed=11,
                        noise=noise)
        code, payload, _ = run(["ablate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert (code, payload) == (0, {"frames": 5, "trials": 2})
        specs = [noise_spec_from_config(n, Seed(11), k) for k, n in enumerate(noise)]
        reports = grr.ablation_sweep(grid_from_config(GRID), load_poses(dataset / "gt_poses.txt"), specs)
        for k, rep in enumerate(reports):
            grr.write_report_csv(rep.records, tmp_path / f"want_{k}.csv")
            assert (tmp_path / "o" / f"trial_{k:03d}.csv").read_bytes() == (tmp_path / f"want_{k}.csv").read_bytes()

    @pytest.mark.parametrize("bias", [[True, False, 0], [0, "0.1", 0], [None, 0, 0]])
    def test_point_bias_entries_must_be_numbers(self, run, tmp_path, bias):
        noise = [{"ray_sigma": 0.01}, {"point_bias": bias}]
        with pytest.raises(ConfigError, match=r"invalid noise\[1\]: point_bias"):
            noise_spec_from_config(noise[1], Seed(0), 1)
        cfg = write_cfg(tmp_path / "ablate.json", grid=GRID, frames=2, noise=noise)
        code, payload, _ = run(["ablate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 3
        assert payload is None
        assert not (tmp_path / "o" / "sweep.csv").exists()


# The benchmark's 16x16 geometry, seed 3, 20 poses x 2 jitters x the README's three noise specs.
GOLDEN_ABLATE = {
    "grid": {"fx": 300.0, "fy": 300.0, "cx": 128.0, "cy": 128.0,
             "width": 256, "height": 256, "n": 16},
    "frames": 20,
    "seed": 3,
    "perturb": {"sigma_t": 0.05, "sigma_r": 0.01, "count": 2},
    "noise": [
        {"ray_sigma": 0.001},
        {"ray_sigma": 0.01},
        {"ray_sigma": 0.05, "point_sigma": 0.02, "point_bias": [0.1, 0.0, 0.0],
         "mode": "per_patch_scaled"},
    ],
}
GOLDEN_SHA256 = {
    "sweep.csv": "a70abd0ed660aa368991bb2733d2b541344591aaa4a2f17fda39431d4582f9ae",
    "trial_000.csv": "8c9f21a0858029823e06daa9df853f42d7a573cb63cec7a2ad3b01cfac5dac1c",
    "trial_001.csv": "2cef9bd8917f804aa55c081bffefff72e9d30f5ab50fd80fcb6de181ec56e88e",
    "trial_002.csv": "ccc7b2157effd19a5f80a6d8afcfa2351a293a11fd53d747d896b427ff157ef8",
}
# Recorded on GOLDEN_BUILD: another NumPy, BLAS kernel or SIMD target may round
# the SVDs, sums or sines differently in the last bit, which %.17g shows.


@pytest.mark.skipif(numpy_build() != GOLDEN_BUILD,
                    reason=f"golden bytes are recorded for the build {GOLDEN_BUILD}")
def test_ablate_outputs_match_recorded_bytes(run, tmp_path):
    """grr ablate's files are byte for byte the recorded ones. Running twice
    shows determinism only; this catches a change in the last bit."""
    cfg = write_cfg(tmp_path / "ablate.json", **GOLDEN_ABLATE)
    code, payload, _ = run(["ablate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert (code, payload) == (0, {"frames": 40, "trials": 3})
    got = {name: hashlib.sha256((tmp_path / "o" / name).read_bytes()).hexdigest()
           for name in sorted(os.listdir(tmp_path / "o"))}
    assert got == GOLDEN_SHA256


# The README's 4x4 configs: command, config, and whether frame 1's rays are
# collapsed to one direction (a degenerate frame, whose warning goes to stderr).
README_SOLVE = {"grid": GRID, "rays": "world_rays_*.csv", "points": "world_points_*.csv",
                "gt_poses": "gt_poses.txt", "unit_scale": 1.0}
GOLDEN_CLI_CASES = {
    "gen": ("gen", {"grid": GRID, "frames": 5, "seed": 123}, False),
    "solve": ("solve", README_SOLVE, False),
    "solve without gt": ("solve", {k: v for k, v in README_SOLVE.items() if k != "gt_poses"},
                         False),
    "solve degenerate": ("solve", README_SOLVE, True),
    "gradcheck loss_total": (
        "gradcheck", {"op": "loss_total", "h": 1e-5, "threshold": 1e-4, "seed": 7}, False),
    "loss": ("loss", {"grid": GRID, "rays": "world_rays_*.csv", "points": "world_points_*.csv",
                      "gt_poses": "gt_poses.txt", "weights": {"w_domain": 0.1},
                      "schedule": {"warmup_steps": 1000, "current_step": 200},
                      "connectivity": 4, "domains": [0, 0, 1, 1, 0],
                      "domain_logits": [-2.0, -1.5, 3.0, 2.5, 0.0]}, False),
}
# SHA-256 of stdout, stderr and each file under --out, recorded on GOLDEN_BUILD.
GOLDEN_CLI_SHA256 = {
    "gen": {
        "canonical_points.csv": "56270cc5d91ef424b29ad19948dc650bda0501b87be2f239089605f1bb0b7806",
        "canonical_rays.csv": "56270cc5d91ef424b29ad19948dc650bda0501b87be2f239089605f1bb0b7806",
        "gt_poses.txt": "3b4767525749f19d4a1b30b2a5e0c94dbd5e06cb9818bc095e949035468e3853",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "11ef1a0350cd086c43d2048d1f43f0814126f10c98a5ed5ba692ae0194290949",
        "world_points_0000.csv": "3c8d6f7fd90feae3a23ef6ed726da5cfe7e7a7f99415a7fcd60d3d04c86e753b",
        "world_points_0001.csv": "cb913c5912d13fb6d412ff7b5a6f5a4fa681bd773e24536c9cf354642b3eed94",
        "world_points_0002.csv": "cf2097b7850da83adb341b416797f5bd680e8a73dc9ed3ed3421ce42e68a2d9d",
        "world_points_0003.csv": "ec646e1fd31e3b49e869d874323725cdff4584807945e9547a27942f9004081c",
        "world_points_0004.csv": "d4937c2aa81d0eb39f93655e46a1bc204d3328aff2e486dcbe3a5d16a361e645",
        "world_rays_0000.csv": "e4d7c84ccb8dc9b183fcc75014848e7e797e9bc80d3fbb6897c4476bbc8cc9d6",
        "world_rays_0001.csv": "1a9981694bd329731a1eee23d4366ad30ea9134deb3fb9d4fcdda3d1c000d795",
        "world_rays_0002.csv": "f0ce01ef5f0f999f40cd23434c0678497a09994d01af326a89edeee75fa1f202",
        "world_rays_0003.csv": "b0279574c7507ef0905ed4e48b39f52e96b476ae5277480b21fa555548bbd40d",
        "world_rays_0004.csv": "4b0678b4d2cbbd429b8d68955a2cd2f1830578cf6a5e2b6c081cae8914819403",
    },
    "gradcheck loss_total": {
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "9643156d6497491872a22f0953cbe11b4df0cdcc7145048fbfd83dcca338b439",
    },
    "loss": {
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "d9ac4cf8de832d739e5f55d4715c082f31fb554f2005ec606c1b2dc240cd4b56",
    },
    "solve": {
        "frames.csv": "e1705b11cd47613fbb1535a4554909e9d75e6e1d585738adc36285518af9672e",
        "solved_poses.txt": "47ec13ca770791f9035a3c976c39bb46a5353b5e7af81e6d5f38883faf86bc26",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "a1662a84e811cc9c3d411e9a168a31c0abcacb48b1d6672394f5eedb117d56b6",
    },
    "solve degenerate": {
        "frames.csv": "10eed283a0c0e3359c4a9003662436182ffba6f6999ce8d2c4692b975ee654a9",
        "solved_poses.txt": "d49ef498d418b8dd0a7c4cc1c45a8523e42cbd2c51549d46f2f23b05803efe7d",
        "stderr": "2c7a3c18234403659f2802d80b2e6cdc48e205f7f280403197106a651f893d14",
        "stdout": "933bc71ed8f114866fd44cbafef599e00173afae6c9da308ed24d2cc112db0df",
    },
    "solve without gt": {
        "frames.csv": "eccaf2822209d745be5a1e18288f1762459ef0224870ae299e55dbf10b192c37",
        "solved_poses.txt": "47ec13ca770791f9035a3c976c39bb46a5353b5e7af81e6d5f38883faf86bc26",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stdout": "4d0f30ed92f03dc5a0cd572d9051d15b8e2fab385346d29050702007dde28a47",
    },
}


@pytest.mark.skipif(numpy_build() != GOLDEN_BUILD,
                    reason=f"golden bytes are recorded for the build {GOLDEN_BUILD}")
@pytest.mark.parametrize("case", sorted(GOLDEN_CLI_CASES))
def test_command_outputs_match_recorded_bytes(capsys, monkeypatch, dataset, tmp_path, case):
    command, cfg, degenerate = GOLDEN_CLI_CASES[case]
    monkeypatch.setenv("GRR_LOG", "warn")
    if degenerate:
        work, _ = TestLoss.degenerate_frame_1(dataset, tmp_path)
    else:
        work = tmp_path / "in"
        shutil.copytree(dataset, work)
    out = tmp_path / "o"
    assert main([command, "--config", write_cfg(work / "cfg.json", **cfg), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    got = {name: hashlib.sha256(data).hexdigest() for name, data in tree_bytes(out).items()}
    got["stdout"] = hashlib.sha256(captured.out.encode()).hexdigest()
    got["stderr"] = hashlib.sha256(captured.err.encode()).hexdigest()
    assert got == GOLDEN_CLI_SHA256[case]


class TestLoss:
    def test_zero_at_ground_truth_with_domain_head(self, run, dataset):
        cfg = dataset_cfg(
            dataset,
            domains=[0, 0, 1, 1, 0],
            domain_logits=[0.0, 0.0, 3.0, 3.0, 0.0],
        )
        code, payload, _ = run(["loss", "--config", cfg])
        assert code == 0
        assert payload["p"] == 2
        for fr in payload["frames"]:
            assert fr["total"] < 1e-9
        assert payload["l_syn"] < 1e-9
        assert payload["l_real"] < 1e-9
        # uninformative logit costs ln 2; a confident correct one costs
        # log1p(exp(-3))
        assert payload["domain_syn"] == pytest.approx(0.6931471805599453, abs=1e-15)
        assert payload["domain_real"] == pytest.approx(0.04858735157374206, abs=1e-15)
        assert payload["total"] == pytest.approx(0.074173453213368736, abs=1e-9)

    def test_domains_default_to_synthetic(self, run, dataset):
        cfg = dataset_cfg(dataset, name="loss_default.json")
        code, payload, _ = run(["loss", "--config", cfg])
        assert code == 0
        assert [fr["domain"] for fr in payload["frames"]] == [0] * 5
        assert payload["l_real"] == 0.0
        assert payload["domain_syn"] == 0.0

    def test_warmup_schedule_switches_norm(self, run, dataset):
        cfg = dataset_cfg(
            dataset, name="loss_p1.json", schedule={"warmup_steps": 10, "current_step": 3}
        )
        code, payload, _ = run(["loss", "--config", cfg])
        assert code == 0
        assert payload["p"] == 1

    def test_bad_domains_rejected(self, run, dataset):
        short = dataset_cfg(dataset, name="loss_bad1.json", domains=[0, 1])
        assert run(["loss", "--config", short])[0] == 3
        wrong = dataset_cfg(dataset, name="loss_bad2.json", domains=[0, 0, 2, 0, 0])
        assert run(["loss", "--config", wrong])[0] == 3
        boolean = dataset_cfg(
            dataset, name="loss_bad3.json", domains=[0, 0, True, 0, 0]
        )
        assert run(["loss", "--config", boolean])[0] == 3
        # 1.0 == 1, but the README labels frames with the integers 0 and 1.
        floating = dataset_cfg(dataset, name="loss_bad4.json", domains=[0, 1.0, 0, 1, 0])
        assert run(["loss", "--config", floating]) == (3, None, "")

    def test_canonical_side_is_validated_once(self, run, dataset, canonical_work):
        """All frames share the command's frozen canonical arrays, so one
        RayBundle and one set of canonical pair dots serve the whole batch."""
        code, payload, _ = run(["loss", "--config", dataset_cfg(dataset, connectivity=8)])
        assert code == 0 and len(payload["frames"]) == 5
        assert canonical_work == ["rays", "dots"]

    @staticmethod
    def degenerate_frame_1(dataset, tmp_path):
        """A copy of the dataset whose frame 1 has collinear rays: (its directory, that rays file)."""
        work = changed_copy(dataset, tmp_path, "world_rays_0001.csv", lambda r: np.tile([[0.0, 0.0, 1.0]], (len(r), 1)))
        return work, work / "world_rays_0001.csv"

    def test_degenerate_frame_aborts_and_is_named(self, dataset, tmp_path):
        work, rays = self.degenerate_frame_1(dataset, tmp_path)
        r = run_child(["loss", "--config", dataset_cfg(work, name="loss_degen.json")])
        assert r.returncode == 2
        assert r.stdout == ""
        head = (f"ERROR grr: degenerate input: frame 1 (rays {rays}, "
                f"points {work / 'world_points_0001.csv'}): "
                "ray branch: correspondences are collinear")
        assert r.stderr.startswith(head), r.stderr
        assert r.stderr.count("\n") == 1

    def test_domain_logits_checked_before_any_frame(self, dataset, tmp_path):
        """A bad logit is a config error even when a frame is degenerate too:
        the config is checked whole before the first frame is read."""
        work, _ = self.degenerate_frame_1(dataset, tmp_path)
        cfg = dataset_cfg(work, name="loss_logits.json", domain_logits=[0.1, "x", 0.3, 0.0, 0.0])
        r = run_child(["loss", "--config", cfg])
        assert r.returncode == 3
        assert r.stdout == ""
        assert r.stderr == "ERROR grr: 'domain_logits' entries must be numbers\n"

    def test_rays_whose_norms_overflow_are_an_input_error(self, dataset, tmp_path):
        work = changed_copy(dataset, tmp_path, "world_rays_0002.csv", lambda r: 1e155 * r)
        rays = work / "world_rays_0002.csv"
        r = run_child(["loss", "--config", dataset_cfg(work)])
        assert r.returncode == 3
        assert r.stdout == ""
        assert r.stderr == (f"ERROR grr: frame 2 (rays {rays}, points {work / 'world_points_0002.csv'}): "
                            "cannot normalize target rows: their norms overflow\n")

    def test_connectivity_8_uses_the_8_connected_grid(self, run, dataset, tmp_path):
        work = tmp_path / "noisy"  # perturbed points, so the pair terms are nonzero
        shutil.copytree(dataset, work)
        rng = Seed(5).rng()
        for f in sorted(work.glob("world_points_*.csv")):
            pts = read_xyz_csv(f)
            write_xyz_csv(f, pts + 0.01 * rng.normal(size=pts.shape))
        code, payload, _ = run(["loss", "--config", dataset_cfg(work, connectivity=8)])
        assert code == 0
        _, four, _ = run(["loss", "--config", dataset_cfg(work, name="loss_4.json")])
        rays = canonical_rays(grid_from_config(GRID))
        pts = canonical_points(rays)
        gt = load_poses(work / "gt_poses.txt")
        neighbors = NeighborSet.grid(GRID["n"], connectivity=8)
        for idx, fr in enumerate(payload["frames"]):
            terms = pipeline_loss(FrameInputs(
                rays.dirs, pts.pts, read_xyz_csv(work / f"world_rays_{idx:04d}.csv"),
                read_xyz_csv(work / f"world_points_{idx:04d}.csv"), gt[idx], neighbors,
                LossWeights(), 2))
            assert [fr[k] for k in ("pose", "geometry", "regularization", "total")] == [
                terms.pose, terms.geometry, terms.regularization, terms.total]
            assert fr["regularization"] != four["frames"][idx]["regularization"]

    def test_points_of_another_length_name_the_frame(self, capsys, dataset, tmp_path):
        """As `solve` does: the frame's inputs are built under its name."""
        work = changed_copy(dataset, tmp_path, "world_points_0001.csv", lambda p: p[:-1])
        assert main(["loss", "--config", dataset_cfg(work)]) == 3
        assert capsys.readouterr() == ("", TestSolveNamesTheFrame.named(work, "frame arrays disagree in length"))

    def test_connectivity_5_rejected(self, dataset):
        r = run_child(["loss", "--config", dataset_cfg(dataset, name="loss_c5.json", connectivity=5)])
        assert r.returncode == 3
        assert r.stdout == ""
        assert r.stderr == "ERROR grr: connectivity must be 4 or 8\n"


class TestNonFiniteConfigFloats:
    """json reads NaN, Infinity and integers past the float range; no float
    key accepts them. The table also holds values that are finite but out of
    range. Each case exits 3 with one stderr line that names the key, and
    leaves no --out directory behind."""

    FINITE = " must be a finite number"
    # case id -> (command, config, expected stderr fragment)
    CASES = {
        "gen grid.fx NaN": ("gen", {"grid": {**GRID, "fx": math.nan}, "frames": 2},
                            "key 'fx' in grid" + FINITE),
        "gen grid.fy huge": ("gen", {"grid": {**GRID, "fy": 10**400}, "frames": 2},
                             "key 'fy' in grid" + FINITE),
        "solve unit_scale NaN": ("solve", {"unit_scale": math.nan},
                                 "key 'unit_scale' in config" + FINITE),
        "solve unit_scale 0": ("solve", {"unit_scale": 0},
                               "key 'unit_scale' in config must be positive"),
        "solve unit_scale -100": ("solve", {"unit_scale": -100},
                                  "key 'unit_scale' in config must be positive"),
        "gen method center": ("gen", {"grid": GRID, "frames": 2, "method": "center"},
                              "key 'method' in config must be 'mean', got 'center'"),
        "solve method center": ("solve", {"method": "center"},
                                "key 'method' in config must be 'mean', got 'center'"),
        "loss method center": ("loss", {"method": "center"},
                               "key 'method' in config must be 'mean', got 'center'"),
        "ablate method center": (
            "ablate", {"grid": GRID, "frames": 2, "noise": [{"ray_sigma": 0.01}],
                       "method": "center"},
            "key 'method' in config must be 'mean', got 'center'"),
        "loss domain_logits NaN": ("loss", {"domain_logits": [0.0, math.nan, 0.0, 1.0, 0.0]},
                                   "domain_logits[1]" + FINITE),
        "ablate ray_sigma Infinity": (
            "ablate", {"grid": GRID, "frames": 2, "noise": [{"ray_sigma": math.inf}]},
            "key 'ray_sigma' in noise[0]" + FINITE),
        "ablate perturb.sigma_t Infinity": (
            "ablate", {"grid": GRID, "frames": 2, "noise": [{"ray_sigma": 0.01}],
                       "perturb": {"sigma_t": math.inf}},
            "key 'sigma_t' in perturb" + FINITE),
    }

    @staticmethod
    def run_cli(dataset, tmp_path, command, cfg):
        if command in ("solve", "loss"):  # the dataset's frames, so only the bad key can fail
            cfg = {"grid": GRID, "rays": str(dataset / "world_rays_*.csv"),
                   "points": str(dataset / "world_points_*.csv"),
                   "gt_poses": str(dataset / "gt_poses.txt"), **cfg}
        tmp_path.mkdir(exist_ok=True)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return run_child([command, "--config", str(path), "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_3_names_the_key(self, dataset, tmp_path, case):
        command, cfg, fragment = self.CASES[case]
        r = self.run_cli(dataset, tmp_path, command, cfg)
        assert r.returncode == 3, r.stderr
        assert r.stdout == ""
        assert fragment in r.stderr, r.stderr
        assert r.stderr.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["gen", "solve", "loss", "ablate"])
    def test_method_mean_is_the_default(self, dataset, tmp_path, command):
        cfg = {"gen": {"grid": GRID, "frames": 2},
               "ablate": {"grid": GRID, "frames": 2, "noise": [{"ray_sigma": 0.01}]}
               }.get(command, {})
        plain = self.run_cli(dataset, tmp_path / "plain", command, cfg)
        mean = self.run_cli(dataset, tmp_path / "mean", command, {**cfg, "method": "mean"})
        assert plain.returncode == mean.returncode == 0, mean.stderr
        assert mean.stdout == plain.stdout != ""


SECTION_BUILDERS = {
    "grid": grid_from_config,
    "weights": weights_from_config,
    "schedule": schedule_from_config,
    "noise": lambda d: noise_spec_from_config(d, Seed(0), 0),
    "perturb": lambda d: perturb_spec_from_config(d, Seed(0)),
}
SEED_RANGE = "seed value must fit in an unsigned 64-bit integer"
# case id -> (section, its value, the whole ConfigError text)
SECTION_ERRORS = {
    "grid not an object": ("grid", [GRID], "grid section must be an object"),
    "grid missing key": ("grid", {k: v for k, v in GRID.items() if k != "cy"},
                         "invalid grid: missing required key 'cy' in grid"),
    "grid wrong type": ("grid", {**GRID, "width": 64.0}, "invalid grid: key 'width' in grid has wrong type float"),
    "grid out of range": ("grid", {**GRID, "n": 0}, "invalid grid: grid side n must be >= 1"),
    "grid fx out of range": ("grid", {**GRID, "fx": -1}, "invalid grid: focal lengths must be positive"),
    "weights not an object": ("weights", [1.0], "weights section must be an object"),
    "weights unknown keys": ("weights", {"w_pose": 1.0, "w_geo": 2.0, "w_syn": 1.0},
                             "unknown weight keys: ['w_geo', 'w_pose']"),
    "weights unknown keys before a wrong type": ("weights", {"w_pose_r": "1", "w_x": 1},
                                                 "unknown weight keys: ['w_x']"),
    "weights wrong type": ("weights", {"w_pose_r": "1"},
                           "invalid weights: key 'w_pose_r' in weights has wrong type str"),
    "weights out of range": ("weights", {"w_pose_r": -1},
                             "invalid weights: w_pose_r must be finite and nonnegative, got -1.0"),
    "schedule not an object": ("schedule", 3, "schedule section must be an object"),
    "schedule wrong type": ("schedule", {"warmup_steps": 2.5},
                            "invalid schedule: key 'warmup_steps' in schedule has wrong type float"),
    "schedule out of range": ("schedule", {"warmup_steps": -1}, "invalid schedule: steps must be nonnegative"),
    "noise not an object": ("noise", "iid_gaussian", "noise entry 0 must be an object"),
    "noise wrong type": ("noise", {"ray_sigma": "0.1"},
                         "invalid noise[0]: key 'ray_sigma' in noise[0] has wrong type str"),
    "noise out of range": ("noise", {"ray_sigma": -0.1},
                           "invalid noise[0]: ray_sigma must be finite and nonnegative, got -0.1"),
    "noise mode": ("noise", {"mode": "uniform"}, "invalid noise[0]: unknown noise mode 'uniform'"),
    "noise point_bias not a list": ("noise", {"point_bias": "0,0,0", "ray_sigma": "x"},
                                    "key 'point_bias' in noise[0] has wrong type str"),
    "noise point_bias entry not a number": ("noise", {"point_bias": [0, None, 0], "ray_sigma": "x"},
                                            "invalid noise[0]: point_bias entries must be numbers"),
    "noise point_bias of two": ("noise", {"point_bias": [0, 0]},
                                "invalid noise[0]: point_bias must be a finite 3-vector"),
    "noise seed": ("noise", {"seed": -1}, f"invalid noise[0]: invalid seed in noise[0]: {SEED_RANGE}"),
    "noise seed wrong type": ("noise", {"seed": 1.5}, "invalid noise[0]: key 'seed' in noise[0] has wrong type float"),
    "perturb not an object": ("perturb", None, "perturb section must be an object"),
    "perturb wrong type": ("perturb", {"count": "2"}, "invalid perturb: key 'count' in perturb has wrong type str"),
    "perturb out of range": ("perturb", {"count": 0}, "invalid perturb: count must be an int >= 1, got 0"),
    "perturb seed": ("perturb", {"seed": -1}, f"invalid perturb: invalid seed in perturb: {SEED_RANGE}"),
}


@pytest.mark.parametrize("case", sorted(SECTION_ERRORS))
def test_config_section_error_text(case):
    """Each section builder's whole message: the object check, the `invalid <section>:`
    wrap, the unwrapped unknown-weight-keys and point_bias type errors, and which of
    two errors in one section is reported."""
    section, value, message = SECTION_ERRORS[case]
    with pytest.raises(ConfigError) as info:
        SECTION_BUILDERS[section](value)
    assert str(info.value) == message


class TestCanonicalRaysThatOverflow:
    """A focal length so small that the pixel rays overflow passes the config
    checks; every command that builds the canonical rays then exits 3 with
    RayBundle's one line, with or without RuntimeWarning an error."""

    @pytest.mark.parametrize("warnings_as_errors", [False, True])
    @pytest.mark.parametrize("key, value", [("fx", 1e-300), ("fy", 5e-324)])
    @pytest.mark.parametrize("command", ["gen", "solve", "loss", "ablate"])
    def test_exit_3_with_one_line(self, dataset, tmp_path, command, key, value, warnings_as_errors):
        cfg = {"grid": {**GRID, key: value}, "frames": 2, "noise": [{"ray_sigma": 0.01}],
               "rays": str(dataset / "world_rays_*.csv"), "points": str(dataset / "world_points_*.csv"),
               "gt_poses": str(dataset / "gt_poses.txt")}
        r = run_child([command, "--config", write_cfg(tmp_path / "cfg.json", **cfg), "--out", str(tmp_path / "o")],
                      warnings_as_errors)
        assert (r.returncode, r.stdout, r.stderr) == (3, "", "ERROR grr: dirs contains non-finite entries\n")


class TestOverflowingRaysWithWarningsAsErrors:
    """Rays scaled by 1e155 square to infinite norms. With RuntimeWarning an
    error, as the CI smoke step sets it, the named ValueError still surfaces
    (exit 3) instead of numpy's overflow warning as a traceback."""

    @pytest.mark.parametrize("command, what", [("solve", "ray"), ("loss", "target")])
    def test_exit_3_names_the_overflow(self, dataset, tmp_path, command, what):
        work = changed_copy(dataset, tmp_path, "world_rays_0002.csv", lambda r: 1e155 * r)
        out = ["--out", str(tmp_path / "o")] if command == "solve" else []
        r = run_child([command, "--config", dataset_cfg(work), *out], warnings_as_errors=True)
        assert r.returncode == 3
        assert r.stdout == ""
        # Both commands name the frame on every input error they meet in the frame's solve.
        frame = f"frame 2 (rays {work / 'world_rays_0002.csv'}, points {work / 'world_points_0002.csv'}): "
        assert r.stderr == f"ERROR grr: {frame}cannot normalize {what} rows: their norms overflow\n"


class TestOverflowingPoints:
    """Points near the float limit overflow inside the solve and the loss: with
    or without RuntimeWarning an error (the CI smoke step's setting), `solve`
    and `loss` exit 3 with one named error line, never numpy's warning as a
    traceback."""

    @staticmethod
    def run_cli(dataset, tmp_path, command, scale, warnings_as_errors):
        work = changed_copy(dataset, tmp_path, "world_points_0002.csv", scale)
        out = ["--out", str(tmp_path / "o")] if command == "solve" else []
        r = run_child([command, "--config", dataset_cfg(work), *out], warnings_as_errors)
        assert r.returncode == 3, r.stderr
        assert r.stdout == ""
        return r.stderr, work

    @staticmethod
    def frame_2(work):
        """The start of an error line that names frame 2 of the dataset copy in work."""
        return f"ERROR grr: frame 2 (rays {work / 'world_rays_0002.csv'}, points {work / 'world_points_0002.csv'}): "

    @pytest.mark.parametrize("warnings_as_errors", [False, True])
    def test_loss_names_the_frame_whose_points_overflow(self, dataset, tmp_path, warnings_as_errors):
        err, work = self.run_cli(dataset, tmp_path, "loss", lambda p: 1e155 * p, warnings_as_errors)
        assert err == self.frame_2(work) + "loss components must be finite\n"

    @pytest.mark.parametrize("warnings_as_errors", [False, True])
    def test_solve_rejects_points_at_the_float_limit(self, dataset, tmp_path, warnings_as_errors):
        err, work = self.run_cli(dataset, tmp_path, "solve", lambda p: np.where(p < 0.0, -1.7e308, 1.7e308),
                                 warnings_as_errors)
        assert err == self.frame_2(work) + "correspondences contain non-finite entries\n"

    def test_solve_rejects_a_cross_covariance_that_overflows(self, dataset, tmp_path):
        # Alternating signs keep the centroid finite; the products then overflow.
        err, work = self.run_cli(dataset, tmp_path, "solve",
                                 lambda p: np.where(np.arange(p.size).reshape(p.shape) % 2, -1.7e308, 1.7e308),
                                 True)
        assert err == self.frame_2(work) + "cross-covariance overflows: correspondences too large\n"


class TestSolveNamesTheFrame:
    """`solve` names the frame and its files, as `loss` does, on an input error
    in a frame's values or its solve. A read error names only its file, and a
    frame is read and checked in order: rays read, rays checked, points read,
    points checked, then solved."""

    @staticmethod
    def solve_err(capsys, work, tmp_path):
        assert main(["solve", "--config", dataset_cfg(work), "--out", str(tmp_path / "o")]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        return err

    @staticmethod
    def named(work, msg):
        files = f"rays {work / 'world_rays_0001.csv'}, points {work / 'world_points_0001.csv'}"
        return f"ERROR grr: frame 1 ({files}): {msg}\n"

    @staticmethod
    def break_header(path):
        path.write_text("j,x,y,z\r\n" + path.read_text().split("\n", 1)[1])
        with pytest.raises(ValueError) as exc_info:
            read_xyz_csv(path)
        return f"ERROR grr: {exc_info.value}\n"

    def test_points_of_another_length(self, capsys, dataset, tmp_path):
        work = changed_copy(dataset, tmp_path, "world_points_0001.csv", lambda p: p[:-1])
        assert self.solve_err(capsys, work, tmp_path) == self.named(
            work, "canonical and predicted pointmaps differ in length")

    def test_read_error_names_only_its_file(self, capsys, dataset, tmp_path):
        work = changed_copy(dataset, tmp_path, "world_points_0001.csv", lambda p: p[:-1])
        want = self.break_header(work / "world_points_0001.csv")
        assert str(work / "world_points_0001.csv") in want
        assert self.solve_err(capsys, work, tmp_path) == want

    def test_ray_check_before_point_read(self, capsys, dataset, tmp_path):
        work = changed_copy(dataset, tmp_path, "world_rays_0001.csv", lambda r: 1e155 * r)
        self.break_header(work / "world_points_0001.csv")
        assert self.solve_err(capsys, work, tmp_path) == self.named(
            work, "cannot normalize ray rows: their norms overflow")

    def test_ray_read_before_point_check(self, capsys, dataset, tmp_path):
        work = changed_copy(dataset, tmp_path, "world_points_0001.csv", lambda p: p[:-1])
        want = self.break_header(work / "world_rays_0001.csv")
        assert self.solve_err(capsys, work, tmp_path) == want


@pytest.mark.parametrize("command", ["solve", "loss"])
def test_non_ascii_byte_names_its_file(capsys, dataset, tmp_path, command):
    """A byte the ASCII reader cannot decode exits 3 with the file's path, as every read error does."""
    work = tmp_path / "in"
    shutil.copytree(dataset, work)
    path = work / "world_points_0001.csv"
    path.write_bytes(b"i,x,y,z\n0,\xc3\xa9,0,1\n")
    assert main([command, "--config", dataset_cfg(work), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr() == (
        "", f"ERROR grr: {path}: 'ascii' codec can't decode byte 0xc3 in position 10: ordinal not in range(128)\n")


# Scales applied to one frame's file; "limit" pushes every entry to +-1.7e308 by its sign.
OVERFLOW_SCALES = {"5e-324": 5e-324, "1e-300": 1e-300, "1e150": 1e150, "1e155": 1e155, "1e200": 1e200,
                   "1.7e308": 1.7e308, "limit": None}
# (command, scaled file of frame 1) -> exit code per OVERFLOW_SCALES entry, in order
OVERFLOW_FILE_CODES = {
    ("solve", "rays"): (3, 3, 0, 3, 3, 3, 3),
    ("solve", "points"): (0, 0, 0, 0, 0, 3, 3),
    ("loss", "rays"): (3, 3, 3, 3, 3, 3, 3),
    ("loss", "points"): (2, 0, 0, 3, 3, 3, 3),
}
# ablate spec -> (config keys on a 3-frame, seed-5 run, exit code)
OVERFLOW_ABLATE = {
    "point_sigma 1e308": ({"noise": [{"point_sigma": 1e308}]}, 3),
    "ray_sigma 1e308": ({"noise": [{"ray_sigma": 1e308}]}, 3),
    "point_bias 1.7e308": ({"noise": [{"point_bias": [1.7e308, -1.7e308, 0.0]}]}, 3),
    "perturb.sigma_t 1e308": ({"noise": [{"ray_sigma": 0.01}], "perturb": {"sigma_t": 1e308}}, 3),
    "perturb.sigma_t 1e308 count 20": ({"noise": [{"ray_sigma": 0.01}],
                                        "perturb": {"sigma_t": 1e308, "count": 20}}, 3),
    "perturb.sigma_r 1e308 count 20": ({"noise": [{"ray_sigma": 0.01}],
                                        "perturb": {"sigma_r": 1e308, "count": 20}}, 3),
    "point_sigma 1e200": ({"noise": [{"point_sigma": 1e200}]}, 0),
    "ray_sigma 1e5": ({"noise": [{"ray_sigma": 1e5}]}, 0),
}
# case id -> (command, scaled file or ablate config, scale, exit code)
OVERFLOW_CASES = {
    **{f"{cmd} {what} {name}": (cmd, what, scale, codes[i])
       for (cmd, what), codes in OVERFLOW_FILE_CODES.items()
       for i, (name, scale) in enumerate(OVERFLOW_SCALES.items())},
    **{f"ablate {name}": ("ablate", cfg, None, code) for name, (cfg, code) in OVERFLOW_ABLATE.items()},
}


class TestOverflowExitTable:
    """Inputs at both ends of the float range, one table for every command that
    reads them: one frame's ray or point file scaled (solve, loss), or ablate
    noise that overflows. Each case returns 0, 2 or 3 from main, with no
    traceback and no RuntimeWarning, so warnings as errors cannot change its
    code; stdout is empty on a non-zero exit. The codes are pinned as they
    stand. Which status an overflowing frame should get in every command is
    still open, so solve and loss disagree on some rows."""

    @staticmethod
    def argv(dataset, tmp_path, command, what, scale):
        """The case's command line, after writing its inputs under tmp_path."""
        if command == "ablate":
            cfg = write_cfg(tmp_path / "cfg.json", grid=GRID, frames=3, seed=5, **what)
            return ["ablate", "--config", cfg, "--out", str(tmp_path / "o")]
        with np.errstate(over="ignore"):  # 1.7e308 times an entry past 1 is written as inf
            work = changed_copy(dataset, tmp_path, f"world_{what}_0001.csv",
                                lambda a: np.where(a < 0.0, -1.7e308, 1.7e308) if scale is None else scale * a)
        return [command, "--config", dataset_cfg(work)] + (["--out", str(tmp_path / "o")] if command == "solve" else [])

    @pytest.mark.parametrize("case", sorted(OVERFLOW_CASES))
    def test_exit_code_without_traceback_or_warning(self, capsys, dataset, tmp_path, case):
        command, what, scale, code = OVERFLOW_CASES[case]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = main(self.argv(dataset, tmp_path, command, what, scale))
        out, err = capsys.readouterr()
        assert got == code, err
        assert [str(w.message) for w in caught] == []
        assert "Traceback" not in err
        if code:
            assert out == "" and err.count("\n") == 1 and err.startswith("ERROR grr: "), err
        if command == "ablate" and code:
            assert err.startswith(self.ablate_prefix(what)), err
        if command == "loss" and code:  # the frame's file is named, by the read or the frame's solve
            assert f"world_{what}_0001.csv" in err, err

    @staticmethod
    def ablate_prefix(cfg):
        """An overflow while sampling poses names the sample; one in the sweep, the spec and frame.
        With count 1 the sampled offsets stay finite, so sigma_t 1e308 overflows only in the sweep."""
        sampled = cfg.get("perturb", {}).get("count", 1) > 1
        return "ERROR grr: " + ("perturb sample " if sampled else "noise[0] frame ")

    @pytest.mark.parametrize("case", ["solve points limit", "loss points limit", "ablate point_sigma 1e308",
                                      "ablate perturb.sigma_t 1e308 count 20",
                                      "ablate perturb.sigma_r 1e308 count 20"])
    def test_same_exit_code_with_warnings_as_errors(self, dataset, tmp_path, case):
        command, what, scale, code = OVERFLOW_CASES[case]
        r = run_child(self.argv(dataset, tmp_path, command, what, scale), warnings_as_errors=True)
        assert r.returncode == code, r.stderr
        assert "Traceback" not in r.stderr
        assert r.stdout == ""
        if command == "ablate":
            assert r.stderr.startswith(self.ablate_prefix(what)), r.stderr


class TestOutNamingAFile:
    """An --out that names an existing file is rejected before any work:
    exit 3, nothing on stdout, one stderr line naming --out, the file as it was."""

    CONFIGS = {
        "gen": {"grid": GRID, "frames": 3},
        "solve": {},
        "ablate": {"grid": GRID, "frames": 3, "noise": [{"ray_sigma": 0.01}]},
    }

    @pytest.mark.parametrize("command", sorted(CONFIGS))
    def test_exit_3_and_file_untouched(self, dataset, tmp_path, command):
        out = tmp_path / "o"
        out.write_bytes(b"not a directory\n")
        r = TestNonFiniteConfigFloats.run_cli(dataset, tmp_path, command, self.CONFIGS[command])
        assert r.returncode == 3, r.stderr
        assert r.stdout == ""
        assert f"--out {str(out)!r} exists and is not a directory" in r.stderr
        assert r.stderr.count("\n") == 1
        assert out.read_bytes() == b"not a directory\n"


class TestExitCodes:
    def test_missing_config_file(self, run, tmp_path):
        assert run(["gen", "--config", str(tmp_path / "nope.json")])[0] == 3

    @pytest.mark.parametrize("command", ["gen", "solve", "ablate"])
    def test_out_naming_a_file_is_reported_before_the_config(self, capsys, tmp_path, command):
        out = tmp_path / "o"
        out.write_text("")
        assert main([command, "--config", str(tmp_path / "nope.json"), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"ERROR grr: --out {str(out)!r} exists and is not a directory\n"

    @pytest.mark.parametrize("command", ["gen", "solve", "gradcheck", "ablate", "loss"])
    def test_threads_flag_is_rejected(self, capsys, tmp_path, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(tmp_path / "c.json"), "--threads", "1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --threads 1" in captured.err

    def test_invalid_json(self, run, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert run(["gen", "--config", str(p)])[0] == 3

    def test_non_object_root(self, run, tmp_path):
        p = tmp_path / "list.json"
        p.write_text("[1, 2]")
        assert run(["gen", "--config", str(p)])[0] == 3

    def test_poses_and_frames_both_given(self, run, tmp_path):
        cfg = write_cfg(
            tmp_path / "g.json", grid=GRID, frames=2, poses="gt_poses.txt"
        )
        assert run(["gen", "--config", cfg, "--out", str(tmp_path)])[0] == 3

    def test_glob_without_matches(self, run, tmp_path):
        cfg = write_cfg(
            tmp_path / "s.json", grid=GRID, rays="missing_*.csv", points="also_*.csv"
        )
        assert run(["solve", "--config", cfg, "--out", str(tmp_path)])[0] == 3

    def test_bad_log_level(self, run, tmp_path, monkeypatch):
        monkeypatch.setenv("GRR_LOG", "chatty")
        cfg = write_cfg(tmp_path / "g.json", grid=GRID, frames=1)
        assert run(["gen", "--config", cfg, "--out", str(tmp_path)])[0] == 3

    def test_log_level_accepted(self, run, tmp_path, monkeypatch):
        monkeypatch.setenv("GRR_LOG", "debug")
        cfg = write_cfg(tmp_path / "g.json", grid=GRID, frames=1)
        assert run(["gen", "--config", cfg, "--out", str(tmp_path / "o")])[0] == 0

    @pytest.mark.parametrize("level, shown", [("error", "E"), ("warn", "EW"), ("info", "EWI"),
                                              ("debug", "EWI")])
    def test_log_lines_keep_the_logging_format(self, capsys, monkeypatch, level, shown):
        """`LEVEL grr: message`, %-formatted only when given arguments, as
        logging.basicConfig's format wrote them."""
        from grr import cli

        monkeypatch.setattr(cli.log, "level", cli.log.level)
        monkeypatch.setenv("GRR_LOG", level)
        cli._setup_logging()
        cli.log.error("frame %d: %s", 3, "bad")
        cli.log.warning("100% %s")
        cli.log.info("wrote %d frames to %s", 2, "out/")
        lines = {"E": "ERROR grr: frame 3: bad\n", "W": "WARNING grr: 100% %s\n",
                 "I": "INFO grr: wrote 2 frames to out/\n"}
        assert capsys.readouterr().err == "".join(lines[k] for k in shown)

    def test_info_line_of_a_child_process(self, tmp_path):
        cfg = write_cfg(tmp_path / "g.json", grid=GRID, frames=1)
        out = tmp_path / "o"
        r = run_child(["gen", "--config", cfg, "--out", str(out)], log="info")
        assert r.returncode == 0, r.stderr
        assert r.stderr == f"INFO grr: gen: wrote 1 frames to {out}\n"


class TestDeterminism:
    def test_every_subcommand_is_byte_identical_across_runs(self, run, dataset, tmp_path):
        gen_cfg = write_cfg(tmp_path / "gen.json", grid=GRID, frames=3, seed=5)
        solve_cfg = dataset_cfg(dataset, "det_solve.json")
        gc_cfg = write_cfg(tmp_path / "gc.json", op="rigid", seed=9)
        abl_cfg = write_cfg(
            tmp_path / "abl.json", grid=GRID, frames=4, seed=6,
            noise=[{"ray_sigma": 0.01, "point_sigma": 0.02}],
        )
        loss_cfg = dataset_cfg(dataset, "det_loss.json", domains=[0, 1, 0, 1, 0],
                               domain_logits=[-1.0, 2.0, 0.5, 1.5, -0.25])
        cases = [
            (["gen", "--config", gen_cfg], True),
            (["solve", "--config", solve_cfg], True),
            (["gradcheck", "--config", gc_cfg], False),
            (["ablate", "--config", abl_cfg], True),
            (["loss", "--config", loss_cfg], False),
        ]
        for argv, writes_files in cases:
            outs, trees = [], []
            for tag in ("r1", "r2"):
                out_dir = tmp_path / f"{argv[0]}_{tag}"
                code, _, text = run(argv + ["--out", str(out_dir)])
                assert code == 0, argv[0]
                outs.append(text)
                trees.append(tree_bytes(out_dir) if writes_files else {})
            assert outs[0] == outs[1], argv[0]
            assert trees[0] == trees[1], argv[0]


def console_script_target(name: str = "grr") -> str:
    """The module:function that pyproject.toml's [project.scripts] names for name, read as
    text (Python 3.10 has no tomllib)."""
    text = (pathlib.Path(__file__).parents[1] / "pyproject.toml").read_text()
    section = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    targets = dict(line.split("=", 1) for line in section.splitlines() if "=" in line)
    return {key.strip(): value.strip().strip('"') for key, value in targets.items()}[name]


def run_gen(cmd, tmp_path):
    cfg = write_cfg(tmp_path / "gen.json", grid=GRID, frames=1, seed=4)
    r = subprocess.run(cmd + ["gen", "--config", cfg, "--out", str(tmp_path / "o")],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == {"frames": 1, "patches": 16}


def test_console_entry_point(tmp_path):
    """The function the grr console script calls, found from pyproject.toml, in a child process."""
    module, function = console_script_target().split(":")
    assert (module, function) == ("grr.cli", "main")
    run_gen([sys.executable, "-c", f"import sys; from {module} import {function}; sys.exit({function}(sys.argv[1:]))"],
            tmp_path)


def test_installed_console_script(tmp_path):
    """The installed grr script; skipped, with a reason that -rs shows, where none is installed."""
    exe = shutil.which("grr")
    if exe is None:
        pytest.skip("no grr console script on PATH: install the package (pip install -e .) to run it")
    run_gen([exe], tmp_path)
