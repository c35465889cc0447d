"""CLI behaviour: outputs, exit codes, determinism, config errors.

Subcommands are driven in-process through main(argv); one test covers the
real process boundary via subprocess.
"""

import csv
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys

import numpy as np
import pytest

import grr
from grr import ConfigError, Seed, geodesic_distance, load_poses, median, read_xyz_csv, write_xyz_csv
from grr.cli import main
from grr.config import noise_spec_from_config

GRID = {"fx": 48.0, "fy": 48.0, "cx": 32.0, "cy": 32.0, "width": 64, "height": 64, "n": 4}


def write_cfg(path, **cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


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
    def solve_cfg(self, dataset, name="solve.json", **extra):
        return write_cfg(
            dataset / name,
            grid=GRID,
            rays="world_rays_*.csv",
            points="world_points_*.csv",
            gt_poses="gt_poses.txt",
            **extra,
        )

    def test_recovers_generated_poses(self, run, dataset, tmp_path):
        cfg = self.solve_cfg(dataset)
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
        cfg = self.solve_cfg(dataset)
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
        plain = self.solve_cfg(dataset, name="solve_plain.json")
        scaled = self.solve_cfg(dataset, name="solve_scaled.json", unit_scale=100.0)
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
        work = tmp_path / "in"
        shutil.copytree(dataset, work)
        # collapse one frame's rays to a single direction: no rotation is
        # recoverable from it, but the run must still finish
        rows = read_xyz_csv(work / "world_rays_0001.csv")
        write_xyz_csv(work / "world_rays_0001.csv", np.tile([[0.0, 0.0, 1.0]], (len(rows), 1)))
        cfg = write_cfg(
            work / "solve_degen.json",
            grid=GRID,
            rays="world_rays_*.csv",
            points="world_points_*.csv",
            gt_poses="gt_poses.txt",
        )
        code, payload, _ = run(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        assert payload["failure_count"] == 1
        assert payload["frame_count"] == 5
        with open(tmp_path / "out" / "frames.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[1]["status"] == "degenerate:rays"
        assert len(load_poses(tmp_path / "out" / "solved_poses.txt")) == 5


class TestGradcheck:
    def test_passes_for_each_op(self, run, tmp_path):
        for op in ("rotation", "rigid", "loss_total"):
            cfg = write_cfg(tmp_path / f"gc_{op}.json", op=op, seed=3)
            code, payload, _ = run(["gradcheck", "--config", cfg])
            assert code == 0, op
            assert payload["op"] == op
            assert payload["max_rel_err"] < 1e-4

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

    def test_threads_do_not_change_outputs(self, run, tmp_path):
        cfg = self.ablate_cfg(tmp_path)
        _, _, out1 = run(["ablate", "--config", cfg, "--out", str(tmp_path / "t1"), "--threads", "1"])
        _, _, out4 = run(["ablate", "--config", cfg, "--out", str(tmp_path / "t4"), "--threads", "4"])
        assert out1 == out4
        assert tree_bytes(tmp_path / "t1") == tree_bytes(tmp_path / "t4")


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
# The build the hashes were recorded on: NumPy 2.4.6 with its OpenBLAS 0.3.31,
# x86-64, AVX512_SPR dispatch. Another NumPy, BLAS kernel or SIMD target may
# round the SVDs, sums or sines differently in the last bit, which %.17g shows.
GOLDEN_BUILD = ("2.4.6", "x86_64", True)


def numpy_build() -> tuple[str, str, bool]:
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as cpu
    except ImportError:  # NumPy 1.x
        from numpy.core._multiarray_umath import __cpu_features__ as cpu
    return np.__version__, platform.machine(), bool(cpu.get("AVX512_SPR"))


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


class TestLoss:
    def loss_cfg(self, dataset, name="loss.json", **extra):
        return write_cfg(
            dataset / name,
            grid=GRID,
            rays="world_rays_*.csv",
            points="world_points_*.csv",
            gt_poses="gt_poses.txt",
            **extra,
        )

    def test_zero_at_ground_truth_with_domain_head(self, run, dataset):
        cfg = self.loss_cfg(
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
        cfg = self.loss_cfg(dataset, name="loss_default.json")
        code, payload, _ = run(["loss", "--config", cfg])
        assert code == 0
        assert [fr["domain"] for fr in payload["frames"]] == [0] * 5
        assert payload["l_real"] == 0.0
        assert payload["domain_syn"] == 0.0

    def test_warmup_schedule_switches_norm(self, run, dataset):
        cfg = self.loss_cfg(
            dataset, name="loss_p1.json", schedule={"warmup_steps": 10, "current_step": 3}
        )
        code, payload, _ = run(["loss", "--config", cfg])
        assert code == 0
        assert payload["p"] == 1

    def test_bad_domains_rejected(self, run, dataset):
        short = self.loss_cfg(dataset, name="loss_bad1.json", domains=[0, 1])
        assert run(["loss", "--config", short])[0] == 3
        wrong = self.loss_cfg(dataset, name="loss_bad2.json", domains=[0, 0, 2, 0, 0])
        assert run(["loss", "--config", wrong])[0] == 3
        boolean = self.loss_cfg(
            dataset, name="loss_bad3.json", domains=[0, 0, True, 0, 0]
        )
        assert run(["loss", "--config", boolean])[0] == 3
        # 1.0 == 1, but the README labels frames with the integers 0 and 1.
        floating = self.loss_cfg(dataset, name="loss_bad4.json", domains=[0, 1.0, 0, 1, 0])
        assert run(["loss", "--config", floating]) == (3, None, "")

    def test_degenerate_frame_aborts_and_is_named(self, dataset, tmp_path):
        work = tmp_path / "in"
        shutil.copytree(dataset, work)
        rays = work / "world_rays_0001.csv"
        write_xyz_csv(rays, np.tile([[0.0, 0.0, 1.0]], (len(read_xyz_csv(rays)), 1)))
        cfg = self.loss_cfg(work, name="loss_degen.json")
        src = os.path.dirname(os.path.dirname(grr.__file__))
        r = subprocess.run(
            [sys.executable, "-m", "grr.cli", "loss", "--config", cfg],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src, "GRR_LOG": "warn"},
        )
        assert r.returncode == 2
        assert r.stdout == ""
        head = (f"ERROR grr: degenerate input: frame 1 (rays {rays}, "
                f"points {work / 'world_points_0001.csv'}): "
                "ray branch: correspondences are collinear")
        assert r.stderr.startswith(head), r.stderr
        assert r.stderr.count("\n") == 1


class TestNonFiniteConfigFloats:
    """json reads NaN, Infinity and integers past the float range; no float
    key accepts them, and the error names the key and its section."""

    CASES = {
        "gen grid.fx NaN": ("gen", {"grid": {**GRID, "fx": math.nan}, "frames": 2},
                            "key 'fx' in grid"),
        "gen grid.fy huge": ("gen", {"grid": {**GRID, "fy": 10**400}, "frames": 2},
                             "key 'fy' in grid"),
        "solve unit_scale NaN": ("solve", {"unit_scale": math.nan}, "key 'unit_scale' in config"),
        "loss domain_logits NaN": ("loss", {"domain_logits": [0.0, math.nan, 0.0, 1.0, 0.0]},
                                   "domain_logits[1]"),
        "ablate ray_sigma Infinity": (
            "ablate", {"grid": GRID, "frames": 2, "noise": [{"ray_sigma": math.inf}]},
            "key 'ray_sigma' in noise[0]"),
        "ablate perturb.sigma_t Infinity": (
            "ablate", {"grid": GRID, "frames": 2, "noise": [{"ray_sigma": 0.01}],
                       "perturb": {"sigma_t": math.inf}},
            "key 'sigma_t' in perturb"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_3_names_the_key(self, dataset, tmp_path, case):
        command, cfg, key = self.CASES[case]
        if command in ("solve", "loss"):  # the dataset's frames, so only the bad key can fail
            cfg = {"grid": GRID, "rays": str(dataset / "world_rays_*.csv"),
                   "points": str(dataset / "world_points_*.csv"),
                   "gt_poses": str(dataset / "gt_poses.txt"), **cfg}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        src = os.path.dirname(os.path.dirname(grr.__file__))
        r = subprocess.run(
            [sys.executable, "-m", "grr.cli", command, "--config", str(path),
             "--out", str(tmp_path / "o")],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src, "GRR_LOG": "warn"},
        )
        assert r.returncode == 3, r.stderr
        assert r.stdout == ""
        assert f"{key} must be a finite number" in r.stderr, r.stderr
        assert r.stderr.count("\n") == 1


class TestExitCodes:
    def test_missing_config_file(self, run, tmp_path):
        assert run(["gen", "--config", str(tmp_path / "nope.json")])[0] == 3

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


class TestDeterminism:
    def test_every_subcommand_is_byte_identical_across_runs(self, run, dataset, tmp_path):
        gen_cfg = write_cfg(tmp_path / "gen.json", grid=GRID, frames=3, seed=5)
        solve_cfg = write_cfg(
            dataset / "det_solve.json",
            grid=GRID,
            rays="world_rays_*.csv",
            points="world_points_*.csv",
            gt_poses="gt_poses.txt",
        )
        gc_cfg = write_cfg(tmp_path / "gc.json", op="rigid", seed=9)
        abl_cfg = write_cfg(
            tmp_path / "abl.json", grid=GRID, frames=4, seed=6,
            noise=[{"ray_sigma": 0.01, "point_sigma": 0.02}],
        )
        loss_cfg = write_cfg(
            dataset / "det_loss.json",
            grid=GRID,
            rays="world_rays_*.csv",
            points="world_points_*.csv",
            gt_poses="gt_poses.txt",
            domains=[0, 1, 0, 1, 0],
            domain_logits=[-1.0, 2.0, 0.5, 1.5, -0.25],
        )
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


def test_console_entry_point(tmp_path):
    cfg = write_cfg(tmp_path / "gen.json", grid=GRID, frames=1, seed=4)
    exe = shutil.which("grr")
    if exe:
        cmd = [exe]
    else:
        cmd = [sys.executable, "-c",
               "import sys; from grr.cli import main; sys.exit(main(sys.argv[1:]))"]
    r = subprocess.run(
        cmd + ["gen", "--config", cfg, "--out", str(tmp_path / "o")],
        capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == {"frames": 1, "patches": 16}
