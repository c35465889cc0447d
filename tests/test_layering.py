"""Import direction between grr modules: the solver sits below scoring, and
scoring below the simulator and the CLI. And import cost: `import grr` loads
no submodule, and each CLI command loads only the modules it runs."""

import ast
import importlib
import inspect
import json
import os
import pathlib
import subprocess
import sys

import pytest

import grr

SRC = pathlib.Path(grr.__file__).parent

# module -> grr modules it must not import
FORBIDDEN = {
    "metrics": {"simulator", "cli"},
    "solver": {"metrics", "simulator", "losses", "solver_grad", "cli"},
}


def grr_imports(module: str) -> set[str]:
    """Names of the grr modules that src/grr/<module>.py imports from."""
    found = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1 or node.module == "grr":  # from . / grr import x
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("grr."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("grr."))
    return found


@pytest.mark.parametrize("module", sorted(FORBIDDEN))
def test_no_upward_imports(module):
    imported = grr_imports(module)
    assert "geometry" in imported  # the parser sees the imports that are allowed
    assert imported & FORBIDDEN[module] == set()


# The fast paths tests/reference.py gates, and the fast entry points built on them:
# a reference form that used one would compare it with itself.
GATED = {"_row_sums", "_row_norms", "_cross_rows", "_normalized_rows", "_tangent_basis", "_check_rotations",
         "_rotations", "_det3", "_svd_rotation", "_kabsch_stack", "_quat_to_matrix", "_streams", "_seed_words",
         "_world_frames", "_tilt_rays", "_ramp", "_pair_grads", "_polar_h_cotangent", "_h_cotangents",
         "_rigid_target", "_frame_forward", "_mean", "median", "_score_frames", "_axis_angle_matrices",
         "_vector_norms", "summarize_records", "sample_poses", "ablation_sweep", "run_trial", "pipeline_loss",
         "pipeline_loss_grad", "read_xyz_csv", "save_poses"}


def test_reference_forms_import_no_fast_path():
    """tests/reference.py imports no gated fast path, and no grr module to reach one through."""
    tree = ast.parse((pathlib.Path(__file__).parent / "reference.py").read_text())
    imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    names = {a.asname or a.name for n in imports for a in n.names}
    assert {"recover_pose", "perturb_representations"} <= names  # the public per-frame forms it builds on
    assert not any(a.name.split(".")[0] == "grr" for n in imports if isinstance(n, ast.Import) for a in n.names)
    assert names & (GATED | set(grr._EXPORTS)) == set()


# -- lazy loading: `import grr` and each command load only what they run --

HEAVY = {"grr.solver", "grr.metrics", "grr.simulator", "grr.losses", "grr.solver_grad"}
GRID = {"fx": 48.0, "fy": 48.0, "cx": 32.0, "cy": 32.0, "width": 64, "height": 64, "n": 4}


def loaded_after(code: str) -> set[str]:
    """grr modules in sys.modules after running code in a fresh interpreter."""
    probe = (f"{code}\nimport sys\n"
             "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'grr'))")
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": str(SRC.parent), "GRR_LOG": "warn"})
    assert r.returncode == 0, r.stderr
    return set(r.stdout.splitlines()[-1].split())


def after_command(argv) -> set[str]:
    return loaded_after(f"from grr.cli import main\nassert main({argv!r}) == 0")


@pytest.mark.parametrize("code, allowed", [
    ("import grr", {"grr"}),
    ("import grr.cli, grr", {"grr", "grr.cli", "grr.config", "grr.camera", "grr.geometry"}),
])
def test_import_loads_only_the_cli_core(code, allowed):
    loaded = loaded_after(code)
    assert "grr" in loaded
    assert loaded <= allowed


def test_cli_import_loads_no_logging():
    """The CLI writes its own stderr lines: `logging` cost every grr child ~9 ms."""
    probe = ("import sys\nbefore = 'logging' in sys.modules\nimport grr.cli, grr\n"
             "print(before, 'logging' in sys.modules)")
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert r.returncode == 0, r.stderr
    before, after = r.stdout.split()
    assert after == before  # a site hook that loads logging first leaves nothing to see


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    d = tmp_path_factory.mktemp("lazy")
    (d / "gen.json").write_text(json.dumps({"grid": GRID, "frames": 2, "seed": 1}))
    (d / "solve.json").write_text(json.dumps({
        "grid": GRID, "rays": "world_rays_*.csv", "points": "world_points_*.csv",
        "gt_poses": "gt_poses.txt"}))
    (d / "ablate.json").write_text(json.dumps({
        "grid": GRID, "frames": 2, "perturb": {"sigma_t": 0.01, "count": 2},
        "noise": [{"ray_sigma": 0.01, "point_bias": [0.1, 0, 0]}]}))
    loaded = after_command(["gen", "--config", str(d / "gen.json"), "--out", str(d)])
    return d, loaded


def test_gen_loads_no_solver_or_training_module(tiny_dataset):
    _, loaded = tiny_dataset
    assert "grr.cli" in loaded
    assert loaded & HEAVY == set()


@pytest.mark.parametrize("command", ["solve", "ablate"])
def test_solve_and_ablate_load_no_training_module(tiny_dataset, tmp_path, command):
    d, _ = tiny_dataset
    loaded = after_command([command, "--config", str(d / f"{command}.json"),
                            "--out", str(tmp_path)])
    assert {"grr.solver", "grr.metrics"} <= loaded
    # The frame-record writer lives in metrics: solve never loads the noise simulator.
    assert ("grr.simulator" in loaded) == (command == "ablate")
    assert loaded & {"grr.losses", "grr.solver_grad"} == set()


@pytest.mark.parametrize("command", ["solve", "ablate"])
def test_solve_and_ablate_load_no_numpy_ma(tiny_dataset, tmp_path, command):
    """np.median's NaN check imported numpy.ma, ~15 ms of every solve and ablate process."""
    d, _ = tiny_dataset
    argv = [command, "--config", str(d / f"{command}.json"), "--out", str(tmp_path)]
    probe = (f"import sys\nfrom grr.cli import main\nassert main({argv!r}) == 0\n"
             "print('numpy.ma' in sys.modules)")
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": str(SRC.parent), "GRR_LOG": "warn"})
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "False"


class TestPackageSurface:
    def test_names_are_the_defining_modules_objects(self):
        for name in grr.__all__:
            obj = getattr(grr, name)
            assert obj.__module__.startswith("grr."), name
            assert obj is getattr(importlib.import_module(obj.__module__), name), name

    def test_dir_covers_all(self):
        assert set(grr.__all__) <= set(dir(grr))
        assert "__version__" in dir(grr)

    def test_star_import_binds_all(self):
        ns = {}
        exec("from grr import *", ns)
        assert set(grr.__all__) <= set(ns)
        assert all(ns[name] is getattr(grr, name) for name in grr.__all__)

    def test_each_module_all_is_its_package_entry(self):
        for module, names in grr._EXPORTS.items():
            assert importlib.import_module(f"grr.{module}").__all__ is names, module

    def test_traced_modules_export_every_public_definition(self):
        # The benchmark's tracer wraps the functions in each traced module's
        # __all__: a public function left out of the table would go untraced.
        sys.path.insert(0, str(SRC.parent.parent / "perfbench"))
        try:
            import spans
        finally:
            sys.path.pop(0)
        for module in spans.TRACED_MODULES:
            mod = importlib.import_module(f"grr.{module}")
            public = {name for name, obj in vars(mod).items()
                      if (inspect.isfunction(obj) or inspect.isclass(obj))
                      and obj.__module__ == mod.__name__ and not name.startswith("_")}
            assert public and public <= set(grr._EXPORTS[module]), module

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
            grr.not_a_name
        with pytest.raises(ImportError):
            exec("from grr import not_a_name", {})


def test_lazy_name_follows_a_rebinding_in_its_module():
    # The benchmark's tracer rebinds functions in their defining modules: a
    # call through the package must reach the wrapper, and once the wrappers
    # are removed the package must not hold on to one.
    sys.path.insert(0, str(SRC.parent.parent / "perfbench"))
    try:
        import spans
    finally:
        sys.path.pop(0)
    from grr.solver_grad import pipeline_loss_grad, random_frame_inputs

    fi = random_frame_inputs(grr.Seed(4), n=4)
    rec = spans.SpanRecorder()
    rec.install()
    try:
        with rec.root("train.loop"):
            for _ in range(3):
                grr.pipeline_loss_grad(fi)
    finally:
        rec.remove()
    assert rec.summary()["calls"]["solver_grad.pipeline_loss_grad"] == 3
    assert grr.pipeline_loss_grad is pipeline_loss_grad
    assert "pipeline_loss_grad" not in vars(grr)


def test_benchmark_workloads_load_every_traced_module():
    # The benchmark's tracer looks up sys.modules["grr.<name>"] for each traced
    # module; in some jobs only the workloads module's imports load them.
    perfbench = SRC.parent.parent / "perfbench"
    sys.path.insert(0, str(perfbench))
    try:
        import spans
    finally:
        sys.path.pop(0)
    loaded = loaded_after(f"import sys\nsys.path.insert(0, {str(perfbench)!r})\nimport workloads")
    assert {f"grr.{name}" for name in spans.TRACED_MODULES} <= loaded
