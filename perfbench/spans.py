"""In-memory span recorder for the traced benchmark run.

The recorder wraps the public functions of each grr module, both where they
are defined and under every name another grr module (or the package) imported
them as, so a call from `grr.cli` to `read_xyz_csv` or from
`grr.simulator` to `recover_pose` lands in a span. Each span stores its
name, start, end, parent span and the exception it raised, if any. Wrappers
are installed only around a traced job and removed right after it.

The recorder is single-threaded: the benchmark runs every CLI job with the
default `--threads 1`, and the training loop runs in one thread.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Modules whose public functions get spans; the cli module is the root span.
TRACED_MODULES = ("camera", "geometry", "solver", "solver_grad", "losses",
                  "simulator", "metrics")
# Public classmethods that do real work on the measured paths.
TRACED_CLASSMETHODS = (("camera", "RayBundle", "from_array"),)


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


# Byte counters, evaluated after the span has ended so they cost no span time.
COUNTERS = {
    "camera.write_xyz_csv": "camera.csv_bytes_written",
    "camera.read_xyz_csv": "camera.csv_bytes_read",
}


class SpanRecorder:
    """Collects spans for one job at a time; see module docstring."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, parent, start, end, exc_name)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple] = []  # (owner, attr, original)

    # -- recording -------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        counter = COUNTERS.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            exc_name = None
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                exc_name = type(exc).__name__
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, parent, t0, t1, exc_name)
                if counter is not None and args:
                    counts[counter] += _file_size(args[0])

        return wrapper

    @contextlib.contextmanager
    def root(self, name: str):
        """Record the job's root span around the with-block."""
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        exc_name = None
        t0 = perf_counter()
        try:
            yield
        except BaseException as exc:
            exc_name = type(exc).__name__
            raise
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, -1, t0, t1, exc_name)

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function where defined and where imported."""
        if self._patched:
            raise RuntimeError("wrappers are already installed")
        grr_modules = [m for n, m in sorted(sys.modules.items())
                       if m is not None and (n == "grr" or n.startswith("grr."))]
        originals: dict[int, tuple] = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"grr.{short}"]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    originals[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        for mod in grr_modules:
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        for short, cls_name, meth in TRACED_CLASSMETHODS:
            cls = getattr(sys.modules[f"grr.{short}"], cls_name)
            original = cls.__dict__[meth]
            self._patched.append((cls, meth, original))
            setattr(cls, meth, classmethod(
                self._wrap(f"{short}.{meth}", original.__func__)))

    def remove(self) -> None:
        """Restore every original binding, in reverse order of patching."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("cannot reset while spans are open")
        self.spans.clear()
        self.counts.clear()

    # -- analysis --------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, inclusive and self seconds, plus exception tallies."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls: Counter = Counter()
        incl: defaultdict = defaultdict(float)
        self_s: defaultdict = defaultdict(float)
        outer_raised: Counter = Counter()  # (layer, exception) on outermost layer calls
        outer_calls: Counter = Counter()
        for i, (name, parent, t0, t1, exc) in enumerate(self.spans):
            calls[name] += 1
            incl[name] += t1 - t0
            self_s[name] += (t1 - t0) - child[i]
            layer = name.split(".")[0]
            if parent < 0 or self.spans[parent][0].split(".")[0] != layer:
                outer_calls[layer] += 1
                if exc is not None:
                    outer_raised[(layer, exc)] += 1
        return {"calls": calls, "incl_s": incl, "self_s": self_s,
                "outer_calls": outer_calls, "outer_raised": outer_raised,
                "counts": Counter(self.counts), "spans": len(self.spans)}

    def dump(self, fh, job_id: int) -> None:
        """Append this job's spans as JSON lines sharing one job id."""
        for i, (name, parent, t0, t1, exc) in enumerate(self.spans):
            fh.write(json.dumps({"job": job_id, "id": i, "parent": parent,
                                 "name": name, "start": t0, "end": t1,
                                 "exc": exc}) + "\n")


# Root spans: one per CLI command and one for the training loop.
ROOTS = ("cli.gen", "cli.solve", "cli.ablate", "train.loop")


def layer_metrics(summary: dict, root: str, wall: float) -> dict[str, float]:
    """The per-layer metrics the benchmark reports, from one traced job."""
    calls, self_s, incl = summary["calls"], summary["self_s"], summary["incl_s"]
    raised = summary["outer_raised"]

    def s(*names):
        return float(sum(self_s.get(n, 0.0) for n in names))

    rp_calls = calls.get("solver.recover_pose", 0)
    solver_calls = summary["outer_calls"].get("solver", 0)
    solver_failed = sum(v for (layer, _), v in raised.items() if layer == "solver")
    out = {
        "camera.write_xyz_csv.calls": calls.get("camera.write_xyz_csv", 0),
        "camera.write_xyz_csv.self_s": s("camera.write_xyz_csv"),
        "camera.csv_bytes_written": summary["counts"].get("camera.csv_bytes_written", 0),
        "camera.read_xyz_csv.calls": calls.get("camera.read_xyz_csv", 0),
        "camera.read_xyz_csv.self_s": s("camera.read_xyz_csv"),
        "camera.csv_bytes_read": summary["counts"].get("camera.csv_bytes_read", 0),
        "camera.from_array.self_s": s("camera.from_array"),
        "camera.world_frame.self_s": s("camera.world_rays", "camera.world_points"),
        "geometry.poses_io.self_s": s("geometry.save_poses", "geometry.load_poses"),
        "geometry.geodesic_distance.calls": calls.get("geometry.geodesic_distance", 0),
        "geometry.geodesic_distance.self_s": s("geometry.geodesic_distance"),
        "solver.recover_pose.calls": rp_calls,
        "solver.recover_pose.self_s": s("solver.recover_pose"),
        "solver.recover_pose.us_per_call":
            1e6 * incl.get("solver.recover_pose", 0.0) / rp_calls if rp_calls else 0.0,
        "solver.kabsch_rotation.self_s": s("solver.kabsch_rotation"),
        "solver.rigid_align.self_s": s("solver.rigid_align"),
        "solver.degenerate": raised.get(("solver", "DegenerateConfiguration"), 0),
        "solver.ok_ratio":
            (solver_calls - solver_failed) / solver_calls if solver_calls else 1.0,
        "solver_grad.pipeline_loss_grad.self_s": s("solver_grad.pipeline_loss_grad"),
        "solver_grad.kabsch_rotation_vjp.self_s": s("solver_grad.kabsch_rotation_vjp"),
        "solver_grad.rigid_align_vjp.self_s": s("solver_grad.rigid_align_vjp"),
        "solver_grad.near_singular":
            raised.get(("solver_grad", "NearSingularJacobian"), 0),
        "losses.pose_loss.self_s": s("losses.pose_loss"),
        "losses.geometry_loss.self_s": s("losses.geometry_loss"),
        "losses.regularization_loss.self_s": s("losses.regularization_loss"),
        "simulator.perturb_representations.calls":
            calls.get("simulator.perturb_representations", 0),
        "simulator.perturb_representations.self_s":
            s("simulator.perturb_representations"),
        "simulator.run_trial.self_s": s("simulator.run_trial"),
        "simulator.report_csv.self_s":
            s("simulator.write_report_csv", "simulator.write_sweep_csv"),
        "simulator.sample_poses.self_s": s("simulator.sample_poses"),
        "metrics.summarize.self_s": s("metrics.summarize_records"),
    }
    for r in ROOTS:
        out[f"{r}.self_s"] = s(r) if r == root else 0.0
    out["trace.unaccounted_s"] = wall - float(sum(self_s.values()))
    out["trace.spans"] = summary["spans"]
    return out

