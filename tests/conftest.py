"""Shared fixtures: reference grids and deterministic pose factories."""

import numpy as np
import pytest

from grr import Intrinsics, PatchGrid, Pose, Seed, random_rotation_matrices

pytest.register_assert_rewrite("reference")  # its assert_same reports both outcomes


@pytest.fixture(scope="session")
def grid16() -> PatchGrid:
    """16x16 patches on a square 256px image, generic principal point."""
    intr = Intrinsics(fx=300.0, fy=310.0, cx=127.3, cy=129.1, width=256, height=256)
    return PatchGrid(intr, n=16)


@pytest.fixture(scope="session")
def grid4() -> PatchGrid:
    intr = Intrinsics(fx=100.0, fy=100.0, cx=32.0, cy=32.0, width=64, height=64)
    return PatchGrid(intr, n=4)


@pytest.fixture
def make_poses():
    """Factory: count deterministic generic poses keyed by seed."""

    def _make(seed: int, count: int) -> list[Pose]:
        mats = random_rotation_matrices(Seed(seed), count)
        centers = Seed(seed).rng(99).uniform(-3.0, 3.0, size=(count, 3))
        return [Pose(m, c) for m, c in zip(mats, centers)]

    return _make


@pytest.fixture
def canonical_work(monkeypatch):
    """What the training pass does to the canonical side, one name per time
    it does it: "rays" per RayBundle built, "dots" per canonical pair-dot set.
    The canonical cache starts empty: it outlives a test, and equal bytes hit it."""
    from grr import solver_grad

    done = []
    pair_terms = solver_grad._pair_terms

    class CountingRayBundle(solver_grad.RayBundle):
        def __post_init__(self):
            done.append("rays")
            super().__post_init__()

    def counting_pair_terms(*args):
        out = pair_terms(*args)
        if out.cam_dots is not args[-1]:  # gathered, not the dots it was given
            done.append("dots")
        return out

    monkeypatch.setattr(solver_grad, "_memo", (None,) * 6)
    monkeypatch.setattr(solver_grad, "RayBundle", CountingRayBundle)
    monkeypatch.setattr(solver_grad, "_pair_terms", counting_pair_terms)
    return done


@pytest.fixture
def rng():
    return np.random.default_rng(20240814)


# One line per acceptance criterion, filled in by test_acceptance.py and
# echoed after the run so the verdicts survive pytest's output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
