"""The demos run end to end from the repository root."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
DEMOS = (
    "lyapunov_exponents",
    "quaternionic_covers",
    "simplicity_certificate",
    "tour_of_invariants",
)


def run_demo(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, os.path.join("demos", name + ".py")],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_cleanly(name):
    result = run_demo(name)
    assert result.returncode == 0, result.stderr
    if name == "quaternionic_covers":
        assert "dim W = 12" in result.stdout.splitlines()
