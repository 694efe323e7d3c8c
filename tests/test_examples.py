"""Smoke tests for the scripts in examples/.

Each example runs as a quick-mode subprocess (``REPRO_QUICK=1``) so refactors
of the scenario/experiment layers cannot silently break the documented entry
points.  The tests assert clean exit and non-empty output — the examples'
numbers are illustrative, not part of the verified results — and that the
chat example's prose never contradicts its own best-effort verdict.
"""

import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES_DIR = os.path.join(REPO_ROOT, "examples")

EXAMPLE_SCRIPTS = sorted(
    name for name in os.listdir(EXAMPLES_DIR) if name.endswith(".py"))


def test_every_example_is_covered():
    """The parametrized list below must track the directory contents."""
    assert EXAMPLE_SCRIPTS, "examples/ directory is empty?"


def run_quick(script):
    env = dict(os.environ)
    env["REPRO_QUICK"] = "1"
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, script)],
        env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("script", EXAMPLE_SCRIPTS)
def test_example_runs_clean_in_quick_mode(script):
    completed = run_quick(script)
    assert completed.returncode == 0, (
        f"{script} failed (rc={completed.returncode})\n"
        f"stdout:\n{completed.stdout}\nstderr:\n{completed.stderr}")
    assert completed.stdout.strip(), f"{script} printed nothing"


def test_chat_example_claims_continuity_only_when_it_held():
    """The chat example may say that no partner is ever lost only beside a
    respected best-effort property."""
    completed = run_quick("manet_chat.py")
    assert completed.returncode == 0, completed.stderr
    out = completed.stdout
    respected = [line for line in out.splitlines()
                 if line.startswith("best-effort property respected")]
    assert len(respected) == 1
    claims = "never loses a partner" in out
    assert claims == respected[0].endswith("True"), out
