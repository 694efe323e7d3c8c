"""The ``mp`` transport's worker launcher.

Each ``mp`` shard runs in a bare ``python -c`` interpreter that imports
:mod:`repro.shard.runner` and nothing of the caller, takes its job and the
snapshot bytes over a socket, and is reaped by the coordinator.  These tests
pin what that buys and what it must not lose: scripts without a
``__main__`` guard work, no temp file is written, a dying worker surfaces as
an error that names it, and no child process outlives the run.
"""

import os
import pickle
import subprocess
import sys
import tempfile
import textwrap

import pytest

from repro.shard import ShardSpec, ShardWorld, run_sharded
from repro.shard import runner

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: A small city: 200 nodes over two tiles with real cross-shard traffic.
SPEC_ARGS = dict(params={"n": 200, "area": 1500.0}, seed=7, duration=2.0, shards=2)


def city_spec():
    return ShardSpec.create("city_scale", **SPEC_ARGS)


@pytest.fixture(scope="module")
def inproc_result():
    result = run_sharded(city_spec(), transport="inproc")
    assert result.stats["remote_deliveries"] > 0
    return result


def run_script(tmp_path, body, *args):
    """Run ``body`` as a script file in a fresh interpreter; return the result."""
    script = tmp_path / "script.py"
    script.write_text(textwrap.dedent(body))
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run([sys.executable, str(script), *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_unguarded_script_runs_mp(tmp_path, inproc_result):
    """A script calling ``run_sharded(..., transport="mp")`` at top level,
    with no ``if __name__ == "__main__"`` guard: workers never re-run it, so
    it exits 0 with the in-process fingerprint."""
    out = tmp_path / "fingerprint.pkl"
    result = run_script(tmp_path, f"""
        import pickle, sys
        from repro.shard import ShardSpec, run_sharded
        spec = ShardSpec.create("city_scale", **{SPEC_ARGS!r})
        result = run_sharded(spec, transport="mp")
        with open(sys.argv[1], "wb") as fh:
            pickle.dump(result.fingerprint, fh)
    """, str(out))
    assert result.returncode == 0, result.stderr
    with open(out, "rb") as fh:
        assert pickle.load(fh) == inproc_result.fingerprint


def test_killed_worker_raises_and_every_worker_is_reaped(tmp_path):
    """A worker killed mid-run surfaces as a RuntimeError naming its shard
    and exit code, not a bare EOFError; after a clean run and after the
    failed one alike, the coordinator has no child process left."""
    result = run_script(tmp_path, f"""
        import os, signal
        from repro.shard import ShardSpec, run_sharded
        from repro.shard.runner import _MpHost

        def no_children():
            try:
                os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                return True
            return False

        spec = ShardSpec.create("city_scale", **{SPEC_ARGS!r})
        run_sharded(spec, transport="mp")
        print("clean run, no children:", no_children())

        submit_round = _MpHost.submit_round

        def kill_shard_1(self, end, inclusive):
            if self.shard_id == 1:
                os.kill(self.proc.pid, signal.SIGKILL)
            submit_round(self, end, inclusive)

        _MpHost.submit_round = kill_shard_1
        try:
            run_sharded(spec, transport="mp")
        except RuntimeError as exc:
            print("error:", exc)
        print("failed run, no children:", no_children())
    """)
    assert result.returncode == 0, result.stderr
    assert "clean run, no children: True" in result.stdout
    assert "error: shard worker 1 exited with code -9 before replying" in result.stdout
    assert "failed run, no children: True" in result.stdout
    assert "EOFError" not in result.stdout + result.stderr


def test_garbage_snapshot_reports_the_worker_traceback(monkeypatch):
    monkeypatch.setattr(ShardWorld, "snapshot_base",
                        staticmethod(lambda spec: b"not a pickle"))
    with pytest.raises(RuntimeError, match="shard worker failed") as info:
        run_sharded(city_spec(), transport="mp")
    assert "Traceback" in str(info.value)
    assert "UnpicklingError" in str(info.value)


def test_mp_writes_no_temp_file(monkeypatch, inproc_result):
    """The snapshot travels over the worker's socket, not the filesystem."""
    def refuse(*args, **kwargs):
        raise AssertionError("the mp transport must not create a temp file")

    monkeypatch.setattr(tempfile, "mkstemp", refuse)
    result = run_sharded(city_spec(), transport="mp")
    assert result.fingerprint == inproc_result.fingerprint
    assert not {"multiprocessing", "tempfile"} & set(vars(runner))


def test_mp_is_posix_only(monkeypatch):
    # The context restores os.name before pytest formats any failure.
    with monkeypatch.context() as patch, pytest.raises(ValueError, match="POSIX"):
        patch.setattr(os, "name", "nt")
        run_sharded(city_spec(), transport="mp")
