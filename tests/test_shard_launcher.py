"""The ``mp`` transport's worker launcher.

Shards 1 … k − 1 of an ``mp`` run each run in a worker forked from the
coordinator once the world is built: it inherits its job, the built world
and every imported module, never returns into the caller's code, takes its
commands over a socket, and is reaped by the coordinator.  Shard 0 runs in
the coordinator itself, finalized on the same build once every worker is
forked.  These tests pin what that buys and what it must not lose: a
k-shard run forks k − 1 workers, scripts without a ``__main__`` guard work,
no interpreter is started, no temp file is written and no snapshot is
pickled or restored, the caller's buffered output is not written twice, a
dying or failing worker surfaces as an error that names it, a failing
shard 0 surfaces as its own exception, shard 0 observes only into its own
context, and no worker outlives the run — not even a coordinator killed
mid-run.
"""

import os
import pickle
import signal
import subprocess
import sys
import tempfile
import textwrap
import time

import pytest

from repro.obs import observing
from repro.shard import ShardSpec, ShardWorld, run_sharded
from repro.shard import runner

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: A small city: 200 nodes over two tiles with real cross-shard traffic.
SPEC_ARGS = dict(params={"n": 200, "area": 1500.0}, seed=7, duration=2.0, shards=2)


def city_spec(**overrides):
    return ShardSpec.create("city_scale", **{**SPEC_ARGS, **overrides})


@pytest.fixture(scope="module")
def inproc_result():
    result = run_sharded(city_spec(), transport="inproc")
    assert result.stats["remote_deliveries"] > 0
    return result


def script_command(tmp_path, body, *args):
    """Write ``body`` as a script file; return its command line and env."""
    script = tmp_path / "script.py"
    script.write_text(textwrap.dedent(body))
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)  # buffered stdio, as a plain shell gives
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return [sys.executable, str(script), *args], env


def run_script(tmp_path, body, *args):
    """Run ``body`` as a script file in a fresh interpreter; return the result."""
    command, env = script_command(tmp_path, body, *args)
    return subprocess.run(command, env=env, capture_output=True, text=True,
                          timeout=120)


def gone(pid):
    """True once ``pid`` has exited: no such process, or a zombie left to
    an init that does not reap it."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        # Exited since the signal check; without /proc, that check is all.
        return os.path.isdir("/proc")


def wait_gone(pid, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not gone(pid):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


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


def test_buffered_output_is_written_once(tmp_path):
    """Text the caller left in its stdio buffers (a piped stdout is block
    buffered, stderr line buffered) appears exactly once: the coordinator
    flushes both before every fork, so no worker writes it again."""
    result = run_script(tmp_path, f"""
        import sys
        from repro.shard import ShardSpec, run_sharded
        sys.stdout.write("unflushed stdout")
        sys.stderr.write("unflushed stderr")
        run_sharded(ShardSpec.create("city_scale", **{SPEC_ARGS!r}), transport="mp")
    """)
    assert result.returncode == 0, result.stderr
    assert result.stdout.count("unflushed stdout") == 1, result.stdout
    assert result.stderr.count("unflushed stderr") == 1, result.stderr


def test_killed_coordinator_leaves_no_worker(tmp_path):
    """A coordinator SIGKILLed mid-run leaves no worker behind.  A 3-shard
    run forks two workers, for shards 1 and 2.  Each worker closes the
    coordinator's ends of its siblings' sockets, so none waits on another:
    with shard 2 stopped, as if busy in a long window, shard 1 still sees
    its coordinator gone and exits; shard 2 exits once resumed."""
    command, env = script_command(tmp_path, f"""
        import time
        from repro.shard import ShardSpec, run_sharded
        from repro.shard.runner import _MpHost

        pids = []
        init = _MpHost.__init__

        def record(self, *args):
            init(self, *args)
            pids.append(self.pid)

        def stall(self, end, inclusive):
            print(*pids, flush=True)
            time.sleep(120)

        _MpHost.__init__ = record
        _MpHost.submit_round = stall
        run_sharded(ShardSpec.create("city_scale", **{dict(SPEC_ARGS, shards=3)!r}),
                    transport="mp")
    """)
    coordinator = subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                                   stderr=subprocess.DEVNULL, text=True)
    pids = []
    try:
        pids = [int(pid) for pid in coordinator.stdout.readline().split()]
        assert len(pids) == 2
        os.kill(pids[1], signal.SIGSTOP)
        coordinator.kill()
        coordinator.wait()
        assert wait_gone(pids[0]), "shard 1 outlived its coordinator"
        os.kill(pids[1], signal.SIGCONT)
        assert wait_gone(pids[1]), "shard 2 outlived its coordinator"
    finally:
        coordinator.kill()
        coordinator.wait()
        coordinator.stdout.close()
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


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
                os.kill(self.pid, signal.SIGKILL)
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


class FinalizeFailed(Exception):
    pass


def refuse_churn_on(monkeypatch, refused):
    """Make shard finalize raise ``FinalizeFailed`` on the shards ``refused``
    names."""
    install_churn = ShardWorld._install_churn

    def refuse(self, churn_rows):
        if refused(self.shard_id):
            raise FinalizeFailed("churn refused")
        return install_churn(self, churn_rows)

    monkeypatch.setattr(ShardWorld, "_install_churn", refuse)


def test_failed_finalize_reports_the_worker_traceback(monkeypatch):
    """A worker whose shard finalize raises reports the child's traceback
    and the exception name, not a bare exit code."""
    refuse_churn_on(monkeypatch, lambda shard_id: shard_id >= 1)
    with pytest.raises(RuntimeError, match="shard worker failed") as info:
        run_sharded(city_spec(), transport="mp")
    assert "Traceback" in str(info.value)
    assert "FinalizeFailed: churn refused" in str(info.value)


def test_failed_shard_0_finalize_raises_its_own_error_and_reaps(monkeypatch):
    """Shard 0 is finalized in the coordinator after the workers are
    forked: its own exception propagates unwrapped, and the workers already
    forked are killed and reaped, so no child is left."""
    refuse_churn_on(monkeypatch, lambda shard_id: shard_id == 0)
    with pytest.raises(FinalizeFailed, match="churn refused"):
        run_sharded(city_spec(shards=3), transport="mp")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def counting_forks(monkeypatch):
    """Wrap ``os.fork``; return the list that each fork in the caller
    appends its child's pid to."""
    children = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            children.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return children


def test_two_shard_mp_forks_one_worker(monkeypatch, inproc_result):
    """The coordinator runs shard 0 itself: 2 shards fork 1 worker."""
    children = counting_forks(monkeypatch)
    result = run_sharded(city_spec(), transport="mp")
    assert len(children) == 1
    assert result.fingerprint == inproc_result.fingerprint


def test_one_shard_mp_forks_nothing(monkeypatch):
    """A 1-shard mp run is the coordinator alone, and equals inproc."""
    reference = run_sharded(city_spec(shards=1), transport="inproc")

    def refuse():
        raise AssertionError("a 1-shard mp run must not fork")

    monkeypatch.setattr(os, "fork", refuse)
    result = run_sharded(city_spec(shards=1), transport="mp")
    assert result.fingerprint == reference.fingerprint
    assert result.stats["worker_base_phase_s"] == [0.0]


def test_every_observed_shard_times_its_barrier_waits():
    """Shard 0 waits on the coordinator, the worker on its socket: both
    exports carry their windows and the waits between them, so
    ``shard.barrier_frac`` counts every shard."""
    result = run_sharded(city_spec(), transport="mp", obs=True)
    assert len(result.obs["per_shard"]) == 2
    for blob in result.obs["per_shard"]:
        assert blob["spans"]["shard.window"]["count"] > 0
        assert blob["spans"]["shard.barrier_wait"]["count"] > 0


@pytest.mark.parametrize("transport", ["mp", "inproc"])
def test_unobserved_shard_0_leaves_the_callers_context_alone(transport):
    """With ``obs=False`` shard 0 runs in the coordinator (every shard does
    on inproc) but observes into no context: a context the caller
    installed records none of its windows."""
    with observing() as ctx:
        run_sharded(city_spec(), transport=transport)
    assert ctx.span_stats("shard.window") is None
    assert ctx.span_stats("shard.barrier_wait") is None


def test_mp_pickles_and_restores_no_snapshot(monkeypatch, inproc_result):
    """A worker finalizes the world it inherits with the fork: the mp run
    needs neither the snapshot nor its restore, and still equals the
    in-process run that uses both."""
    def refuse(*args, **kwargs):
        raise AssertionError("the mp transport must not snapshot the world")

    monkeypatch.setattr(ShardWorld, "snapshot_base", staticmethod(refuse))
    monkeypatch.setattr(ShardWorld, "from_snapshot", classmethod(refuse))
    result = run_sharded(city_spec(), transport="mp")
    assert result.fingerprint == inproc_result.fingerprint


def test_mp_writes_no_temp_file(monkeypatch, inproc_result):
    """The world reaches the workers through the fork, not the filesystem."""
    def refuse(*args, **kwargs):
        raise AssertionError("the mp transport must not create a temp file")

    monkeypatch.setattr(tempfile, "mkstemp", refuse)
    result = run_sharded(city_spec(), transport="mp")
    assert result.fingerprint == inproc_result.fingerprint
    assert not {"multiprocessing", "tempfile"} & set(vars(runner))


def test_mp_starts_no_interpreter(monkeypatch, inproc_result):
    """Workers are forked from the coordinator, not started as interpreters."""
    def refuse(*args, **kwargs):
        raise AssertionError("the mp transport must not start an interpreter")

    monkeypatch.setattr(subprocess, "Popen", refuse)
    result = run_sharded(city_spec(), transport="mp")
    assert result.fingerprint == inproc_result.fingerprint


def test_mp_is_posix_only(monkeypatch):
    # The context restores os.name before pytest formats any failure.
    with monkeypatch.context() as patch, pytest.raises(ValueError, match="POSIX"):
        patch.setattr(os, "name", "nt")
        run_sharded(city_spec(), transport="mp")
