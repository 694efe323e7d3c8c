"""Tests for the campaign orchestrator: spec, store, executors, aggregation."""


import pytest

from repro.campaign import (CampaignSpec, ResultStore, TaskRecord, aggregate_metrics,
                            column_stats, deterministic_report, run_campaign)
from repro.campaign.executor import execute_task


def small_spec(**overrides):
    """The cheapest real campaign: E6 quick runs in about a second."""
    params = dict(name="test", experiments=("E6",), replicates=2, root_seed=7)
    params.update(overrides)
    return CampaignSpec(**params)


class TestCampaignSpec:
    def test_expansion_is_deterministic_and_ordered(self):
        spec = CampaignSpec(name="x", experiments=("E1", "E3"), replicates=3, root_seed=5)
        tasks = spec.expand()
        assert [t.task_id for t in tasks] == [
            "E1/r0", "E1/r1", "E1/r2", "E3/r0", "E3/r1", "E3/r2"]
        assert tasks == spec.expand()
        assert len({t.seed for t in tasks}) == len(tasks)

    def test_seeds_derive_from_root_seed(self):
        a = CampaignSpec(name="x", experiments=("E1",), replicates=2, root_seed=1)
        b = CampaignSpec(name="x", experiments=("E1",), replicates=2, root_seed=2)
        assert [t.seed for t in a.expand()] != [t.seed for t in b.expand()]
        assert a.task_seed("E1", 0) == a.expand()[0].seed

    def test_spec_hash_sensitive_to_every_field(self):
        base = small_spec()
        assert base.spec_hash() == small_spec().spec_hash()
        for variant in (small_spec(name="other"), small_spec(replicates=3),
                        small_spec(root_seed=8), small_spec(quick=False),
                        small_spec(experiments=("E6", "E8")),
                        small_spec(max_trace_records=None)):
            assert variant.spec_hash() != base.spec_hash()

    def test_experiment_ids_normalized_to_upper(self):
        spec = CampaignSpec(name="x", experiments=("e2",))
        assert spec.experiments == ("E2",)

    def test_validation(self):
        with pytest.raises(ValueError):
            CampaignSpec(name="x", experiments=())
        with pytest.raises(ValueError):
            CampaignSpec(name="x", experiments=("E1",), replicates=0)
        with pytest.raises(ValueError):
            CampaignSpec(name="x", experiments=("E1",), max_trace_records=-1)


def make_record(spec, task, rows=None):
    return TaskRecord(
        spec_hash=spec.spec_hash(), task_id=task.task_id, experiment=task.experiment,
        replicate=task.replicate, seed=task.seed, quick=task.quick,
        description="prefilled", wall_time=0.5,
        rows=rows if rows is not None else [{"metric": 1.0}], notes=["fake"])


class TestResultStore:
    def test_append_load_roundtrip(self, tmp_path):
        spec = small_spec()
        task = spec.expand()[0]
        store = ResultStore(tmp_path / "store.jsonl")
        store.append(make_record(spec, task))
        records = store.load()
        assert len(records) == 1
        assert records[0].task_id == task.task_id
        assert records[0].rows == [{"metric": 1.0}]

    def test_load_skips_blank_and_corrupt_lines(self, tmp_path):
        spec = small_spec()
        task = spec.expand()[0]
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.append(make_record(spec, task))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("\n{not json\n")
            handle.write('{"task_id": "missing-keys"}\n')
            handle.write('{"spec_hash": "x", "trunc')  # crashed writer
        assert len(store.load()) == 1

    def test_completed_namespaced_by_spec_hash(self, tmp_path):
        spec_a, spec_b = small_spec(), small_spec(root_seed=99)
        store = ResultStore(tmp_path / "store.jsonl")
        store.append(make_record(spec_a, spec_a.expand()[0]))
        assert set(store.completed(spec_a.spec_hash())) == {"E6/r0"}
        assert store.completed(spec_b.spec_hash()) == {}
        store.append(make_record(spec_b, spec_b.expand()[1]))
        assert set(store.completed(spec_a.spec_hash())) == {"E6/r0"}
        assert set(store.completed(spec_b.spec_hash())) == {"E6/r1"}

    def test_duplicate_task_last_wins(self, tmp_path):
        spec = small_spec()
        task = spec.expand()[0]
        store = ResultStore(tmp_path / "store.jsonl")
        store.append(make_record(spec, task, rows=[{"metric": 1.0}]))
        store.append(make_record(spec, task, rows=[{"metric": 2.0}]))
        assert store.completed(spec.spec_hash())[task.task_id].rows == [{"metric": 2.0}]

    def test_missing_file_loads_empty(self, tmp_path):
        assert ResultStore(tmp_path / "absent.jsonl").load() == []

    def test_pre_scenario_records_still_load(self, tmp_path):
        # Stores written before the scenario axis existed have no "scenario"
        # key; they must keep loading (and resuming) unchanged.
        spec = small_spec()
        task = spec.expand()[0]
        record = make_record(spec, task)
        data = record.as_dict()
        del data["scenario"]
        path = tmp_path / "old-store.jsonl"
        import json as _json
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(_json.dumps(data) + "\n")
        loaded = ResultStore(path).load()
        assert len(loaded) == 1
        assert loaded[0].scenario is None
        assert loaded[0].task_id == task.task_id

    def test_compact_drops_superseded_records_only(self, tmp_path):
        spec, other = small_spec(), small_spec(root_seed=99)
        tasks = spec.expand()
        store = ResultStore(tmp_path / "store.jsonl")
        assert store.compact() == 0  # missing file: nothing to drop
        store.append(make_record(spec, tasks[0], rows=[{"metric": 1.0}]))
        store.append(make_record(spec, tasks[1]))
        store.append(make_record(other, other.expand()[0]))  # same task_id,
        # different campaign: must survive compaction untouched.
        store.append(make_record(spec, tasks[0], rows=[{"metric": 2.0}]))
        removed = store.compact()
        assert removed == 1
        assert len(store.load()) == 3
        # Exactly the records completed() already resolved to survive.
        assert store.completed(spec.spec_hash())[tasks[0].task_id].rows == [
            {"metric": 2.0}]
        assert set(store.completed(other.spec_hash())) == {"E6/r0"}
        # Idempotent: a second pass finds nothing to drop.
        assert store.compact() == 0

    def test_compact_preserves_corrupt_line_semantics(self, tmp_path):
        """Compacting a store with a crashed-writer trailing line drops the
        corrupt line (its task re-runs either way) and keeps the parseable
        records byte-identical."""
        spec = small_spec()
        tasks = spec.expand()
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.append(make_record(spec, tasks[0]))
        store.append(make_record(spec, tasks[1]))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"spec_hash": "x", "trunc')  # crashed writer
        before = store.load()
        store.compact()
        content = open(path, encoding="utf-8").read()
        assert "trunc" not in content
        assert store.load() == before

    @pytest.mark.parametrize("path", ["results.db", "results.sqlite", "sqlite:results"])
    def test_removed_sqlite_paths_are_rejected(self, path):
        with pytest.raises(ValueError, match="SQLite store backend was removed"):
            ResultStore(path)


#: The store contract suite, run over every store backend. JSONL is the only
#: backend left; the parameter keeps the suite's test ids stable.
STORE_BACKENDS = {
    "jsonl": lambda path: ResultStore(str(path) + ".jsonl"),
}


@pytest.fixture(params=sorted(STORE_BACKENDS))
def any_store(request, tmp_path):
    return STORE_BACKENDS[request.param](tmp_path / "store")


class TestStoreBackends:
    """Backend-agnostic store semantics."""

    def test_append_load_roundtrip(self, any_store):
        spec = small_spec()
        task = spec.expand()[0]
        any_store.append(make_record(spec, task))
        records = any_store.load()
        assert len(records) == 1
        assert records[0].task_id == task.task_id
        assert records[0].rows == [{"metric": 1.0}]

    def test_completed_namespaced_by_spec_hash(self, any_store):
        spec_a, spec_b = small_spec(), small_spec(root_seed=99)
        any_store.append(make_record(spec_a, spec_a.expand()[0]))
        any_store.append(make_record(spec_b, spec_b.expand()[1]))
        assert set(any_store.completed(spec_a.spec_hash())) == {"E6/r0"}
        assert set(any_store.completed(spec_b.spec_hash())) == {"E6/r1"}

    def test_duplicate_task_last_wins(self, any_store):
        spec = small_spec()
        task = spec.expand()[0]
        any_store.append(make_record(spec, task, rows=[{"metric": 1.0}]))
        any_store.append(make_record(spec, task, rows=[{"metric": 2.0}]))
        assert any_store.completed(spec.spec_hash())[task.task_id].rows == [
            {"metric": 2.0}]

    def test_missing_file_loads_empty(self, any_store):
        assert any_store.load() == []
        assert any_store.compact() == 0

    def test_resume_parity_with_backend(self, any_store):
        """A campaign resumed from the store skips exactly the stored tasks
        and runs the rest."""
        spec = small_spec(replicates=4)
        tasks = spec.expand()
        for task in tasks[:2]:
            any_store.append(make_record(spec, task))
        result = run_campaign(spec, store=any_store, jobs=1)
        assert result.executed == 2 and result.skipped == 2
        by_id = {o.task_id: o for o in result.outcomes}
        for task in tasks[:2]:
            assert by_id[task.task_id].from_store
        for task in tasks[2:]:
            assert not by_id[task.task_id].from_store
        assert set(any_store.completed(spec.spec_hash())) == {
            t.task_id for t in tasks}


class TestExecutor:
    def test_serial_and_parallel_reports_identical(self, tmp_path):
        spec = small_spec()
        serial = run_campaign(spec, store=None, jobs=1)
        parallel = run_campaign(spec, store=ResultStore(tmp_path / "p.jsonl"), jobs=2)
        assert serial.executed == parallel.executed == 2
        # Metric rows are bit-identical backend to backend...
        for a, b in zip(serial.outcomes, parallel.outcomes):
            assert a.task_id == b.task_id
            assert a.rows == b.rows
            assert a.notes == b.notes
        # ...and so is the aggregate report (minus wall-time notes).
        assert deterministic_report(serial) == deterministic_report(parallel)
        # The parallel run's store records survive a JSON roundtrip unchanged:
        # the resumed report matches the serial one below the campaign header
        # (whose executed/resumed counts legitimately differ).
        resumed = run_campaign(spec, store=ResultStore(tmp_path / "p.jsonl"), jobs=1)
        assert resumed.executed == 0 and resumed.skipped == 2
        def body(result):
            return deterministic_report(result).split("\n\n", 1)[1]
        assert body(resumed) == body(serial)

    def test_resume_runs_only_missing_tasks(self, tmp_path):
        spec = small_spec(replicates=4)
        tasks = spec.expand()
        store = ResultStore(tmp_path / "store.jsonl")
        for task in tasks[:2]:
            store.append(make_record(spec, task))
        result = run_campaign(spec, store=store, jobs=1)
        assert result.executed == 2 and result.skipped == 2
        by_id = {o.task_id: o for o in result.outcomes}
        for task in tasks[:2]:
            assert by_id[task.task_id].from_store
            assert by_id[task.task_id].rows == [{"metric": 1.0}]
        for task in tasks[2:]:
            assert not by_id[task.task_id].from_store
            assert by_id[task.task_id].rows  # really executed
        # The store now covers the whole campaign.
        assert set(store.completed(spec.spec_hash())) == {t.task_id for t in tasks}

    def test_unknown_experiment_propagates(self):
        spec = CampaignSpec(name="x", experiments=("E99",))
        with pytest.raises(KeyError):
            run_campaign(spec, store=None, jobs=1)

    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            run_campaign(small_spec(), jobs=0)


class TestFailurePolicy:
    """Per-task timeout + bounded retries -> structured failure rows."""

    def test_policy_fields_validate_and_hash(self):
        base = small_spec()
        assert small_spec(task_timeout=None, task_retries=0).spec_hash() == base.spec_hash()
        assert small_spec(task_timeout=30.0).spec_hash() != base.spec_hash()
        assert small_spec(task_retries=2).spec_hash() != base.spec_hash()
        with pytest.raises(ValueError):
            small_spec(task_timeout=0.0)
        with pytest.raises(ValueError):
            small_spec(task_retries=-1)

    def test_crash_retries_then_records_failure_row(self, monkeypatch):
        import repro.experiments.suite as suite
        calls = []

        def explode(*args, **kwargs):
            calls.append(1)
            raise RuntimeError("synthetic crash")

        monkeypatch.setattr(suite, "run_experiment", explode)
        task = small_spec().expand()[0]
        outcome = execute_task(task, retries=2)
        assert len(calls) == 3  # 1 attempt + 2 retries
        assert len(outcome.rows) == 1
        row = outcome.rows[0]
        assert row["status"] == "failed" and row["failure"] == "RuntimeError"
        assert row["attempts"] == 3 and "synthetic crash" in row["error"]
        assert outcome.attempts == 3
        assert outcome.task_id == task.task_id and outcome.seed == task.seed

    def test_retry_recovers_from_transient_crash(self, monkeypatch):
        import repro.experiments.suite as suite
        real = suite.run_experiment
        calls = []

        def flaky(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise OSError("transient")
            return real(*args, **kwargs)

        monkeypatch.setattr(suite, "run_experiment", flaky)
        task = small_spec().expand()[0]
        outcome = execute_task(task, retries=1)
        reference = execute_task(task)  # later calls pass straight through
        assert len(calls) == 3
        # A successful retry is bit-identical to a clean first attempt: every
        # attempt restarts from the task's derived seed.
        assert outcome.rows == reference.rows
        assert outcome.notes == reference.notes
        # The retry is visible in the attempt count (the CLI's final summary
        # line reports such tasks as retried) without perturbing the rows.
        assert outcome.attempts == 2
        assert reference.attempts == 1

    def test_timeout_aborts_attempt(self, monkeypatch):
        import time as time_module

        import repro.experiments.suite as suite

        def hang(*args, **kwargs):
            time_module.sleep(60.0)

        monkeypatch.setattr(suite, "run_experiment", hang)
        task = small_spec().expand()[0]
        start = time_module.perf_counter()
        outcome = execute_task(task, timeout=0.2, retries=1)
        elapsed = time_module.perf_counter() - start
        assert elapsed < 5.0  # two 0.2s budgets, not two 60s sleeps
        row = outcome.rows[0]
        assert row["status"] == "failed" and row["failure"] == "timeout"
        assert row["attempts"] == 2

    def test_failed_task_does_not_kill_the_campaign(self, tmp_path, monkeypatch):
        import repro.experiments.suite as suite
        real = suite.run_experiment

        # Fail exactly the first replicate (deterministic by derived seed).
        spec = small_spec(task_retries=0)
        doomed_seed = spec.expand()[0].seed

        def selective(experiment_id, *args, **kwargs):
            if kwargs.get("seed") == doomed_seed:
                raise RuntimeError("doomed replicate")
            return real(experiment_id, *args, **kwargs)

        monkeypatch.setattr(suite, "run_experiment", selective)
        store = ResultStore(tmp_path / "fail.jsonl")
        result = run_campaign(spec, store=store, jobs=1)
        assert result.executed == 2
        failed, ok = result.outcomes
        assert failed.rows[0]["status"] == "failed"
        assert ok.rows and "status" not in ok.rows[0]
        # The failure row is persisted, resumes like any record, and the
        # report renders without special-casing.
        resumed = run_campaign(spec, store=store, jobs=1)
        assert resumed.executed == 0 and resumed.skipped == 2
        assert resumed.outcomes[0].rows == failed.rows
        report = deterministic_report(result)
        assert "FAILED after 1 attempt(s)" in report
        # The failed *first* replicate must not mislabel the block header:
        # the surviving replicate's real description wins.
        assert "E6 (failed) ==" not in report
        assert ok.description in report

    def test_raising_task_restores_sigalrm_state(self, monkeypatch):
        """A task that raises mid-timer must not leak handler or armed timer.

        Restoration is try/finally in ``_attempt_deadline``: after a failing
        attempt (plus its retry) the previous SIGALRM handler is back in
        place and the interval timer is disarmed, so the next attempt's
        retry accounting cannot be corrupted by a stale alarm.
        """
        import signal

        import repro.experiments.suite as suite

        def sentinel_handler(signum, frame):  # pragma: no cover - never fired
            raise AssertionError("stale alarm leaked into later code")

        previous = signal.signal(signal.SIGALRM, sentinel_handler)
        try:
            def explode(*args, **kwargs):
                raise RuntimeError("boom mid-timer")

            monkeypatch.setattr(suite, "run_experiment", explode)
            task = small_spec().expand()[0]
            outcome = execute_task(task, timeout=30.0, retries=1)
            assert outcome.rows[0]["status"] == "failed"
            assert outcome.rows[0]["failure"] == "RuntimeError"
            # Handler restored to ours, timer fully disarmed.
            assert signal.getsignal(signal.SIGALRM) is sentinel_handler
            assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        finally:
            signal.signal(signal.SIGALRM, previous)

    def test_deadline_restores_handler_when_body_raises(self):
        import signal

        from repro.campaign.executor import _attempt_deadline

        before = signal.getsignal(signal.SIGALRM)
        with pytest.raises(ValueError):
            with _attempt_deadline(30.0):
                raise ValueError("mid-timer failure")
        assert signal.getsignal(signal.SIGALRM) is before
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    def test_timeout_disabled_off_main_thread(self, monkeypatch):
        """A worker thread cannot use SIGALRM; tasks run undeadlined, not failed."""
        import threading

        results = []

        def in_thread():
            task = small_spec().expand()[0]
            results.append(execute_task(task, timeout=30.0))

        worker = threading.Thread(target=in_thread)
        worker.start()
        worker.join()
        (outcome,) = results
        assert outcome.rows and "status" not in outcome.rows[0]  # really ran


class TestProgressStreaming:
    def test_progress_counts_fresh_and_resumed_tasks(self, tmp_path):
        spec = small_spec()
        store = ResultStore(tmp_path / "progress.jsonl")
        seen = []
        run_campaign(spec, store=store, jobs=1, progress=seen.append)
        assert [o.from_store for o in seen] == [False, False]
        seen.clear()
        run_campaign(spec, store=store, jobs=1, progress=seen.append)
        assert [o.from_store for o in seen] == [True, True]
        assert [o.task_id for o in seen] == [t.task_id for t in spec.expand()]

    def test_cli_progress_streams_to_stderr_only(self, capsys):
        from repro.experiments.cli import main
        assert main(["E6", "--seeds", "2", "--progress"]) == 0
        captured = capsys.readouterr()
        lines = [line for line in captured.err.splitlines() if line.startswith("[")]
        assert lines[0].startswith("[1/2] E6/r0 (")
        assert lines[1].startswith("[2/2] E6/r1 (")
        assert "[1/2]" not in captured.out  # stdout report stays clean

    def test_cli_without_progress_is_silent(self, capsys):
        from repro.experiments.cli import main
        assert main(["E6", "--seeds", "2"]) == 0
        assert "[1/2]" not in capsys.readouterr().err


class TestAggregation:
    def test_column_stats(self):
        stats = column_stats([1.0, 3.0, None, True, "text"])
        assert stats.count == 2
        assert stats.mean == 2.0 and stats.std == 1.0
        assert stats.min == 1.0 and stats.max == 3.0
        assert column_stats([None, "x", True]) is None

    def test_column_stats_tolerates_non_finite_values(self):
        # Some metrics are legitimately inf (diameter of a momentarily
        # disconnected group); aggregation must not crash on them.
        stats = column_stats([2.0, float("inf")])
        assert stats.mean == float("inf") and stats.max == float("inf")
        assert stats.std != stats.std  # NaN
        assert stats.min == 2.0

    def test_aggregate_metrics_groups_and_drops(self):
        rows = [
            {"n": 5, "seed": 1, "latency": 2.0},
            {"n": 5, "seed": 2, "latency": 4.0},
            {"n": 9, "seed": 1, "latency": 10.0},
        ]
        stats = aggregate_metrics(rows, group_by=("n",), drop=("seed",))
        assert list(stats) == [(5,), (9,)]
        assert stats[(5,)]["latency"].mean == 3.0
        assert stats[(5,)]["latency"].min == 2.0
        assert stats[(9,)]["latency"].count == 1
        assert "seed" not in stats[(5,)] and "n" not in stats[(5,)]


class TestCampaignCli:
    def test_cli_campaign_mode_resumes(self, tmp_path, capsys):
        from repro.experiments.cli import main
        store_path = str(tmp_path / "cli-store.jsonl")
        assert main(["E6", "--seeds", "2", "--jobs", "1", "--store", store_path]) == 0
        first = capsys.readouterr().out
        assert "executed 2, resumed 0" in first
        assert "== E6 —" in first
        assert main(["E6", "--seeds", "2", "--jobs", "1", "--store", store_path]) == 0
        second = capsys.readouterr().out
        assert "executed 0, resumed 2" in second
        # Everything below the campaign header is reproducible across runs.
        def strip(text):
            return [line for line in text.splitlines()
                    if not line.startswith(("campaign ", "note: wall time"))]
        assert strip(first) == strip(second)

    def test_cli_campaign_unknown_experiment(self, capsys):
        from repro.experiments.cli import main
        assert main(["E99", "--seeds", "2"]) == 2

    def test_cli_parser_campaign_defaults(self):
        from repro.experiments.cli import build_parser
        args = build_parser().parse_args([])
        assert args.seeds == 1 and args.jobs == 1 and args.store is None


class TestScenarioAxis:
    def scenario_spec(self, **overrides):
        from repro.scenarios import ScenarioSpec
        params = dict(name="grid", experiments=("E6",), replicates=2, root_seed=7,
                      scenarios=(ScenarioSpec.create("static_random", n=10),
                                 ScenarioSpec.create("static_random", n=14)))
        params.update(overrides)
        return CampaignSpec(**params)

    def test_expansion_covers_experiment_x_scenario_x_replicate(self):
        spec = self.scenario_spec()
        tasks = spec.expand()
        assert [t.task_id for t in tasks] == [
            "E6/static_random[n=10]/r0", "E6/static_random[n=10]/r1",
            "E6/static_random[n=14]/r0", "E6/static_random[n=14]/r1"]
        assert len({t.seed for t in tasks}) == len(tasks)
        assert tasks == spec.expand()

    def test_scenario_less_spec_dict_omits_axis(self):
        # The hash input of a scenario-less campaign is identical to the
        # pre-axis code, so existing stores keep resuming.
        assert "scenarios" not in small_spec().as_dict()
        assert "scenarios" in self.scenario_spec().as_dict()

    def test_scenario_less_task_ids_and_seeds_unchanged(self):
        # Adding the axis must not have re-seeded or re-keyed historical grids.
        spec = small_spec()
        tasks = spec.expand()
        assert [t.task_id for t in tasks] == ["E6/r0", "E6/r1"]
        from repro.sim.randomness import derive_seed
        assert tasks[0].seed == derive_seed(7, "campaign/E6/rep0")

    def test_scenario_cells_get_distinct_seed_streams(self):
        spec = self.scenario_spec()
        seeds_a = [t.seed for t in spec.expand() if "n=10" in t.task_id]
        seeds_b = [t.seed for t in spec.expand() if "n=14" in t.task_id]
        assert set(seeds_a).isdisjoint(seeds_b)

    def test_spec_hash_sensitive_to_scenario_axis(self):
        from repro.scenarios import ScenarioSpec
        base = self.scenario_spec()
        assert base.spec_hash() == self.scenario_spec().spec_hash()
        variant = self.scenario_spec(
            scenarios=(ScenarioSpec.create("static_random", n=10),))
        assert variant.spec_hash() != base.spec_hash()
        assert small_spec().spec_hash() != base.spec_hash()

    def test_duplicate_scenario_cells_rejected(self):
        from repro.scenarios import ScenarioSpec
        with pytest.raises(ValueError, match="duplicate scenario"):
            self.scenario_spec(scenarios=(ScenarioSpec.create("static_random", n=10),
                                          ScenarioSpec.create("static_random", n=10)))

    def test_equivalent_cells_normalize_and_duplicate(self):
        # n=10 and n=10.0 build the identical workload; the campaign must not
        # run it twice disguised as a sweep.
        from repro.scenarios import ScenarioSpec
        with pytest.raises(ValueError, match="duplicate scenario"):
            self.scenario_spec(scenarios=(ScenarioSpec.create("static_random", n=10),
                                          ScenarioSpec.create("static_random", n=10.0)))

    def test_cells_validated_at_spec_creation(self):
        from repro.scenarios import ScenarioSpec
        with pytest.raises(KeyError, match="unknown scenario"):
            self.scenario_spec(scenarios=(ScenarioSpec.create("no_such"),))
        with pytest.raises(ValueError, match="unknown parameter"):
            self.scenario_spec(scenarios=(ScenarioSpec.create("static_random", bogus=1),))

    def test_scenarios_accept_dict_form(self):
        from repro.scenarios import ScenarioSpec
        spec_obj = ScenarioSpec.create("static_random", n=10)
        by_dict = self.scenario_spec(scenarios=(spec_obj.as_dict(),))
        by_spec = self.scenario_spec(scenarios=(spec_obj,))
        assert by_dict.spec_hash() == by_spec.spec_hash()
        assert by_dict.scenarios == (spec_obj,)

    def test_serial_parallel_and_resume_with_scenario_axis(self, tmp_path):
        spec = self.scenario_spec()
        serial = run_campaign(spec, store=None, jobs=1)
        parallel = run_campaign(spec, store=ResultStore(tmp_path / "s.jsonl"), jobs=2)
        assert deterministic_report(serial) == deterministic_report(parallel)
        resumed = run_campaign(spec, store=ResultStore(tmp_path / "s.jsonl"), jobs=1)
        assert resumed.executed == 0 and resumed.skipped == 4
        assert all(o.from_store for o in resumed.outcomes)
        # The scenario survives the store roundtrip attached to each outcome.
        assert {o.scenario_label for o in resumed.outcomes} == {
            "static_random[n=10]", "static_random[n=14]"}

    def test_report_renders_one_block_per_scenario_cell(self):
        spec = self.scenario_spec(replicates=1)
        result = run_campaign(spec, jobs=1)
        report = deterministic_report(result)
        assert "scenario axis (2 cells)" in report
        assert "(scenario static_random[n=10], 1 seeds)" in report
        assert "(scenario static_random[n=14], 1 seeds)" in report

    def test_outcomes_for_filters_by_scenario_label(self):
        spec = self.scenario_spec(replicates=1)
        result = run_campaign(spec, jobs=1)
        assert len(result.outcomes_for("E6", "static_random[n=10]")) == 1
        assert result.outcomes_for("E6") == []  # no default cell in this campaign


class TestScenarioCli:
    def test_cli_sweep_expands_and_resumes(self, tmp_path, capsys):
        from repro.experiments.cli import main
        store_path = str(tmp_path / "sweep.jsonl")
        argv = ["E6", "--scenario", "static_random", "--set", "area=200",
                "--sweep", "n=8,10", "--seeds", "2", "--jobs", "1",
                "--store", store_path]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "executed 4, resumed 0" in first
        assert "scenario axis (2 cells)" in first
        assert "static_random[area=200.0,n=8]" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "executed 0, resumed 4" in second
        def strip(text):
            return [line for line in text.splitlines()
                    if not line.startswith(("campaign ", "note: wall time"))]
        assert strip(first) == strip(second)

    def test_cli_sweep_alone_enters_campaign_mode(self, capsys):
        from repro.experiments.cli import main
        assert main(["E6", "--scenario", "static_random", "--sweep", "n=8,10"]) == 0
        out = capsys.readouterr().out
        assert "scenario axis (2 cells)" in out

    def test_cli_single_run_scenario_override(self, capsys):
        from repro.experiments.cli import main
        assert main(["E6", "--scenario", "static_random", "--set", "n=8"]) == 0
        out = capsys.readouterr().out
        assert "== E6 —" in out and "campaign" not in out

    def test_cli_rejects_bad_scenario_usage(self, capsys):
        from repro.experiments.cli import main
        assert main(["E6", "--set", "n=8"]) == 2
        assert "--set/--sweep require --scenario" in capsys.readouterr().err
        assert main(["E6", "--scenario", "no_such_scenario"]) == 2
        assert "unknown scenario" in capsys.readouterr().err
        assert main(["E6", "--scenario", "static_random", "--set", "bogus=1"]) == 2
        assert "no parameter" in capsys.readouterr().err
        assert main(["E6", "--scenario", "static_random", "--set", "n=many"]) == 2
        assert "expects kind" in capsys.readouterr().err
        assert main(["E6", "--scenario", "static_random", "--sweep", "n"]) == 2
        assert "PARAM=VALUE" in capsys.readouterr().err

    def test_cli_list_scenarios(self, capsys):
        from repro.experiments.cli import main
        assert main(["--list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "manhattan_grid" in out and "flash_crowd" in out
        assert "static_random" in out


class TestPolicyFlagValidation:
    def test_cli_rejects_bad_timeout_cleanly(self, capsys):
        from repro.experiments.cli import main
        assert main(["E6", "--task-timeout", "0"]) == 2
        assert "task_timeout" in capsys.readouterr().err

    def test_cli_rejects_negative_retries_cleanly(self, capsys):
        from repro.experiments.cli import main
        assert main(["E6", "--task-retries", "-3"]) == 2
        assert "task_retries" in capsys.readouterr().err

    @pytest.mark.parametrize("store", ["x.db", "sqlite:x"])
    def test_cli_rejects_removed_sqlite_store_cleanly(self, capsys, tmp_path,
                                                      monkeypatch, store):
        from repro.experiments.cli import main
        monkeypatch.chdir(tmp_path)
        assert main(["E6", "--seeds", "2", "--store", store]) == 2
        assert "SQLite store backend was removed" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestCampaignExitCodes:
    def test_cli_exits_nonzero_when_tasks_fail_permanently(self, capsys, monkeypatch):
        import repro.experiments.suite as suite
        from repro.experiments.cli import main

        def explode(*args, **kwargs):
            raise RuntimeError("permanent crash")

        monkeypatch.setattr(suite, "run_experiment", explode)
        assert main(["E6", "--seeds", "2"]) == 1
        captured = capsys.readouterr()
        assert "FAILED after 1 attempt(s)" in captured.out
        assert "2 task(s) failed permanently" in captured.err

    def test_internal_valueerror_keeps_its_traceback(self, monkeypatch):
        import repro.experiments.cli as cli
        from repro.experiments.cli import main

        def explode(*args, **kwargs):
            raise ValueError("internal bug, not bad input")

        # The single-run path binds run_experiment at import time.
        monkeypatch.setattr(cli, "run_experiment", explode)
        # Single-run path: the crash must propagate, not exit 2 silently.
        with pytest.raises(ValueError, match="internal bug"):
            main(["E6"])

    def test_attempt_finishing_under_budget_survives_late_alarm(self, monkeypatch):
        """Disarm race: a timeout signal landing after the experiment returned
        (but before the deadline disarms) must not discard the result."""
        import repro.campaign.executor as executor
        from repro.campaign.executor import TaskTimeoutError

        class AlarmInEpilogue:
            """Deadline whose signal fires in the sliver before disarm."""

            def __init__(self, seconds):
                pass

            def __enter__(self):
                return self

            def __exit__(self, exc_type, exc, tb):
                if exc_type is None:  # body completed; simulate the late fire
                    raise TaskTimeoutError("late alarm")

        monkeypatch.setattr(executor, "_attempt_deadline", AlarmInEpilogue)
        task = small_spec().expand()[0]
        outcome = execute_task(task, timeout=300.0)
        assert outcome.rows and "status" not in outcome.rows[0]  # kept
        reference = execute_task(task)
        assert outcome.rows == reference.rows
        # A timeout *during* the body (result never bound) still fails.
        import repro.experiments.suite as suite

        def hang_forever(*args, **kwargs):
            raise TaskTimeoutError("boom")

        monkeypatch.setattr(suite, "run_experiment", hang_forever)
        failed = execute_task(task, timeout=300.0)
        assert failed.rows[0]["failure"] == "timeout"


class TestTaskCount:
    def test_task_count_matches_expansion(self):
        from repro.scenarios import ScenarioSpec
        for spec in (small_spec(),
                     small_spec(replicates=5),
                     small_spec(experiments=("E1", "E6"), replicates=3,
                                scenarios=(ScenarioSpec.create("static_random", n=8),
                                           ScenarioSpec.create("static_random", n=10)))):
            assert spec.task_count() == len(spec.expand())
