"""WorkerSupervisor: crashes, heartbeat timeouts, bounded retries.

Most tests inject a fake ``worker_command`` (a tiny ``python -c``
program) so the supervision machinery is exercised without paying for a
real resynthesis run; the end-to-end tests at the bottom use the real
worker module.
"""

import json
import os
import sys

import pytest

from repro.benchcircuits import c17
from repro.io import circuit_to_json
from repro.obs import Registry
from repro.resynth import ResynthesisReport
from repro.service import (
    ArtifactStore,
    JobSpec,
    SupervisorConfig,
    TERMINAL_STATES,
    WorkerSupervisor,
)
from repro.service.supervisor import default_worker_command


def make_job(tmp_path, **kw):
    store = ArtifactStore(str(tmp_path))
    defaults = dict(netlist=json.loads(circuit_to_json(c17())), k=4,
                    perm_budget=20, max_passes=2)
    defaults.update(kw)
    job_id, _ = store.create_job(JobSpec(**defaults))
    return store, job_id


def fake_worker(program):
    """A worker_command factory running ``python -c program``."""
    def command(store, job_id, config):
        return [sys.executable, "-c", program]
    return command


def fast_config(**kw):
    defaults = dict(max_retries=0, heartbeat_timeout=5.0,
                    backoff_base=0.01, poll_interval=0.01, kill_grace=2.0)
    defaults.update(kw)
    return SupervisorConfig(**defaults)


class TestFakeWorkers:
    def test_clean_exit_is_success(self, tmp_path):
        store, job_id = make_job(tmp_path)
        metrics = Registry()
        sup = WorkerSupervisor(store, fast_config(), metrics,
                               worker_command=fake_worker("pass"))
        outcome = sup.supervise(job_id)
        assert outcome.state == "succeeded"
        assert outcome.attempts == 1
        assert store.status(job_id)["state"] == "succeeded"
        assert metrics.counter_value("service_jobs_succeeded_total") == 1

    def test_nonzero_exit_reaches_failed(self, tmp_path):
        store, job_id = make_job(tmp_path)
        metrics = Registry()
        sup = WorkerSupervisor(
            store, fast_config(), metrics,
            worker_command=fake_worker("import sys; sys.exit(3)"),
        )
        outcome = sup.supervise(job_id)
        assert outcome.state == "failed"
        assert "code 3" in outcome.error
        status = store.status(job_id)
        assert status["state"] == "failed"
        assert "code 3" in status["reason"]
        assert metrics.counter_value("service_jobs_failed_total") == 1

    @pytest.mark.parametrize("program, state", [
        ("pass", "succeeded"), ("import sys; sys.exit(3)", "failed")],
        ids=["succeeded", "failed"])
    def test_metrics_lead_the_terminal_status(self, tmp_path, program,
                                              state):
        # Whoever observes a terminal status must find the job in the
        # metrics: the store's status hook reads them at that write.
        store, job_id = make_job(tmp_path)
        if state == "succeeded":  # as the real worker leaves it
            store.write_report(job_id, ResynthesisReport(
                circuit=c17(), objective="gates", k=4, passes=2,
                replacements=0, gates_before=6, gates_after=6,
                paths_before=11, paths_after=11,
                timings={"pass_seconds": [0.25, 0.5],
                         "total_seconds": 0.75}))
        metrics = Registry()
        seen = []

        def on_status(job, record):
            if record["state"] in TERMINAL_STATES:
                seen.append((
                    record["state"],
                    metrics.counter_value(
                        f"service_jobs_{record['state']}_total"),
                    metrics.get_histogram("service_pass_seconds").count,
                ))

        store.on_status = on_status
        sup = WorkerSupervisor(store, fast_config(), metrics,
                               worker_command=fake_worker(program))
        assert sup.supervise(job_id).state == state
        passes = 2 if state == "succeeded" else 0
        assert seen == [(state, 1, passes)]

    def test_fail_once_then_succeed_retries(self, tmp_path):
        store, job_id = make_job(tmp_path)
        marker = tmp_path / "attempted"
        program = (
            "import os, sys\n"
            f"marker = {str(marker)!r}\n"
            "if os.path.exists(marker):\n"
            "    sys.exit(0)\n"
            "open(marker, 'w').close()\n"
            "sys.exit(1)\n"
        )
        metrics = Registry()
        slept = []
        sup = WorkerSupervisor(
            store, fast_config(max_retries=2), metrics,
            worker_command=fake_worker(program), sleep=slept.append,
        )
        outcome = sup.supervise(job_id)
        assert outcome.state == "succeeded"
        assert outcome.attempts == 2
        assert metrics.counter_value("service_worker_retries_total") == 1
        types = [e["type"] for e in store.events(job_id)]
        assert types.count("attempt") == 2
        failed = [e for e in store.events(job_id)
                  if e["type"] == "attempt_failed"]
        assert len(failed) == 1 and failed[0]["will_retry"]
        # One backoff sleep happened (plus poll sleeps of poll_interval).
        assert any(s >= 0.01 for s in slept)

    def test_retries_are_bounded(self, tmp_path):
        store, job_id = make_job(tmp_path)
        sup = WorkerSupervisor(
            store, fast_config(max_retries=2),
            worker_command=fake_worker("import sys; sys.exit(1)"),
            sleep=lambda s: None,
        )
        outcome = sup.supervise(job_id)
        assert outcome.state == "failed"
        assert outcome.attempts == 3  # first + 2 retries
        failed = [e for e in store.events(job_id)
                  if e["type"] == "attempt_failed"]
        assert [e["will_retry"] for e in failed] == [True, True, False]

    def test_silent_worker_is_killed_on_heartbeat_timeout(self, tmp_path):
        store, job_id = make_job(tmp_path)
        metrics = Registry()
        sup = WorkerSupervisor(
            store, fast_config(heartbeat_timeout=0.3), metrics,
            worker_command=fake_worker("import time; time.sleep(60)"),
        )
        outcome = sup.supervise(job_id)
        assert outcome.state == "failed"
        assert "heartbeat" in outcome.error
        assert metrics.counter_value("service_heartbeat_timeouts_total") == 1

    def test_retry_after_heartbeat_timeout_succeeds(self, tmp_path):
        # Regression: the first attempt beats once and then hangs; its
        # stale beat must not be held against the retry (which would be
        # killed on the supervisor's first poll, before it could beat).
        # Only the first attempt imports the store: loading the package
        # takes a sizeable share of the 0.5 s timeout, and the retry must
        # exit well within it.
        store, job_id = make_job(tmp_path)
        marker = tmp_path / "attempted"
        program = (
            "import os, sys, time\n"
            f"marker = {str(marker)!r}\n"
            "if os.path.exists(marker):\n"
            "    sys.exit(0)\n"
            "open(marker, 'w').close()\n"
            "from repro.service.store import ArtifactStore\n"
            f"ArtifactStore({store.root!r}).heartbeat({job_id!r})\n"
            "time.sleep(60)\n"
        )
        metrics = Registry()
        sup = WorkerSupervisor(
            store, fast_config(max_retries=1, heartbeat_timeout=0.5),
            metrics, worker_command=fake_worker(program),
        )
        outcome = sup.supervise(job_id)
        assert outcome.state == "succeeded"
        assert outcome.attempts == 2
        assert metrics.counter_value("service_heartbeat_timeouts_total") == 1
        failed = [e for e in store.events(job_id)
                  if e["type"] == "attempt_failed"]
        assert len(failed) == 1 and "heartbeat" in failed[0]["reason"]

    def test_stop_terminates_worker_and_requeues(self, tmp_path):
        import threading
        import time as time_mod

        store, job_id = make_job(tmp_path)
        pid_file = tmp_path / "worker.pid"
        program = (
            "import os, time\n"
            f"open({str(pid_file)!r}, 'w').write(str(os.getpid()))\n"
            "time.sleep(60)\n"
        )
        sup = WorkerSupervisor(
            store, fast_config(max_retries=5, heartbeat_timeout=60.0),
            worker_command=fake_worker(program),
        )
        outcomes = []
        thread = threading.Thread(
            target=lambda: outcomes.append(sup.supervise(job_id)))
        thread.start()
        deadline = time_mod.time() + 10.0
        while not pid_file.exists() and time_mod.time() < deadline:
            time_mod.sleep(0.01)
        assert pid_file.exists(), "worker never started"
        sup.stop()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert outcomes and outcomes[0].state == "stopped"
        # The job went back to queued (checkpoints make resume safe)...
        assert store.status(job_id)["state"] == "queued"
        assert any(e["type"] == "stopped" for e in store.events(job_id))
        # ...and the worker subprocess did not outlive its supervisor.
        pid = int(pid_file.read_text())
        try:
            os.kill(pid, 0)
            alive = True
        except OSError:
            alive = False
        assert not alive

    def test_orphan_heartbeat_delays_first_launch(self, tmp_path):
        # A live beat from an unsupervised worker (crashed-service
        # orphan) must hold off the replacement until it goes stale —
        # the event log allows only one writer.
        store, job_id = make_job(tmp_path)
        store.heartbeat(job_id)
        slept = []
        sup = WorkerSupervisor(
            store, fast_config(heartbeat_timeout=0.4),
            worker_command=fake_worker("pass"),
            sleep=lambda s: slept.append(s) or __import__("time").sleep(s),
        )
        outcome = sup.supervise(job_id)
        assert outcome.state == "succeeded"
        # The guard polled at least once before the beat went stale, and
        # the orphan's beat was wiped before the new worker launched.
        assert slept
        assert store.last_heartbeat(job_id) is None

    def test_worker_error_file_beats_exit_code_diagnosis(self, tmp_path):
        store, job_id = make_job(tmp_path)
        # Relies on the supervisor injecting repro's parent onto the
        # child's PYTHONPATH, exactly like the real worker does.
        program = (
            "import sys\n"
            "from repro.service.store import ArtifactStore\n"
            "store = ArtifactStore({root!r})\n"
            "store.write_worker_error({job!r}, 'boom', 'Traceback: boom')\n"
            "sys.exit(1)\n"
        ).format(root=store.root, job=job_id)
        sup = WorkerSupervisor(store, fast_config(),
                               worker_command=fake_worker(program))
        outcome = sup.supervise(job_id)
        assert outcome.state == "failed"
        assert outcome.error == "boom"
        assert "boom" in outcome.traceback
        assert store.status(job_id)["traceback"] == outcome.traceback


class TestRealWorker:
    def test_real_worker_runs_job_to_success(self, tmp_path):
        store, job_id = make_job(tmp_path)
        sup = WorkerSupervisor(
            store, fast_config(heartbeat_interval=0.2),
            worker_command=default_worker_command,
        )
        outcome = sup.supervise(job_id)
        assert outcome.state == "succeeded"
        report = store.load_report(job_id)
        assert report is not None and report.passes >= 1
        assert store.checkpoint_passes(job_id)
        assert store.last_heartbeat(job_id) is not None

    def test_real_worker_crash_preserves_traceback(self, tmp_path):
        doc = json.loads(circuit_to_json(c17()))
        x = doc["inputs"][0]
        doc["gates"] = [
            {"name": "a", "type": "and", "fanins": ["b", x]},
            {"name": "b", "type": "and", "fanins": ["a", x]},
        ]
        doc["outputs"] = ["a"]
        store, job_id = make_job(tmp_path, netlist=doc)
        sup = WorkerSupervisor(store, fast_config(),
                               worker_command=default_worker_command)
        outcome = sup.supervise(job_id)
        assert outcome.state == "failed"
        assert outcome.traceback is not None
        assert "Traceback" in outcome.traceback
