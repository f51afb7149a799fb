"""Job workers forked from the worker template, and the processes that
own them, with the real worker running real jobs.

``test_supervisor.py`` drives fake workers through ``subprocess.Popen``;
these tests cover the forked path's failure modes: a killed worker, a
killed template, a stopped or killed service.  Every job that recovers
must stay bit-identical to an in-process run.
"""

import json
import os
import re
import signal
import subprocess
import sys
import textwrap
import threading
import time

import pytest

import repro
from repro.benchcircuits import c17
from repro.benchcircuits.suite import suite_circuit
from repro.io import circuit_to_json
from repro.resynth import REPORT_NUMBER_FIELDS, procedure2
from repro.service import (
    ArtifactStore,
    JobSpec,
    ResynthesisService,
    ServiceClient,
    ServiceServer,
    SupervisorConfig,
    TERMINAL_STATES,
    WorkerSupervisor,
    resolve_circuit,
)
from repro.service.runner import procedure_call
from repro.service.supervisor import TemplateError, WorkerTemplate
from repro.verify import netlist_dump

pytestmark = pytest.mark.skipif(
    not (hasattr(os, "fork") and os.path.isdir("/proc")),
    reason="the worker template needs os.fork; liveness is read from /proc")

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Arguments the worker rejects at once (exit code 2).
BAD_ARGV = ["--no-such-flag"]

#: Five passes of about 0.4 s each: long enough to kill between passes.
LONG = dict(procedure="procedure2", circuit="syn1423", k=6, seed=1)


@pytest.fixture(scope="module")
def reference():
    return procedure2(suite_circuit(LONG["circuit"]), k=LONG["k"],
                      seed=LONG["seed"])


def fast_config(**kw):
    defaults = dict(max_retries=2, heartbeat_timeout=30.0,
                    heartbeat_interval=0.2, backoff_base=0.05,
                    poll_interval=0.02)
    defaults.update(kw)
    return SupervisorConfig(**defaults)


def c17_spec(**kw):
    defaults = dict(netlist=json.loads(circuit_to_json(c17())), k=4,
                    perm_budget=20, max_passes=2)
    defaults.update(kw)
    return JobSpec(**defaults)


def running(pid):
    """True while *pid* runs; a zombie no longer does."""
    try:
        with open(f"/proc/{pid}/stat", "r", encoding="ascii") as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


def wait_for(predicate, timeout=60.0):
    deadline = time.time() + timeout
    while not predicate():
        assert time.time() < deadline, "timed out"
        time.sleep(0.01)


def finishes(call, timeout=60.0):
    """Run *call* in a thread; True if it returned within *timeout*."""
    thread = threading.Thread(target=call, daemon=True)
    thread.start()
    thread.join(timeout)
    return not thread.is_alive()


def src_env():
    """This environment with the package importable."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))


def record_spawns(service, before_spawn=None):
    """Make *service*'s template record ``(template pid, worker)`` per
    fork; *before_spawn* runs ahead of each fork."""
    spawned = []
    template = service._template
    spawn = template.spawn

    def recording(argv, timeout):
        if before_spawn is not None:
            before_spawn()
        worker = spawn(argv, timeout)
        spawned.append((template.pid, worker))
        return worker

    template.spawn = recording
    return spawned


def finished(store, job_id):
    return store.status(job_id)["state"] in TERMINAL_STATES


def assert_matches(store, job_id, reference):
    report = store.load_report(job_id)
    for field in REPORT_NUMBER_FIELDS:
        assert getattr(report, field) == getattr(reference, field), field
    assert netlist_dump(report.circuit) == netlist_dump(reference.circuit)


def failure_reasons(store, job_id):
    return [e["reason"] for e in store.events(job_id)
            if e["type"] == "attempt_failed"]


class TestTemplate:
    def test_one_template_serves_attempts_and_jobs_in_a_row(self,
                                                             tmp_path):
        doc = json.loads(circuit_to_json(c17()))
        x = doc["inputs"][0]
        doc["gates"] = [  # a cycle: every attempt fails with a traceback
            {"name": "a", "type": "and", "fanins": ["b", x]},
            {"name": "b", "type": "and", "fanins": ["a", x]},
        ]
        doc["outputs"] = ["a"]
        specs = [c17_spec(seed=1), c17_spec(seed=2),
                 c17_spec(netlist=doc), c17_spec(seed=3)]
        store = ArtifactStore(str(tmp_path))
        service = ResynthesisService(store, config=fast_config(max_retries=1),
                                     max_workers=1)
        spawned = record_spawns(service)
        service.start()
        try:
            ids = [service.submit(spec)[0] for spec in specs]
            for job_id in ids:
                wait_for(lambda: finished(store, job_id))
        finally:
            service.stop()
        assert [store.status(j)["state"] for j in ids] == [
            "succeeded", "succeeded", "failed", "succeeded"]
        assert "Traceback" in store.status(ids[2])["traceback"]
        assert store.status(ids[2])["attempts"] == 2
        assert len(spawned) == 5
        assert len({template for template, _ in spawned}) == 1
        assert len({worker.pid for _, worker in spawned}) == 5
        # Forked workers decide exactly as an in-process run does.
        for spec, job_id in zip(specs, ids):
            if job_id != ids[2]:
                assert_matches(store, job_id,
                               procedure_call(spec)(resolve_circuit(spec)))

    def test_killed_worker_is_retried_from_its_checkpoint(self, tmp_path,
                                                          reference):
        store = ArtifactStore(str(tmp_path))
        service = ResynthesisService(store, config=fast_config(),
                                     max_workers=1)
        spawned = record_spawns(service)
        service.start()
        try:
            job_id, _ = service.submit(JobSpec(**LONG))
            wait_for(lambda: store.checkpoint_passes(job_id))
            os.kill(spawned[0][1].pid, signal.SIGKILL)
            wait_for(lambda: finished(store, job_id))
        finally:
            service.stop()
        assert store.status(job_id)["state"] == "succeeded"
        assert failure_reasons(store, job_id) == [
            "worker exited with code -9"]
        assert "resumed" in [e["type"] for e in store.events(job_id)]
        assert len(spawned) == 2 and spawned[0][0] == spawned[1][0]
        assert_matches(store, job_id, reference)

    def test_killed_template_fails_the_attempt_and_is_replaced(
            self, tmp_path, reference):
        store = ArtifactStore(str(tmp_path))
        service = ResynthesisService(store, config=fast_config(),
                                     max_workers=1)
        orphan_running = []

        def check_orphan():
            if spawned:
                orphan_running.append(running(spawned[0][1].pid))

        spawned = record_spawns(service, before_spawn=check_orphan)
        service.start()
        try:
            job_id, _ = service.submit(JobSpec(**LONG))
            wait_for(lambda: store.checkpoint_passes(job_id))
            os.kill(spawned[0][0], signal.SIGKILL)
            wait_for(lambda: finished(store, job_id))
        finally:
            service.stop()
        assert store.status(job_id)["state"] == "succeeded"
        reasons = failure_reasons(store, job_id)
        assert len(reasons) == 1 and "template" in reasons[0], reasons
        # The old worker was killed, not left to finish the job, and was
        # gone before the retry launched in a fresh template.
        types = [e["type"] for e in store.events(job_id)]
        assert types.count("completed") == 1
        assert types.index("attempt_failed") < types.index("completed")
        assert orphan_running == [False]
        assert len(spawned) == 2 and spawned[1][0] != spawned[0][0]
        assert_matches(store, job_id, reference)

    def test_stop_mid_job_leaves_no_worker_and_no_template(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        server = ServiceServer(store, port=0, config=fast_config(),
                               max_workers=1)
        spawned = record_spawns(server.service)
        server.start()
        try:
            job_id = ServiceClient(server.url).submit(JobSpec(**LONG))["id"]
            wait_for(lambda: store.checkpoint_passes(job_id))
        finally:
            server.stop()
        assert store.status(job_id)["state"] == "queued"
        assert store.events(job_id)[-1]["type"] == "stopped"
        template_pid, worker = spawned[0]
        assert worker.returncode == -signal.SIGTERM  # stopped, not killed
        for pid in (worker.pid, template_pid):
            with pytest.raises(OSError):
                os.kill(pid, 0)

    def test_unguarded_script_runs_a_job(self, tmp_path):
        # A program that builds the service at module level, without a
        # main guard: workers must not re-import the embedding program
        # (the standard library's forkserver does, and fails the job).
        script = tmp_path / "serve_here.py"
        script.write_text(textwrap.dedent(f"""\
            import json
            from repro.benchcircuits import c17
            from repro.io import circuit_to_json
            from repro.service import (
                ArtifactStore, JobSpec, ServiceClient, ServiceServer)

            server = ServiceServer(
                ArtifactStore({str(tmp_path / "store")!r}), port=0)
            server.start()
            client = ServiceClient(server.url)
            spec = JobSpec(netlist=json.loads(circuit_to_json(c17())),
                           k=4, perm_budget=20, max_passes=2)
            view = client.wait(client.submit(spec)["id"], timeout=60.0)
            server.stop()
            print(view["state"])
        """))
        done = subprocess.run([sys.executable, str(script)], env=src_env(),
                              capture_output=True, text=True, timeout=120)
        assert done.stdout.split() == ["succeeded"], done.stderr


class TestTemplateWaits:
    """A template that is gone or does not answer is never waited on
    without bound, and never leaves a worker running."""

    def test_lost_answer_pipe_kills_the_children(self, tmp_path):
        # Once the service cannot read answers any more, the template's
        # next answer (here the pid of a worker that exits at once) ends
        # it, and it takes its long-running worker along.
        store = ArtifactStore(str(tmp_path))
        job_id, _ = store.create_job(JobSpec(**LONG))
        template = subprocess.Popen(
            [sys.executable, "-m", "repro.service.workermain", "--template"],
            env=src_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL)

        def send(request):
            template.stdin.write(json.dumps(request).encode() + b"\n")
            template.stdin.flush()

        try:
            send({"fork": [store.root, job_id,
                           "--heartbeat-interval", "0.2"]})
            pid = json.loads(template.stdout.readline())["pid"]
            wait_for(lambda: store.last_heartbeat(job_id) is not None)
            template.stdout.close()
            send({"fork": BAD_ARGV})
            assert template.wait(timeout=30) == 0
            assert not running(pid)
            assert store.load_report_doc(job_id) is None
        finally:
            if template.poll() is None:
                template.kill()
                template.wait()
            template.stdin.close()

    def test_unanswered_fork_fails_the_attempt_and_is_retried(
            self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        job_id, _ = store.create_job(c17_spec())
        template = WorkerTemplate()
        try:
            assert template.spawn(BAD_ARGV, timeout=30.0).wait(30.0) == 2
            stopped = template.pid
            os.kill(stopped, signal.SIGSTOP)
            supervisor = WorkerSupervisor(
                store, fast_config(max_retries=1, heartbeat_timeout=3.0),
                template=template)
            outcomes = []
            assert finishes(
                lambda: outcomes.append(supervisor.supervise(job_id)))
            assert outcomes[0].state == "succeeded"
            assert failure_reasons(store, job_id) == [
                "worker template did not answer within 3s; killed"]
            wait_for(lambda: not running(stopped))
            assert template.pid not in (None, stopped)
        finally:
            template.close()

    def stopped_template_with_a_worker(self, tmp_path):
        """A template running one job's worker, then stopped."""
        store = ArtifactStore(str(tmp_path))
        job_id, _ = store.create_job(JobSpec(**LONG))
        template = WorkerTemplate()
        worker = template.spawn([store.root, job_id], timeout=30.0)
        wait_for(lambda: store.last_heartbeat(job_id) is not None)
        os.kill(template.pid, signal.SIGSTOP)
        return template, worker

    def test_kill_through_a_stopped_template_kills_the_template(
            self, tmp_path):
        template, worker = self.stopped_template_with_a_worker(tmp_path)
        stopped = template.pid
        try:
            worker.kill()
            assert worker.wait(timeout=30.0) == -signal.SIGKILL
            assert "template" in worker.failure
            assert not running(worker.pid)
            wait_for(lambda: not running(stopped))
        finally:
            template.close()

    def test_close_does_not_wait_behind_a_fork(self, tmp_path):
        template, worker = self.stopped_template_with_a_worker(tmp_path)
        stopped = template.pid
        errors = []

        def fork():
            try:
                template.spawn(BAD_ARGV, timeout=600.0)
            except TemplateError as exc:
                errors.append(str(exc))

        thread = threading.Thread(target=fork, daemon=True)
        thread.start()
        try:
            wait_for(lambda: template._process._fork_lock.locked())
            assert finishes(template.close)
            thread.join(timeout=30.0)
            assert len(errors) == 1 and "template exited" in errors[0], errors
            assert worker.wait(timeout=30.0) == -signal.SIGKILL
            assert not running(worker.pid)
        finally:
            if running(stopped):  # still our unreaped child: kill its group
                os.killpg(stopped, signal.SIGKILL)


def start_serve(root):
    """A ``repro serve`` process on an ephemeral port, and its URL."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--root", root,
         "--port", "0", "--workers", "1"],
        env=src_env(), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    match = re.search(r"listening on (\S+)", proc.stdout.readline())
    assert match, "serve did not start"
    return proc, match.group(1)


class TestServeProcess:
    """The worker's beat period under ``serve`` is 1 s."""

    def run_until_beating(self, root):
        proc, url = start_serve(root)
        job_id = ServiceClient(url).submit(JobSpec(**LONG))["id"]
        store = ArtifactStore(root)
        wait_for(lambda: store.last_heartbeat(job_id) is not None)
        return proc, store, job_id

    def test_sigterm_requeues_the_job_and_stops_its_worker(self, tmp_path):
        proc, store, job_id = self.run_until_beating(str(tmp_path))
        try:
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        assert store.status(job_id)["state"] == "queued"
        assert store.events(job_id)[-1]["type"] == "stopped"
        beat = store.last_heartbeat(job_id)
        time.sleep(1.5)
        assert store.last_heartbeat(job_id) == beat

    def test_killed_service_takes_its_workers_along(self, tmp_path):
        proc, store, job_id = self.run_until_beating(str(tmp_path))
        proc.kill()
        proc.wait()
        proc.stdout.close()
        time.sleep(0.5)
        beat = store.last_heartbeat(job_id)
        time.sleep(2.0)  # twice the beat period
        assert store.last_heartbeat(job_id) == beat
        assert store.load_report_doc(job_id) is None
