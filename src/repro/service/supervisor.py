"""Worker supervision: worker lifecycle, heartbeats, bounded retries.

Each job attempt runs in a dedicated worker process
(:mod:`repro.service.workermain`) so a crash — a Python exception, a
hard ``os._exit``, an OOM kill — can never take the service down.  The
supervisor watches the worker's heartbeat file; a worker silent for
longer than ``heartbeat_timeout`` is killed and treated as a failed
attempt.  Failed attempts are retried up to ``max_retries`` times with
exponential backoff, and because every pass boundary persisted a
checkpoint, a retry resumes where the dead worker left off instead of
redoing its work — deterministically, so a job's final report does not
depend on how many times its worker died (the extension of the
``repro.parallel`` crash-path discipline that makes retries safe).

Where the platform has ``os.fork``, the real worker command is not
started as a new interpreter: a :class:`WorkerTemplate` — one process
that has already imported the worker — forks it, and a
:class:`ForkedWorker` handle stands in for the ``Popen`` object, so
heartbeat kills, retries and stop work the same on both paths.  Any
other command (a test's fake worker) still runs through
``subprocess.Popen``.  When the template dies, its in-flight attempts
fail with a reason that names it, their workers are killed before the
retry launches, and the next launch starts a fresh template.  A
template that is alive but does not answer in time is killed the same
way, so no wait on it is unbounded.

After the last attempt the job reaches the terminal ``failed`` state
carrying the worker's traceback (when the worker could record one) or
the exit/kill diagnosis (when it could not).

:meth:`WorkerSupervisor.stop` (service shutdown) terminates the current
worker and puts the job back in ``queued`` — no worker process outlives
its supervisor, and the job resumes from its checkpoints when a service
next leases it.
"""

from __future__ import annotations

import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..obs import Registry
from .store import ArtifactStore

#: Sentinel returned by :meth:`WorkerSupervisor._run_attempt` when the
#: attempt ended because :meth:`WorkerSupervisor.stop` was called rather
#: than because the worker failed.  Compared with ``is``.
_STOPPED = object()


@dataclass
class SupervisorConfig:
    """Supervision knobs (service-wide; see docs/SERVICE.md)."""

    max_retries: int = 2  # retries after the first attempt
    heartbeat_timeout: float = 30.0  # seconds of silence before the kill
    heartbeat_interval: float = 1.0  # worker's beat period
    backoff_base: float = 0.5  # retry n sleeps backoff_base * 2**n
    poll_interval: float = 0.05  # supervisor's worker-watch period
    kill_grace: float = 5.0  # SIGTERM -> SIGKILL escalation window
    #: Opt-in shared identification cache (docs/MEMO.md): when set, every
    #: worker is launched with ``--memo`` pointing here, so jobs feed and
    #: consult one persistent store.  Purely an accelerator — reports are
    #: bit-identical with or without it, which is also why it is *not*
    #: part of the job spec's content address.
    memo_root: Optional[str] = None
    #: Opt-in remote fabric (docs/FABRIC.md): URLs of task-serving
    #: services.  When set, every job worker is launched with one
    #: ``--task-worker`` per URL, so a single service job fans its
    #: per-pass candidate evaluation out to that fleet.  Execution
    #: placement only — reports stay bit-identical — so, like the memo,
    #: it is not part of the job spec's content address.
    fabric_workers: tuple = ()
    #: Opt-in memo-over-HTTP (``--memo-url``): workers consult/feed the
    #: identification memo of the service at this URL instead of a
    #: shared directory.  Overrides ``memo_root`` for workers.
    memo_url: Optional[str] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.heartbeat_timeout <= 0 or self.heartbeat_interval <= 0:
            raise ValueError("heartbeat periods must be positive")


@dataclass
class JobOutcome:
    """Result of supervising one job.

    ``succeeded`` and ``failed`` are the job's terminal states;
    ``stopped`` means :meth:`WorkerSupervisor.stop` interrupted the job
    mid-flight — its status went back to ``queued`` so a later service
    (or restart) resumes it from its checkpoints.
    """

    job_id: str
    state: str  # "succeeded" | "failed" | "stopped"
    attempts: int
    error: Optional[str] = None
    traceback: Optional[str] = None


#: The real worker's module.  A command that runs it with this
#: interpreter is forked from the :class:`WorkerTemplate`.
WORKER_MODULE = "repro.service.workermain"

#: Longest wait for the template to act on a close or a SIGKILL request,
#: and for the killed workers of a dead template to stop.  A template
#: that takes longer is killed with its workers.
_TEMPLATE_WAIT = 5.0


def default_worker_command(store: ArtifactStore, job_id: str,
                           config: SupervisorConfig) -> List[str]:
    """The real worker: ``python -m repro.service.workermain``."""
    command = [
        sys.executable, "-m", WORKER_MODULE,
        store.root, job_id,
        "--heartbeat-interval", str(config.heartbeat_interval),
    ]
    if config.memo_root:
        command += ["--memo", config.memo_root]
    if config.memo_url:
        command += ["--memo-url", config.memo_url]
    for url in config.fabric_workers:
        command += ["--task-worker", url]
    return command


def _worker_env() -> dict:
    """Child env with this interpreter's ``repro`` importable.

    The service may be running from a source tree (``PYTHONPATH=src``)
    or an installed package; pointing the child at the package parent of
    the *running* ``repro`` works in both layouts.
    """
    import repro

    pkg_parent = os.path.dirname(os.path.dirname(
        os.path.abspath(repro.__file__)
    ))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (pkg_parent if not existing
                         else pkg_parent + os.pathsep + existing)
    return env


def _running(pid: int) -> bool:
    """True while *pid* is a live process; a zombie has stopped writing.

    Workers orphaned by a dead template are reaped by whichever process
    adopts them, possibly never, so liveness is read from ``/proc``
    where it exists.
    """
    if not os.path.isdir("/proc"):
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        except PermissionError:
            pass
        return True
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            return fh.read().rpartition(b")")[2].split()[0] != b"Z"
    except OSError:
        return False


class TemplateError(RuntimeError):
    """The worker template could not fork a worker."""


class ForkedWorker:
    """A ``Popen``-shaped handle on one worker forked by the template.

    The template reaps the worker and reports its exit code; signals go
    through the template, which delivers them only while the pid is
    still its unreaped child.
    """

    def __init__(self, pid: int, template: "_TemplateProcess") -> None:
        self.pid = pid
        self.returncode: Optional[int] = None
        #: Why the attempt failed when the template, not the worker,
        #: ended it.
        self.failure: Optional[str] = None
        self._template = template
        self._exited = threading.Event()

    def _set_exit(self, code: int, failure: Optional[str] = None) -> None:
        self.failure = failure
        self.returncode = code
        self._exited.set()

    def poll(self) -> Optional[int]:
        return self.returncode

    def wait(self, timeout: Optional[float] = None) -> int:
        if not self._exited.wait(timeout):
            raise subprocess.TimeoutExpired(WORKER_MODULE, timeout)
        return self.returncode

    def send_signal(self, signum: int) -> None:
        if self.returncode is None:
            self._template.send({"signal": int(signum), "pid": self.pid})

    def terminate(self) -> None:
        self.send_signal(signal.SIGTERM)

    def kill(self) -> None:
        """SIGKILL the worker; a template that does not pass the signal
        on (stopped, or hung) is killed, and the worker with it."""
        self.send_signal(signal.SIGKILL)
        if not self._exited.wait(_TEMPLATE_WAIT):
            self._template.abandon()


class _TemplateProcess:
    """One running template process and the workers it forked.

    A reader thread turns the template's answers into
    :class:`ForkedWorker` handles and exit codes.  The template leads
    its own process group, which its workers share; when its output
    ends, the template is gone, and the whole group is killed before the
    template is reaped, while its pid still names that group.  Every
    wait on the template is bounded: one that does not answer in time is
    killed the same way.
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", WORKER_MODULE, "--template"],
            env=_worker_env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        self.lost = False
        self._workers: Dict[int, ForkedWorker] = {}
        self._forked: "queue.Queue[object]" = queue.Queue()
        self._fork_lock = threading.Lock()  # one answer per fork request
        self._write_lock = threading.Lock()
        self._reap_lock = threading.Lock()
        self._reader = threading.Thread(
            target=self._read, name="repro-worker-template", daemon=True)
        self._reader.start()

    def send(self, request: dict) -> None:
        line = json.dumps(request).encode("utf-8") + b"\n"
        with self._write_lock:
            try:
                self.proc.stdin.write(line)
                self.proc.stdin.flush()
            except (OSError, ValueError):
                pass  # the template is gone; _read settles its workers

    def fork(self, argv: List[str], timeout: float) -> ForkedWorker:
        """Fork one worker; a template that has not answered within
        *timeout* seconds is killed."""
        with self._fork_lock:
            if self.lost:
                raise TemplateError("worker template exited")
            self.send({"fork": argv})
            try:
                answer = self._forked.get(timeout=timeout)
            except queue.Empty:
                self.abandon()
                raise TemplateError(
                    f"worker template did not answer within {timeout:g}s; "
                    f"killed") from None
        if isinstance(answer, ForkedWorker):
            return answer
        raise TemplateError(answer)

    def close(self) -> None:
        """Ask the template to exit; it kills its workers first."""
        self.send({"close": True})
        self._reader.join(_TEMPLATE_WAIT)
        if self._reader.is_alive():
            self.abandon()
            self._reader.join()

    def abandon(self) -> None:
        """Kill the template and its workers; the reader then fails the
        workers' attempts."""
        self.lost = True
        with self._reap_lock:
            if self.proc.returncode is None:  # the pid still names the group
                try:
                    os.killpg(self.proc.pid, signal.SIGKILL)
                except OSError:
                    pass

    def _read(self) -> None:
        try:
            for line in self.proc.stdout:
                doc = json.loads(line)
                if "pid" in doc:
                    worker = ForkedWorker(doc["pid"], self)
                    self._workers[worker.pid] = worker
                    self._forked.put(worker)
                elif "error" in doc:
                    self._forked.put(
                        f"worker template could not fork: {doc['error']}")
                else:
                    worker = self._workers.pop(doc["exit"], None)
                    if worker is not None:
                        worker._set_exit(doc["code"])
        finally:
            self._settle()

    def _settle(self) -> None:
        """The template is gone: kill its workers, then fail them."""
        self.abandon()
        with self._reap_lock:
            code = self.proc.wait()
        with self._write_lock:
            try:
                self.proc.stdin.close()
            except OSError:
                pass  # a request the dead template never read
        self.proc.stdout.close()
        deadline = time.monotonic() + _TEMPLATE_WAIT
        while (any(_running(pid) for pid in self._workers)
               and time.monotonic() < deadline):
            time.sleep(0.01)
        reason = (f"worker template exited with code {code}; "
                  f"its worker was killed")
        for worker in self._workers.values():
            worker._set_exit(-signal.SIGKILL, failure=reason)
        self._workers.clear()
        self._forked.put(f"worker template exited with code {code}")


class WorkerTemplate:
    """Forks job workers from one pre-imported template process.

    The template starts at the first :meth:`spawn`, a dead one is
    replaced at the next, and :meth:`close` stops and reaps it.  Thread
    safe: every supervisor of a service shares one.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._process: Optional[_TemplateProcess] = None
        self._closed = False

    @property
    def pid(self) -> Optional[int]:
        """The running template's pid, if one is running."""
        process = self._process
        return None if process is None or process.lost else process.proc.pid

    def spawn(self, argv: List[str], timeout: float) -> ForkedWorker:
        """Fork a worker that runs ``worker_main(argv)``; a template
        that has not answered within *timeout* seconds is killed."""
        with self._lock:
            if self._closed:
                raise TemplateError("worker template is closed")
            if self._process is None or self._process.lost:
                try:
                    self._process = _TemplateProcess()
                except OSError as exc:
                    raise TemplateError(
                        f"worker template did not start: {exc}") from exc
            process = self._process
        return process.fork(argv, timeout)

    def close(self) -> None:
        """Stop the template; its remaining workers are killed.  A fork
        in progress fails rather than holding the close up."""
        with self._lock:
            self._closed = True
            process, self._process = self._process, None
        if process is not None:
            process.close()


class WorkerSupervisor:
    """Runs one job to a terminal state through supervised attempts.

    *template* is the :class:`WorkerTemplate` the real worker is forked
    from, shared by a service's supervisors; without one, the supervisor
    owns a template for the duration of :meth:`supervise`.  *on_settled*
    is called with the job id just before the job's terminal status, or
    its stop re-queue, is written.
    """

    def __init__(
        self,
        store: ArtifactStore,
        config: Optional[SupervisorConfig] = None,
        metrics: Optional[Registry] = None,
        worker_command: Optional[
            Callable[[ArtifactStore, str, SupervisorConfig], List[str]]
        ] = None,
        sleep: Callable[[float], None] = time.sleep,
        template: Optional[WorkerTemplate] = None,
        on_settled: Optional[Callable[[str], None]] = None,
    ) -> None:
        self._store = store
        self._config = config or SupervisorConfig()
        self._metrics = metrics or Registry()
        self._worker_command = worker_command or default_worker_command
        self._sleep = sleep
        self._template = template
        self._on_settled = on_settled or (lambda job_id: None)
        self._stop_requested = False
        self._proc = None  # subprocess.Popen or ForkedWorker
        self._proc_lock = threading.Lock()
        self._launched_once = False

    def stop(self) -> None:
        """Interrupt a running :meth:`supervise`: the current worker is
        terminated (its checkpoints survive) and the job goes back to
        ``queued`` instead of burning retries."""
        self._stop_requested = True
        with self._proc_lock:
            proc = self._proc
        if proc is not None and proc.poll() is None:
            proc.terminate()

    # -- one attempt ---------------------------------------------------- #

    def _run_attempt(self, job_id: str):
        """Run one worker to completion; returns None on success,
        :data:`_STOPPED` on a stop request, else a failure description."""
        cfg = self._config
        cmd = self._worker_command(self._store, job_id, cfg)
        # Single-writer guard, first launch only: a worker orphaned by a
        # crashed service may still be alive and appending to this job's
        # artifacts, and launching a second worker would interleave two
        # writers in events.jsonl — wait for the orphan's heartbeat to go
        # stale first.  Later launches are retries of a worker this
        # supervisor already reaped, so a fresh-but-dead beat must not
        # stall them.
        while not self._launched_once and not self._stop_requested:
            beat = self._store.last_heartbeat(job_id)
            if beat is None or time.time() - beat > cfg.heartbeat_timeout:
                break
            self._sleep(cfg.poll_interval)
        if self._stop_requested:
            return _STOPPED
        # A stale beat left by the previous attempt must not count
        # against the new worker (it would get killed on the first poll,
        # failing every retry after a hang), so each attempt starts with
        # a clean slate.
        self._store.clear_heartbeat(job_id)
        started = time.time()
        # The worker may take a moment to produce its first heartbeat;
        # count the launch itself as liveness until then.
        try:
            proc = self._launch(cmd)
        except TemplateError as exc:  # e.g. the template closed by stop()
            return _STOPPED if self._stop_requested else str(exc)
        self._launched_once = True
        with self._proc_lock:
            self._proc = proc
        try:
            while True:
                code = proc.poll()
                if code is not None:
                    if code == 0:
                        return None
                    if self._stop_requested:
                        return _STOPPED
                    return (getattr(proc, "failure", None)
                            or f"worker exited with code {code}")
                if self._stop_requested:
                    self._terminate(proc)
                    return _STOPPED
                beat = self._store.last_heartbeat(job_id)
                last_alive = max(beat, started) if beat is not None \
                    else started
                self._metrics.set_gauge(
                    "service_worker_heartbeat_age_seconds",
                    time.time() - last_alive,
                )
                if time.time() - last_alive > cfg.heartbeat_timeout:
                    self._terminate(proc)
                    self._metrics.inc("service_heartbeat_timeouts_total")
                    return (f"worker heartbeat silent for more than "
                            f"{cfg.heartbeat_timeout:g}s; killed")
                try:  # returns as soon as the worker exits
                    proc.wait(timeout=cfg.poll_interval)
                except subprocess.TimeoutExpired:
                    pass
        finally:
            with self._proc_lock:
                self._proc = None
            if proc.poll() is None:
                self._terminate(proc)

    def _launch(self, cmd: List[str]):
        """Start one attempt's worker: forked from the template when
        *cmd* runs the real worker with this interpreter, else a new
        subprocess."""
        if (hasattr(os, "fork")
                and cmd[:3] == [sys.executable, "-m", WORKER_MODULE]):
            return self._template.spawn(
                cmd[3:], timeout=self._config.heartbeat_timeout)
        return subprocess.Popen(
            cmd, env=_worker_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )

    def _terminate(self, proc) -> None:
        proc.terminate()
        try:
            proc.wait(timeout=self._config.kill_grace)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()

    # -- the attempt loop ----------------------------------------------- #

    def supervise(self, job_id: str) -> JobOutcome:
        """Drive *job_id* from ``queued`` to a terminal state (or back to
        ``queued`` when :meth:`stop` interrupts it)."""
        if self._template is not None:
            return self._supervise(job_id)
        self._template = WorkerTemplate()
        try:
            return self._supervise(job_id)
        finally:
            self._template.close()
            self._template = None

    def _supervise(self, job_id: str) -> JobOutcome:
        store = self._store
        cfg = self._config
        attempts = 0
        failure: Optional[str] = None
        while attempts <= cfg.max_retries:
            if self._stop_requested:
                return self._stopped(job_id, attempts)
            attempts += 1
            store.clear_worker_error(job_id)
            store.set_status(job_id, "running", attempts=attempts)
            store.append_event(job_id, "attempt", attempt=attempts)
            job_start = time.time()
            failure = self._run_attempt(job_id)
            self._metrics.observe("service_attempt_seconds",
                                  time.time() - job_start)
            if failure is None:
                # Metrics first: a client that sees the status must also
                # see the job in every metric the status implies.
                report = store.load_report_doc(job_id) or {}
                for seconds in report.get("pass_seconds", ()):
                    self._metrics.observe("service_pass_seconds", seconds)
                self._metrics.inc("service_jobs_succeeded_total")
                self._on_settled(job_id)
                store.set_status(job_id, "succeeded", attempts=attempts)
                store.append_event(job_id, "state", state="succeeded")
                return JobOutcome(job_id, "succeeded", attempts)
            if failure is _STOPPED:
                return self._stopped(job_id, attempts)
            retryable = (attempts <= cfg.max_retries
                         and not self._stop_requested)
            store.append_event(
                job_id, "attempt_failed",
                attempt=attempts, reason=failure,
                will_retry=retryable,
            )
            if not retryable:
                break
            self._metrics.inc("service_worker_retries_total")
            backoff = cfg.backoff_base * (2 ** (attempts - 1))
            store.set_status(job_id, "queued", attempts=attempts,
                             last_error=failure)
            self._sleep(backoff)
        error = self._store.read_worker_error(job_id)
        message = error["message"] if error else failure
        tb = error["traceback"] if error else None
        self._metrics.inc("service_jobs_failed_total")
        self._on_settled(job_id)
        store.set_status(
            job_id, "failed", attempts=attempts,
            error=message, traceback=tb, reason=failure,
        )
        store.append_event(job_id, "state", state="failed", error=message)
        return JobOutcome(job_id, "failed", attempts,
                          error=message, traceback=tb)

    def _stopped(self, job_id: str, attempts: int) -> JobOutcome:
        """Requeue the interrupted job; its checkpoints make the next
        service run resume it deterministically."""
        store = self._store
        self._metrics.inc("service_jobs_stopped_total")
        self._on_settled(job_id)
        store.set_status(job_id, "queued", attempts=attempts)
        store.append_event(job_id, "stopped", attempt=attempts)
        return JobOutcome(job_id, "stopped", attempts)
