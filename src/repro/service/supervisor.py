"""Worker supervision: subprocess lifecycle, heartbeats, bounded retries.

Each job attempt runs in a dedicated worker subprocess
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

After the last attempt the job reaches the terminal ``failed`` state
carrying the worker's traceback (when the worker could record one) or
the exit/kill diagnosis (when it could not).

:meth:`WorkerSupervisor.stop` (service shutdown) terminates the current
worker and puts the job back in ``queued`` — no worker subprocess
outlives its supervisor, and the job resumes from its checkpoints when
a service next leases it.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional

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


def default_worker_command(store: ArtifactStore, job_id: str,
                           config: SupervisorConfig) -> List[str]:
    """The real worker: ``python -m repro.service.workermain``."""
    command = [
        sys.executable, "-m", "repro.service.workermain",
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


class WorkerSupervisor:
    """Runs one job to a terminal state through supervised attempts."""

    def __init__(
        self,
        store: ArtifactStore,
        config: Optional[SupervisorConfig] = None,
        metrics: Optional[Registry] = None,
        worker_command: Optional[
            Callable[[ArtifactStore, str, SupervisorConfig], List[str]]
        ] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self._store = store
        self._config = config or SupervisorConfig()
        self._metrics = metrics or Registry()
        self._worker_command = worker_command or default_worker_command
        self._sleep = sleep
        self._stop_requested = False
        self._proc: Optional[subprocess.Popen] = None
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
        proc = subprocess.Popen(
            cmd, env=_worker_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
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
                    return f"worker exited with code {code}"
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
                self._sleep(cfg.poll_interval)
        finally:
            with self._proc_lock:
                self._proc = None
            if proc.poll() is None:
                self._terminate(proc)

    def _terminate(self, proc: subprocess.Popen) -> None:
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
        store.set_status(job_id, "queued", attempts=attempts)
        store.append_event(job_id, "stopped", attempt=attempts)
        return JobOutcome(job_id, "stopped", attempts)
