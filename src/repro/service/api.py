"""The resynthesis job service engine.

:class:`ResynthesisService` is the in-process engine: a bounded,
tenant-aware priority admission queue over the artifact store, a
scheduler thread that leases queued jobs to supervisor threads (each of
which drives one worker process), the SQLite job index
(:mod:`repro.service.index`) that answers listings without touching
per-job directories, and the metrics registry.  Usable without HTTP;
the CLI and tests drive it directly.  The HTTP front end is
:class:`repro.service.asgi.ServiceServer`, which routes every request
onto one instance of it (docs/SERVICE.md has the full route reference).

The ``/tasks`` endpoint is what turns a fleet of ``serve`` processes
into :class:`~repro.fabric.RemoteFabric` workers: each request carries a
batch of wire-encoded pure-function tasks, executed on the service's own
task fabric (serial for ``--task-workers 1``, a process pool above
that) with per-task outcomes reported — retry policy stays with the
*calling* fabric, which knows whether a failure was the task or the
transport.  The ``/memo`` routes let remote workers share one
authoritative :class:`~repro.memo.MemoStore` without a shared
filesystem (client side: :class:`repro.memo.remote.RemoteMemo`).
"""

from __future__ import annotations

import heapq
import os
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from ..fabric.core import Fabric, ProcessFabric, SerialFabric
from ..fabric.tasks import decode_task, encode_result
from ..obs import Registry
from .index import JobIndex, default_index_path
from .jobspec import JobSpec
from .store import ArtifactStore
from .supervisor import SupervisorConfig, WorkerSupervisor, WorkerTemplate
from .tenants import (
    BackpressureError,
    PUBLIC_TENANT,
    Tenant,
    TenantRegistry,
)

#: Longest long-poll the server will hold a connection for.
MAX_EVENT_WAIT = 30.0

#: Media types that select Prometheus text exposition on ``/metrics``.
_PROMETHEUS_TYPES = ("text/plain", "application/openmetrics-text", "text/*")
#: Media types that select the historical JSON snapshot.
_JSON_TYPES = ("application/json", "application/*")


def _accepts_prometheus(accept: Optional[str]) -> bool:
    """True when an ``Accept`` header *prefers* Prometheus text over JSON.

    JSON stays the default for back-compat: no header, ``*/*`` and ties
    all keep the historical snapshot.  Text wins only when a plain-text
    media type carries a strictly higher q-value than every JSON
    alternative (``*/*`` counts toward JSON as "anything is fine").
    """
    if not accept:
        return False
    best_text = 0.0
    best_json = 0.0
    for clause in accept.split(","):
        parts = [p.strip() for p in clause.split(";")]
        media = parts[0].lower()
        if not media:
            continue
        q = 1.0
        for param in parts[1:]:
            if param.startswith("q="):
                try:
                    q = float(param[2:])
                except ValueError:
                    q = 0.0
        if media in _PROMETHEUS_TYPES:
            best_text = max(best_text, q)
        elif media in _JSON_TYPES or media == "*/*":
            best_json = max(best_json, q)
    return best_text > best_json


class ResynthesisService:
    """Queue + scheduler + supervisors + index over one artifact store.

    The admission queue is a **priority queue** (higher tenant priority
    launches first, FIFO within a level) bounded by ``queue_limit``
    (0 = unbounded): a submit that would exceed the bound — or its
    tenant's ``max_active`` quota — raises
    :class:`~repro.service.tenants.BackpressureError`, which the HTTP
    front end maps to ``429`` + ``Retry-After``.  Listings are answered
    by the SQLite :class:`~repro.service.index.JobIndex`, rebuilt from
    the store at startup and kept fresh via the store's ``on_status``
    hook — the store stays the source of truth.
    """

    def __init__(
        self,
        store: ArtifactStore,
        config: Optional[SupervisorConfig] = None,
        max_workers: int = 2,
        metrics: Optional[Registry] = None,
        worker_command=None,
        task_workers: int = 0,
        tenants: Optional[TenantRegistry] = None,
        queue_limit: int = 0,
        tenants_file: Optional[str] = None,
    ) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if task_workers < 0:
            raise ValueError("task_workers must be >= 0")
        if queue_limit < 0:
            raise ValueError("queue_limit must be >= 0 (0 = unbounded)")
        self.store = store
        self.config = config or SupervisorConfig()
        self.metrics = metrics or Registry()
        if tenants is None and tenants_file is not None:
            tenants = TenantRegistry.from_file(tenants_file)
        self.tenants = tenants or TenantRegistry()
        self._tenants_file = tenants_file
        self._tenants_stamp = self._stat_tenants_file()
        self.queue_limit = queue_limit
        self._max_workers = max_workers
        self._worker_command = worker_command  # None -> the real worker
        # The /tasks execution fabric.  max_retries=0: the server reports
        # per-task outcomes and the *calling* fabric owns retry policy
        # (it alone can tell a lost shard from a poisoned task).
        self.task_fabric: Optional[Fabric] = None
        if task_workers == 1:
            self.task_fabric = SerialFabric(registry=self.metrics)
        elif task_workers > 1:
            self.task_fabric = ProcessFabric(task_workers,
                                             registry=self.metrics)
        self._memo_store = None
        self._memo_lock = threading.Lock()
        # Heap entries: (-priority, admission_seq, job_id).
        self._queue: List[Tuple[int, int, str]] = []
        self._admit_seq = 0
        self._queued: set = set()
        self._enqueued_at: Dict[str, float] = {}
        # Jobs holding a worker slot; a job gives its slot back just
        # before its terminal status is written, and its supervisor
        # thread ends just after.
        self._active: Dict[str, WorkerSupervisor] = {}
        self._threads: List[threading.Thread] = []
        self._template = WorkerTemplate()
        self._job_tenant: Dict[str, str] = {}
        self._tenant_active: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._wakeup = threading.Event()
        self._stopping = False
        self._scheduler: Optional[threading.Thread] = None
        self.index = JobIndex(default_index_path(store.root))
        # The sweep coordinator (lazy import: repro.sweep pulls this
        # package's jobspec back in) must exist before the status hook
        # can fire — it observes cell completions through it.
        from .sweeps import SweepCoordinator

        self.sweeps = SweepCoordinator(self)
        store.on_status = self._on_status
        self.index.rebuild(store)
        self._recover()

    # -- lifecycle ------------------------------------------------------ #

    def start(self) -> None:
        """Start the scheduler thread (idempotent)."""
        if self._scheduler is not None and self._scheduler.is_alive():
            return
        self._stopping = False
        self._scheduler = threading.Thread(
            target=self._schedule_loop, name="repro-service-scheduler",
            daemon=True,
        )
        self._scheduler.start()

    def stop(self, timeout: float = 10.0) -> None:
        """Stop scheduling, halt active supervisors (terminating their
        workers), wait for them to settle, then stop the worker template.

        Interrupted jobs go back to ``queued`` with their checkpoints
        intact, so a restarted service resumes them — and no orphaned
        worker survives to race a future attempt for the event log.
        """
        self._stopping = True
        self._wakeup.set()
        if self._scheduler is not None:
            self._scheduler.join(timeout=timeout)
        with self._lock:
            supervisors = list(self._active.values())
            threads = list(self._threads)
        for supervisor in supervisors:
            supervisor.stop()
        deadline = time.time() + timeout
        try:
            for thread in threads:
                thread.join(timeout=max(0.0, deadline - time.time()))
        finally:
            self._template.close()
            if self.task_fabric is not None:
                self.task_fabric.close()
            if self.store.on_status == self._on_status:
                self.store.on_status = None
            self.index.close()

    def _recover(self) -> None:
        """Re-queue jobs a previous process left queued or running.

        A job found ``running`` at startup is usually an orphan of a
        crashed service — its worker is gone, but its checkpoints are
        not, so it simply resumes.  If the old worker is in fact still
        alive, the supervisor waits out its heartbeat before launching a
        replacement, preserving the event log's single-writer rule.
        """
        for job_id in self.store.job_ids():
            status = self.store.status(job_id)
            if status.get("state") in ("queued", "running"):
                tenant = self.tenants.get(status.get("tenant"))
                self.store.set_status(job_id, "queued")
                self._enqueue(job_id, tenant)

    # -- status observer ------------------------------------------------- #

    def _on_status(self, job_id: str, record: Dict[str, object]) -> None:
        """Store hook: mirror every status replace into the job index
        and let the sweep coordinator observe cell completions."""
        self.index.record(job_id, record)
        self.sweeps.notify_status(job_id, record)

    # -- tenants hot reload ---------------------------------------------- #

    def _stat_tenants_file(self) -> Optional[Tuple[int, int]]:
        if self._tenants_file is None:
            return None
        try:
            st = os.stat(self._tenants_file)
        except OSError:
            return None
        return (st.st_mtime_ns, st.st_size)

    def maybe_reload_tenants(self) -> bool:
        """Reload the tenants file if it changed on disk; True on swap.

        Called from the request path (one ``stat`` when a tenants file
        is configured, nothing otherwise).  A reload is **rejected** —
        with a logged warning, never a crash, keeping the old registry
        in force — when the new file is unreadable/invalid or when it
        would orphan a tenant that still has queued-or-running jobs
        (their quota accounting would dangle).  A rejected file is not
        retried until it changes again, so one bad edit logs once, not
        once per request.
        """
        stamp = self._stat_tenants_file()
        if stamp is None or stamp == self._tenants_stamp:
            return False
        self._tenants_stamp = stamp
        try:
            registry = TenantRegistry.from_file(self._tenants_file)
        except (OSError, ValueError) as exc:
            print(f"[service] tenants reload rejected: {exc}",
                  file=sys.stderr)
            return False
        with self._lock:
            active = set(self._job_tenant.values())
        known = {t.name for t in registry.tenants()} | {PUBLIC_TENANT.name}
        orphaned = sorted(active - known)
        if orphaned:
            print(f"[service] tenants reload rejected: would orphan "
                  f"active jobs of tenant(s) {', '.join(orphaned)}",
                  file=sys.stderr)
            return False
        self.tenants = registry
        self.metrics.inc("service_tenant_reloads_total")
        print(f"[service] tenants reloaded from {self._tenants_file} "
              f"({len(registry.tenants())} tenant(s))", file=sys.stderr)
        return True

    # -- submission ----------------------------------------------------- #

    def submit(self, spec: JobSpec,
               tenant: Optional[Tenant] = None,
               _precleared: bool = False) -> Tuple[str, bool]:
        """Admit a job for *tenant*; returns ``(job_id, created)``.

        Content-addressed dedup: an identical spec joins the existing
        job.  A deduped job in a terminal state is *not* re-run — its
        artifacts are already on disk.  Dedup is checked **before**
        backpressure: re-submitting a known job never consumes queue
        capacity, so idempotent retries stay cheap under load.

        Raises :class:`BackpressureError` when admitting a *new* job
        would exceed ``queue_limit`` or the tenant's ``max_active``.
        """
        tenant = tenant or PUBLIC_TENANT
        if not _precleared and not self.store.has_job(spec.job_id):
            self._check_admission(tenant)
        job_id, created = self.store.create_job(spec, tenant=tenant.name)
        self.metrics.inc("service_jobs_submitted_total")
        self.metrics.inc("service_tenant_jobs_submitted_total_"
                         + tenant.metric_suffix)
        if created:
            self.index.record(job_id, self.store.status(job_id), spec=spec)
            self.store.append_event(job_id, "submitted",
                                    spec=spec.describe())
            self._enqueue(job_id, tenant)
        else:
            self.metrics.inc("service_jobs_deduplicated_total")
            state = self.store.status(job_id).get("state")
            if state == "queued":
                # Recovered store or service restart: re-admit without a
                # quota check — the job was admitted once already.
                self._enqueue(job_id, tenant)
        return job_id, created

    def submit_batch(self, specs: List[JobSpec],
                     tenant: Optional[Tenant] = None,
                     ) -> List[Dict[str, object]]:
        """Admit many specs atomically for *tenant*.

        All-or-nothing admission: capacity for every *new* spec in the
        batch (duplicates within the batch and against the store count
        once and zero times respectively) is checked up front, so a
        batch either lands whole or is rejected whole with
        :class:`BackpressureError` — no half-admitted sweeps to clean
        up.  Returns one ``{"id", "state", "created"}`` row per spec,
        in request order.
        """
        tenant = tenant or PUBLIC_TENANT
        new_ids = {spec.job_id for spec in specs
                   if not self.store.has_job(spec.job_id)}
        if new_ids:
            self._check_admission(tenant, count=len(new_ids))
        rows: List[Dict[str, object]] = []
        for spec in specs:
            # Admission was cleared for the whole batch above; skip the
            # per-spec check so a concurrent submitter cannot strand the
            # batch half-admitted.
            job_id, created = self.submit(spec, tenant, _precleared=True)
            rows.append({
                "id": job_id,
                "state": self.store.status(job_id).get("state"),
                "created": created,
            })
        return rows

    def retry_after_hint(self) -> int:
        """Seconds a backpressured client should wait before retrying:
        roughly one queue drain cycle, clamped to [1, 60]."""
        with self._lock:
            depth = len(self._queue)
        return max(1, min(60, depth // max(1, self._max_workers)))

    def _check_admission(self, tenant: Tenant, count: int = 1) -> None:
        with self._lock:
            if (self.queue_limit
                    and len(self._queue) + count > self.queue_limit):
                self.metrics.inc("service_jobs_rejected_total")
                raise BackpressureError(
                    f"admission queue is full "
                    f"({len(self._queue)}/{self.queue_limit} jobs queued)",
                    retry_after=max(1, len(self._queue)
                                    // max(1, self._max_workers)),
                )
            active = self._tenant_active.get(tenant.name, 0)
            if tenant.max_active and active + count > tenant.max_active:
                self.metrics.inc("service_jobs_rejected_total")
                self.metrics.inc("service_tenant_jobs_rejected_total_"
                                 + tenant.metric_suffix)
                raise BackpressureError(
                    f"tenant {tenant.name!r} is at its quota "
                    f"({active}/{tenant.max_active} jobs active)",
                    retry_after=max(1, active
                                    // max(1, self._max_workers)),
                )

    def _enqueue(self, job_id: str, tenant: Tenant) -> None:
        with self._lock:
            if job_id in self._queued or job_id in self._active:
                return
            self._admit_seq += 1
            heapq.heappush(self._queue,
                           (-tenant.priority, self._admit_seq, job_id))
            self._queued.add(job_id)
            self._job_tenant[job_id] = tenant.name
            self._tenant_active[tenant.name] = (
                self._tenant_active.get(tenant.name, 0) + 1)
            self._enqueued_at[job_id] = time.perf_counter()
            self.metrics.set_gauge("service_queue_depth", len(self._queue))
            self.metrics.set_gauge(
                "service_tenant_active_jobs_" + tenant.metric_suffix,
                self._tenant_active[tenant.name])
        self._wakeup.set()

    # -- scheduling ----------------------------------------------------- #

    def _schedule_loop(self) -> None:
        while not self._stopping:
            launched = self._launch_ready()
            if not launched:
                self._wakeup.wait(timeout=0.1)
                self._wakeup.clear()

    def _launch_ready(self) -> bool:
        with self._lock:
            if not self._queue or len(self._active) >= self._max_workers:
                return False
            _, _, job_id = heapq.heappop(self._queue)
            self._queued.discard(job_id)
            enqueued = self._enqueued_at.pop(job_id, None)
            if enqueued is not None:
                self.metrics.observe("service_queue_wait_seconds",
                                     time.perf_counter() - enqueued)
            supervisor = WorkerSupervisor(
                self.store, self.config, metrics=self.metrics,
                worker_command=self._worker_command,
                template=self._template, on_settled=self._release,
            )
            self._active[job_id] = supervisor
            self.metrics.set_gauge("service_queue_depth", len(self._queue))
            self.metrics.set_gauge("service_running_jobs",
                                   len(self._active))
            thread = threading.Thread(
                target=self._supervise, args=(job_id, supervisor),
                name=f"repro-service-{job_id}", daemon=True,
            )
            self._threads = [t for t in self._threads if t.is_alive()]
            self._threads.append(thread)
        thread.start()
        return True

    def _supervise(self, job_id: str, supervisor: WorkerSupervisor) -> None:
        try:
            supervisor.supervise(job_id)
        finally:
            self._release(job_id)  # a no-op unless supervise raised

    def _release(self, job_id: str) -> None:
        """Give back *job_id*'s worker slot and tenant quota, and set the
        gauges that count them.

        The supervisor calls this just before it writes the terminal
        status, so whoever observes that status reads gauges that
        already agree with it.  It leaves the index alone: ``stop()``
        closes the index once the supervisor threads have ended.
        """
        with self._lock:
            if self._active.pop(job_id, None) is None:
                return
            tenant_name = self._job_tenant.pop(job_id, None)
            if tenant_name is not None and job_id not in self._queued:
                left = max(0, self._tenant_active.get(tenant_name, 1) - 1)
                self._tenant_active[tenant_name] = left
                self.metrics.set_gauge(
                    "service_tenant_active_jobs_"
                    + Tenant(name=tenant_name).metric_suffix, left)
            self.metrics.set_gauge("service_running_jobs",
                                   len(self._active))
        self._wakeup.set()

    # -- fabric tasks ---------------------------------------------------- #

    def run_tasks(self, docs: List[object]) -> List[Dict[str, object]]:
        """Decode and execute wire task documents; per-task outcome rows.

        Raises :class:`ValueError` when any document fails its kind's
        strict decode (the handler answers 400 — a malformed task is the
        *request's* fault).  Execution failures, by contrast, land in
        the task's own ``{"ok": false, "error": ...}`` row so one
        poisoned task cannot hide its shard-mates' results.
        """
        if self.task_fabric is None:
            raise RuntimeError("task execution is not enabled")
        tasks = [decode_task(doc) for doc in docs]
        self.metrics.inc("service_tasks_total", len(tasks))
        outcomes = self.task_fabric.map_outcomes(tasks)
        rows: List[Dict[str, object]] = []
        errors = 0
        for task, (ok, value) in zip(tasks, outcomes):
            if ok:
                rows.append({"ok": True,
                             "result": encode_result(task.kind, value)})
            else:
                errors += 1
                rows.append({"ok": False, "error": str(value)})
        if errors:
            self.metrics.inc("service_task_errors_total", errors)
        return rows

    # -- memo ------------------------------------------------------------ #

    @property
    def memo_store(self):
        """The authoritative memo behind ``/memo`` (None when disabled).

        Lazily opened from ``config.memo_root`` — the same store the
        supervisor hands its job workers, so fleet PUTs and local
        workers converge on one directory.
        """
        if self.config.memo_root is None:
            return None
        with self._memo_lock:
            if self._memo_store is None:
                from ..memo import MemoStore

                self._memo_store = MemoStore(self.config.memo_root,
                                             registry=self.metrics)
            return self._memo_store

    # -- views ---------------------------------------------------------- #

    def job_view(self, job_id: str) -> Dict[str, object]:
        """The JSON view of one job (raises StoreError on unknown ids)."""
        spec = self.store.load_spec(job_id)
        status = self.store.status(job_id)
        view: Dict[str, object] = {
            "id": job_id,
            "state": status.get("state"),
            "attempts": status.get("attempts", 0),
            "created": status.get("created"),
            "updated": status.get("updated"),
            "spec": spec.to_doc(),
        }
        if status.get("tenant") is not None:
            view["tenant"] = status["tenant"]
        for key in ("error", "traceback", "reason"):
            if status.get(key) is not None:
                view[key] = status[key]
        passes = self.store.checkpoint_passes(job_id)
        if passes:
            view["checkpointed_passes"] = passes
        report = self.store.load_report_doc(job_id)
        if report is not None:
            view["report"] = {
                k: v for k, v in report.items() if k != "circuit"
            }
        return view

    def list_view(self, state: Optional[str] = None,
                  tenant: Optional[str] = None,
                  limit: Optional[int] = None,
                  offset: int = 0) -> List[Dict[str, object]]:
        """Compact JSON rows for ``GET /jobs`` — answered entirely from
        the SQLite index; no per-job directory is touched."""
        return self.index.rows(state=state, tenant=tenant,
                               limit=limit, offset=offset)

    def summary_view(self) -> Dict[str, object]:
        """``GET /jobs/summary``: per-tenant x per-state counts.

        One grouped SQLite query — the operator's "who is using the
        service and how is it going" dashboard line, at any job count.
        """
        tenants, states, total = self.index.summary()
        return {"total": total, "tenants": tenants, "states": states}
