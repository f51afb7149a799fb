"""RemoteFabric: fabric tasks over the service HTTP protocol.

Ships :class:`~repro.fabric.core.FabricTask` batches as JSON
(:mod:`repro.fabric.tasks` wire format) to the ``POST /tasks`` route of
one or more service workers (``repro-resynth serve --task-workers N``),
and reassembles results in task order.

Execution model — **work-stealing pull loops**: all shards of a round go
into one shared queue; one puller thread per worker URL repeatedly takes
the next shard, POSTs it, and records the result.  Fast workers simply
come back for more, so load balances without any placement logic, and
listing the same URL twice pulls two shards concurrently from one
server.

Liveness reuses the supervisor's heartbeat discipline
(:class:`repro.service.supervisor.SupervisorConfig`): a worker is alive
exactly as long as it keeps answering within ``heartbeat_timeout``
seconds.  A connection error or timeout marks the shard *lost* — it goes
straight back into the shared queue for any live worker to steal — and
counts against the silent worker; after ``max_worker_failures``
consecutive failures that worker is dropped from the fleet for the
fabric's lifetime, exactly like a supervised subprocess whose heartbeat
went stale.  Only when *every* worker is dead with shards outstanding
does the round raise :class:`~repro.fabric.core.FabricExecutionError`.

Task-level failures (the worker answered, the task raised — e.g. a
poisoned payload) are different: they are deterministic, so redispatch
cannot help.  They flow into the base class's bounded retry
(``max_retries``, default 2 here since a "task error" may still hide an
infrastructure flake on the worker) and then surface as one clean
:class:`~repro.fabric.core.FabricExecutionError`.

Determinism: workers only ever run registered pure functions, and
results are keyed back to their task index — so completion order,
shard-to-worker placement, retries and redispatch are all unobservable
in the output.  The ``execution`` fuzz oracle runs serial-vs-remote
legs at pinned shard counts to enforce exactly that (docs/FABRIC.md).
"""

from __future__ import annotations

import http.client
import threading
import time
from collections import deque
from typing import Callable, List, Optional, Sequence, Tuple

from ..obs import Registry
from .core import Fabric, FabricExecutionError
from .tasks import decode_result, encode_task

__all__ = ["RemoteFabric", "RemoteTaskError"]


class RemoteTaskError(RuntimeError):
    """A remote worker executed the task and reported a failure."""


class RemoteFabric(Fabric):
    """Execute fabric tasks on a fleet of service workers over HTTP.

    Parameters
    ----------
    workers:
        Base URLs of task-serving services (``serve --task-workers N``).
        A URL may repeat to pull that many shards concurrently from one
        server.
    heartbeat_timeout:
        Seconds a worker may stay silent on one request before it is
        treated as dead for that shard (the socket timeout; the
        supervisor's liveness discipline).  Must cover one shard's
        compute, hence the generous default.
    max_retries:
        Bounded re-executions of a task whose *execution* failed on a
        live worker (lost shards are redispatched separately and do not
        consume these).
    max_worker_failures:
        Consecutive connection failures after which a worker is dropped
        from the fleet for the fabric's lifetime.
    backoff_base:
        First retry-after-connection-failure sleep; doubles per
        consecutive failure of the same worker.
    client_factory:
        ``(url, timeout) -> client`` hook (tests); the default builds
        :class:`repro.service.client.ServiceClient`.  The client only
        needs a ``run_tasks(task_docs)`` method.
    """

    name = "remote"

    def __init__(
        self,
        workers: Sequence[str],
        heartbeat_timeout: float = 300.0,
        max_retries: int = 2,
        max_worker_failures: int = 3,
        backoff_base: float = 0.1,
        shards: Optional[int] = None,
        tracer=None,
        registry: Optional[Registry] = None,
        client_factory: Optional[Callable[[str, float], object]] = None,
    ) -> None:
        workers = [w.rstrip("/") for w in workers if w]
        if not workers:
            raise ValueError("RemoteFabric needs at least one worker URL")
        if heartbeat_timeout <= 0:
            raise ValueError("heartbeat_timeout must be positive")
        if max_worker_failures < 1:
            raise ValueError("max_worker_failures must be >= 1")
        super().__init__(max_retries=max_retries, shards=shards,
                         tracer=tracer, registry=registry)
        self.workers = workers
        self.parallelism = len(workers)
        self.heartbeat_timeout = heartbeat_timeout
        self.max_worker_failures = max_worker_failures
        self.backoff_base = backoff_base
        if client_factory is None:
            # Imported here, not at module top: repro.service imports the
            # fabric core submodules, so the package boundary stays
            # one-directional at import time.
            from ..service.client import ServiceClient

            def client_factory(url: str, timeout: float) -> object:
                return ServiceClient(url, timeout=timeout)

        self._clients: List[Tuple[str, object]] = [
            (url, client_factory(url, heartbeat_timeout)) for url in workers
        ]
        #: Worker URLs dropped for the fabric's lifetime (indices into
        #: ``workers``, so a repeated URL is tracked per puller).
        self._dead: set = set()

    # ------------------------------------------------------------------ #

    def live_workers(self) -> List[str]:
        """URLs still in the fleet (dead ones dropped, repeats kept)."""
        return [url for i, (url, _client) in enumerate(self._clients)
                if i not in self._dead]

    def _run_round(self, batch):  # noqa: C901 — one coherent pull loop
        from ..service.client import ServiceAPIError, ServiceConnectionError

        state = {
            "queue": deque(batch),
            "in_flight": 0,
            "outcomes": [],
        }
        lock = threading.Lock()
        registry = self.registry
        task_hist = registry.get_histogram(
            "fabric_task_seconds",
            "submit-to-done latency of one fabric task (queue + compute)")

        def settle(index: int, ok: bool, value: object) -> None:
            with lock:
                state["outcomes"].append((index, ok, value))
                state["in_flight"] -= 1

        def pull(worker_index: int, url: str, client: object) -> None:
            failures = 0
            while True:
                with lock:
                    if state["queue"]:
                        index, task = state["queue"].popleft()
                        state["in_flight"] += 1
                    elif state["in_flight"] > 0:
                        index = None  # a redispatch may still land here
                    else:
                        return
                if index is None:
                    time.sleep(0.01)
                    continue
                sent = time.perf_counter()
                registry.inc("fabric_remote_requests_total")
                try:
                    answer = client.run_tasks([encode_task(task)])
                except ServiceAPIError as exc:
                    # The worker answered: an HTTP-level refusal (route
                    # disabled, malformed task) is deterministic — report
                    # it as the task's failure, don't blame the worker.
                    settle(index, False, exc)
                    failures = 0
                    continue
                except (ServiceConnectionError, OSError,
                        http.client.HTTPException) as exc:
                    # Lost shard: the worker died mid-shard or went
                    # silent past the heartbeat timeout.  Redispatch the
                    # shard to whichever worker steals it next and count
                    # the silence against this one.
                    failures += 1
                    registry.inc("fabric_lost_shards_total")
                    with lock:
                        state["queue"].append((index, task))
                        state["in_flight"] -= 1
                        if failures >= self.max_worker_failures:
                            self._dead.add(worker_index)
                    if failures >= self.max_worker_failures:
                        registry.inc("fabric_dead_workers_total")
                        return
                    time.sleep(self.backoff_base * (2 ** (failures - 1)))
                    continue
                task_hist.observe(time.perf_counter() - sent)
                failures = 0
                try:
                    rows = answer["results"]
                    if not isinstance(rows, list) or len(rows) != 1:
                        raise ValueError(
                            f"expected 1 result, got {len(rows)!r}")
                    row = rows[0]
                    if row.get("ok"):
                        settle(index, True,
                               decode_result(task.kind, row.get("result")))
                    else:
                        settle(index, False, RemoteTaskError(
                            f"task failed on {url}: {row.get('error')}"))
                except (KeyError, TypeError, ValueError) as exc:
                    settle(index, False, RemoteTaskError(
                        f"malformed task response from {url}: {exc}"))

        threads = []
        for worker_index, (url, client) in enumerate(self._clients):
            if worker_index in self._dead:
                continue
            thread = threading.Thread(
                target=pull, args=(worker_index, url, client),
                name=f"repro-fabric-pull-{worker_index}", daemon=True,
            )
            thread.start()
            threads.append(thread)
        if not threads:
            raise FabricExecutionError(
                f"no live remote workers left in the fleet "
                f"(all of {', '.join(self.workers)} were dropped)")
        for thread in threads:
            thread.join()
        if state["queue"]:
            raise FabricExecutionError(
                f"{len(state['queue'])} shard(s) outstanding with every "
                f"remote worker unreachable (fleet: "
                f"{', '.join(self.workers)}; heartbeat timeout "
                f"{self.heartbeat_timeout:g}s, {self.max_worker_failures} "
                f"failure(s) per worker)")
        return state["outcomes"]
