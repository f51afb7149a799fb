"""The asyncio front end: ASGI application + the ServiceServer.

This is the multi-tenant, connection-cheap HTTP face of
:class:`~repro.service.api.ResynthesisService` — versioned API ``v1``
(every response carries ``X-Repro-Api-Version``).  Routes::

    POST /jobs                   submit one spec (201/200; 401/413/429)
    POST /jobs/batch             submit many specs atomically
    GET  /jobs                   listing from the SQLite index
                                 (?state= &tenant= &limit= &offset=)
    GET  /jobs/summary           per-tenant x per-state counts
    GET  /jobs/<id>              status + spec + progress
    GET  /jobs/<id>/events       event log; ?after=N&wait=S long-polls
    GET  /jobs/<id>/events/stream  Server-Sent Events tail of the log
    GET  /jobs/<id>/report       final report (netlist embedded)
    GET  /jobs/<id>/result       result netlist document only
    POST /sweeps                 submit a sweep grid (docs/SWEEP.md)
    GET  /sweeps                 sweep listing
    GET  /sweeps/<id>            sweep state + per-cell state counts
    GET  /sweeps/<id>/events     sweep event log (long-poll like jobs')
    GET  /sweeps/<id>/events/stream  SSE tail of the sweep log
    GET  /sweeps/<id>/report     aggregate report + Pareto front
    GET  /metrics                JSON or Prometheus (Accept-negotiated)
    GET  /version                API + service version document
    POST /tasks                  fabric task execution (docs/FABRIC.md)
    GET/PUT /memo/<id>           shared identification memo (docs/MEMO.md)

Error bodies are always ``{"error": "..."}``; 429 responses add a
``Retry-After`` header.  The full reference table lives in
docs/SERVICE.md; deployment guidance in docs/OPERATIONS.md.

Design notes
------------
*Long-poll and SSE are event-driven, not sleep-polled.*  The
:class:`EventBroker` holds one ``asyncio.Condition`` per job **with
waiters**; in-process event appends wake it through the store's
``on_event`` hook, and a single watcher task stats the ``events.jsonl``
of watched jobs (worker subprocesses append there directly) every
``poll_interval``.  Cost scales with jobs-being-watched, not with
connections — ten thousand streams over one hot job are one file stat
per tick.

*Blocking work leaves the loop.*  Store reads, SQLite queries and
``/tasks`` execution run on the loop's default thread-pool executor via
``asyncio.to_thread``; the event loop itself only parses HTTP, routes,
and waits.

*Determinism is untouched.*  The front end only admits, observes and
serves artifacts; job execution is the supervisor/worker path of
:class:`~repro.service.api.ResynthesisService`, so a served report is
bit-identical to an in-process run of the same spec
(``scripts/service_smoke.py`` checks exactly that).
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs

from ..obs import PROMETHEUS_CONTENT_TYPE, render_prometheus
from .api import (
    MAX_EVENT_WAIT,
    ResynthesisService,
    _accepts_prometheus,
)
from .jobspec import JobSpecError, spec_from_doc
from .store import ArtifactStore, StoreError, TERMINAL_STATES
from .supervisor import SupervisorConfig
from .tenants import AuthError, BackpressureError, TenantRegistry

__all__ = ["API_VERSION", "EventBroker", "ServiceApp", "ServiceServer"]

#: The HTTP API version (``X-Repro-Api-Version`` on every response;
#: also served by ``GET /version``).  Bumped on breaking route or
#: document-shape changes — see the versioning policy in docs/SERVICE.md.
API_VERSION = "1"

#: SSE comment-ping period: keeps intermediaries from timing the stream
#: out and doubles as the server's disconnect probe (a write to a gone
#: client raises, ending the stream task).
SSE_KEEPALIVE_SECONDS = 15.0


class _HTTPAnswer(Exception):
    """Early-exit control flow: answer *status* with ``{"error": ...}``."""

    def __init__(self, status: int, message: str,
                 headers: Optional[List[Tuple[bytes, bytes]]] = None):
        super().__init__(message)
        self.status = status
        self.headers = headers or []


class EventBroker:
    """Wakes event watchers when a watched ``events.jsonl`` grows.

    Two wake sources, one per writer kind: the store's ``on_event``
    hook covers in-process appends (submit/attempt/state records from
    the scheduler and supervisors), and a polling watcher task covers
    worker-subprocess appends (pass/checkpoint/completed records).  The
    watcher only stats jobs that currently have waiters.

    Channels are opaque keys.  Bare job ids resolve to the store's
    per-job log; *path_for* lets other log owners join the same broker
    (the sweep coordinator registers ``sweep:<id>`` channels this way).
    """

    def __init__(self, store: ArtifactStore,
                 poll_interval: float = 0.05,
                 path_for=None) -> None:
        self._store = store
        self._path_for = path_for or (
            lambda key: store._path(key, "events.jsonl"))
        self.poll_interval = poll_interval
        self._conds: Dict[str, asyncio.Condition] = {}
        self._waiters: Dict[str, int] = {}
        self._sizes: Dict[str, int] = {}
        self._task: Optional[asyncio.Task] = None

    def start(self) -> None:
        """Start the watcher task (call on the serving loop)."""
        if self._task is None:
            self._task = asyncio.get_event_loop().create_task(
                self._watch_loop())

    async def stop(self) -> None:
        """Cancel the watcher task."""
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    def watched_jobs(self) -> List[str]:
        """Jobs with at least one live waiter (tests and gauges)."""
        return sorted(self._waiters)

    def poke(self, job_id: str) -> None:
        """Wake *job_id*'s waiters now (loop-thread only; the store hook
        gets here via ``call_soon_threadsafe``)."""
        cond = self._conds.get(job_id)
        if cond is not None:
            asyncio.ensure_future(self._notify(cond))

    async def _notify(self, cond: asyncio.Condition) -> None:
        async with cond:
            cond.notify_all()

    def _events_size(self, job_id: str) -> int:
        import os

        try:
            return os.path.getsize(self._path_for(job_id))
        except (OSError, StoreError):
            return 0

    async def _watch_loop(self) -> None:
        while True:
            await asyncio.sleep(self.poll_interval)
            for job_id in list(self._waiters):
                size = self._events_size(job_id)
                if size != self._sizes.get(job_id):
                    self._sizes[job_id] = size
                    cond = self._conds.get(job_id)
                    if cond is not None:
                        async with cond:
                            cond.notify_all()

    async def wait(self, job_id: str, timeout: float) -> bool:
        """Wait for a change signal on *job_id*; False on timeout.

        Spurious wakeups are fine — every caller re-reads the log.
        """
        cond = self._conds.get(job_id)
        if cond is None:
            cond = self._conds[job_id] = asyncio.Condition()
            self._sizes[job_id] = self._events_size(job_id)
        self._waiters[job_id] = self._waiters.get(job_id, 0) + 1
        try:
            async with cond:
                try:
                    await asyncio.wait_for(cond.wait(), timeout)
                    return True
                except asyncio.TimeoutError:
                    return False
        finally:
            left = self._waiters.get(job_id, 1) - 1
            if left <= 0:
                self._waiters.pop(job_id, None)
                self._conds.pop(job_id, None)
                self._sizes.pop(job_id, None)
            else:
                self._waiters[job_id] = left


class ServiceApp:
    """The ASGI 3 application over one :class:`ResynthesisService`."""

    def __init__(self, service: ResynthesisService,
                 verbose: bool = False,
                 sse_keepalive: float = SSE_KEEPALIVE_SECONDS) -> None:
        self.service = service
        self.verbose = verbose
        self.sse_keepalive = sse_keepalive

        def path_for(key: str) -> str:
            if key.startswith("sweep:"):
                return service.sweeps.events_path(key[len("sweep:"):])
            return service.store._path(key, "events.jsonl")

        self.broker = EventBroker(service.store, path_for=path_for)
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # -- lifecycle (called by the hosting server on its loop) ----------- #

    def startup(self) -> None:
        """Hook the store's event observer and start the broker."""
        self._loop = asyncio.get_event_loop()
        self.broker.start()
        loop = self._loop

        def on_event(job_id: str, seq: int) -> None:
            loop.call_soon_threadsafe(self.broker.poke, job_id)

        def on_sweep_event(sweep_id: str, seq: int) -> None:
            loop.call_soon_threadsafe(self.broker.poke,
                                      "sweep:" + sweep_id)

        self.service.store.on_event = on_event
        self.service.sweeps.on_event = on_sweep_event

    async def shutdown(self) -> None:
        """Detach the observers and stop the broker."""
        self.service.store.on_event = None
        self.service.sweeps.on_event = None
        await self.broker.stop()

    # -- ASGI entry ------------------------------------------------------ #

    async def __call__(self, scope, receive, send) -> None:
        if scope["type"] != "http":  # pragma: no cover — http-only host
            raise RuntimeError("ServiceApp only speaks HTTP")
        metrics = self.service.metrics
        metrics.inc("service_http_requests_total")
        started = time.perf_counter()
        method = scope["method"]
        path = scope["path"].rstrip("/") or "/"
        query = parse_qs(scope["query_string"].decode("latin-1"))
        headers = {k.decode("latin-1"): v.decode("latin-1")
                   for k, v in scope.get("headers", [])}
        if self.verbose:
            print(f"[service] {method} {scope['path']}")
        try:
            body = await self._read_body(receive)
            await self._route(method, path, query, headers, body, send)
        except _HTTPAnswer as answer:
            metrics.inc("service_http_errors_total")
            if answer.status == 429:
                metrics.inc("service_http_backpressure_total")
            await self._send_json(send, answer.status,
                                  {"error": str(answer)},
                                  extra=answer.headers)
        except (ConnectionError, OSError):
            raise  # client went away mid-response: the host cleans up
        except Exception as exc:  # noqa: BLE001 — last-resort 500
            metrics.inc("service_http_errors_total")
            await self._send_json(
                send, 500,
                {"error": f"internal error: {type(exc).__name__}: {exc}"})
        finally:
            metrics.observe("service_http_request_seconds",
                            time.perf_counter() - started)

    @staticmethod
    async def _read_body(receive) -> bytes:
        chunks = []
        while True:
            event = await receive()
            if event["type"] == "http.disconnect":
                raise ConnectionResetError("client disconnected")
            chunks.append(event.get("body", b"") or b"")
            if not event.get("more_body", False):
                break
        return b"".join(chunks)

    # -- routing --------------------------------------------------------- #

    async def _route(self, method, path, query, headers, body,
                     send) -> None:
        parts = [p for p in path.split("/") if p]
        if method == "POST" and parts == ["jobs"]:
            await self._submit(headers, body, send)
        elif method == "POST" and parts == ["jobs", "batch"]:
            await self._submit_batch(headers, body, send)
        elif method == "POST" and parts == ["sweeps"]:
            await self._submit_sweep(headers, body, send)
        elif method == "POST" and parts == ["tasks"]:
            await self._run_tasks(body, send)
        elif method == "PUT" and len(parts) == 2 and parts[0] == "memo":
            await self._put_memo(parts[1], body, send)
        elif method in ("GET", "HEAD"):
            await self._route_get(parts, query, headers, send)
        else:
            raise _HTTPAnswer(404, f"no such route: {method} {path}")

    async def _route_get(self, parts, query, headers, send) -> None:
        try:
            if parts == ["metrics"]:
                await self._metrics(headers, send)
            elif parts == ["version"]:
                await self._send_json(send, 200, {
                    "service": "repro-service",
                    "api_version": API_VERSION,
                })
            elif parts == ["jobs"]:
                await self._list_jobs(query, send)
            elif parts == ["jobs", "summary"]:
                summary = await asyncio.to_thread(
                    self.service.summary_view)
                await self._send_json(send, 200, summary)
            elif len(parts) == 2 and parts[0] == "jobs":
                view = await asyncio.to_thread(
                    self.service.job_view, parts[1])
                await self._send_json(send, 200, view)
            elif (len(parts) == 3 and parts[0] == "jobs"
                    and parts[2] == "events"):
                await self._events(parts[1], query, send)
            elif (len(parts) == 4 and parts[0] == "jobs"
                    and parts[2:] == ["events", "stream"]):
                await self._events_stream(parts[1], query, send)
            elif len(parts) == 3 and parts[0] == "jobs":
                await self._job_artifact(parts[1], parts[2], send)
            elif parts == ["sweeps"]:
                rows = await asyncio.to_thread(
                    self.service.sweeps.list_view)
                await self._send_json(send, 200, {"sweeps": rows})
            elif len(parts) == 2 and parts[0] == "sweeps":
                view = await asyncio.to_thread(
                    self.service.sweeps.sweep_view, parts[1])
                await self._send_json(send, 200, view)
            elif (len(parts) == 3 and parts[0] == "sweeps"
                    and parts[2] == "events"):
                await self._sweep_events(parts[1], query, send)
            elif (len(parts) == 4 and parts[0] == "sweeps"
                    and parts[2:] == ["events", "stream"]):
                await self._sweep_events_stream(parts[1], query, send)
            elif (len(parts) == 3 and parts[0] == "sweeps"
                    and parts[2] == "report"):
                await self._sweep_report(parts[1], send)
            elif len(parts) == 2 and parts[0] == "memo":
                await self._get_memo(parts[1], send)
            else:
                raise _HTTPAnswer(
                    404, "no such route: GET /" + "/".join(parts))
        except StoreError as exc:
            raise _HTTPAnswer(404, str(exc)) from None

    # -- auth ------------------------------------------------------------ #

    def _resolve_tenant(self, headers):
        # One stat per authenticated request: pick up edits to the
        # tenants file without a restart (rejected reloads keep the old
        # registry and log a warning — see maybe_reload_tenants).
        self.service.maybe_reload_tenants()
        key = headers.get("x-api-key")
        if key is None:
            auth = headers.get("authorization", "")
            if auth.lower().startswith("bearer "):
                key = auth[7:].strip()
        try:
            return self.service.tenants.resolve(key)
        except AuthError as exc:
            raise _HTTPAnswer(401, str(exc)) from None

    # -- submission ------------------------------------------------------ #

    def _parse_spec(self, doc):
        try:
            return spec_from_doc(doc)
        except (JobSpecError, ValueError) as exc:
            raise _HTTPAnswer(400, f"invalid job spec: {exc}") from None

    @staticmethod
    def _parse_body_json(body: bytes):
        try:
            return json.loads(body.decode("utf-8") or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HTTPAnswer(
                400, f"request body is not JSON: {exc}") from None

    def _backpressure(self, exc: BackpressureError) -> _HTTPAnswer:
        return _HTTPAnswer(
            429, str(exc),
            headers=[(b"Retry-After",
                      str(exc.retry_after).encode("latin-1"))])

    async def _submit(self, headers, body, send) -> None:
        tenant = self._resolve_tenant(headers)
        spec = self._parse_spec(self._parse_body_json(body))
        try:
            job_id, created = await asyncio.to_thread(
                self.service.submit, spec, tenant)
        except BackpressureError as exc:
            raise self._backpressure(exc) from None
        state = await asyncio.to_thread(
            lambda: self.service.store.status(job_id).get("state"))
        await self._send_json(send, 201 if created else 200, {
            "id": job_id, "state": state, "created": created,
        })

    async def _submit_batch(self, headers, body, send) -> None:
        tenant = self._resolve_tenant(headers)
        doc = self._parse_body_json(body)
        if not isinstance(doc, dict) or not isinstance(
                doc.get("specs"), list):
            raise _HTTPAnswer(400,
                              "request body is not {'specs': [...]}")
        if not doc["specs"]:
            raise _HTTPAnswer(400, "'specs' must not be empty")
        specs = []
        for i, spec_doc in enumerate(doc["specs"]):
            try:
                specs.append(spec_from_doc(spec_doc))
            except (JobSpecError, ValueError) as exc:
                raise _HTTPAnswer(
                    400, f"invalid job spec at index {i}: {exc}"
                ) from None
        try:
            rows = await asyncio.to_thread(
                self.service.submit_batch, specs, tenant)
        except BackpressureError as exc:
            raise self._backpressure(exc) from None
        status = 201 if any(r["created"] for r in rows) else 200
        await self._send_json(send, status, {"jobs": rows})

    async def _submit_sweep(self, headers, body, send) -> None:
        from ..sweep import SweepSpecError, sweep_from_doc

        tenant = self._resolve_tenant(headers)
        try:
            spec = sweep_from_doc(self._parse_body_json(body))
        except (SweepSpecError, ValueError) as exc:
            raise _HTTPAnswer(
                400, f"invalid sweep grid: {exc}") from None
        try:
            sweep_id, created = await asyncio.to_thread(
                self.service.sweeps.submit, spec, tenant)
        except BackpressureError as exc:
            raise self._backpressure(exc) from None
        view = await asyncio.to_thread(
            self.service.sweeps.sweep_view, sweep_id)
        await self._send_json(send, 201 if created else 200, {
            "id": sweep_id, "state": view["state"],
            "cells": view["cells"], "created": created,
        })

    # -- listings and views ---------------------------------------------- #

    @staticmethod
    def _query_int(query, name: str) -> Optional[int]:
        raw = query.get(name, [None])[0]
        if raw is None:
            return None
        try:
            value = int(raw)
            if value < 0:
                raise ValueError
            return value
        except ValueError:
            raise _HTTPAnswer(
                400, f"{name!r} must be a non-negative integer") from None

    async def _list_jobs(self, query, send) -> None:
        state = query.get("state", [None])[0]
        if state is not None and state not in (
                "queued", "running", "succeeded", "failed"):
            raise _HTTPAnswer(400, f"unknown state filter {state!r}")
        rows = await asyncio.to_thread(
            self.service.list_view,
            state,
            query.get("tenant", [None])[0],
            self._query_int(query, "limit"),
            self._query_int(query, "offset") or 0,
        )
        await self._send_json(send, 200, {"jobs": rows})

    async def _job_artifact(self, job_id: str, leaf: str, send) -> None:
        store = self.service.store
        if leaf not in ("report", "result"):
            raise StoreError(f"unknown job resource {leaf!r}")
        doc = await asyncio.to_thread(store.load_report_doc, job_id)
        if doc is None:
            has = await asyncio.to_thread(store.has_job, job_id)
            if not has:
                raise StoreError(f"unknown job {job_id!r}")
            state = (await asyncio.to_thread(store.status, job_id))["state"]
            noun = "report" if leaf == "report" else "result"
            raise _HTTPAnswer(
                404, f"job {job_id} has no {noun} yet (state: {state})")
        await self._send_json(
            send, 200, doc if leaf == "report" else doc["circuit"])

    async def _metrics(self, headers, send) -> None:
        registry = self.service.metrics
        if _accepts_prometheus(headers.get("accept")):
            body = render_prometheus(registry).encode("utf-8")
            await self._send_raw(send, 200, body,
                                 PROMETHEUS_CONTENT_TYPE)
        else:
            await self._send_json(send, 200, registry.snapshot())

    # -- events: long-poll and SSE --------------------------------------- #

    def _event_cursor(self, query) -> Tuple[int, float]:
        try:
            after = int(query.get("after", ["0"])[0])
            wait = min(float(query.get("wait", ["0"])[0]), MAX_EVENT_WAIT)
        except ValueError:
            raise _HTTPAnswer(
                400, "'after' must be an int, 'wait' a float") from None
        return after, wait

    async def _events(self, job_id: str, query, send) -> None:
        after, wait = self._event_cursor(query)
        store = self.service.store
        deadline = time.monotonic() + wait
        while True:
            events = await asyncio.to_thread(store.events, job_id, after)
            state = (await asyncio.to_thread(store.status, job_id)) \
                .get("state")
            remaining = deadline - time.monotonic()
            if events or state in TERMINAL_STATES or remaining <= 0:
                break
            await self.broker.wait(job_id, min(remaining, 1.0))
        next_after = events[-1]["seq"] if events else after
        await self._send_json(send, 200, {
            "events": events, "next_after": next_after, "state": state,
        })

    async def _events_stream(self, job_id: str, query, send) -> None:
        after, _ = self._event_cursor(query)
        store = self.service.store
        metrics = self.service.metrics
        # Existence check before committing to a stream (404 must be a
        # clean JSON answer, not a broken stream).
        if not await asyncio.to_thread(store.has_job, job_id):
            raise StoreError(f"unknown job {job_id!r}")
        await send({"type": "http.response.start", "status": 200,
                    "headers": [
                        (b"Content-Type", b"text/event-stream"),
                        (b"Cache-Control", b"no-cache"),
                        (b"X-Repro-Api-Version",
                         API_VERSION.encode("latin-1")),
                    ]})
        metrics.inc("service_event_streams_total")

        async def emit(chunk: str, more: bool = True) -> None:
            await send({"type": "http.response.body",
                        "body": chunk.encode("utf-8"), "more_body": more})

        while True:
            events = await asyncio.to_thread(store.events, job_id, after)
            for event in events:
                after = event["seq"]
                payload = json.dumps(event, sort_keys=True)
                await emit(f"id: {event['seq']}\n"
                           f"event: {event.get('type', 'event')}\n"
                           f"data: {payload}\n\n")
                metrics.inc("service_events_streamed_total")
            state = (await asyncio.to_thread(store.status, job_id)) \
                .get("state")
            if state in TERMINAL_STATES:
                # One final, explicitly-typed record so consumers can
                # stop without parsing job semantics, then EOF.
                await emit("event: end\n"
                           f"data: {json.dumps({'state': state})}\n\n",
                           more=False)
                return
            changed = await self.broker.wait(job_id, self.sse_keepalive)
            if not changed:
                await emit(": keepalive\n\n")  # also probes the client

    # -- sweeps ----------------------------------------------------------- #

    async def _sweep_report(self, sweep_id: str, send) -> None:
        sweeps = self.service.sweeps
        doc = await asyncio.to_thread(sweeps.load_report_doc, sweep_id)
        if doc is None:
            view = await asyncio.to_thread(sweeps.sweep_view, sweep_id)
            raise _HTTPAnswer(
                404, f"sweep {sweep_id} has no report yet "
                     f"(state: {view['state']})")
        await self._send_json(send, 200, doc)

    async def _sweep_state(self, sweep_id: str) -> str:
        view = await asyncio.to_thread(
            self.service.sweeps.sweep_view, sweep_id)
        return view["state"]

    async def _sweep_events(self, sweep_id: str, query, send) -> None:
        after, wait = self._event_cursor(query)
        sweeps = self.service.sweeps
        deadline = time.monotonic() + wait
        while True:
            events = await asyncio.to_thread(sweeps.events, sweep_id,
                                             after)
            state = await self._sweep_state(sweep_id)
            remaining = deadline - time.monotonic()
            if events or state in TERMINAL_STATES or remaining <= 0:
                break
            await self.broker.wait("sweep:" + sweep_id,
                                   min(remaining, 1.0))
        next_after = events[-1]["seq"] if events else after
        await self._send_json(send, 200, {
            "events": events, "next_after": next_after, "state": state,
        })

    async def _sweep_events_stream(self, sweep_id: str, query,
                                   send) -> None:
        after, _ = self._event_cursor(query)
        sweeps = self.service.sweeps
        metrics = self.service.metrics
        if not await asyncio.to_thread(sweeps.has_sweep, sweep_id):
            raise StoreError(f"unknown sweep {sweep_id!r}")
        await send({"type": "http.response.start", "status": 200,
                    "headers": [
                        (b"Content-Type", b"text/event-stream"),
                        (b"Cache-Control", b"no-cache"),
                        (b"X-Repro-Api-Version",
                         API_VERSION.encode("latin-1")),
                    ]})
        metrics.inc("service_event_streams_total")

        async def emit(chunk: str, more: bool = True) -> None:
            await send({"type": "http.response.body",
                        "body": chunk.encode("utf-8"), "more_body": more})

        while True:
            events = await asyncio.to_thread(sweeps.events, sweep_id,
                                             after)
            for event in events:
                after = event["seq"]
                payload = json.dumps(event, sort_keys=True)
                await emit(f"id: {event['seq']}\n"
                           f"event: {event.get('type', 'event')}\n"
                           f"data: {payload}\n\n")
                metrics.inc("service_events_streamed_total")
            state = await self._sweep_state(sweep_id)
            if state in TERMINAL_STATES:
                await emit("event: end\n"
                           f"data: {json.dumps({'state': state})}\n\n",
                           more=False)
                return
            changed = await self.broker.wait("sweep:" + sweep_id,
                                             self.sse_keepalive)
            if not changed:
                await emit(": keepalive\n\n")

    # -- fabric tasks and memo ------------------------------------------- #

    async def _run_tasks(self, body, send) -> None:
        if self.service.task_fabric is None:
            raise _HTTPAnswer(404, "task execution not enabled "
                                   "(start with serve --task-workers N)")
        doc = self._parse_body_json(body)
        if not isinstance(doc, dict) or not isinstance(
                doc.get("tasks"), list):
            raise _HTTPAnswer(400, "request body is not {'tasks': [...]}")
        try:
            rows = await asyncio.to_thread(
                self.service.run_tasks, doc["tasks"])
        except ValueError as exc:
            raise _HTTPAnswer(
                400, f"invalid task document: {exc}") from None
        await self._send_json(send, 200, {"results": rows})

    def _memo_store(self):
        store = self.service.memo_store
        if store is None:
            raise _HTTPAnswer(
                404, "memo not enabled (start with serve --memo DIR)")
        return store

    async def _get_memo(self, class_id: str, send) -> None:
        store = self._memo_store()
        doc = await asyncio.to_thread(store.load_entry_doc, class_id)
        if doc is None:
            raise _HTTPAnswer(404, f"no memo entry {class_id!r}")
        await self._send_json(send, 200, doc)

    async def _put_memo(self, class_id: str, body, send) -> None:
        store = self._memo_store()
        doc = self._parse_body_json(body)
        try:
            merged = await asyncio.to_thread(
                store.merge_entry_doc, class_id, doc)
        except (ValueError, KeyError, TypeError) as exc:
            raise _HTTPAnswer(400, f"invalid memo entry: {exc}") from None
        await self._send_json(send, 200, {"merged": merged})

    # -- response plumbing ----------------------------------------------- #

    async def _send_raw(self, send, status: int, body: bytes,
                        content_type: str,
                        extra: Optional[List[Tuple[bytes, bytes]]] = None,
                        ) -> None:
        headers = [
            (b"Content-Type", content_type.encode("latin-1")),
            (b"Content-Length", str(len(body)).encode("latin-1")),
            (b"X-Repro-Api-Version", API_VERSION.encode("latin-1")),
        ]
        headers.extend(extra or [])
        await send({"type": "http.response.start", "status": status,
                    "headers": headers})
        await send({"type": "http.response.body", "body": body,
                    "more_body": False})

    async def _send_json(self, send, status: int, doc,
                         extra: Optional[List[Tuple[bytes, bytes]]] = None,
                         ) -> None:
        body = json.dumps(doc, sort_keys=True).encode("utf-8")
        await self._send_raw(send, status, body, "application/json",
                             extra=extra)


class ServiceServer:
    """The default service front end: asyncio HTTP on a hosted loop.

    Owns a :class:`ResynthesisService` (scheduler + supervisors on
    threads, exactly as before) and serves :class:`ServiceApp` through
    :class:`~repro.service.aserver.AsgiHttpServer` on a dedicated event
    -loop thread — so the synchronous ``start()`` / ``stop()`` /
    context-manager surface every existing caller uses is unchanged,
    while requests ride coroutines instead of per-request OS threads.
    """

    def __init__(
        self,
        store: ArtifactStore,
        host: str = "127.0.0.1",
        port: int = 0,
        config: Optional[SupervisorConfig] = None,
        max_workers: int = 2,
        verbose: bool = False,
        task_workers: int = 0,
        tenants: Optional[TenantRegistry] = None,
        queue_limit: int = 0,
        sse_keepalive: float = SSE_KEEPALIVE_SECONDS,
        tenants_file: Optional[str] = None,
    ) -> None:
        self.service = ResynthesisService(
            store, config=config, max_workers=max_workers,
            task_workers=task_workers, tenants=tenants,
            queue_limit=queue_limit, tenants_file=tenants_file,
        )
        self.app = ServiceApp(self.service, verbose=verbose,
                              sse_keepalive=sse_keepalive)
        self._host = host
        self._port = port
        self._bound: Optional[Tuple[str, int]] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    # -- addresses ------------------------------------------------------- #

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) — concrete even when 0 was asked."""
        if self._bound is None:
            raise RuntimeError("server is not started")
        return self._bound

    @property
    def url(self) -> str:
        """Base URL of the running server."""
        host, port = self.address
        return f"http://{host}:{port}"

    # -- lifecycle ------------------------------------------------------- #

    def start(self) -> None:
        """Start the scheduler and the event-loop thread; returns once
        the socket is bound (raises if binding failed)."""
        if self._thread is not None and self._thread.is_alive():
            return
        self.service.start()
        self._ready.clear()
        self._startup_error = None
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-service-asgi", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=15.0):
            raise RuntimeError("async front end failed to start in time")
        if self._startup_error is not None:
            raise self._startup_error

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
        finally:
            try:
                pending = asyncio.all_tasks(loop)
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(asyncio.gather(
                        *pending, return_exceptions=True))
            finally:
                asyncio.set_event_loop(None)
                loop.close()
                self._loop = None

    async def _main(self) -> None:
        from .aserver import AsgiHttpServer

        self._shutdown = asyncio.Event()
        server = AsgiHttpServer(self.app, self._host, self._port)
        try:
            await server.start()
        except BaseException as exc:  # bind failure -> surface in start()
            self._startup_error = exc
            self._ready.set()
            return
        self._bound = server.address
        self.app.startup()
        self._ready.set()
        try:
            await self._shutdown.wait()
        finally:
            await self.app.shutdown()
            await server.close()

    def stop(self, timeout: float = 10.0) -> None:
        """Stop the HTTP front end, then the service (workers halted,
        in-flight jobs re-queued with their checkpoints intact)."""
        loop = self._loop
        if loop is not None and self._shutdown is not None:
            try:
                loop.call_soon_threadsafe(self._shutdown.set)
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None
        self.service.stop(timeout=timeout)

    def serve_forever(self) -> None:
        """Foreground serving (the CLI's ``serve`` path); Ctrl-C stops."""
        self.start()
        try:
            while True:
                time.sleep(0.2)
        finally:
            self.stop()

    def __enter__(self) -> "ServiceServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
