"""Checkpointable resynthesis job service (``repro.service``).

Turns one-shot resynthesis calls into supervised, resumable jobs behind
a stdlib-only HTTP JSON API: a content-addressed job model
(:mod:`jobspec`), a file-backed artifact store holding specs, pass-level
checkpoints, progress events and reports (:mod:`store`), a runner whose
interrupted jobs resume bit-identically (:mod:`runner`), worker
subprocess supervision with heartbeats and bounded retries
(:mod:`supervisor`), and the HTTP service itself (:mod:`api`) with its
client (:mod:`client`).  Metrics go through :class:`repro.obs.Registry`
directly.

The HTTP front end is the asyncio one (:mod:`asgi`, served by the
stdlib ASGI host in :mod:`aserver`): long-poll and SSE event streaming
on connection-cheap coroutines, batch submit, per-tenant API-key auth
with quotas and priorities (:mod:`tenants`), bounded-queue backpressure
(429 + ``Retry-After``), and listings answered from a SQLite metadata
index (:mod:`index`) rebuilt from the store at startup.

Entry points: ``repro-resynth serve`` / ``submit`` / ``jobs`` /
``result`` on the CLI, :class:`ServiceServer` in-process.  The full
lifecycle, checkpoint format and determinism contract are documented in
``docs/SERVICE.md``; deployment and operations in ``docs/OPERATIONS.md``.
"""

from .api import ResynthesisService
from .asgi import API_VERSION, ServiceApp, ServiceServer
from .client import ServiceAPIError, ServiceClient, ServiceConnectionError
from .index import JobIndex, default_index_path
from .jobspec import (
    JobSpec,
    JobSpecError,
    PROCEDURES,
    resolve_circuit,
    spec_from_doc,
    spec_from_json,
)
from .runner import run_job
from .store import ArtifactStore, JOB_STATES, StoreError, TERMINAL_STATES
from .sweeps import SweepCoordinator
from .supervisor import (
    JobOutcome,
    SupervisorConfig,
    WorkerSupervisor,
    default_worker_command,
)
from .tenants import (
    AuthError,
    BackpressureError,
    PUBLIC_TENANT,
    Tenant,
    TenantRegistry,
)

__all__ = [
    "API_VERSION",
    "ArtifactStore",
    "AuthError",
    "BackpressureError",
    "JOB_STATES",
    "JobIndex",
    "JobOutcome",
    "JobSpec",
    "JobSpecError",
    "PROCEDURES",
    "PUBLIC_TENANT",
    "ResynthesisService",
    "ServiceAPIError",
    "ServiceApp",
    "ServiceClient",
    "ServiceConnectionError",
    "ServiceServer",
    "StoreError",
    "SupervisorConfig",
    "SweepCoordinator",
    "TERMINAL_STATES",
    "Tenant",
    "TenantRegistry",
    "WorkerSupervisor",
    "default_index_path",
    "default_worker_command",
    "resolve_circuit",
    "run_job",
    "spec_from_doc",
    "spec_from_json",
]
