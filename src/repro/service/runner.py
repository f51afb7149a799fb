"""Job execution: run a spec against the store, checkpointing every pass.

:func:`run_job` is the single code path for executing a job — the worker
subprocess calls it, tests call it in-process, and the determinism
contract holds either way: a job that is interrupted after any pass and
re-run resumes from the latest stored checkpoint and produces a report
and result netlist bit-identical to an uninterrupted run (pinned by the
resume legs of the ``execution`` differential oracle and
``tests/resynth/test_checkpoint.py``).
"""

from __future__ import annotations

from typing import Callable, Optional

from ..fabric import ProcessFabric
from ..resynth import combined_procedure, procedure2, procedure3
from ..resynth.procedures import PassCheckpoint, ResynthesisReport
from .jobspec import JobSpec, resolve_circuit
from .store import ArtifactStore


def procedure_call(spec: JobSpec):
    """The procedure callable for *spec*, with spec knobs bound.

    Shared by :func:`run_job` and the fabric's ``resynth_cell`` task
    kind (:mod:`repro.fabric.tasks`), so a sweep cell executed on a
    remote fleet member runs through exactly the code path a standalone
    job does — the basis of the cell/job bit-identity contract.
    """
    common = dict(
        k=spec.k,
        perm_budget=spec.perm_budget,
        seed=spec.seed,
        max_passes=spec.max_passes,
        verify_patterns=spec.verify_patterns,
    )
    if spec.procedure == "procedure2":
        return lambda circuit, **kw: procedure2(circuit, **common, **kw)
    if spec.procedure == "procedure3":
        return lambda circuit, **kw: procedure3(circuit, **common, **kw)
    if spec.procedure == "combined":
        return lambda circuit, **kw: combined_procedure(
            circuit, gate_weight=spec.gate_weight, **common, **kw
        )
    raise ValueError(f"unknown procedure {spec.procedure!r}")


def run_job(
    store: ArtifactStore,
    job_id: str,
    on_pass: Optional[Callable[[PassCheckpoint], None]] = None,
    progress: Optional[Callable[[], None]] = None,
    memo=None,
    fabric=None,
) -> ResynthesisReport:
    """Execute the job, resuming from its latest checkpoint if one exists.

    Per pass: the checkpoint is persisted *first*, then a ``pass`` event
    is appended — so an observed event always implies a resumable
    checkpoint.  ``on_pass`` (tests: fault injection; callers: extra
    bookkeeping) runs after both; ``progress`` (the worker's heartbeat)
    runs last.  The final report is written before the ``completed``
    event for the same reason.

    *memo* — a :class:`repro.memo.MemoStore` or a store directory path —
    is handed to the procedure as the persistent identification cache.
    It is deliberately not part of the spec (and so not of the job id):
    it cannot change the report, only the wall clock.

    *fabric* — an optional :class:`repro.fabric.Fabric` — routes the
    job's candidate evaluation (e.g. to a remote worker fleet, letting
    one service job fan its identification round across hosts).  Like
    the memo, it is execution placement, not job identity: reports are
    bit-identical on any backend, so it stays out of the spec.  Without
    one, a spec with ``jobs > 1`` runs on a local process fabric of that
    many workers, created for this call and closed before it returns.
    """
    spec = store.load_spec(job_id)
    circuit = resolve_circuit(spec)
    resume = store.latest_checkpoint(job_id)
    if resume is not None:
        store.append_event(
            job_id, "resumed",
            pass_no=resume.pass_no, done=resume.done,
        )

    def checkpoint_hook(ckpt: PassCheckpoint) -> None:
        n_bytes = store.write_checkpoint(job_id, ckpt)
        store.append_event(
            job_id, "pass",
            pass_no=ckpt.pass_no,
            replacements=ckpt.replacements,
            gates=ckpt.gates_now,
            paths=ckpt.paths_now,
            seconds=round(ckpt.pass_seconds[-1], 6),
            checkpoint_bytes=n_bytes,
            done=ckpt.done,
        )
        if on_pass is not None:
            on_pass(ckpt)
        if progress is not None:
            progress()

    owned = None
    if fabric is None and spec.jobs > 1:
        fabric = owned = ProcessFabric(spec.jobs)
    try:
        report = procedure_call(spec)(circuit, on_pass=checkpoint_hook,
                                      resume=resume, memo=memo,
                                      fabric=fabric)
    finally:
        if owned is not None:
            owned.close()
    store.write_report(job_id, report)
    store.append_event(
        job_id, "completed",
        passes=report.passes,
        replacements=report.replacements,
        gates_before=report.gates_before,
        gates_after=report.gates_after,
        paths_before=report.paths_before,
        paths_after=report.paths_after,
        total_seconds=round(report.total_seconds, 6),
    )
    return report
